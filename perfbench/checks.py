"""Correctness checks that the benchmark applies to every op.

Each check returns a list of error strings; an op whose checks return any
error counts as failed.  The reference values here are computed by the
benchmark itself from the problem parameters, not by the library under
test, so a faster library that changes a result is caught.
"""

from __future__ import annotations

import hashlib
import math
import statistics

import numpy as np

# relative slack of the computable sandwich chain, as stated by the library
CHAIN_SLACK = 1e-9
# closed forms are exactly rounded sums; allow a few ulps of reordering
REL = 1e-12
RMS_FACTOR = 2.2
# |mean - closed| / stderr above this fails.  The per-op tail probability of
# a correct estimator is below 1e-8 even for the skewed one-coordinate
# chi-square case (Edgeworth correction at R >= 300), so a run of at most
# ~1000 Monte Carlo checks fails by chance with probability below 1e-5.
Z_BOUND = 6.5


class Model:
    """Singular values and ellipsoid weights of one problem, built here."""

    def __init__(self, tag: str, p: float, kappa: float, sigma: float,
                 n: int, q: float = 1.0) -> None:
        j = np.arange(1, n + 1, dtype=np.float64)
        self.s = j ** (-float(p)) if tag[0] == "p" else np.exp(-float(p) * j)
        self.a = j ** float(kappa) if tag[1] == "p" else np.exp(float(kappa) * j)
        self.sigma = float(sigma)
        self.q = float(q)
        self.n = int(n)

    def risk(self, d: int) -> tuple[float, float, float]:
        """Exact (bias^2, variance, total) of truncation at level d."""
        bias = self.q ** 2 / self.a[d] ** 2
        variance = self.sigma ** 2 * math.fsum(1.0 / self.s[j] ** 2 for j in range(d))
        return float(bias), float(variance), float(bias + variance)

    def best_level(self) -> tuple[int, float]:
        """argmin over d of the exact risk (ties to the smaller d), and its total.

        A cumulative-sum curve locates the candidates; only those within
        1e-9 of the approximate minimum are evaluated exactly.
        """
        inv = 1.0 / self.s ** 2
        variance = self.sigma ** 2 * np.concatenate(([0.0], np.cumsum(inv[:-1])))
        approx = self.q ** 2 / self.a ** 2 + variance
        cands = np.nonzero(approx <= approx.min() * (1.0 + 1e-9))[0]
        total, d = min((self.risk(int(d))[2], int(d)) for d in cands)
        return d, total

    def fully_capped(self) -> bool:
        """True when water-filling can fill every coordinate to its cap."""
        caps = self.sigma ** 2 / self.s ** 2
        return bool(math.fsum((self.a ** 2 * caps).tolist()) <= self.q ** 2)


def close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=REL, abs_tol=0.0)


def chain_holds(upper: float, j_star: float) -> bool:
    """J* <= upper^2 <= 2 J* within relative slack 1e-9."""
    u2 = upper * upper
    return j_star * (1.0 - CHAIN_SLACK) <= u2 <= 2.0 * j_star * (1.0 + CHAIN_SLACK)


def sandwich_errors(upper: float, lower: float, j_star: float) -> list[str]:
    """The chain holds and lower = upper / 2.2."""
    errors = []
    if not chain_holds(upper, j_star):
        errors.append(f"sandwich chain broken: J*={j_star!r} upper^2={upper * upper!r}")
    if lower != upper / RMS_FACTOR:
        errors.append(f"lower={lower!r} is not upper/2.2={upper / RMS_FACTOR!r}")
    return errors


def sweep_row_errors(sigma_grid, rows) -> list[str]:
    """Grid order, sandwich chain and testing_sq <= upper^2 on every row."""
    errors = []
    if [r[0] for r in rows] != list(sigma_grid):
        errors.append("sweep rows do not follow the requested sigma grid")
    for sigma, _d, upper, lower, j_star, testing_sq, deterministic_sq in rows:
        errors += sandwich_errors(upper, lower, j_star)
        if testing_sq > upper * upper * (1.0 + REL):
            errors.append(f"sigma={sigma!r}: testing_sq {testing_sq!r} > upper^2")
        if not deterministic_sq > 0.0:
            errors.append(f"sigma={sigma!r}: deterministic_sq {deterministic_sq!r}")
    return errors


def monte_carlo_errors(mse: float, stderr: float, closed: float) -> list[str]:
    """Statistical agreement of a Monte Carlo estimate with the closed form.

    With zero standard error (for example at D = 0, where the error is
    deterministic) the estimate must equal the closed form up to rounding.
    """
    if stderr == 0.0:
        if close(mse, closed):
            return []
        return [f"zero-stderr estimate {mse!r} differs from closed form {closed!r}"]
    z = (mse - closed) / stderr
    if abs(z) <= Z_BOUND:
        return []
    return [f"Monte Carlo z-score {z!r} exceeds {Z_BOUND}"]


def digest(*parts: bytes) -> str:
    """Short content digest of an op's deterministic output."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:8]


def percentile(values, q: int) -> float:
    """q-th percentile (1..99), interpolating linearly between ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
