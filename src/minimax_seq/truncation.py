"""Truncated series estimation and its exact worst-case risk.

The estimator keeps the first D noisy coefficients and zeroes the rest.
Its worst-case squared risk over the ellipsoid has the closed form

    Q^2 / a_{D+1}^2  +  sigma^2 * sum_{j<=D} 1/s_j^2

(squared bias plus accumulated noise variance), attained at the spike
element with theta_{D+1} = Q/a_{D+1}.  Every sum of noise terms is the
exactly rounded value of its exact sum (math.fsum, or the running sum of
_exact_prefix_sums, which reads the same bits), so results do not depend
on summation order and are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .problem import (
    SaturationWarning,
    SequenceProblem,
    SingularSpectrum,
    ValidationError,
    ensure_usable,
)

__all__ = [
    "RiskDecomposition",
    "rho_squared",
    "truncation_risk",
    "optimal_truncation",
    "least_favorable",
    "subset_truncation_risk",
    "estimate",
]


@dataclass(frozen=True)
class RiskDecomposition:
    """Exact worst-case risk of truncation at ``level`` coefficients."""

    level: int
    bias_sq: float
    variance: float
    total: float

    @property
    def rmse(self) -> float:
        return math.sqrt(self.total)


def _checked_vector(x, n: int) -> np.ndarray:
    """x as a float64 array of shape (n,) with finite entries."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (n,):
        length = arr.size if arr.ndim == 1 else arr.shape
        raise ValidationError(f"element length {length} does not match N = {n}")
    if not np.isfinite(arr).all():
        raise ValidationError("element coefficients must be finite")
    return arr


def rho_squared(spectrum: SingularSpectrum, n: int) -> float:
    """Accumulated noise amplification sum_{j=1..n} 1/s_j^2 (0 for n = 0).

    A sum that overflows, or holds an s_j^2 that underflows, reads as inf,
    as in _exact_prefix_sums.
    """
    if not 0 <= n <= spectrum.n_max:
        raise ValidationError(f"n = {n} out of range 0..{spectrum.n_max}")
    s = spectrum.values
    with np.errstate(divide="ignore", over="ignore"):
        try:
            return math.fsum(1.0 / s[j] ** 2 for j in range(n))
        except OverflowError:
            return math.inf


def truncation_risk(problem: SequenceProblem, D: int) -> RiskDecomposition:
    """Exact worst-case squared risk of truncating at level D (0 <= D <= N-1)."""
    ensure_usable(problem)
    n = problem.n
    if not 0 <= D <= n - 1:
        raise ValidationError(
            f"level D = {D} out of range 0..{n - 1} (a_(D+1) must exist)")
    a = problem.ellipsoid.weights
    q = problem.ellipsoid.radius
    with np.errstate(over="ignore"):  # a_(D+1)^2 = inf gives bias 0
        bias_sq = q ** 2 / a[D] ** 2
    sig2 = problem.sigma ** 2
    variance = sig2 * rho_squared(problem.spectrum, D) if sig2 else 0.0
    return RiskDecomposition(D, bias_sq, variance, bias_sq + variance)


# Unfolded terms a running prefix sum holds before it folds them into an
# exact expansion; a readout is one math.fsum over the expansion and them.
_FOLD = 32


def _exact_prefix_sums(terms):
    """Yield 0.0, then the exactly rounded sum of each prefix of ``terms``
    (non-negative floats): the k-th value is math.fsum(terms[:k]) bit for bit,
    at O(1) amortised cost per term instead of O(k).

    ``partials`` is an exact expansion of the terms folded so far (a few
    floats whose exact sum is theirs) followed by the unfolded tail.  Its
    exact sum is the exact prefix sum, and math.fsum rounds the exact sum of
    its input correctly (Shewchuk's partials), so one fsum over it reads the
    same bits as an fsum over the whole prefix.  Once _FOLD terms have been
    added since the last fold, the list is replaced by its own expansion:
    r_0 = fsum(list), then r_k = fsum(list + [-r_0, ..., -r_{k-1}]) until
    r_k == 0.  Each r_k is the rounded exact remainder, so r_0 + ... + r_{k-1}
    is the list's exact sum; each remainder is at most 2^-53 of the one
    before, so the expansion is short (usually 1-3 floats).

    A prefix that holds an infinite term, or whose fsum overflows, reads as
    inf: with no negative term, fsum overflows only once the exact sum has
    reached the overflow threshold (to within one rounding), and every later
    prefix is at least as large.
    """
    fsum, inf = math.fsum, math.inf
    total, partials, fold_at = 0.0, [], _FOLD
    yield total
    for term in terms:
        if total != inf:
            partials.append(term)
            try:
                total = fsum(partials)
            except OverflowError:
                total = inf
            if len(partials) >= fold_at and total != inf:
                expansion = [total]
                while remainder := fsum(partials + [-r for r in expansion]):
                    expansion.append(remainder)
                partials, fold_at = expansion, len(expansion) + _FOLD
        yield total


def _noise(sig2: float, values):
    """sig2 * v for each v in ``values``; exactly 0 when sig2 = 0, where an
    infinite v (a noise sum that overflows) would give 0 * inf = NaN."""
    return itertools.repeat(0.0) if sig2 == 0.0 else map(sig2.__mul__, values)


def _scan_levels(n: int, bias_sq, spreads, combine) -> tuple[int, float]:
    """Level D in 0..n-1 minimizing combine(bias_sq(D), spread_D), where
    spread_D is the D-th value drawn from the iterable ``spreads``; returns
    (D*, value).

    spreads must be non-decreasing and combine(b, v) >= v, so the scan stops
    once the spread alone exceeds the incumbent and draws no further value
    from spreads.  Ties go to the smaller level; bias_sq is evaluated only
    for levels reached.  The scans whose noise is a sum over the prefix draw
    it from _exact_prefix_sums, so a level costs O(1) amortised work and the
    result is the one an fsum over each whole prefix gives, bit for bit.
    A term that overflows, or divides by an s_j^2 that underflows, is inf;
    every lazy term is drawn inside this one errstate, so none warns.
    """
    best_d, best = 0, math.inf
    with np.errstate(divide="ignore", over="ignore"):
        for d, spread in zip(range(n), spreads):
            if spread > best:
                break
            value = combine(bias_sq(d), spread)
            if value < best:
                best_d, best = d, value
    return best_d, best


def optimal_truncation(problem: SequenceProblem) -> tuple[int, float]:
    """Best truncation level and the resulting error bound (RMS units).

    Scans D = 0..N-1 for the smallest total risk, breaking ties toward the
    smaller level, and stops early once the variance term alone exceeds the
    incumbent (the variance is non-decreasing in D).  Warns when the best
    level sits at the end of the finite range, which signals that N is too
    small to trust the minimum.
    """
    ensure_usable(problem)
    n = problem.n
    a = problem.ellipsoid.weights
    s = problem.spectrum.values
    q2 = problem.ellipsoid.radius ** 2
    sig2 = problem.sigma ** 2

    variances = _noise(sig2, _exact_prefix_sums(1.0 / x ** 2 for x in s))
    best_d, best_total = _scan_levels(
        n, lambda d: q2 / a[d] ** 2, variances, operator.add)
    if best_d == n - 1:
        warnings.warn(
            f"optimal level hit the end of the range (D* = N-1 = {best_d}); "
            "increase N to resolve the minimum", SaturationWarning, stacklevel=2)
    return best_d, math.sqrt(best_total)


def least_favorable(problem: SequenceProblem, D: int) -> np.ndarray:
    """Boundary spike theta_{D+1} = Q/a_{D+1} attaining the worst bias at
    level D, as a read-only array."""
    n = problem.n
    if not 0 <= D <= n - 1:
        raise ValidationError(f"level D = {D} out of range 0..{n - 1}")
    theta = np.zeros(n)
    with np.errstate(over="ignore"):  # an infinite spike is rejected below
        theta[D] = problem.ellipsoid.radius / problem.ellipsoid.weights[D]
    _checked_vector(theta, n)
    theta.flags.writeable = False
    return theta


def subset_truncation_risk(problem: SequenceProblem, P) -> float:
    """Worst-case squared risk of the estimator keeping the index set P.

    P uses 1-based indices within {1..N} and must leave the complement
    non-empty.  The risk is Q^2/a_k^2 + sigma^2 * sum_{j in P} 1/s_j^2 with
    k the smallest index outside P; it is never below the risk of the
    initial segment of the same size.
    """
    n = problem.n
    idx = sorted(set(int(j) for j in P))
    if idx and (idx[0] < 1 or idx[-1] > n):
        raise ValidationError(f"P must be a subset of 1..{n}")
    if len(idx) == n:
        raise ValidationError("P covers all indices; no bias coordinate remains")
    in_p = np.zeros(n, dtype=bool)
    for j in idx:
        in_p[j - 1] = True
    k = int(np.nonzero(~in_p)[0][0])  # 0-based position of min complement
    a = problem.ellipsoid.weights
    s = problem.spectrum.values
    bias_sq = problem.ellipsoid.radius ** 2 / a[k] ** 2
    sig2 = problem.sigma ** 2
    variance = sig2 * math.fsum(1.0 / s[j - 1] ** 2 for j in idx) if sig2 else 0.0
    return bias_sq + variance


def estimate(z, D: int) -> np.ndarray:
    """Keep the first D observed coefficients, zero the rest (read-only)."""
    n = len(z)
    if not 0 <= D <= n:
        raise ValidationError(f"level D = {D} out of range 0..{n}")
    fitted = np.zeros(n)
    fitted[:D] = z[:D]
    fitted.flags.writeable = False
    return fitted
