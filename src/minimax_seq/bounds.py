"""Two-sided minimax bounds via hyperrectangle water-filling.

The worst-case error of the best truncation estimator upper-bounds the
minimax error and exceeds it by at most the factor 2.2 (4.84 on squared
risk).  The computable half of that claim is a sandwich around the best
truncation risk e_T^2:

    J(r*)  <=  e_T^2  <=  2 * J(r*),

where J(r) = sum_i min{r_i, sigma^2/s_i^2} is the exact squared risk of
the best coordinate-subset estimator on the hyperrectangle {theta_i^2 <=
r_i} and r* maximizes J over the rectangles contained in the ellipsoid
(sum_i a_i^2 r_i <= Q^2).  J is concave and separable, so the maximizer
is found exactly by fractional water-filling: cap each coordinate at
c_i = sigma^2/s_i^2 (excess never raises J), then spend the budget Q^2 in
ascending order of the per-unit cost a_i^2, with at most one fractional
coordinate at the pivot.

Optimality is certified through the one-sided directional derivative of J
at r* toward a feasible r, which is non-positive at a true maximizer:

    sum_{i not in P} h_i - sum_{i in Q_eq} max(-h_i, 0),   h = r - r*,

with P = {i : r*_i >= c_i} (fully capped coordinates) and
Q_eq = {i : r*_i = c_i}.  The fractional pivot belongs to neither set.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .problem import (
    IndexFunction,
    SaturationWarning,
    SequenceProblem,
    SingularSpectrum,
    ValidationError,
    ellipsoid_from_source_set,
    ensure_usable,
)
from .truncation import _exact_prefix_sums, _noise, _scan_levels, optimal_truncation

__all__ = [
    "RMS_FACTOR",
    "SQUARED_FACTOR",
    "KnapsackSolution",
    "SandwichReport",
    "hyperrectangle_J",
    "maximize_J_over_ellipsoid",
    "gateaux_derivative_J",
    "sample_feasible_rectangles",
    "certify_maximizer",
    "minimax_sandwich",
    "source_set_bound",
]

# best-truncation error exceeds the minimax error by at most these factors
RMS_FACTOR = 2.2
SQUARED_FACTOR = 4.84

_REL_TOL = 1e-9


def _caps(spectrum: SingularSpectrum, sigma: float) -> np.ndarray:
    if sigma == 0.0:  # not 0/0 where s_i^2 underflows
        return np.zeros(spectrum.n_max)
    with np.errstate(divide="ignore", over="ignore"):  # an infinite cap is legal
        return (float(sigma) ** 2) / spectrum.values ** 2


def _budget(a2: np.ndarray, r: np.ndarray) -> float:
    """sum a_i^2 r_i over r_i > 0, so that inf * 0 adds no NaN; fsum skips
    +0.0 terms, so the bits are those of the full sum."""
    used = r > 0.0
    return math.fsum((a2[used] * r[used]).tolist())


@dataclass(frozen=True, eq=False)
class KnapsackSolution:
    """Exact maximizer of J over rectangles inside the ellipsoid.

    ``set_p`` and ``set_qeq`` hold 1-based indices; ``set_qeq`` collects the
    coordinates sitting exactly at their caps and is always a subset of
    ``set_p``.  ``problem`` is retained for feasibility checks downstream.
    """

    r_star: np.ndarray
    value: float
    set_p: frozenset
    set_qeq: frozenset
    budget_used: float
    problem: SequenceProblem


@dataclass(frozen=True)
class SandwichReport:
    """Certified interval for the minimax error at one noise level."""

    sigma: float
    d_star: int
    upper: float
    lower: float
    j_star: float
    chain_ok: bool
    saturated: bool


def hyperrectangle_J(r, spectrum: SingularSpectrum, sigma: float) -> float:
    """J(r) = sum_i min{r_i, sigma^2/s_i^2}, the subset-estimator risk on
    the rectangle {theta_i^2 <= r_i}."""
    arr = np.asarray(r, dtype=np.float64)
    if arr.shape != (spectrum.n_max,):
        raise ValidationError(
            f"r has shape {arr.shape}, expected ({spectrum.n_max},)")
    if np.any(arr < 0.0):
        j = int(np.nonzero(arr < 0.0)[0][0])
        raise ValidationError(f"r_{j + 1} = {arr[j]!r} is negative")
    caps = _caps(spectrum, sigma)
    return math.fsum(np.minimum(arr, caps).tolist())


def maximize_J_over_ellipsoid(problem: SequenceProblem) -> KnapsackSolution:
    """Water-fill the budget Q^2 across capped coordinates to maximize J.

    Coordinates are filled to their caps c_i = sigma^2/s_i^2 in ascending
    order of a_i^2 (stable on ties); the first coordinate the budget cannot
    cover gets a fractional fill, later ones get zero.  The result is the
    exact maximizer of J over {r >= 0 : sum a_i^2 r_i <= Q^2}.
    """
    ensure_usable(problem)
    caps = _caps(problem.spectrum, problem.sigma)
    r = np.zeros(problem.n)
    remaining = problem.ellipsoid.radius ** 2
    # a_i^2 = inf (exponential classes) is legal and sorts last: each such
    # coordinate gets r_i = 0, also through a cost inf * 0 = NaN at a zero cap
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = problem.ellipsoid.weights ** 2
        for i in np.argsort(a2, kind="stable"):
            cost = a2[i] * caps[i]
            if cost <= remaining:
                r[i] = caps[i]
                remaining -= cost
            elif remaining > 0.0:
                r[i] = remaining / a2[i]
                remaining = 0.0
            else:
                break

    value = math.fsum(np.minimum(r, caps).tolist())
    budget_used = _budget(a2, r)
    at_cap = r == caps
    set_p = frozenset(int(i) + 1 for i in np.nonzero(r >= caps)[0])
    set_qeq = frozenset(int(i) + 1 for i in np.nonzero(at_cap)[0])
    r.flags.writeable = False
    return KnapsackSolution(r, value, set_p, set_qeq, budget_used, problem)


def gateaux_derivative_J(solution: KnapsackSolution, r) -> float:
    """One-sided derivative of J at r* toward the feasible point r.

    Non-positive (up to rounding) for every feasible r exactly when r* is
    a maximizer, so this is the optimality certificate.
    """
    arr = np.asarray(r, dtype=np.float64)
    n = len(solution.r_star)
    if arr.shape != (n,):
        raise ValidationError(f"r has shape {arr.shape}, expected ({n},)")
    if np.any(arr < 0.0):
        raise ValidationError("r must be non-negative")
    q2 = solution.problem.ellipsoid.radius ** 2
    with np.errstate(over="ignore"):
        budget = _budget(solution.problem.ellipsoid.weights ** 2, arr)
    if budget > q2 * (1.0 + _REL_TOL):
        raise ValidationError(
            f"r infeasible: sum a_i^2 r_i = {budget!r} exceeds Q^2 = {q2!r}")

    h = arr - solution.r_star
    outside_p, in_qeq = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    outside_p[np.fromiter(solution.set_p, np.intp, len(solution.set_p)) - 1] = False
    in_qeq[np.fromiter(solution.set_qeq, np.intp, len(solution.set_qeq)) - 1] = True
    return (math.fsum(h[outside_p].tolist())
            - math.fsum(np.maximum(-h[in_qeq], 0.0).tolist()))


def sample_feasible_rectangles(problem: SequenceProblem, count: int,
                               seed: int) -> np.ndarray:
    """Draw ``count`` random feasible rectangles (rows r with
    sum a_i^2 r_i <= Q^2), reproducibly from a counter-based stream."""
    gen = np.random.Generator(np.random.Philox(key=np.array(
        [np.uint64(seed), np.uint64(0x666561)], dtype=np.uint64)))
    q2 = problem.ellipsoid.radius ** 2
    d = gen.uniform(0.0, 1.0, size=(count, problem.n))
    with np.errstate(divide="ignore", over="ignore"):
        a2 = problem.ellipsoid.weights ** 2
        scale = gen.uniform(0.0, 1.0, size=count) * q2 / (d @ a2)
    return d * scale[:, None]


def certify_maximizer(solution: KnapsackSolution, count: int = 1000,
                      seed: int = 0) -> float:
    """Largest directional derivative over ``count`` sampled feasible
    directions; at a true maximizer this stays at or below rounding noise."""
    if count < 1:
        raise ValidationError(f"certificate needs at least 1 direction, got {count!r}")
    directions = sample_feasible_rectangles(solution.problem, count, seed)
    return max(gateaux_derivative_J(solution, row) for row in directions)


def minimax_sandwich(problem: SequenceProblem) -> SandwichReport:
    """Certified two-sided interval [upper/2.2, upper] for the minimax error.

    ``upper`` is the best truncation bound (RMS); ``chain_ok`` confirms the
    computable chain J(r*) <= upper^2 <= 2 J(r*) within relative slack 1e-9.
    When the budget is not exhausted by the water-filling (every coordinate
    capped), the finite window is too small for the rectangle bound: a
    saturation warning is issued and ``saturated`` is set.
    """
    d_star, upper = optimal_truncation(problem)
    solution = maximize_J_over_ellipsoid(problem)
    j_star = solution.value
    saturated = len(solution.set_p) == problem.n and problem.sigma > 0.0
    if saturated:
        warnings.warn(
            "water-filling capped every coordinate; the rectangle lower bound "
            "needs a larger N", SaturationWarning, stacklevel=2)
    u2 = upper ** 2
    chain_ok = (u2 >= j_star * (1.0 - _REL_TOL)
                and u2 <= 2.0 * j_star * (1.0 + _REL_TOL))
    return SandwichReport(problem.sigma, d_star, upper, upper / RMS_FACTOR,
                          j_star, chain_ok, saturated)


def source_set_bound(phi: IndexFunction, spectrum: SingularSpectrum,
                     sigma: float) -> tuple[int, float, float]:
    """Minimax bound for source-set smoothness, in squared units.

    Returns (D*, bound_sq, bound_sq / 4.84) where bound_sq minimizes
    phi^2(s_{D+1}^2) + sigma^2 * rho_D^2 over D.  The same value must come
    out of the ellipsoid route with weights 1/phi(s_j^2) and Q = 1; the two
    paths are cross-checked here.
    """
    n = spectrum.n_max
    s = spectrum.values
    sig2 = float(sigma) ** 2

    variances = _noise(sig2, _exact_prefix_sums(1.0 / x ** 2 for x in s))
    best_d, best = _scan_levels(
        n, lambda d: phi(float(s[d] ** 2)) ** 2, variances, operator.add)
    if best_d == n - 1:
        warnings.warn(
            f"source-set optimum hit the end of the range (D* = {best_d})",
            SaturationWarning, stacklevel=2)

    ellipsoid = ellipsoid_from_source_set(phi, spectrum)
    problem = SequenceProblem(spectrum, ellipsoid, sigma, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        _, rms = optimal_truncation(problem)
    if not math.isclose(rms ** 2, best, rel_tol=1e-12, abs_tol=1e-300):
        raise AssertionError(
            f"source-set and ellipsoid routes disagree: {best!r} vs {rms ** 2!r}")
    return best_d, best, best / SQUARED_FACTOR
