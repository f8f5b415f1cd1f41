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
index order, since the weights are non-decreasing, with at most one
fractional coordinate at the pivot.

Optimality is certified through the one-sided directional derivative of J
at r* toward a feasible r, which is non-positive at a true maximizer:

    sum_{i not in P} h_i - sum_{i in Q_eq} max(-h_i, 0),   h = r - r*,

with P = {i : r*_i >= c_i} (fully capped coordinates) and
Q_eq = {i : r*_i = c_i}.  The fractional pivot belongs to neither set.
One kernel, _derivatives, serves gateaux_derivative_J and certify_maximizer.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .problem import (
    EllipsoidClass,
    IndexFunction,
    SaturationWarning,
    SequenceProblem,
    SingularSpectrum,
    ValidationError,
    _integer,
    _seed,
    ellipsoid_from_source_set,
    ensure_usable,
)
from .truncation import (
    _BLOCK_DOUBLES,
    _best_level,
    _column_fsums,
    _derived,
    _exact_sum,
    _variances,
    optimal_truncation,
)

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

_MAX_DIRECTION_VALUES = 1 << 25  # most certificate directions x N per draw


def _caps(spectrum: SingularSpectrum, sigma: float) -> np.ndarray:
    """sigma^2/s_i^2, with the squares s_i^2 computed once per spectrum."""
    if sigma == 0.0:  # not 0/0 where s_i^2 underflows
        return np.zeros(spectrum.n_max)
    with np.errstate(divide="ignore", over="ignore"):  # an infinite cap is legal
        return (float(sigma) ** 2) / _derived(spectrum, "_squares",
                                              lambda: spectrum.values ** 2)


def _weights_sq(ellipsoid: EllipsoidClass) -> np.ndarray:
    """a_i^2, inf where it overflows, computed once per class."""
    return _derived(ellipsoid, "_squares", lambda: ellipsoid.weights ** 2)


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
    the rectangle {theta_i^2 <= r_i}; inf when the sum overflows."""
    arr = np.asarray(r, dtype=np.float64)
    if arr.shape != (spectrum.n_max,):
        raise ValidationError(
            f"r has shape {arr.shape}, expected ({spectrum.n_max},)")
    if np.any(arr < 0.0):
        j = int(np.nonzero(arr < 0.0)[0][0])
        raise ValidationError(f"r_{j + 1} = {arr[j]!r} is negative")
    return _exact_sum(np.minimum(arr, _caps(spectrum, sigma)))


def maximize_J_over_ellipsoid(problem: SequenceProblem) -> KnapsackSolution:
    """Water-fill the budget Q^2 across capped coordinates to maximize J.

    Coordinates are filled to their caps c_i = sigma^2/s_i^2 in index
    order, which is ascending order of a_i^2; the first coordinate the
    budget left (subtracted left to right) cannot cover gets a fractional
    fill, later ones get zero.  The result is the exact maximizer of J over
    {r >= 0 : sum a_i^2 r_i <= Q^2}.  A pivot r_k or a value J(r*) that
    overflows raises ValidationError.

    Only the coordinates up to the pivot can be non-zero, so J(r*), the
    budget used and the members of P and Q_eq among them are read from
    those alone, where every r_i before the pivot equals c_i.  A later
    r_i is +0.0, which adds nothing to an exactly rounded sum and lies in
    P and in Q_eq exactly where c_i = 0; the caps do not decrease, so
    those form a run right after the pivot, found by one vector test when
    the first cap after it is 0.  The caps, the costs a_i^2 c_i and the
    running budget are whole-array passes over all N coordinates.
    """
    ensure_usable(problem)
    caps = _caps(problem.spectrum, problem.sigma)
    r = np.zeros(problem.n)
    # a_i^2 = inf (exponential classes) is legal and comes last: each such
    # coordinate gets r_i = 0, also through a cost inf * 0 = NaN at a zero cap
    a2 = _weights_sq(problem.ellipsoid)
    with np.errstate(over="ignore", invalid="ignore"):
        cost = a2 * caps
        left = np.subtract.accumulate(
            np.concatenate(([problem.ellipsoid.radius ** 2], cost)))
        k = _first(~(cost <= left[:-1]), problem.n)
        r[:k] = caps[:k]
        if k < problem.n and left[k] > 0.0:
            r[k] = left[k] / a2[k]
            if r[k] == math.inf:
                raise ValidationError(
                    f"r_star is non-finite at index {k + 1}: the budget left, "
                    f"{float(left[k])!r}, over a_{k + 1}^2 = {float(a2[k])!r} "
                    "overflows")

    head = r[:k + 1]
    value = _exact_sum(np.minimum(head, caps[:k + 1]))
    if value == math.inf:
        raise ValidationError(
            "J(r_star) is non-finite: sum_i min(r_i, sigma^2/s_i^2) overflows")
    used = head > 0.0  # so that inf * 0 adds no NaN; fsum skips +0.0 terms
    budget_used = _exact_sum(a2[:k + 1][used] * head[used])
    # 1-based indices: r_i = c_i for i <= k, the pivot is k + 1, and the
    # caps do not decrease because the s_i do not increase
    set_p, set_qeq = list(range(1, k + 1)), list(range(1, k + 1))
    if k < problem.n:
        if r[k] >= caps[k]:
            set_p.append(k + 1)
        if r[k] == caps[k]:
            set_qeq.append(k + 1)
        if k + 1 < problem.n and caps[k + 1] == 0.0:
            zero_caps = (np.flatnonzero(caps[k + 1:] == 0.0) + k + 2).tolist()
            set_p += zero_caps
            set_qeq += zero_caps
    r.flags.writeable = False
    return KnapsackSolution(r, value, frozenset(set_p), frozenset(set_qeq),
                            budget_used, problem)


def _derivatives(solution: KnapsackSolution, rows: np.ndarray) -> np.ndarray:
    """The derivative toward each row of the 2-d array rows, with the bits
    of math.fsum on one row at a time.  The masks of P and Q_eq and the
    a_i^2 are built once; the rows then go in blocks of at most
    _BLOCK_DOUBLES values, whose budgets and two derivative sums are read
    by _column_fsums on .T views of the rows, where a sum that overflows
    reads +-inf.  A block stops at its first negative row, then at its
    first infeasible one; the rows before it are summed, and the first
    whose derivative is inf or inf - inf raises, else that row raises its
    error."""
    n, q2 = len(solution.r_star), solution.problem.ellipsoid.radius ** 2
    outside_p, in_qeq = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    outside_p[np.fromiter(solution.set_p, np.intp, len(solution.set_p)) - 1] = False
    in_qeq[np.fromiter(solution.set_qeq, np.intp, len(solution.set_qeq)) - 1] = True
    step = max(1, _BLOCK_DOUBLES // n)
    out = []
    a2 = _weights_sq(solution.problem.ellipsoid)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            stop = _first((block < 0.0).any(axis=1), len(block))
            budgets = _column_fsums(
                np.where(block[:stop] > 0.0, block[:stop] * a2, 0.0).T)
            stop = _first(budgets > q2 * (1.0 + _REL_TOL), stop)
            h = block[:stop] - solution.r_star
            gain = _column_fsums(h[:, outside_p].T)
            loss = _column_fsums(np.maximum(-h[:, in_qeq], 0.0).T)
            out.append(gain - loss)
            bad = _first(np.isinf(gain) | np.isinf(loss) | np.isinf(out[-1]), stop)
            if bad < stop:
                raise ValidationError(
                    f"derivative toward r is non-finite: sum_(i not in P) h_i = "
                    f"{float(gain[bad])!r} less {float(loss[bad])!r} over Q_eq")
            if stop < len(budgets):
                raise ValidationError(f"r infeasible: sum a_i^2 r_i = "
                                      f"{float(budgets[stop])!r} exceeds Q^2 = {q2!r}")
            if stop < len(block):
                raise ValidationError("r must be non-negative")
    return np.concatenate(out)


def gateaux_derivative_J(solution: KnapsackSolution, r) -> float:
    """One-sided derivative of J at r* toward the feasible point r.

    Non-positive (up to rounding) for every feasible r exactly when r* is
    a maximizer, so this is the optimality certificate.
    """
    arr = np.asarray(r, dtype=np.float64)
    n = len(solution.r_star)
    if arr.shape != (n,):
        raise ValidationError(f"r has shape {arr.shape}, expected ({n},)")
    return float(_derivatives(solution, arr[None])[0])


def sample_feasible_rectangles(problem: SequenceProblem, count: int,
                               seed: int) -> np.ndarray:
    """Draw ``count`` random feasible rectangles (rows r with
    sum a_i^2 r_i <= Q^2), reproducibly from a counter-based stream; ``count``
    must be an integer >= 1, ``seed`` fit in 64 unsigned bits, and
    ``count * N`` be <= _MAX_DIRECTION_VALUES."""
    count = _integer("count", count)
    if count < 1:
        raise ValidationError(f"certificate needs at least 1 direction, got {count!r}")
    if count * problem.n > _MAX_DIRECTION_VALUES:
        raise ValidationError(f"certificate directions x N = {count} x {problem.n} "
                              f"exceeds the maximum {_MAX_DIRECTION_VALUES} values")
    gen = np.random.Generator(np.random.Philox(key=np.array(
        [np.uint64(_seed("seed", seed)), np.uint64(0x666561)], dtype=np.uint64)))
    q2 = problem.ellipsoid.radius ** 2
    d = gen.random((count, problem.n))
    with np.errstate(divide="ignore", over="ignore"):
        scale = gen.random(count) * q2 / (d @ _weights_sq(problem.ellipsoid))
    d *= scale[:, None]
    return d


def _first(mask: np.ndarray, default: int) -> int:
    """Index of the first True in mask, or default when there is none."""
    return int(mask.argmax()) if mask.any() else default


def certify_maximizer(solution: KnapsackSolution, count: int = 1000,
                      seed: int = 0) -> float:
    """Largest directional derivative over ``count`` sampled feasible
    directions; at a true maximizer this stays at or below rounding noise.

    The result has the bits, and the errors, of
    ``max(gateaux_derivative_J(solution, row) for row in rows)``: the rows
    go through the same kernel, which walks them in blocks.
    """
    rows = sample_feasible_rectangles(solution.problem, count, seed)
    return max(_derivatives(solution, rows).tolist())


def minimax_sandwich(problem: SequenceProblem) -> SandwichReport:
    """Certified two-sided interval [upper/2.2, upper] for the minimax error.

    ``upper`` is the best truncation bound (RMS), rounded to nearest, so it
    can lie about 1 ulp below the exact bound; ``chain_ok`` confirms the
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
    phi^2(s_{D+1}^2) + sigma^2 * rho_D^2 over D.  The problem is first
    validated on the ellipsoid route (weights 1/phi(s_j^2), Q = 1), whose
    optimal_truncation gives the same value up to rounding.  A bias
    phi^2(s_{D+1}^2) that overflows reads as inf, as that route's Q^2/a^2
    does; a risk that is inf at every level raises ValidationError.
    """
    def bias_sq(s: np.ndarray) -> np.ndarray:
        return np.float_power([phi(t) for t in np.float_power(s, 2.0).tolist()], 2.0)

    problem = SequenceProblem(spectrum, ellipsoid_from_source_set(phi, spectrum),
                              sigma, spectrum.n_max)
    best_d, best = _best_level(
        problem, "source-set optimum", _variances, operator.add, bias_sq,
        nonfinite="source-set bound is non-finite: the risk is inf at every "
                  "level, and the bias phi(s_1^2)^2 overflows at level D = 0")
    return best_d, best, best / SQUARED_FACTOR
