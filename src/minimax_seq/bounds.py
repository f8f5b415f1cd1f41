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
import warnings
from dataclasses import dataclass
from itertools import chain

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
    _SUM,
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
    """sigma^2/s_i^2, with the squares s_i^2 computed once per spectrum.
    An infinite cap is legal: callers silence overflow and division by
    zero."""
    if sigma == 0.0:  # not 0/0 where s_i^2 underflows
        return np.zeros(spectrum.n_max)
    return (float(sigma) ** 2) / _derived(spectrum, "_squares", np.square,
                                          spectrum.values)


def _weights_sq(ellipsoid: EllipsoidClass) -> np.ndarray:
    """a_i^2, inf where it overflows, computed once per class."""
    return _derived(ellipsoid, "_squares", np.square, ellipsoid.weights)


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


def _rectangle(r, n: int) -> np.ndarray:
    """r as a float64 array of shape (n,) with no NaN coordinate."""
    arr = np.asarray(r, dtype=np.float64)
    if arr.shape != (n,):
        raise ValidationError(f"r has shape {arr.shape}, expected ({n},)")
    j = _first(np.isnan(arr), n)
    if j < n:
        raise ValidationError(f"r_{j + 1} is NaN")
    return arr


def hyperrectangle_J(r, spectrum: SingularSpectrum, sigma: float) -> float:
    """J(r) = sum_i min{r_i, sigma^2/s_i^2}, the subset-estimator risk on
    the rectangle {theta_i^2 <= r_i}; inf when the sum overflows.  A NaN
    or negative coordinate raises ValidationError."""
    arr = _rectangle(r, spectrum.n_max)
    if np.any(arr < 0.0):
        j = int(np.nonzero(arr < 0.0)[0][0])
        raise ValidationError(f"r_{j + 1} = {arr[j]!r} is negative")
    with np.errstate(divide="ignore", over="ignore"):
        caps = _caps(spectrum, sigma)
    return _exact_sum(np.minimum(arr, caps))


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
    those alone, where every r_i before the pivot equals c_i, with a_i^2
    and c_i finite (else its cost would not fit the budget left).  The
    pivot's r_k is at most c_k: r_k = 0 where the budget left b is spent or
    a_k^2 c_k is inf * 0, and otherwise its cost a_k^2 c_k rounds above b,
    so a_k^2 c_k > b exactly and b / a_k^2 rounds to at most c_k.  So
    min(r_k, c_k) = r_k, and the pivot lies in P exactly where it lies
    in Q_eq: P = Q_eq.  A later r_i is +0.0, which adds nothing to an
    exactly rounded sum and lies in P and in Q_eq exactly where c_i = 0;
    the caps do not decrease, so those form a run right after the pivot,
    found by one vector test when the first cap after it is 0.  The caps,
    the costs a_i^2 c_i and the running budget are whole-array passes over
    all N coordinates; the pivot's values are Python floats.
    """
    ensure_usable(problem)
    n = problem.n
    # a_i^2 = inf (exponential classes) is legal and comes last: each such
    # coordinate gets r_i = 0, also through a cost inf * 0 = NaN at a zero cap
    a2 = _weights_sq(problem.ellipsoid)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        caps = _caps(problem.spectrum, problem.sigma)
        cost = a2 * caps
        left = np.subtract.accumulate(
            np.concatenate(([problem.ellipsoid.radius ** 2], cost)))
        k = _first(~(cost <= left[:-1]), n)
    r = np.zeros(n)
    r[:k] = caps[:k]
    # 1-based indices: r_i = c_i for i <= k, the pivot is k + 1, and the
    # caps do not decrease because the s_i do not increase
    used, tail = k, []  # the budget's terms, and the members of P after k
    if k < n:
        budget_left, a2_k, cap_k = left.item(k), a2.item(k), caps.item(k)
        r_k = budget_left / a2_k if budget_left > 0.0 else 0.0
        if r_k == math.inf:
            raise ValidationError(
                f"r_star is non-finite at index {k + 1}: the budget left, "
                f"{budget_left!r}, over a_{k + 1}^2 = {a2_k!r} overflows")
        r[k] = r_k
        if r_k > 0.0:  # a_k^2 may be inf where r_k = 0, and inf * 0 is NaN
            used += 1
        if r_k == cap_k:
            tail.append(k + 1)
        if k + 1 < n and caps.item(k + 1) == 0.0:
            tail += (np.flatnonzero(caps[k + 1:] == 0.0) + k + 2).tolist()
    value = _exact_sum(r[:k + 1])
    if value == math.inf:
        raise ValidationError(
            "J(r_star) is non-finite: sum_i min(r_i, sigma^2/s_i^2) overflows")
    budget_used = _exact_sum(a2[:used] * r[:used])
    r.flags.writeable = False
    members = frozenset(chain(range(1, k + 1), tail))
    return KnapsackSolution(r, value, members, members, budget_used, problem)


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
    a maximizer, so this is the optimality certificate.  A NaN coordinate
    of r raises ValidationError.
    """
    arr = _rectangle(r, len(solution.r_star))
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
    if mask.size:
        j = int(mask.argmax())  # stops at the first True
        if mask[j]:
            return j
    return default


def certify_maximizer(solution: KnapsackSolution, count: int = 1000,
                      seed: int = 0) -> float:
    """Largest directional derivative over ``count`` sampled feasible
    directions; at a true maximizer this stays at or below rounding noise.

    The result has the bits, and the errors, of
    ``max(gateaux_derivative_J(solution, row) for row in rows)``: the rows
    go through the same kernel, which walks them in blocks.  Only the NaN
    check is gateaux_derivative_J's own, and a sampled row holds no NaN.
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

    The source set {phi(T*T) v : ||v|| <= 1} is the ellipsoid with weights
    a_j = 1/phi(s_j^2) and Q = 1 (ellipsoid_from_source_set), and the bound
    is that problem's: (D*, bound_sq, bound_sq / 4.84), where bound_sq is
    the least squared truncation risk 1/a_(D+1)^2 + sigma^2 * rho_D^2 and
    D* its first minimizer, the bits of optimal_truncation's level and of
    truncation_risk there.  A bias that overflows reads as inf; a risk
    that is inf at every level raises ValidationError.
    """
    problem = SequenceProblem(spectrum, ellipsoid_from_source_set(phi, spectrum),
                              sigma, spectrum.n_max)
    best_d, best = _best_level(
        problem, "source-set optimum", _variances, _SUM,
        nonfinite="source-set bound is non-finite: the risk is inf at every "
                  "level, and the bias phi(s_1^2)^2 overflows at level D = 0")
    return best_d, best, best / SQUARED_FACTOR
