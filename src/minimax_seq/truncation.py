"""Truncated series estimation and its exact worst-case risk.

The estimator keeps the first D noisy coefficients and zeroes the rest.
Its worst-case squared risk over the ellipsoid has the closed form

    Q^2 / a_{D+1}^2  +  sigma^2 * sum_{j<=D} 1/s_j^2

(squared bias plus accumulated noise variance), attained at the spike
element with theta_{D+1} = Q/a_{D+1}.  Every sum of noise terms is the
exactly rounded value of its exact sum, so results do not depend on
summation order and are reproducible bit for bit.  A total is one
math.fsum; the level scans' running prefix sums (_exact_prefix_sums) keep
the exact sum as an integer count of 2^-k, the finest power of two among
the terms (k <= 1074), and read the same bits; so do the row sums of a
2-d array (_row_fsums), certified in a few whole-array passes.
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


def _inverse_square_sum(s: np.ndarray, positions) -> float:
    """Exactly rounded sum of 1/s_j^2 over the 0-based ``positions``.

    A sum that overflows, or holds an s_j^2 that underflows, reads as inf,
    as in _exact_prefix_sums.
    """
    with np.errstate(divide="ignore", over="ignore"):
        try:
            return math.fsum(1.0 / s[j] ** 2 for j in positions)
        except OverflowError:
            return math.inf


def rho_squared(spectrum: SingularSpectrum, n: int) -> float:
    """Accumulated noise amplification sum_{j=1..n} 1/s_j^2 (0 for n = 0);
    inf when the sum overflows."""
    if not 0 <= n <= spectrum.n_max:
        raise ValidationError(f"n = {n} out of range 0..{spectrum.n_max}")
    return _inverse_square_sum(spectrum.values, range(n))


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


def _exact_prefix_sums(terms):
    """Yield 0.0, then the exactly rounded sum of each prefix of ``terms``
    (non-negative floats): the k-th value is math.fsum(terms[:k]) bit for bit,
    at O(1) cost per term instead of O(k).

    Every finite double is n / 2^k for integers n and 0 <= k <= 1074, so the
    running sum is kept exactly as the integer ``total`` over ``unit``, the
    largest such 2^k so far (an integer count of 2^-1074 at the finest);
    a finer term rescales ``total``.  Each readout is one int/int division,
    which CPython rounds correctly, subnormals included, as fsum rounds the
    exact sum.  A term is drawn only when its prefix is read.

    A prefix that holds an infinite term, or whose sum rounds past the
    largest double, reads as inf (as_integer_ratio or the division raises
    OverflowError), and so does every later prefix: with no negative term
    the exact sum only grows.
    """
    total, unit, bits = 0, 1, 1  # bits = unit.bit_length()
    yield 0.0
    terms = iter(terms)
    try:
        for term in terms:
            n, d = term.as_integer_ratio()
            k = d.bit_length()
            if k > bits:
                total <<= k - bits
                unit, bits = d, k
            total += n << (bits - k)
            yield total / unit
    except OverflowError:
        yield math.inf
        for _ in terms:
            yield math.inf


# values per block for the callers of _row_fsums (Monte Carlo, the jmax
# certificate): 256 rows at N = 64, one row at N > 16384
_BLOCK_DOUBLES = 16384

# rows whose (n + 2) * max|x| lies outside [2^-900, 2^1020] go to fsum:
# below, the unit u*tau of the split nears the subnormals; above, x + tau
# could overflow
_SPAN_MIN, _SPAN_MAX = 2.0 ** -900, 2.0 ** 1020


def _row_fsums(x: np.ndarray) -> np.ndarray:
    """math.fsum of each row of the 2-d float64 array x, bit for bit.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation, Part I", 2008): with tau a power of two at least
    (n + 2) * max|x| over a row of n values, q = (x + tau) - tau holds
    multiples of u*tau (u = 2^-53) whose sum t1 is exact in any order, and
    x - q is exact; numpy's sum t2 of x - q is within
    eta = gamma_{n-1} * n * u * tau of its exact sum (Higham, §4.2).
    TwoSum splits t1 + t2 into r + t exactly, so the exact row sum lies
    in r + t +- eta, and r is its correctly rounded value, fsum's result,
    when |t| + eta is below half the smaller gap from r to a neighbour.
    Every other row (one with a non-finite value or with (n + 2) * max|x|
    outside [_SPAN_MIN, _SPAN_MAX], a possible tie, or r = 0, whose sign
    fsum decides) reads math.fsum of the row, in row order, so fsum's own
    OverflowError or ValueError is raised as it would be.
    """
    rows, n = x.shape
    if n == 0:
        return np.zeros(rows)
    u = 2.0 ** -53
    # gamma_{n-1} * n * u, rounded up by the factor (1 + 8u)
    eta_unit = (n - 1) * n * u * u / (1.0 - (n - 1) * u) * (1.0 + 8 * u)
    with np.errstate(invalid="ignore", over="ignore"):
        span = np.abs(x).max(axis=1) * (n + 2)
        tau = np.ldexp(1.0, np.frexp(span)[1])[:, None]  # tau > span
        q = x + tau
        q -= tau
        t1 = q.sum(axis=1)
        t2 = (x - q).sum(axis=1)
        r = t1 + t2
        b = r - t1
        t = (t1 - (r - b)) + (t2 - b)
        # half the gap from |r| down to its neighbour, the smaller of r's
        # two gaps (0 when r = 0)
        a = np.abs(r)
        half_gap = 0.5 * (a - np.nextafter(a, 0.0))
        ok = ((span >= _SPAN_MIN) & (span <= _SPAN_MAX)
              & (np.abs(t) + eta_unit * tau[:, 0] < half_gap))
    for i in np.flatnonzero(~ok):
        r[i] = math.fsum(x[i].tolist())
    return r


def _noise(sig2: float, values):
    """sig2 * v for each v in ``values``; exactly 0 when sig2 = 0, where an
    infinite v (a noise sum that overflows) would give 0 * inf = NaN."""
    return itertools.repeat(0.0) if sig2 == 0.0 else map(sig2.__mul__, values)


def _variances(sig2: float, s: np.ndarray):
    """sigma^2 * sum_{j<=D} 1/s_j^2 for D = 0, 1, ..., each prefix exact."""
    return _noise(sig2, _exact_prefix_sums(1.0 / x ** 2 for x in s))


def _best_level(problem: SequenceProblem, name: str, spreads, combine,
                bias_sq=None, nonfinite: str | None = None) -> tuple[int, float]:
    """The level scan behind the four optimizers: the level D in 0..N-1
    minimizing combine(bias_sq(D), spread_D), and that value.

    The problem is checked first; then spreads(sigma^2, s) gives the
    spread of each level, non-decreasing in D, and bias_sq defaults to
    Q^2/a_(D+1)^2.  combine(b, v) >= v, so the scan stops once the spread
    alone exceeds the incumbent and draws no further spread.  Ties go to
    the smaller level; bias_sq is evaluated only for levels reached.  The
    sums over a prefix come from _exact_prefix_sums, so a level costs O(1)
    work and reads the bits of an fsum over its whole prefix.  A term that
    overflows, or divides by an s_j^2 that underflows, is inf; every lazy
    term is drawn inside this one errstate, so none warns.

    A value that is inf at every level raises ValidationError(nonfinite)
    when that message is given.  Otherwise a best level at N-1 warns that
    the ``name`` hit the end of the range, from the public caller's line.
    """
    ensure_usable(problem)
    n = problem.n
    if bias_sq is None:
        a, q2 = problem.ellipsoid.weights, problem.ellipsoid.radius ** 2
        bias_sq = lambda d: q2 / a[d] ** 2
    best_d, best = 0, math.inf
    with np.errstate(divide="ignore", over="ignore"):
        levels = spreads(problem.sigma ** 2, problem.spectrum.values)
        for d, spread in zip(range(n), levels):
            if spread > best:
                break
            value = combine(bias_sq(d), spread)
            if value < best:
                best_d, best = d, value
    if nonfinite is not None and best == math.inf:
        raise ValidationError(nonfinite)
    if best_d == n - 1:
        warnings.warn(
            f"{name} hit the end of the range (D* = N-1 = {best_d}); "
            "increase N to resolve the minimum", SaturationWarning, stacklevel=3)
    return best_d, best


def optimal_truncation(problem: SequenceProblem) -> tuple[int, float]:
    """Best truncation level and the resulting error bound (RMS units).

    Scans D = 0..N-1 for the smallest total risk, breaking ties toward the
    smaller level, and stops early once the variance term alone exceeds the
    incumbent (the variance is non-decreasing in D).  Warns when the best
    level sits at the end of the finite range, which signals that N is too
    small to trust the minimum.  A risk that is inf at every level raises.
    """
    best_d, best_total = _best_level(
        problem, "optimal level", _variances, operator.add,
        nonfinite=f"upper bound is non-finite: the truncation risk is inf at "
                  f"every level D = 0..{problem.n - 1}")
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
    initial segment of the same size.  A noise sum that overflows reads as
    inf, as in rho_squared.
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
    bias_sq = problem.ellipsoid.radius ** 2 / a[k] ** 2
    sig2 = problem.sigma ** 2
    variance = (sig2 * _inverse_square_sum(problem.spectrum.values, np.flatnonzero(in_p))
                if sig2 else 0.0)
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
