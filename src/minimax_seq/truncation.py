"""Truncated series estimation and its exact worst-case risk.

The estimator keeps the first D noisy coefficients and zeroes the rest.
Its worst-case squared risk over the ellipsoid has the closed form

    Q^2 / a_{D+1}^2  +  sigma^2 * sum_{j<=D} 1/s_j^2

(squared bias plus accumulated noise variance), attained at the spike
element with theta_{D+1} = Q/a_{D+1}.  Every sum of noise terms is the
exactly rounded value of its exact sum, so results do not depend on
summation order and are reproducible bit for bit.  A 1-d total
(_exact_sum) of more than _ARRAY_SUM_MIN values is certified in a few
whole-array passes to be fsum's result (_certified_sum); any other is one
math.fsum, or where fsum overflows on the way to a finite sum, one
integer sum.  The closed forms and the level scans read one
array of noise terms per spectrum and one of biases per class
(_noise_terms, _bias_sq).
The level scans (_best_level) are whole-array passes: one running sum of
the noise terms, with Higham's bound on its error, encloses every level's
value, and only the few levels that may be the minimum read their exact
prefix sums.  The first read is one math.fsum of its prefix; a later read
carries the previous one as the few doubles of an exact expansion
(_expansion) and adds only the terms since, so a scan with many near-tied
levels converts each term once.  The column sums of a 2-d array
(_column_fsums), one per Monte Carlo replication or certificate
direction, read fsum's bits too, certified in a few whole-array passes
that add across contiguous rows: each sum is one column of a
(terms x sums) array.  Both certificates are one kernel (_certified):
error-free extraction with Higham's bound, which holds in any order of
addition, so numpy's summation order never moves a bit.  A sum whose
exactly rounded value overflows reads as +-inf; one that only passes the
largest double on the way does not.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .problem import (
    SaturationWarning,
    SequenceProblem,
    SingularSpectrum,
    ValidationError,
    _integer,
    _level,
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
    """Accumulated noise amplification sum_{j=1..n} 1/s_j^2 (0 for n = 0);
    inf when the sum overflows."""
    n = _integer("n", n)
    if not 0 <= n <= spectrum.n_max:
        raise ValidationError(f"n = {n} out of range 0..{spectrum.n_max}")
    return _exact_sum(_noise_terms(spectrum, 2.0, n)[:n])


def truncation_risk(problem: SequenceProblem, D: int) -> RiskDecomposition:
    """Exact worst-case squared risk of truncating at level D (0 <= D <= N-1)."""
    ensure_usable(problem)
    n, D = problem.n, _integer("D", D)
    if not 0 <= D <= n - 1:
        raise ValidationError(
            f"level D = {D} out of range 0..{n - 1} (a_(D+1) must exist)")
    bias_sq = _bias_sq(problem.ellipsoid, D + 1)[D]  # a_(D+1)^2 = inf gives 0
    sig2 = problem.sigma ** 2
    variance = sig2 * rho_squared(problem.spectrum, D) if sig2 else 0.0
    return RiskDecomposition(D, bias_sq, variance, bias_sq + variance)


def _exact_sum(terms: np.ndarray) -> float:
    """The exactly rounded sum of the 1-d float64 array terms, with the
    bits of math.fsum; inf (or -inf) where that rounded sum overflows.

    An array of more than _ARRAY_SUM_MIN values is first certified in
    whole-array passes (_certified_sum).  Any other array, and one that
    fails the certificate, is one math.fsum of the terms as Python floats,
    at most _BLOCK_DOUBLES at a time, so that no list of the whole array
    is held.  fsum raises OverflowError when a partial sum passes the
    largest double on the way, also where the exact sum rounds back below
    it; the sum is then read in integers instead (_integer_sum).
    """
    if len(terms) > _ARRAY_SUM_MIN:
        total = _certified_sum(terms)
        if total is not None:
            return total
    return _fsum(_floats(terms), terms)


def _certified_sum(terms: np.ndarray) -> float | None:
    """math.fsum of the non-empty 1-d float64 array terms, bit for bit,
    certified as one column of _column_fsums is (_certified); None where
    the certificate does not hold: a non-finite value, (n + 2) * max|x|
    outside [_SPAN_MIN, _SPAN_MAX], a possible tie, or r = 0.

    One pass reads max|x| from the array's maximum and minimum.  One more
    splits x into q = (x + tau) - tau and x - q, at most _BLOCK_DOUBLES
    values at a time into one buffer, and adds up the blocks' sums t1 and
    t2 as Python floats: t1 is exact, and t2 lies within Higham's bound of
    its exact sum in any grouping, so neither the blocks nor numpy's
    summation order move the bits.
    """
    n = len(terms)
    # a nan reads nan in both, and max(nan, nan) is nan
    span = (n + 2) * max(float(terms.max()), -float(terms.min()))
    if not _in_span(span):
        return None
    tau = math.ldexp(1.0, math.frexp(span)[1])  # tau > span
    buf = np.empty(min(n, _BLOCK_DOUBLES))
    t1 = t2 = 0.0
    for start in range(0, n, _BLOCK_DOUBLES):
        block = terms[start:start + _BLOCK_DOUBLES]
        q = buf[:len(block)]
        np.add(block, tau, out=q)
        q -= tau
        t1 += float(q.sum())
        np.subtract(block, q, out=q)
        t2 += float(q.sum())
    total, ok = _certified(t1, t2, tau, n)
    return total if ok else None


def _fsum(floats, terms: np.ndarray) -> float:
    """math.fsum(floats), the values of the 1-d array terms as Python
    floats; where fsum overflows on the way, _integer_sum(terms)."""
    try:
        return math.fsum(floats)
    except OverflowError:
        return _integer_sum(terms)


def _floats(terms: np.ndarray):
    """The values of the 1-d array terms as Python floats: one list, or
    chained lists of _BLOCK_DOUBLES values for a longer array."""
    if len(terms) <= _BLOCK_DOUBLES:
        return terms.tolist()
    return chain.from_iterable(terms[i:i + _BLOCK_DOUBLES].tolist()
                               for i in range(0, len(terms), _BLOCK_DOUBLES))


def _column_floats(x: np.ndarray, cols: list) -> list:
    """The values of the columns cols of the 2-d array x as Python floats:
    one list per column from one conversion, or where those columns hold
    more than _BLOCK_DOUBLES values, _floats of each."""
    if x.shape[0] * len(cols) <= _BLOCK_DOUBLES:
        return x[:, cols].T.tolist()
    return [_floats(x[:, j]) for j in cols]


_UNITS = 1 << 1074  # units of 2^-1074, the smallest subnormal, per 1.0


def _integer_sum(terms: np.ndarray) -> float:
    """The exact sum of terms, rounded once.  A non-finite term decides the
    sum as in math.fsum: nan, +-inf, or ValueError for inf - inf.  Every
    finite double is n/d with d = 2^k, 0 <= k <= 1074, so the sum is an
    integer count of 2^-1074; CPython's int true division rounds it
    correctly and raises OverflowError only where the rounded sum itself
    overflows, which reads as an infinity of its sign."""
    finite = np.isfinite(terms)
    if not finite.all():
        return math.fsum(terms[~finite].tolist())
    total = sum(n << (1075 - d.bit_length())
                for n, d in map(float.as_integer_ratio, _floats(terms)))
    try:
        return total / _UNITS
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def _expansion(terms: list) -> list:
    """Non-overlapping doubles, the largest first, whose exact sum is that
    of the finite floats ``terms``; [] for a zero sum.  ``terms`` is
    extended in place.

    Each part is math.fsum of the terms less the parts before it, the
    correctly rounded value of what they leave (Shewchuk, 1997), so there
    is at most one part per 53 bits of the exact sum, and the first is
    fsum of the terms.  A sum that overflows raises OverflowError.
    """
    parts = []
    while part := math.fsum(terms):
        parts.append(part)
        terms.append(-part)
    return parts


# values per block for the callers of _column_fsums (Monte Carlo, the jmax
# certificate): 256 sums at N = 64, one sum at N > 16384; also the length of
# the longest spectrum or class whose derived arrays _derived keeps, the
# longest list _exact_sum makes and the buffer of _certified_sum
_BLOCK_DOUBLES = 16384


def _derived(owner, name: str, compute, source: np.ndarray, *args,
             stop=None) -> np.ndarray:
    """compute(source, *args), a read-only array that depends only on
    ``owner``, a SingularSpectrum or EllipsoidClass, computed once per
    owner.

    Those objects are frozen and their arrays read-only, so the result
    stays valid: it is kept in the owner's __dict__ under ``name`` and
    shared by every problem built on the owner, such as the grid points of
    a sweep at one N.  The lookup comes first, and callers pass constant
    names and module-level functions, so a kept array costs one dict read.
    An owner of more than _BLOCK_DOUBLES values keeps none of its arrays:
    they are computed on every call instead, so that a deep sweep holds no
    extra copies of its longest arrays.  A caller that reads only the first
    stop values of an elementwise compute passes stop: unless the array is
    kept, compute(source[:stop], *args) computes those alone, and they are
    not kept.  Overflow and division by zero are silent.
    """
    arr = owner.__dict__.get(name)
    if arr is None:
        with np.errstate(divide="ignore", over="ignore"):
            arr = compute(source[:stop], *args)
        arr.flags.writeable = False
        if stop is None and len(owner) <= _BLOCK_DOUBLES:
            owner.__dict__[name] = arr
    return arr


# sums whose (n + 2) * max|x| lies outside [2^-900, 2^1020] go to fsum:
# below, the unit u*tau of the split nears the subnormals; above, x + tau
# could overflow
_SPAN_MIN, _SPAN_MAX = 2.0 ** -900, 2.0 ** 1020

# the longest 1-d array that _exact_sum reads with math.fsum alone.  With
# timeit on one core of a shared 2-core x86-64 host, the certified passes
# cost about 9.5 us at any length up to 384 values and 11 us at 800, and
# fsum 4 us at 128 values, 9.5 us at 320 and 26 us at 800
_ARRAY_SUM_MIN = 320


def _in_span(span):
    """Whether span, the (n + 2) * max|x| of a sum of n values x, lies in
    [_SPAN_MIN, _SPAN_MAX], where _certified holds: a bool, or a bool
    array."""
    return (span >= _SPAN_MIN) & (span <= _SPAN_MAX)


def _certified(t1, t2, tau, n: int):
    """r, the rounded t1 + t2, and whether r is the correctly rounded
    value of the exact sum of n values x split by tau, with fsum's bits;
    Python floats or arrays of them, one per sum.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation, Part I", 2008): with tau a power of two above
    (n + 2) * max|x|, which lies in [_SPAN_MIN, _SPAN_MAX] (_in_span),
    q = (x + tau) - tau holds multiples of u*tau (u = 2^-53) whose sum t1
    is exact in any order, and x - q is exact; a float sum t2 of x - q, in
    any order, is within eta = gamma_{n-1} * n * u * tau of its exact sum
    (Higham, §4.2).  TwoSum splits t1 + t2 into r + t exactly, so the
    exact sum lies in r + t +- eta, and r is its correctly rounded value
    when |t| + eta is below half the smaller gap from r to a neighbour.
    A possible tie fails that test, and so does r = 0, whose sign fsum
    decides.  Arrays run under the caller's errstate.
    """
    u = 2.0 ** -53
    # gamma_{n-1} * n * u, rounded up by the factor (1 + 8u)
    eta_unit = (n - 1) * n * u * u / (1.0 - (n - 1) * u) * (1.0 + 8 * u)
    r = t1 + t2
    b = r - t1
    t = (t1 - (r - b)) + (t2 - b)
    # half the gap from |r| down to its neighbour, the smaller of r's two
    # gaps (0 when r = 0)
    a = abs(r)
    half_gap = 0.5 * (a - np.nextafter(a, 0.0))
    return r, abs(t) + eta_unit * tau < half_gap


def _column_fsums(x: np.ndarray) -> np.ndarray:
    """math.fsum of each column of the 2-d float64 array x, bit for bit, in
    any memory layout.  Callers that hold a row per sum store it as a
    column (Monte Carlo), or pass the .T view of their rows (the jmax
    certificate); on a C-contiguous x every pass below is a vector
    operation across contiguous rows.

    Each column is certified as in _certified: tau is a power of two above
    (n + 2) * max|x| over a column of n values, t1 and t2 are numpy's
    column sums of q = (x + tau) - tau and x - q, in whatever order numpy
    adds.  A column that is not certified (one with a non-finite value or
    with (n + 2) * max|x| outside [_SPAN_MIN, _SPAN_MAX], a possible tie,
    or r = 0) reads math.fsum of the column, in column order, through
    _fsum, not _exact_sum, whose certificate it has already failed: a
    column whose rounded sum overflows reads +-inf, and fsum's ValueError
    (inf - inf) is raised as it would be.  Those columns are
    converted to Python floats together, a group of them at a time.
    """
    n, cols = x.shape
    if n == 0:
        return np.zeros(cols)
    with np.errstate(invalid="ignore", over="ignore"):
        q = np.abs(x)
        span = q.max(axis=0) * (n + 2)
        tau = np.ldexp(1.0, np.frexp(span)[1])  # tau > span
        np.add(x, tau, out=q)
        q -= tau
        t1 = q.sum(axis=0)
        np.subtract(x, q, out=q)
        t2 = q.sum(axis=0)
        r, ok = _certified(t1, t2, tau, n)
        ok &= _in_span(span)
    # the other columns: a group of at most _BLOCK_DOUBLES values, or one
    # longer column, per conversion to floats
    bad = np.flatnonzero(~ok).tolist()
    group = max(1, _BLOCK_DOUBLES // n)
    for start in range(0, len(bad), group):
        part = bad[start:start + group]
        r[part] = [_fsum(floats, x[:, j])
                   for j, floats in zip(part, _column_floats(x, part))]
    return r


_MAX_DOUBLE = sys.float_info.max


class _PrefixSpreads:
    """The spreads readout(sigma^2, S_D) of a scan, for D = 0..len(terms),
    where S_D is the exactly rounded sum of the first D non-negative terms
    (S_0 = 0) and readout is non-decreasing in S_D.

    ``lower`` bounds every spread from below, ``upper(D)`` bounds one from
    above, and calling the object with D reads it exactly.  The bounds come
    from ``approx``, the running sums of the terms (_running_sums), added
    left to right, so that the D-th is within gamma_{D-1} * S_D of the
    exact sum, where gamma_m = m*u/(1 - m*u) and u = 2^-53 (Higham, §4.2).
    Widening it by g = 2*(n + 2)*u also covers the rounding of the
    widening product; a double that bounds the exact sum bounds its rounded
    value too, and readout, correctly rounded and monotone, keeps the
    order.  ``widened`` holds the running sums widened down (_widened), so
    ``lower`` is readout(sigma^2, widened).

    Exact reads go in increasing D.  The first is one math.fsum of the
    prefix; each later one fsums the terms since with the previous read's
    total and the _expansion of what that total leaves, so every term is
    converted once.  Those parts may be negative, so a carried fsum that
    overflows re-reads the prefix, whose terms are not, with _exact_sum.
    A prefix whose rounded sum overflows, or that holds inf, reads as inf,
    and so does every longer one.
    """

    def __init__(self, sig2: float, terms: np.ndarray, readout,
                 approx: np.ndarray, widened: np.ndarray) -> None:
        self.sig2, self.terms, self.readout, self.approx = sig2, terms, readout, approx
        self.g = _slack(len(terms))
        self.lower = readout(sig2, widened)
        # the last read's prefix length, its total and a list with its exact sum
        self.at, self.total, self.carry = 0, 0.0, []

    def upper(self, d: int) -> float:
        return self.readout(self.sig2, self.approx.item(d) * (1.0 + self.g))

    def __call__(self, d: int) -> float:
        if self.total < math.inf:
            try:
                carry = self.terms[self.at:d].tolist()
                if self.at:  # the last read's exact sum, as a few doubles
                    carry += [self.total] + _expansion(self.carry + [-self.total])
                self.carry, self.total = carry, math.fsum(carry)
            except OverflowError:
                self.carry = self.terms[:d].tolist()
                self.total = _exact_sum(self.terms[:d])
            self.at = d
        return self.readout(self.sig2, self.total)


def _slack(n: int) -> float:
    """g = 2*(n + 2)*u for the running sums of n terms; 1 - g and 1 + g
    are exact."""
    return 2.0 * (n + 2) * 2.0 ** -53


def _running_sums(terms: np.ndarray) -> np.ndarray:
    """0, then the running sums of terms, added left to right
    (np.add.accumulate, the loop behind np.cumsum)."""
    out = np.empty(len(terms) + 1)
    out[0] = 0.0
    np.add.accumulate(terms, out=out[1:])
    return out


def _widened(approx: np.ndarray) -> np.ndarray:
    """The running sums approx of n terms times 1 - g (_slack(n)), each a
    lower bound on its exact sum.  A running sum that overflows reads as
    the largest double: the exact sum there is at least that double over
    1 + gamma_n."""
    if approx[-1] == math.inf:
        approx = np.minimum(approx, _MAX_DOUBLE)
    return approx * (1.0 - _slack(len(approx) - 1))


def _inverse_power(values: np.ndarray, power: float) -> np.ndarray:
    return 1.0 / np.float_power(values, power)


def _quotients(weights: np.ndarray, q2: float) -> np.ndarray:
    return q2 / np.float_power(weights, 2.0)


# the name under which a spectrum keeps its noise terms of each power
_TERMS = {power: f"_inverse_power_{power}" for power in (2.0, 4.0)}


def _noise_terms(spectrum, power: float, stop=None) -> np.ndarray:
    """1/s_j^power for j = 1..n_max (at least j <= stop), power 2 or 4, once
    per spectrum (_derived): inf where s_j^power underflows, 0 where it
    overflows."""
    return _derived(spectrum, _TERMS[power], _inverse_power, spectrum.values,
                    power, stop=stop)


def _bias_sq(cls, stop=None) -> np.ndarray:
    """Q^2/a_(D+1)^2 for D = 0..n_max-1 (at least D < stop), once per class
    (_derived): 0 where a_(D+1)^2 overflows, inf where the quotient does."""
    return _derived(cls, "_bias", _quotients, cls.weights, cls.radius ** 2, stop=stop)


def _prefix_spreads(power: float, readout):
    """spreads(sigma^2, spectrum) for a scan whose level-D spread is
    readout(sigma^2, S_D), with S_D the exactly rounded sum of 1/s_j^power
    over j <= D: a _PrefixSpreads, or for sigma^2 = 0 the exact spreads,
    all 0 (also where S_D is inf).  The terms, their running sums and the
    widened running sums do not depend on sigma and are computed once per
    spectrum (_derived), under names built here, once per scan."""
    sums_name, widened_name = f"_running_sums_{power}", f"_widened_{power}"

    def spreads(sig2: float, spectrum: SingularSpectrum):
        if sig2 == 0.0:
            return np.zeros(spectrum.n_max + 1)
        terms = _noise_terms(spectrum, power)
        approx = _derived(spectrum, sums_name, _running_sums, terms)
        return _PrefixSpreads(sig2, terms, readout, approx,
                              _derived(spectrum, widened_name, _widened, approx))
    return spreads


# sigma^2 * sum_{j<=D} 1/s_j^2
_variances = _prefix_spreads(2.0, operator.mul)

# how a scan combines a level's bias and spread: the operation on whole
# arrays and the same one on Python floats
_SUM = (operator.add, operator.add)
_MAX = (np.maximum, max)


def _best_level(problem: SequenceProblem, name: str, spreads, combine,
                nonfinite: str | None = None) -> tuple[int, float]:
    """The level scan behind the four optimizers: the first level D in
    0..N-1 minimizing combine(bias_D, spread_D), and that value, as Python
    numbers.

    The problem is checked first.  The bias of level D is Q^2/a_(D+1)^2,
    and spreads(sigma^2, spectrum) gives the spreads of the levels 0..N:
    an array when they are exact, otherwise a _PrefixSpreads.  combine is
    _SUM or _MAX.  Terms, biases and bounds are whole-array passes:
    squares and fourth powers are np.float_power, which calls libm pow as
    the numpy-scalar x ** 2 and x ** 4 do, so they keep those bits; a term
    that overflows, or divides by a power that underflows, is inf, with no
    warning.  What does not depend on sigma (the bias, the noise terms and
    their running sums, widened or not) is computed once per class or
    spectrum (_derived), so the grid points of a sweep at one N share it;
    sigma^2 only scales it.

    Exact spreads give the first argmin at once.  Otherwise the spreads'
    lower bounds give a lower bound on each value; the upper bound at the
    level with the least of them bounds the minimum, and only the levels
    whose lower bound is at most that are candidates.  In level order, a
    candidate whose lower bound is not below the incumbent is skipped (a
    later level wins only with a strictly smaller value), and any other
    reads its exact spread.  Either way the result is the first argmin over
    all levels.  It equals the early-stopping scan's answer: the spreads
    are non-decreasing and combine(b, v) >= v, so once a spread exceeds
    the incumbent no later level reaches it.  A level's bias and bounds are
    read as Python floats, and combined as such.

    A value that is inf at every level raises ValidationError(nonfinite)
    when that message is given.  Otherwise a best level at N-1 warns that
    the ``name`` hit the end of the range, from the public caller's line.
    """
    ensure_usable(problem)
    n, cls = problem.n, problem.ellipsoid
    combine_all, combine_one = combine
    with np.errstate(divide="ignore", over="ignore"):
        bias = _bias_sq(cls)
        spread = spreads(problem.sigma ** 2, problem.spectrum)
        if isinstance(spread, np.ndarray):
            values = combine_all(bias, spread[:n])
            best_d = int(values.argmin())
            best = values.item(best_d)
        else:
            low = combine_all(bias, spread.lower[:n])
            d = int(low.argmin())
            levels = (low <= combine_one(bias.item(d), spread.upper(d))).nonzero()[0]
            best_d, best = 0, math.inf
            for d, low_d in zip(levels.tolist(), low[levels].tolist()):
                if low_d < best:
                    value = float(combine_one(bias.item(d), spread(d)))
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

    Finds the smallest total risk over D = 0..N-1, breaking ties toward the
    smaller level, in whole-array passes that read exact sums only at the
    candidate levels (_best_level).  The answer is the one a scan that
    stops once the variance term alone exceeds the incumbent would give
    (the variance is non-decreasing in D).  Warns when the best
    level sits at the end of the finite range, which signals that N is too
    small to trust the minimum.  A risk that is inf at every level raises.
    """
    best_d, best_total = _best_level(
        problem, "optimal level", _variances, _SUM,
        nonfinite=f"upper bound is non-finite: the truncation risk is inf at "
                  f"every level D = 0..{problem.n - 1}")
    return best_d, math.sqrt(best_total)


def least_favorable(problem: SequenceProblem, D: int) -> np.ndarray:
    """Boundary spike theta_{D+1} = Q/a_{D+1} attaining the worst bias at
    level D, as a read-only array.  The problem is checked first, before
    its N doubles are allocated."""
    ensure_usable(problem)
    n = problem.n
    D = _level(D, n - 1)
    theta = np.zeros(n)
    with np.errstate(over="ignore"):  # an infinite spike is rejected below
        theta[D] = problem.ellipsoid.radius / problem.ellipsoid.weights[D]
    _checked_vector(theta, n)
    theta.flags.writeable = False
    return theta


def subset_truncation_risk(problem: SequenceProblem, P) -> float:
    """Worst-case squared risk of the estimator keeping the index set P.

    P holds integer 1-based indices within {1..N} and must leave the
    complement non-empty.  The risk is
    Q^2/a_k^2 + sigma^2 * sum_{j in P} 1/s_j^2 with k the smallest index
    outside P; it is never below the risk of the initial segment of the
    same size.  The problem is checked first; a
    bias or noise sum that overflows reads as inf, as in truncation_risk
    and rho_squared.
    """
    ensure_usable(problem)
    n = problem.n
    idx = sorted(set(_integer("each index in P", j) for j in P))
    if idx and (idx[0] < 1 or idx[-1] > n):
        raise ValidationError(f"P must be a subset of 1..{n}")
    if len(idx) == n:
        raise ValidationError("P covers all indices; no bias coordinate remains")
    in_p = np.isin(np.arange(1, n + 1), idx)
    k = int(np.nonzero(~in_p)[0][0])  # 0-based position of min complement
    bias_sq = _bias_sq(problem.ellipsoid, k + 1)[k]
    sig2 = problem.sigma ** 2
    variance = (sig2 * _exact_sum(_noise_terms(problem.spectrum, 2.0)[in_p])
                if sig2 else 0.0)
    return bias_sq + variance


def estimate(z, D: int) -> np.ndarray:
    """Keep the first D observed coefficients, zero the rest (read-only)."""
    n = len(z)
    D = _level(D, n)
    fitted = np.zeros(n)
    fitted[:D] = z[:D]
    fitted.flags.writeable = False
    return fitted
