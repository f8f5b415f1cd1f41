"""The four level scans as per-level loops: the reference that the array
scans of truncation._best_level must match bit for bit.

Each scan walks D = 0, 1, ... in Python, squares with the numpy-scalar
x ** 2 (and x ** 4), reads each noise prefix as the exact sum of its
terms kept as a fractions.Fraction and rounded once, stops once the spread alone exceeds the incumbent, and keeps the first
strict minimum.  The functions mirror optimal_truncation,
testing_radius_sq, deterministic_rate_sq and source_set_bound: the same
checks, errors, SaturationWarning texts and (D*, value) bits.
"""

import itertools
import math
import operator
import warnings
from fractions import Fraction

import numpy as np

from minimax_seq import (
    SaturationWarning,
    SequenceProblem,
    ValidationError,
    ellipsoid_from_source_set,
)
from minimax_seq.bounds import SQUARED_FACTOR
from minimax_seq.problem import ensure_usable


def _exact_prefix_sums(terms):
    """0.0, then the correctly rounded sum of each prefix of the
    non-negative floats ``terms``: a running Fraction, which holds the
    exact sum, converted to float, as math.fsum rounds it.  A prefix that
    holds inf, or whose sum rounds past the largest double, reads inf, and
    so does every later one.  A term is drawn only when its prefix is read."""
    yield 0.0
    total, terms = Fraction(0), iter(terms)
    for term in terms:
        try:
            total += Fraction(term)
            yield float(total)
        except OverflowError:  # an infinite term, or a sum that rounds to inf
            yield math.inf
            break
    for _ in terms:
        yield math.inf


def _noise(sig2, values):
    """sig2 * v for each v; exactly 0 when sig2 = 0, also where v is inf."""
    return itertools.repeat(0.0) if sig2 == 0.0 else map(sig2.__mul__, values)


def _variances(sig2, s):
    return _noise(sig2, _exact_prefix_sums(1.0 / x ** 2 for x in s))


def _testing_spreads(sig2, s):
    return _noise(sig2, map(math.sqrt, _exact_prefix_sums(1.0 / x ** 4 for x in s)))


def _deterministic_spreads(sig2, s):
    return itertools.chain((0.0,), (sig2 / x ** 2 if sig2 else 0.0 for x in s))


def best_level(problem, name, spreads, combine, nonfinite=None):
    """The early-stopping scan: ties go to the smaller level, and the bias
    Q^2/a_(D+1)^2 is evaluated only at the levels reached."""
    ensure_usable(problem)
    n = problem.n
    a, q2 = problem.ellipsoid.weights, problem.ellipsoid.radius ** 2
    best_d, best = 0, math.inf
    with np.errstate(divide="ignore", over="ignore"):
        levels = spreads(problem.sigma ** 2, problem.spectrum.values)
        for d, spread in zip(range(n), levels):
            if spread > best:
                break
            value = combine(q2 / a[d] ** 2, spread)
            if value < best:
                best_d, best = d, value
    if nonfinite is not None and best == math.inf:
        raise ValidationError(nonfinite)
    if best_d == n - 1:
        warnings.warn(
            f"{name} hit the end of the range (D* = N-1 = {best_d}); "
            "increase N to resolve the minimum", SaturationWarning, stacklevel=3)
    return best_d, best


def optimal_truncation(problem):
    best_d, best_total = best_level(
        problem, "optimal level", _variances, operator.add,
        nonfinite=f"upper bound is non-finite: the truncation risk is inf at "
                  f"every level D = 0..{problem.n - 1}")
    return best_d, math.sqrt(best_total)


def testing_radius_sq(problem):
    return best_level(problem, "testing radius optimum", _testing_spreads, max)


def deterministic_rate_sq(problem):
    return best_level(problem, "deterministic rate optimum", _deterministic_spreads,
                      operator.add)


def source_set_bound(phi, spectrum, sigma):
    problem = SequenceProblem(spectrum, ellipsoid_from_source_set(phi, spectrum),
                              sigma, spectrum.n_max)
    best_d, best = best_level(
        problem, "source-set optimum", _variances, operator.add,
        nonfinite="source-set bound is non-finite: the risk is inf at every "
                  "level, and the bias phi(s_1^2)^2 overflows at level D = 0")
    return best_d, best, best / SQUARED_FACTOR
