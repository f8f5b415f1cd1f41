"""The paper's invariants as properties over generated problems.

Spectra and classes are power, exponential or explicit, in any pairing.
The sandwich needs a window N in which water-filling spends the whole
budget (sum a_j^2 sigma^2/s_j^2 > Q^2), so sigma is drawn between one and
six decades above the noise level at which that sum equals Q^2.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minimax_seq import (
    SaturationWarning,
    SequenceProblem,
    certify_maximizer,
    explicit_class,
    explicit_spectrum,
    gateaux_derivative_J,
    make_exponential_class,
    make_exponential_spectrum,
    make_power_class,
    make_power_spectrum,
    maximize_J_over_ellipsoid,
    minimax_sandwich,
    problem_from_json,
    problem_to_json,
    sample_feasible_rectangles,
)

KINDS = ("power", "exponential", "explicit")
# a legal class whose a_j^2 overflows from j = 355 on
OVERFLOWING_WEIGHTS = SequenceProblem(make_power_spectrum(1.0, 400),
                                      make_exponential_class(1.0, 400), 0.1, 400)
# a legal noiseless problem whose 1/s_j^2 overflows from j = 355 on
NOISELESS_UNDERFLOW = SequenceProblem(make_exponential_spectrum(1.0, 400),
                                      make_power_class(1.0, 400), 0.0, 400)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spectrum_kind, class_kind = draw(st.sampled_from(KINDS)), draw(st.sampled_from(KINDS))
    if spectrum_kind == "power":
        spectrum = make_power_spectrum(draw(st.floats(0.25, 3.0)), n)
    elif spectrum_kind == "exponential":  # s_N^2 > 0
        spectrum = make_exponential_spectrum(draw(st.floats(0.05, min(1.5, 350 / n))), n)
    else:
        spectrum = explicit_spectrum(np.sort(10.0 ** rng.uniform(-6.0, 0.0, n))[::-1])
    radius = draw(st.floats(0.1, 10.0))
    if class_kind == "power":
        ellipsoid = make_power_class(draw(st.floats(0.25, 3.0)), n, radius)
    elif class_kind == "exponential":  # a_N is finite, a_j^2 = inf from j > 355/kappa
        ellipsoid = make_exponential_class(draw(st.floats(0.05, min(3.0, 700 / n))),
                                           n, radius)
    else:
        ellipsoid = explicit_class(np.sort(10.0 ** rng.uniform(0.0, 6.0, n)), radius)
    with np.errstate(over="ignore"):
        spend = float(np.sum(ellipsoid.weights ** 2 / spectrum.values ** 2))
    floor = max(radius / math.sqrt(spend), 1e-140)  # sigma^2 stays positive
    sigma = floor * 10.0 ** draw(st.floats(1.0, 6.0))
    return SequenceProblem(spectrum, ellipsoid, sigma, n)


@given(problems())
@example(OVERFLOWING_WEIGHTS)
@settings(max_examples=150, deadline=None)
def test_sandwich_chain(problem):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        report = minimax_sandwich(problem)
    assert not report.saturated
    e2, j = report.upper ** 2, report.j_star
    assert j * (1.0 - 1e-9) <= e2 <= 2.0 * j * (1.0 + 1e-9)
    assert report.chain_ok


@given(problems())
@example(OVERFLOWING_WEIGHTS)
@settings(max_examples=150, deadline=None)
def test_water_filling_is_feasible(problem):
    solution = maximize_J_over_ellipsoid(problem)
    r = solution.r_star
    assert np.all(r >= 0.0)
    filled = r > 0.0
    with np.errstate(over="ignore"):  # a_j^2 = inf for exponential classes
        a2 = problem.ellipsoid.weights ** 2
    used = math.fsum((a2[filled] * r[filled]).tolist())
    assert used <= problem.ellipsoid.radius ** 2 * (1.0 + 1e-12)
    assert solution.budget_used == used


@given(problems(), st.integers(0, 2 ** 32 - 1))
@example(OVERFLOWING_WEIGHTS, 0)
@settings(max_examples=100, deadline=None)
def test_certificate_within_rounding(problem, seed):
    solution = maximize_J_over_ellipsoid(problem)
    worst = certify_maximizer(solution, count=50, seed=seed)
    assert worst <= 1e-9 * max(1.0, solution.value)


@given(problems())
@example(OVERFLOWING_WEIGHTS)
@settings(max_examples=150, deadline=None)
def test_json_round_trip_is_bit_exact(problem):
    back = problem_from_json(json.loads(json.dumps(problem_to_json(problem))))
    assert back.spectrum.values.tobytes() == problem.spectrum.values.tobytes()
    assert back.ellipsoid.weights.tobytes() == problem.ellipsoid.weights.tobytes()
    assert (back.ellipsoid.radius, back.sigma, back.n) == (
        problem.ellipsoid.radius, problem.sigma, problem.n)


def reference_derivative(solution, r):
    """The certificate's per-coordinate form: the fsum of h_i over i not in P
    minus the fsum of max(-h_i, 0) over Q_eq, with h = r - r*."""
    h = np.asarray(r, dtype=np.float64) - solution.r_star
    n = len(solution.r_star)
    outside_p = [float(h[i - 1]) for i in range(1, n + 1) if i not in solution.set_p]
    neg_parts = [max(-float(h[i - 1]), 0.0) for i in sorted(solution.set_qeq)]
    return math.fsum(outside_p) - math.fsum(neg_parts)


@st.composite
def tied_problems(draw):
    """Dyadic explicit values with repeats, so costs tie and coordinates sit
    exactly at their caps."""
    n = draw(st.integers(1, 12))
    s = draw(st.lists(st.sampled_from([1.0, 0.5, 0.25]), min_size=n, max_size=n))
    a = draw(st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=n, max_size=n))
    radius = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    return SequenceProblem(explicit_spectrum(sorted(s, reverse=True)),
                           explicit_class(sorted(a), radius),
                           draw(st.sampled_from([0.125, 0.5, 1.0])), n)


@given(st.one_of(problems(), tied_problems()), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example(OVERFLOWING_WEIGHTS, False, False, 0)
@example(NOISELESS_UNDERFLOW, False, False, 0)
@example(NOISELESS_UNDERFLOW, False, True, 1)
@settings(max_examples=150, deadline=None)
def test_certificate_matches_per_coordinate_reference(problem, noiseless,
                                                      replaced, seed):
    """The masked fsums read the reference's bits, signed zeros included,
    also for a solution whose r* and sets are not the water-filling's."""
    if noiseless:
        problem = SequenceProblem(problem.spectrum, problem.ellipsoid, 0.0,
                                  problem.n)
    solution = maximize_J_over_ellipsoid(problem)
    rng = np.random.default_rng(seed)
    if replaced:
        in_p = rng.random(problem.n) < 0.5
        in_qeq = in_p & (rng.random(problem.n) < 0.5)
        solution = dataclasses.replace(
            solution, r_star=solution.r_star * rng.integers(0, 3, problem.n) / 2,
            set_p=frozenset((np.nonzero(in_p)[0] + 1).tolist()),
            set_qeq=frozenset((np.nonzero(in_qeq)[0] + 1).tolist()))
    rows = sample_feasible_rectangles(problem, 20, seed)
    want = [reference_derivative(solution, row) for row in rows]
    got = [gateaux_derivative_J(solution, row) for row in rows]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert certify_maximizer(solution, count=20, seed=seed).hex() == max(want).hex()
    at_r_star = gateaux_derivative_J(solution, solution.r_star)
    assert at_r_star.hex() == reference_derivative(solution, solution.r_star).hex()
