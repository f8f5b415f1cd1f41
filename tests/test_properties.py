"""The paper's invariants as properties over generated problems.

Spectra and classes are power, exponential or explicit, in any pairing.
The sandwich needs a window N in which water-filling spends the whole
budget (sum a_j^2 sigma^2/s_j^2 > Q^2), so sigma is drawn between one and
six decades above the noise level at which that sum equals Q^2.
"""

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
    make_exponential_class,
    make_exponential_spectrum,
    make_power_class,
    make_power_spectrum,
    maximize_J_over_ellipsoid,
    minimax_sandwich,
    problem_from_json,
    problem_to_json,
)

KINDS = ("power", "exponential", "explicit")
# a legal class whose a_j^2 overflows from j = 355 on
OVERFLOWING_WEIGHTS = SequenceProblem(make_power_spectrum(1.0, 400),
                                      make_exponential_class(1.0, 400), 0.1, 400)


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
