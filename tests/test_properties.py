"""The paper's invariants as properties over generated problems.

Spectra and classes are power, exponential or explicit, in any pairing.
The sandwich needs a window N in which water-filling spends the whole
budget (sum a_j^2 sigma^2/s_j^2 > Q^2), so sigma is drawn between one and
six decades above the noise level at which that sum equals Q^2.
"""

import dataclasses
import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minimax_seq
import minimax_seq.problem as problem_mod
from minimax_seq import (
    SaturationWarning,
    SequenceProblem,
    ValidationError,
    certify_maximizer,
    custom_index,
    ellipsoid_from_source_set,
    exp_power_index,
    explicit_class,
    explicit_spectrum,
    gateaux_derivative_J,
    log_power_index,
    make_exponential_class,
    make_exponential_spectrum,
    make_power_class,
    make_power_spectrum,
    maximize_J_over_ellipsoid,
    minimax_sandwich,
    optimal_truncation,
    power_index,
    problem_from_json,
    problem_to_json,
    sample_feasible_rectangles,
    source_set_bound,
    truncation_risk,
)
from minimax_seq.truncation import (
    _ARRAY_SUM_MIN,
    _BLOCK_DOUBLES,
    _certified,
    _column_fsums,
    _exact_sum,
)

import array_reference
import scan_reference

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


@st.composite
def generator_builds(draw):
    """(generator, attribute, parameter, N) whose 2N entries are finite and > 0."""
    make, attribute = draw(st.sampled_from([
        (make_power_spectrum, "values"), (make_exponential_spectrum, "values"),
        (make_power_class, "weights"), (make_exponential_class, "weights")]))
    n = draw(st.integers(1, 20000))
    top = 3.0 if make in (make_power_spectrum, make_power_class) else 700 / (2 * n)
    return make, attribute, draw(st.floats(1e-3, min(3.0, top))), n


@given(generator_builds())
@settings(max_examples=200, deadline=None)
def test_generator_prefix_keeps_its_bits_at_twice_the_length(case):
    # rates.sweep doubles N and relies on this prefix property
    make, attribute, param, n = case
    short = getattr(make(param, n), attribute)
    longer = getattr(make(param, 2 * n), attribute)
    assert short.tobytes() == longer[:n].tobytes()


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


def sorted_loop_water_filling(problem):
    """The water-filling as a stable sort of a_i^2 and a loop over the
    coordinates: (r*, value, budget_used, P, Q_eq), with 1-based index
    sets.  A pivot r_k that overflows raises ValidationError."""
    n = problem.n
    if problem.sigma == 0.0:
        caps = np.zeros(n)
    else:
        with np.errstate(divide="ignore", over="ignore"):
            caps = (float(problem.sigma) ** 2) / problem.spectrum.values ** 2
    r = np.zeros(n)
    remaining = problem.ellipsoid.radius ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = problem.ellipsoid.weights ** 2
        for i in np.argsort(a2, kind="stable"):
            cost = a2[i] * caps[i]
            if cost <= remaining:
                r[i] = caps[i]
                remaining -= cost
            elif remaining > 0.0:
                r[i] = remaining / a2[i]
                if r[i] == math.inf:
                    raise ValidationError(
                        f"r_star is non-finite at index {i + 1}: the budget left, "
                        f"{float(remaining)!r}, over a_{i + 1}^2 = {float(a2[i])!r} "
                        "overflows")
                remaining = 0.0
            else:
                break
    used = r > 0.0
    return (r, math.fsum(np.minimum(r, caps).tolist()),
            math.fsum((a2[used] * r[used]).tolist()),
            {i + 1 for i in range(n) if r[i] >= caps[i]},
            {i + 1 for i in range(n) if r[i] == caps[i]})


# the pivot 1e20/1e-300 overflows
PIVOT_OVERFLOW = SequenceProblem(explicit_spectrum([1e-160, 1e-160]),
                                 explicit_class([1e-150, 1.0], 1e10), 0.1, 2)


# a_1^2 sigma^2 rounds above Q^2, yet Q^2/a_1^2 rounds to the cap sigma^2
PIVOT_AT_CAP = SequenceProblem(explicit_spectrum([1.0, 1.0]),
                               explicit_class([3.7042823728344505, 4.0],
                                              0.4724107787262926),
                               0.1275309847301982, 2)
# s_1^2 and s_2^2 overflow (zero caps) and a_1^2 does (a cost inf * 0 = NaN):
# the pivot is coordinate 1, and coordinate 2 after it sits at its zero cap
LEADING_ZERO_CAPS = SequenceProblem(explicit_spectrum([1e160, 1e155, 1.0]),
                                    explicit_class([1e160, 1e160, 1e161], 1.0),
                                    0.1, 3)
# every cap is 0, and a_2^2 overflows: the pivot is coordinate 2
NOISELESS_PIVOT = SequenceProblem(explicit_spectrum([1.0, 0.5, 0.25]),
                                  explicit_class([1.0, 1e155, 1e160], 1.0), 0.0, 3)


@given(st.one_of(problems(), tied_problems()), st.booleans())
@example(OVERFLOWING_WEIGHTS, False)
@example(OVERFLOWING_WEIGHTS, True)
@example(NOISELESS_UNDERFLOW, False)
@example(PIVOT_OVERFLOW, False)
@example(PIVOT_AT_CAP, False)
@example(LEADING_ZERO_CAPS, False)
@example(NOISELESS_PIVOT, False)
@settings(max_examples=200, deadline=None)
def test_water_filling_matches_sorted_loop(problem, noiseless):
    """The index-order array fill has the bits and the pivot error of a
    stable sort of a_i^2 followed by a loop over the coordinates."""
    if noiseless:
        problem = SequenceProblem(problem.spectrum, problem.ellipsoid, 0.0,
                                  problem.n)
    try:
        r, value, budget_used, set_p, set_qeq = sorted_loop_water_filling(problem)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as raised:
            maximize_J_over_ellipsoid(problem)
        assert str(raised.value) == str(exc)
        return
    solution = maximize_J_over_ellipsoid(problem)
    assert solution.r_star.tobytes() == r.tobytes()
    assert solution.value.hex() == value.hex()
    assert solution.budget_used.hex() == budget_used.hex()
    assert (solution.set_p, solution.set_qeq) == (set_p, set_qeq)


# 16 certificate blocks of 32 rows at count = 500
MANY_BLOCKS = SequenceProblem(make_power_spectrum(1.0, 512),
                              make_power_class(1.0, 512), 1e-3, 512)
# Q^2/(d @ a^2) overflows, so every sampled row is infeasible
HUGE_BUDGET = SequenceProblem(explicit_spectrum([1.0, 0.5]),
                              explicit_class([1e-160, 1e-155], 1e150), 0.1, 2)


@given(st.one_of(problems(), tied_problems()), st.booleans(), st.booleans(),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
@example(OVERFLOWING_WEIGHTS, False, False, 0, 20)
@example(NOISELESS_UNDERFLOW, False, False, 0, 20)
@example(NOISELESS_UNDERFLOW, False, True, 1, 20)
@example(MANY_BLOCKS, False, False, 0, 500)
@example(MANY_BLOCKS, False, True, 2, 500)
@example(OVERFLOWING_WEIGHTS, False, True, 3, 1)
@example(HUGE_BUDGET, False, False, 0, 20)
@settings(max_examples=150, deadline=None)
def test_certificate_matches_per_coordinate_reference(problem, noiseless,
                                                      replaced, seed, count):
    """The masked fsums read the reference's bits, signed zeros included,
    also for a solution whose r* and sets are not the water-filling's; the
    blocked certificate returns the per-row maximum, or raises its error."""
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
    rows = sample_feasible_rectangles(problem, count, seed)
    try:
        got = [gateaux_derivative_J(solution, row) for row in rows]
    except ValidationError as exc:
        with pytest.raises(ValidationError) as raised:
            certify_maximizer(solution, count=count, seed=seed)
        assert str(raised.value) == str(exc)
        return
    want = [reference_derivative(solution, row) for row in rows]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert certify_maximizer(solution, count=count, seed=seed).hex() == max(want).hex()
    at_r_star = gateaux_derivative_J(solution, solution.r_star)
    assert at_r_star.hex() == reference_derivative(solution, solution.r_star).hex()


@st.composite
def source_sets(draw):
    """(phi, spectrum, sigma): power or exponential spectra with the power,
    log-power, exp-power or a custom index function.  Where phi is
    undefined at some s_j^2 (log-power at s_1 = 1) or vanishes there, both
    routes raise."""
    n = draw(st.integers(1, 300))
    if draw(st.booleans()):
        spectrum = make_power_spectrum(draw(st.floats(0.25, 3.0)), n)
    else:  # s_N^2 > 0
        spectrum = make_exponential_spectrum(draw(st.floats(0.05, min(1.5, 350 / n))), n)
    kind = draw(st.sampled_from(["power", "log_power", "exp_power", "custom"]))
    kappa = draw(st.floats(0.25, 3.0))
    if kind == "power":
        phi = power_index(kappa, draw(st.floats(0.25, 3.0)))
    elif kind == "log_power":
        phi = log_power_index(kappa)
    elif kind == "exp_power":
        phi = exp_power_index(draw(st.floats(0.05, 2.0)), draw(st.floats(0.5, 3.0)))
    else:
        phi = custom_index(lambda t: math.atan(t ** kappa))
    sigma = draw(st.one_of(st.just(0.0), st.floats(-8.0, 0.0).map(lambda e: 10.0 ** e)))
    return phi, spectrum, sigma


@given(source_sets())
# the bias at D = 0 overflows
@example((power_index(1.56, 1.0), explicit_spectrum([1e100, 1e-3, 1e-4]), 0.1))
# phi(s_3^2) = exp(-720) is subnormal: its weight 1/phi overflows to inf
@example((exp_power_index(80.0, 1.0), make_power_spectrum(2.0, 3), 0.0))
@settings(max_examples=150, deadline=None)
def test_source_set_bound_matches_ellipsoid_route(case):
    """source_set_bound is the ellipsoid route, with weights 1/phi(s_j^2)
    and Q = 1: optimal_truncation's level D* and truncation_risk's total
    there, bit for bit, or both raise."""
    phi, spectrum, sigma = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        try:
            problem = SequenceProblem(
                spectrum, ellipsoid_from_source_set(phi, spectrum), sigma,
                spectrum.n_max)
            d_star, _ = optimal_truncation(problem)
        except ValidationError:
            with pytest.raises(ValidationError):
                source_set_bound(phi, spectrum, sigma)
            return
        d, bound_sq, _ = source_set_bound(phi, spectrum, sigma)
    assert (d, bound_sq.hex()) == (d_star, truncation_risk(problem, d_star).total.hex())


@pytest.mark.parametrize("phi", [power_index(1.0, 1.0), log_power_index(1.0),
                                 exp_power_index(0.5, 1.0), custom_index(math.sqrt)],
                         ids=lambda phi: phi.kind)
def test_source_sets_evaluate_phi_once_per_coordinate(phi):
    """The conversion evaluates phi once at each s_j^2 and at the three
    decay probes, and source_set_bound nowhere else: N + 3 calls each."""
    n = 200
    spectrum = explicit_spectrum(0.5 / np.arange(1.0, n + 1.0))
    calls = []

    def counting(t):
        calls.append(t)
        return phi.fn(t)

    counted = dataclasses.replace(phi, fn=counting)
    ellipsoid_from_source_set(counted, spectrum)
    assert len(calls) <= n + 3
    calls.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        source_set_bound(counted, spectrum, 0.01)
    assert len(calls) <= n + 3


ROW_KINDS = ("positive", "signed", "scaled", "dyadic", "near_tie", "cancel",
             "zeros", "subnormal", "huge", "nonfinite")


def _row(kind: str, width: int, rng) -> np.ndarray:
    """One generated row of ``width`` values of the given kind."""
    if width == 0:
        return np.zeros(0)
    if kind == "positive":
        return rng.random(width) * 10.0 ** rng.uniform(-300.0, 300.0)
    if kind == "signed":
        return rng.standard_normal(width) * 2.0 ** rng.integers(-80, 80, width)
    if kind == "scaled":  # one scale from the subnormals to near 2^1023
        return rng.standard_normal(width) * 2.0 ** rng.integers(-1074, 1012)
    if kind == "dyadic":  # small integers times powers of two: ties are common
        return rng.integers(-9, 10, width) * 2.0 ** rng.integers(-60, 3, width)
    if kind == "near_tie":
        # b + h, with h half of one of b's gaps, plus dust that cancels up to
        # its rounding: the exact sum lies within numpy's rounding of a tie
        b = 1.0 if rng.random() < 0.5 else 1.0 + rng.random()
        h = rng.choice([-1.0, 1.0]) * math.ulp(b) / rng.choice([2.0, 4.0])
        pairs = max(width - 2, 0) // 2
        dust = rng.standard_normal(pairs) * h * 2.0 ** rng.integers(-40, 8)
        lost = rng.integers(-1, 2, pairs) * 2.0 ** -52
        row = np.concatenate([[b, h][:width], dust, -dust * (1.0 + lost),
                              [0.0] * (max(width - 2, 0) % 2)])
        scale = rng.choice([0, rng.integers(-1060, -880), rng.integers(980, 1010)])
        return rng.permutation(row) * 2.0 ** scale
    if kind == "cancel":  # values and their negatives, shuffled: the sum is 0
        half = rng.standard_normal(width // 2) * 10.0 ** rng.uniform(-20.0, 20.0)
        return rng.permutation(np.concatenate([half, -half, [0.0] * (width % 2)]))
    if kind == "zeros":  # all +0.0, all -0.0, or mixed
        return rng.choice([[0.0], [-0.0], [0.0, -0.0]][rng.integers(3)], width)
    if kind == "subnormal":
        return rng.integers(-7, 8, width) * 2.0 ** -1074
    if kind == "huge":  # sums near and past the largest double
        return rng.choice([-1.0, 1.0, 1.0, 1.0], width) * 2.0 ** 1023 * (
            1.0 - rng.integers(0, 4, width) * 2.0 ** -53)
    row = rng.standard_normal(width)  # nonfinite
    spots = rng.integers(0, width, rng.integers(1, 3))
    row[spots] = rng.choice([math.inf, -math.inf, math.nan], spots.size)
    return row


def _row_fsums(x):
    """_column_fsums of the rows of x, read through x.T."""
    return _column_fsums(x.T)


def _rounded_sum(values):
    """math.fsum of the floats values; where fsum overflows on the way, the
    exact sum (Fraction) rounded once, +-inf where that overflows, or, with
    a non-finite value, fsum of the non-finite values, as fsum would give
    it without the overflow."""
    try:
        return math.fsum(values)
    except OverflowError:
        special = [v for v in values if not math.isfinite(v)]
        if special:
            return math.fsum(special)
        exact = sum(map(Fraction, values))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def _fsum_rows(x):
    """[_rounded_sum(row) ...] as hex strings, or ValueError where a row's
    fsum raises it."""
    out = []
    for row in x.tolist():
        try:
            out.append(_rounded_sum(row).hex())
        except ValueError:
            return ValueError
    return out


@st.composite
def row_arrays(draw):
    """2-d float64 arrays whose rows mix the kinds above, widths 0 to 4099."""
    width = draw(st.sampled_from([0, 1, 2, 3, 5, 16, 64, 513, 4096, 4099]))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), max_size=3 if width > 512 else 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.array([_row(kind, width, rng) for kind in kinds]).reshape(len(kinds), width)


@given(row_arrays())
@example(np.zeros((3, 0)))
@example(np.array([[-0.0, -0.0], [0.0, -0.0], [1.5, -1.5], [-2.0 ** -1074, 0.0]]))
@example(np.array([[1.0, 2.0 ** -53], [1.0, 3 * 2.0 ** -53], [2.0 ** 1023, 2.0 ** 1023]]))
# numpy's sum drops 2^-135, below the tie 1 - 2^-54: the smaller gap decides
@example(np.array([[1.0, -2.0 ** -54, -2.0 ** -135], [-1.0, 2.0 ** -54, 2.0 ** -135]]))
@example(np.array([[1.0, 2.0], [math.inf, -math.inf]]))
# the overflowing row reads inf, and the next one raises ValueError
@example(np.array([[2.0 ** 1023, 2.0 ** 1023], [math.inf, -math.inf]]))
@example(np.array([[math.inf, -math.inf], [2.0 ** 1023, 2.0 ** 1023]]))
@example(np.array([[math.inf, 1.0], [math.nan, 1.0], [-math.inf, -math.inf]]))
@settings(max_examples=300, deadline=None)
def test_row_fsums_are_fsum_of_every_row(x):
    """_row_fsums gives math.fsum of each row bit for bit, reads a row
    whose fsum overflows as inf, and raises ValueError where a row's fsum
    does."""
    want = _fsum_rows(x)
    if isinstance(want, type):
        with pytest.raises(want):
            _row_fsums(x)
    else:
        assert [v.hex() for v in _row_fsums(x).tolist()] == want


def _layouts(x):
    """The rows of the C-contiguous 2-d array x as the columns of three
    arrays: a C-contiguous (width x rows) copy, the .T view of x, and a
    strided slice of a larger array whose other entries are nan."""
    rows, width = x.shape
    wide = np.full((2 * width + 1, 3 * rows), math.nan)
    strided = wide[1::2, ::3]
    strided[...] = x.T
    return {"C-contiguous": np.ascontiguousarray(x.T), ".T view": x.T,
            "strided": strided}


# fsum passes 2^1024 on the way, but the exact sum lies 2^900 below the
# tie max + 2^970, so it rounds to the largest double
OVER_THE_TOP = [sys.float_info.max - 2.0 ** 971, 2.0 ** 971 - 2.0 ** 918,
                2.0 ** 918 - 2.0 ** 900, 2.0 ** 970]


@given(row_arrays())
@example(np.zeros((3, 0)))
@example(np.array([[-0.0, -0.0], [0.0, -0.0], [1.5, -1.5], [-2.0 ** -1074, 0.0]]))
@example(np.array([[1.0, 2.0 ** -53], [1.0, 3 * 2.0 ** -53], [2.0 ** 1023, 2.0 ** 1023]]))
# numpy's sum drops 2^-135, below the tie 1 - 2^-54: the smaller gap decides
@example(np.array([[1.0, -2.0 ** -54, -2.0 ** -135], [-1.0, 2.0 ** -54, 2.0 ** -135]]))
@example(np.array([[1.0, 2.0], [math.inf, -math.inf]]))
# the overflowing row reads inf, and the next one raises ValueError
@example(np.array([[2.0 ** 1023, 2.0 ** 1023], [math.inf, -math.inf]]))
@example(np.array([[math.inf, -math.inf], [2.0 ** 1023, 2.0 ** 1023]]))
@example(np.array([[math.inf, 1.0], [math.nan, 1.0], [-math.inf, -math.inf]]))
@example(np.array([OVER_THE_TOP, [-v for v in OVER_THE_TOP]]))
@settings(max_examples=300, deadline=None)
def test_column_fsums_are_fsum_of_every_column_in_each_layout(x):
    """_column_fsums gives the bits of math.fsum for each column, whether
    the array is C-contiguous, a .T view or strided: an overflowing sum
    reads +-inf, one that fsum overflows on the way to a finite value
    reads that value, and ValueError is raised where fsum raises it."""
    want = _fsum_rows(x)
    for name, columns in _layouts(x).items():
        if isinstance(want, type):
            with pytest.raises(want):
                _column_fsums(columns)
        else:
            got = [v.hex() for v in _column_fsums(columns).tolist()]
            assert got == want, name


@st.composite
def sum_arrays(draw):
    """1-d float64 arrays of one or two of the row kinds above, of lengths
    on both sides of _ARRAY_SUM_MIN and past _BLOCK_DOUBLES."""
    n = draw(st.sampled_from([0, 1, 7, _ARRAY_SUM_MIN, _ARRAY_SUM_MIN + 1, 800,
                              4099, _BLOCK_DOUBLES + 3, 2 * _BLOCK_DOUBLES + 5]))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cut = int(rng.integers(0, n + 1)) if len(kinds) == 2 else n
    return np.concatenate([_row(kinds[0], cut, rng), _row(kinds[-1], n - cut, rng)])


def _padded(*values, n=_ARRAY_SUM_MIN + 44):
    """values, then zeros up to length n, past the crossover."""
    return np.concatenate([values, np.zeros(n - len(values))])


@given(sum_arrays())
# exact two-term midpoints, and one a lost 2^-200 decides
@example(_padded(1.5, 2.0 ** -53))
@example(_padded(1.0, 2.0 ** -53))
@example(_padded(-1.0 - 2.0 ** -52, -(2.0 ** -53)))
@example(_padded(1.5, 2.0 ** -53, 2.0 ** -200))
# cancellation to +-0
@example(np.concatenate([np.arange(1.0, 400.0), -np.arange(1.0, 400.0)]))
@example(np.full(_ARRAY_SUM_MIN + 1, -0.0))
@example(_padded(-0.0, 1e-300, -1e-300, n=_BLOCK_DOUBLES + 1) * -1.0)
# subnormals
@example(np.full(600, 5e-324))
@example(_padded(3 * 2.0 ** -1074, -(2.0 ** -1074), 2.0 ** -1022))
# (n + 2) * max|x| at 2^-900 and 2^1020, and one ulp outside
@example(np.full(510, 2.0 ** -909))
@example(np.full(510, math.nextafter(2.0 ** -909, 0.0)))
@example(np.full(510, 2.0 ** 1011))
@example(np.full(510, math.nextafter(2.0 ** 1011, math.inf)))
@example(_padded(2.0 ** 1011, -(2.0 ** 1011) / 3, n=510))  # a tie at the top
@example(np.full(510, 2.0 ** 1014))  # a span of 2^1023: tau would overflow
# inf and nan entries
@example(_padded(1.0, math.inf))
@example(_padded(-math.inf, 1e308, 1e308))
@example(_padded(math.nan, 1.0))
@example(_padded(math.inf, -math.inf))
@settings(max_examples=200, deadline=None)
def test_exact_sum_is_fsum(x):
    """_exact_sum gives math.fsum's bits on either side of the crossover,
    in one block or several: a sum that fsum overflows on the way to a
    finite value reads that value, one whose rounded value overflows reads
    +-inf, and ValueError is raised where fsum raises it."""
    want = _fsum_rows(x[None])
    if isinstance(want, type):
        with pytest.raises(want):
            _exact_sum(x)
    else:
        assert [_exact_sum(x).hex()] == want


_U = Fraction(1, 2 ** 53)


def _higham_bound(n: int, tau: float) -> Fraction:
    """gamma_{n-1} * n * u * tau exactly: the most by which a float sum of
    n values of magnitude at most u * tau can miss their exact sum."""
    m = (n - 1) * _U
    return m / (1 - m) * n * _U * Fraction(tau)


@st.composite
def certificate_cases(draw):
    """(t1, t2, tau, n) as the split of n values by tau yields them: tau a
    power of two above the sum, t1 a multiple of u * tau and t2 of at most
    n * u * tau, with t1 + t2 drawn within a few bounds of a midpoint
    between two doubles."""
    n = draw(st.integers(2, 1 << 22))
    r = math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), draw(st.integers(-800, 900)))
    tau = math.ldexp(1.0, math.frexp(r)[1] + draw(st.integers(1, 60)))
    unit = tau * 2.0 ** -53
    t1 = round(r / unit) * unit
    half = (r - math.nextafter(r, 0.0)) / 2  # the smaller half gap
    t = half - draw(st.floats(0.0, 2.0)) * float(_higham_bound(n, tau))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return sign * t1, sign * ((r - t1) + draw(st.sampled_from([-t, t]))), tau, n


@given(certificate_cases())
# |t| plus the bound, as computed, is exactly half the gap, and the bound
# reaches past the midpoint
@example((1.5, float.fromhex("0x1.ffffec7e40000p-54"), 8192.0, 800))
@example((1.0 + 2.0 ** -52, float.fromhex("0x1.fffffffffffc0p-54"), 32.0, 2))
@settings(max_examples=300, deadline=None)
def test_certificate_holds_across_its_error_bound(case):
    """Where _certified accepts r, every sum within Higham's bound of
    t1 + t2 rounds to r: the exact sum of the values that t2 sums
    inexactly may lie anywhere within it.  numpy's float sums of real
    arrays miss by far less than that bound, so a loosened test (<= for <,
    or half the bound) still gives fsum's bits on every array above; this
    property sees it."""
    t1, t2, tau, n = case
    r, ok = _certified(t1, t2, tau, n)
    assert r == t1 + t2
    if ok:
        centre, bound = Fraction(t1) + Fraction(t2), _higham_bound(n, tau)
        assert float(centre - bound) == float(centre + bound) == r


SCANS = ("optimal_truncation", "testing_radius_sq", "deterministic_rate_sq")


def _scan_outcome(scan, *args):
    """(result, warnings) of one scan: the result as (D*, value.hex(), ...),
    or the ValidationError's text; every warning as (category, text)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = scan(*args)
        except ValidationError as exc:
            result = ("ValidationError", str(exc))
        else:
            assert type(result[0]) is int
            result = (result[0],) + tuple(float(x).hex() for x in result[1:])
    return result, [(w.category, str(w.message)) for w in caught]


@st.composite
def scan_problems(draw):
    """Problems for the level scans: the generated problems above, dyadic
    ties, extreme explicit problems whose 1/s_j^2, 1/s_j^4 and Q^2/a_j^2
    overflow or underflow, and near-tie plateaus, where Q^2/a_(D+1)^2 +
    sigma^2 * sum_{j<=D} 1/s_j^2 stays within a few ulps of one constant,
    so that many levels are candidates and need their exact sums; each
    with sigma = 0 in turn."""
    kind = draw(st.sampled_from(["generated", "tied", "extreme", "plateau"]))
    if kind == "generated":
        problem = draw(problems())
    elif kind == "tied":
        problem = draw(tied_problems())
    else:
        n = draw(st.integers(1, 300))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        if kind == "extreme":
            spectrum = explicit_spectrum(
                np.sort(10.0 ** rng.uniform(-170.0, 2.0, n))[::-1])
            ellipsoid = explicit_class(np.sort(10.0 ** rng.uniform(-150.0, 150.0, n)),
                                       10.0 ** rng.uniform(-1.0, 1.0))
            sigma = 10.0 ** rng.uniform(-150.0, 0.0)
        else:
            spectrum = draw(st.sampled_from([
                make_power_spectrum(1.0, n), make_exponential_spectrum(0.01, n),
                explicit_spectrum(np.sort(rng.uniform(0.5, 1.0, n))[::-1])]))
            sigma = 10.0 ** rng.uniform(-6.0, -1.0)
            noise = np.array([math.fsum((1.0 / spectrum.values[:d] ** 2).tolist())
                              for d in range(n)])
            top = sigma ** 2 * noise[-1] * (1.0 + 10.0 ** rng.uniform(-3.0, 1.0))
            ellipsoid = explicit_class(1.0 / np.sqrt(top + 1.0 - sigma ** 2 * noise), 1.0)
        problem = SequenceProblem(spectrum, ellipsoid, sigma, n)
    if draw(st.booleans()):
        problem = SequenceProblem(problem.spectrum, problem.ellipsoid, 0.0, problem.n)
    return problem


@given(scan_problems())
@example(OVERFLOWING_WEIGHTS)
@example(NOISELESS_UNDERFLOW)
@example(PIVOT_OVERFLOW)
@example(HUGE_BUDGET)
# every level ties at 1.0: sigma^2 * sum j^2 is below half an ulp of 1
@example(SequenceProblem(make_power_spectrum(1.0, 2000),
                         explicit_class(np.ones(2000), 1.0), 1e-150, 2000))
@settings(max_examples=300, deadline=None)
def test_array_scans_match_the_per_level_loops(problem):
    """The array pass of _best_level returns the (D*, value) bits of the
    early-stopping per-level loop in tests/scan_reference.py, raises the
    same ValidationError and warns the same, for the three problem scans."""
    for name in SCANS:
        assert _scan_outcome(getattr(minimax_seq, name), problem) == _scan_outcome(
            getattr(scan_reference, name), problem), name


@given(source_sets())
@example((power_index(1.56, 1.0), explicit_spectrum([1e100, 1e-3, 1e-4]), 0.1))
@settings(max_examples=150, deadline=None)
def test_array_source_set_scan_matches_the_per_level_loop(case):
    """source_set_bound's array bias and scan read the per-level loop's bits."""
    assert _scan_outcome(source_set_bound, *case) == _scan_outcome(
        scan_reference.source_set_bound, *case)


# values that break the array rules or sit at their edges: NaN, +-inf, 0,
# negatives, subnormals, and the weights on either side of the largest one
# whose square rounds to 0
_RULE_EDGES = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-310, 1e-200,
    problem_mod._SQUARE_UNDERFLOW, math.nextafter(problem_mod._SQUARE_UNDERFLOW, 1.0),
    1e-150, 1.0, 1e200, sys.float_info.max])


@st.composite
def rule_arrays(draw):
    """(what, x, kind, param, generated) for _array_violations: a
    generator's array or a sorted drawn one, lengths 0 to 12."""
    what = draw(st.sampled_from(("spectrum", "class")))
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(0, 12))
    param = None if kind == "explicit" else draw(st.floats(0.05, 3.0))
    if param is not None and draw(st.booleans()):
        sign = -1.0 if what == "spectrum" else 1.0
        x = problem_mod._FORMULAS[kind][0](np.arange(1, n + 1, dtype=np.float64),
                                           sign * param)
    else:
        x = np.array(sorted(draw(st.lists(st.floats(0.0, 1e300) | _RULE_EDGES,
                                          min_size=n, max_size=n)),
                            reverse=what == "spectrum"), dtype=np.float64)
    return what, x, kind, param, draw(st.booleans())


# up to 3 edits (edit, j, value) of an array: an edge value, a swapped
# neighbour pair, an equal neighbour, or a value moved 1 ulp toward +-inf
_RULE_EDITS = st.lists(st.one_of(
    st.tuples(st.just("edge"), st.integers(0, 11), _RULE_EDGES),
    st.tuples(st.sampled_from(("swap", "equal")), st.integers(0, 11), st.none()),
    st.tuples(st.just("ulp"), st.integers(0, 11),
              st.sampled_from((-math.inf, math.inf)))), max_size=3)


def _edited(x: np.ndarray, edits) -> np.ndarray:
    """A copy of x with the edits applied in turn at index j mod len(x).
    A value moved 1 ulp past the largest double is inf, with no warning
    (np.nextafter would warn of an overflow)."""
    x = x.copy()
    for edit, j, value in edits if len(x) else ():
        j %= len(x)
        if edit == "edge":
            x[j] = value
        elif edit == "swap" and j + 1 < len(x):
            x[j], x[j + 1] = x[j + 1], x[j]
        elif edit == "equal" and j + 1 < len(x):
            x[j + 1] = x[j]
        elif edit == "ulp":
            x[j] = math.nextafter(x[j], value)
    return x


@given(rule_arrays(), _RULE_EDITS)
@example(("class", np.zeros(0), "power", 1.0, False), [])
@example(("spectrum", np.array([math.nan]), "explicit", None, False), [])
# subnormal weights: every square underflows, the last one's just does not
@example(("class", np.array([5e-324, 1e-200, problem_mod._SQUARE_UNDERFLOW,
                             math.nextafter(problem_mod._SQUARE_UNDERFLOW, 1.0)]),
          "explicit", None, False), [])
# a power spectrum 1 ulp off its generator at j = 3, direct or a generator's
@example(("spectrum", np.array([1.0, 0.5, math.nextafter(1.0 / 3.0, 1.0), 0.25]),
          "power", 1.0, False), [])
@example(("spectrum", np.array([1.0, 0.5, math.nextafter(1.0 / 3.0, 1.0), 0.25]),
          "power", 1.0, True), [])
# a direct exponential class whose formula overflows: a mismatch, no warning
@example(("class", np.array([1.0, 2.0]), "exponential", 800.0, False), [])
# the largest weight or value moved 1 ulp up: inf, which the rules flag
@example(("class", np.array([1.0, sys.float_info.max]), "explicit", None, False),
         [("ulp", 1, math.inf)])
@example(("spectrum", np.array([sys.float_info.max, 1.0]), "power", 1.0, False),
         [("ulp", 0, math.inf), ("swap", 0, None)])
@settings(max_examples=300, deadline=None)
def test_array_rules_match_the_per_value_loops(case, edits):
    """_array_violations returns exactly the violations, in order and with
    their messages, of the per-value loops in tests/array_reference.py, on
    an array after a few edits."""
    what, x, kind, param, generated = case
    case = (what, _edited(x, edits), kind, param, generated)
    assert problem_mod._array_violations(*case) == array_reference.array_violations(*case)
