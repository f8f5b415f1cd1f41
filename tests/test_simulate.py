import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minimax_seq import (
    SequenceProblem,
    SimulationConfig,
    ValidationError,
    estimate,
    explicit_class,
    explicit_spectrum,
    least_favorable,
    make_exponential_class,
    make_exponential_spectrum,
    make_power_class,
    make_power_spectrum,
    monte_carlo_risk,
    sample_observations,
    simulate,
    truncation_risk,
)
from minimax_seq.simulate import _tail_expansion
from minimax_seq.truncation import _BLOCK_DOUBLES, _column_fsums


def toy_problem(sigma=0.1, n=16):
    return SequenceProblem(make_power_spectrum(1.0, n),
                           make_power_class(1.0, n), sigma, n)


class TestSampleObservations:
    def test_unusable_problem_rejected(self):
        # the problem is checked first, as every other public function that
        # takes one does: a sigma < 0 was sampled, and an N that does not
        # match the spectrum was read as the length of theta
        theta = np.zeros(8)
        bad_sigma = SequenceProblem(make_power_spectrum(1.0, 8),
                                    make_power_class(1.0, 8), -0.1, 8)
        with pytest.raises(ValidationError, match=r"^invalid problem: sigma positive"):
            sample_observations(theta, bad_sigma, 0)
        bad_n = SequenceProblem(make_power_spectrum(1.0, 8),
                                make_power_class(1.0, 8), 0.1, 2 ** 70)
        with pytest.raises(ValidationError, match=r"^invalid problem: N mismatch"):
            sample_observations(theta, bad_n, 0)

    def test_noiseless_is_exact(self):
        p = toy_problem(sigma=0.0)
        theta = least_favorable(p, 3)
        obs = sample_observations(theta, p, 42)
        np.testing.assert_array_equal(obs, theta)

    def test_fixed_seed_reproduces(self):
        p = toy_problem()
        theta = least_favorable(p, 3)
        a = sample_observations(theta, p, 9, count=5)
        b = sample_observations(theta, p, 9, count=5)
        np.testing.assert_array_equal(a, b)

    def test_different_replications_differ(self):
        p = toy_problem()
        theta = least_favorable(p, 3)
        a, b = sample_observations(theta, p, 9, count=2)
        assert not np.array_equal(a, b)

    def test_overflowing_noise_reads_inf_without_warning(self):
        # sigma / s_2 = 0.1 / 1e-320 overflows
        p = SequenceProblem(explicit_spectrum(np.array([1.0, 1e-320])),
                            explicit_class(np.ones(2), 1.0), 0.1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = sample_observations(np.zeros(2), p, 1)
            block = sample_observations(np.zeros(2), p, 1, count=4)
        assert np.isfinite(block[:, 0]).all() and np.isinf(block[:, 1]).all()
        assert block[0].tobytes() == single.tobytes()

    def test_noise_scale_matches_amplification(self):
        # empirical std of z_k - theta_k over many draws is sigma/s_k
        p = toy_problem(sigma=0.2, n=8)
        theta = np.zeros(8)
        draws = 100_000
        acc = sample_observations(theta, p, 77, count=draws)
        got_var = acc.var(axis=0, ddof=1)
        want_var = (p.sigma / p.spectrum.values) ** 2
        # sample variance of R normals has std ~ var * sqrt(2/(R-1))
        three_se = 3.0 * want_var * math.sqrt(2.0 / (draws - 1))
        assert np.all(np.abs(got_var - want_var) <= three_se)

    def test_length_mismatch_rejected(self):
        p = toy_problem(n=8)
        for theta in (np.zeros(9), np.zeros(7), np.zeros((8, 1))):
            with pytest.raises(ValidationError, match="element length"):
                sample_observations(theta, p, 0)

    @pytest.mark.parametrize("seed, message", [
        ((9, 4), "seed must be an integer"),
        (-1, "seed must fit in 64 unsigned bits"),
        (2 ** 64, "seed must fit in 64 unsigned bits"),
        (2.0, "seed must be an integer"),
        (True, "seed must be an integer"),
    ])
    def test_invalid_seeds_rejected(self, seed, message):
        p = toy_problem(n=8)
        with pytest.raises(ValidationError, match=message):
            sample_observations(np.zeros(8), p, seed)

    @pytest.mark.parametrize("count, message", [
        (0, "count must be >= 1"),
        (-1, "count must be >= 1"),
        (2.5, "count must be an integer"),
        (True, "count must be an integer"),
        ("3", "count must be an integer"),
    ])
    def test_invalid_counts_rejected(self, count, message):
        p = toy_problem(n=8)
        with pytest.raises(ValidationError, match=message):
            sample_observations(np.zeros(8), p, 0, count=count)

    def test_seed_extremes_and_numpy_integers_keep_their_stream(self):
        p = toy_problem(n=8)
        for m in (0, 2 ** 64 - 1, np.uint64(5), np.int64(7)):
            got = sample_observations(np.zeros(8), p, m)
            want = fresh_stream_draw(np.zeros(8), p, int(m))
            assert got.tobytes() == want.tobytes()


class TestMonteCarloRisk:
    def test_matches_closed_form_at_least_favorable(self):
        p = toy_problem(sigma=0.05)
        d = 4
        theta = least_favorable(p, d)
        config = SimulationConfig(10_000, 314159, p.n)
        est = monte_carlo_risk(p, theta, d, config)
        closed = truncation_risk(p, d).total
        assert abs(est.mean_sq_error - closed) <= 3.0 * est.std_error

    def test_noiseless_tail_is_exact(self, rng):
        p = toy_problem(sigma=0.0)
        coeffs = rng.uniform(-0.1, 0.1, p.n) / p.ellipsoid.weights
        d = 5
        est = monte_carlo_risk(p, coeffs, d, SimulationConfig(100, 1, p.n))
        tail = math.fsum((coeffs[d:] ** 2).tolist())
        assert est.mean_sq_error == tail
        assert est.std_error == 0.0

    def test_full_level_is_pure_variance(self):
        p = toy_problem(sigma=0.05, n=8)
        theta = least_favorable(p, 2)
        config = SimulationConfig(20_000, 7, p.n)
        est = monte_carlo_risk(p, theta, p.n, config)
        from minimax_seq import rho_squared
        want = p.sigma ** 2 * rho_squared(p.spectrum, p.n)
        assert abs(est.mean_sq_error - want) <= 3.0 * est.std_error

    @pytest.mark.parametrize("d", [2.5, 2.0])
    def test_non_integer_level_rejected(self, d):
        # not a raw TypeError from slicing theta
        p = toy_problem()
        with pytest.raises(ValidationError, match="D must be an integer"):
            monte_carlo_risk(p, np.zeros(p.n), d, SimulationConfig(4, 1, p.n))

    def test_bit_identical_reruns(self):
        p = toy_problem()
        theta = least_favorable(p, 3)
        config = SimulationConfig(500, 99, p.n)
        a = monte_carlo_risk(p, theta, 3, config)
        b = monte_carlo_risk(p, theta, 3, config)
        assert (a.mean_sq_error, a.std_error) == (b.mean_sq_error, b.std_error)

    def test_replications_use_keyed_streams(self):
        # replication r must equal row r of one level-3 draw keyed by the
        # master seed: 3 normals each
        p = toy_problem()
        theta = least_favorable(p, 3)
        config = SimulationConfig(50, 1234, p.n)
        est = monte_carlo_risk(p, theta, 3, config)
        errors = []
        for obs in sample_observations(theta, p, 1234, count=50, D=3):
            diff = theta - estimate(unread_beyond(obs, p.n), 3)
            errors.append(math.fsum((diff * diff).tolist()))
        assert est.mean_sq_error == math.fsum(errors) / 50

    @pytest.mark.parametrize("n", [1, 3, 64])
    @pytest.mark.parametrize("block", [1, 7, 200])
    def test_block_size_keeps_the_bits(self, monkeypatch, n, block):
        p = toy_problem(n=n)
        theta = least_favorable(p, n - 1)
        config = SimulationConfig(300, 2024, n)
        want = monte_carlo_risk(p, theta, n // 2, config)
        monkeypatch.setattr(simulate, "_BLOCK_DOUBLES", block)
        got = monte_carlo_risk(p, theta, n // 2, config)
        assert ((got.mean_sq_error.hex(), got.std_error.hex())
                == (want.mean_sq_error.hex(), want.std_error.hex()))

    def test_common_random_numbers_make_comparison_exact(self):
        # under shared streams the risk gap between two spikes is exactly
        # their bias gap, for any replication count
        p = toy_problem(sigma=0.05)
        d = 3
        config = SimulationConfig(25, 8, p.n)
        r1 = monte_carlo_risk(p, least_favorable(p, d), d, config)
        r2 = monte_carlo_risk(p, least_favorable(p, d + 1), d, config)
        want_gap = truncation_risk(p, d).bias_sq - truncation_risk(p, d + 1).bias_sq
        assert r1.mean_sq_error - r2.mean_sq_error == pytest.approx(
            want_gap, rel=1e-9)


class TestSimulationConfig:
    @pytest.mark.parametrize("args, field", [
        ((2.5, 1, 8), "replications"),
        ((True, 1, 8), "replications"),
        ((3, 1.5, 8), "master_seed"),
        ((3, False, 8), "master_seed"),
        ((3, 1, 8.0), "n"),
        ((3, 1, "8"), "n"),
    ])
    def test_non_integers_rejected(self, args, field):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            SimulationConfig(*args)

    def test_replications_beyond_the_maximum_rejected(self):
        assert SimulationConfig(1 << 22, 1, 8).replications == 1 << 22
        with pytest.raises(ValidationError, match="exceeds the maximum 4194304"):
            SimulationConfig((1 << 22) + 1, 1, 8)

    def test_numpy_integers_stored_as_int(self):
        p = toy_problem(n=8)
        config = SimulationConfig(np.int64(3), np.uint64(5), np.int32(8))
        assert [type(v) for v in (config.replications, config.master_seed,
                                  config.n)] == [int, int, int]
        est = monte_carlo_risk(p, least_favorable(p, 2), 2, config)
        assert type(est.mean_sq_error) is float
        assert type(est.std_error) is float
        assert type(est.replications) is int


KINDS = ("power", "exponential", "explicit")


@st.composite
def mc_cases(draw):
    """(problem, theta, D, config) with R at the edges of the block size."""
    n = draw(st.integers(1, 512))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spectrum_kind, class_kind = draw(st.sampled_from(KINDS)), draw(st.sampled_from(KINDS))
    if spectrum_kind == "power":
        spectrum = make_power_spectrum(draw(st.floats(0.25, 2.0)), n)
    elif spectrum_kind == "exponential":
        spectrum = make_exponential_spectrum(draw(st.floats(0.05, min(1.0, 50 / n))), n)
    else:
        spectrum = explicit_spectrum(np.sort(10.0 ** rng.uniform(-3.0, 0.0, n))[::-1])
    if class_kind == "power":
        ellipsoid = make_power_class(draw(st.floats(0.25, 3.0)), n)
    elif class_kind == "exponential":
        ellipsoid = make_exponential_class(draw(st.floats(0.05, min(2.0, 300 / n))), n)
    else:
        ellipsoid = explicit_class(np.sort(10.0 ** rng.uniform(0.0, 3.0, n)), 1.0)
    sigma = draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0]))
    problem = SequenceProblem(spectrum, ellipsoid, sigma, n)
    d = draw(st.sampled_from([0, n, int(rng.integers(0, n + 1))]))
    if draw(st.booleans()):
        theta = least_favorable(problem, int(rng.integers(0, n)))
    else:  # strictly inside the ellipsoid
        theta = rng.uniform(-1.0, 1.0, n) / (ellipsoid.weights * math.sqrt(n))
    # monte_carlo_risk's rows per block: each row holds d squared errors
    # and the expansion of the constant tail
    rows = max(1, _BLOCK_DOUBLES // max(1, d + len(_tail_expansion(theta[d:]))))
    reps = draw(st.sampled_from([1, max(1, rows - 1), rows, rows + 1, 2 * rows + 1]))
    config = SimulationConfig(reps, draw(st.integers(0, 2 ** 64 - 1)), n)
    return problem, theta, d, config


def unread_beyond(obs, n):
    """The first D observed coefficients padded to length n with NaN, which
    the level-D estimator must never read."""
    return np.concatenate([obs, np.full(n - len(obs), np.nan)])


def reference_risk(problem, theta, D, config):
    """monte_carlo_risk from one draw of D normals per replication and one
    fsum per row: (mean, std_error)."""
    errors = []
    for z in sample_observations(theta, problem, config.master_seed,
                                 count=config.replications, D=D):
        d = theta - estimate(unread_beyond(z, problem.n), D)
        errors.append(math.fsum((d * d).tolist()))
    reps = len(errors)
    if min(errors) == max(errors):
        return errors[0], 0.0
    mean = math.fsum(errors) / reps
    var = math.fsum((e - mean) ** 2 for e in errors) / (reps - 1)
    return mean, math.sqrt(var / reps)


def fresh_stream_draw(theta, problem, m):
    """A single draw from a newly built generator keyed by the words (m, 0)."""
    key = np.array([m, 0], dtype=np.uint64)
    xi = np.random.Generator(np.random.Philox(key=key)).standard_normal(problem.n)
    return theta + (problem.sigma / problem.spectrum.values) * xi


_TOY = toy_problem(n=64)
_WIDE = toy_problem(n=_BLOCK_DOUBLES + 1)


@given(mc_cases())
@example((toy_problem(sigma=0.0), least_favorable(toy_problem(), 2), 16,
          SimulationConfig(300, 3, 16)))
@example((_TOY, least_favorable(_TOY, 3), 0, SimulationConfig(129, 2 ** 64 - 1, 64)))
# rows of 64 squared errors, 256 to a block: two blocks
@example((_TOY, least_favorable(_TOY, 3), 64, SimulationConfig(257, 5, 64)))
# a row of _BLOCK_DOUBLES squared errors and one tail double: one-row blocks
@example((_WIDE, least_favorable(_WIDE, _BLOCK_DOUBLES), _BLOCK_DOUBLES,
          SimulationConfig(3, 11, _BLOCK_DOUBLES + 1)))
@settings(max_examples=60, deadline=None)
def test_blocked_monte_carlo_matches_one_draw_per_replication(case):
    problem, theta, d, config = case
    est = monte_carlo_risk(problem, theta, d, config)
    mean, std_error = reference_risk(problem, theta, d, config)
    assert (est.mean_sq_error.hex(), est.std_error.hex()) == (mean.hex(), std_error.hex())


@given(mc_cases(), st.integers(1, 70), st.data())
@settings(max_examples=60, deadline=None)
def test_block_rows_equal_single_draws(case, count, data):
    problem, theta, _, config = case
    m = config.master_seed
    block = sample_observations(theta, problem, m, count=count)
    assert block.shape == (count, problem.n)
    assert not block.flags.writeable
    single = sample_observations(theta, problem, m)
    assert single.shape == (problem.n,)
    assert block[0].tobytes() == single.tobytes()
    assert single.tobytes() == fresh_stream_draw(theta, problem, m).tobytes()
    # split calls on one Generator continue its stream: None draws one row
    gen = np.random.Generator(np.random.Philox(key=m))
    parts, left = [], count
    while left:
        k = data.draw(st.sampled_from([None, *range(1, left + 1)]))
        part = sample_observations(theta, problem, gen, count=k)
        parts.append(part.reshape(-1, problem.n))
        left -= k or 1
    assert np.concatenate(parts).tobytes() == block.tobytes()


@given(mc_cases(), st.integers(1, 70), st.data())
@settings(max_examples=60, deadline=None)
def test_level_blocks_read_d_normals_per_row(case, count, data):
    problem, theta, _, config = case
    n, m = problem.n, config.master_seed
    d = data.draw(st.sampled_from([0, n, data.draw(st.integers(0, n))]))
    # D = N is the default, bit for bit
    assert (sample_observations(theta, problem, m, count=count, D=n).tobytes()
            == sample_observations(theta, problem, m, count=count).tobytes())
    assert (sample_observations(theta, problem, m, D=n).tobytes()
            == sample_observations(theta, problem, m).tobytes())
    block = sample_observations(theta, problem, m, count=count, D=d)
    single = sample_observations(theta, problem, m, D=d)
    assert block.shape == (count, d) and single.shape == (d,)
    assert not block.flags.writeable and not single.flags.writeable
    # row 0 is the first D coordinates of the single draw keyed m
    assert block[0].tobytes() == single.tobytes()
    assert single.tobytes() == sample_observations(theta, problem, m)[:d].tobytes()
    # row r holds the normals r*D .. r*D + D - 1 of the one stream
    xi = np.random.Generator(np.random.Philox(key=m)).standard_normal(count * d)
    want = theta[:d] + (problem.sigma / problem.spectrum.values[:d]) * xi.reshape(count, d)
    assert block.tobytes() == want.tobytes()


def test_level_zero_draws_nothing():
    p = toy_problem(n=8)
    gen = np.random.Generator(np.random.Philox(key=3))
    assert sample_observations(np.zeros(8), p, gen, count=5, D=0).shape == (5, 0)
    assert sample_observations(np.zeros(8), p, gen, D=0).shape == (0,)
    assert (sample_observations(np.zeros(8), p, gen).tobytes()
            == sample_observations(np.zeros(8), p, 3).tobytes())


@pytest.mark.parametrize("d, message", [
    (-1, r"level D = -1 out of range 0\.\.8"),
    (9, r"level D = 9 out of range 0\.\.8"),
    (2.0, "D must be an integer"),
    (True, "D must be an integer"),
])
def test_levels_outside_the_range_rejected(d, message):
    p = toy_problem(n=8)
    with pytest.raises(ValidationError, match=message):
        sample_observations(np.zeros(8), p, 0, D=d)
    with pytest.raises(ValidationError, match=message):
        sample_observations(np.zeros(8), p, 0, count=2, D=d)


def test_level_draws_still_check_theta_at_length_n():
    p = toy_problem(n=8)
    with pytest.raises(ValidationError, match="element length 3 does not match N = 8"):
        sample_observations(np.zeros(3), p, 0, D=3)


@st.composite
def tail_rows(draw):
    """(head, tail): a block of squared head errors and the coefficients
    beyond the level, with D = 0, D = N, spike and random interior tails."""
    n = draw(st.integers(1, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.sampled_from([0, n, int(rng.integers(0, n + 1))]))
    tail = np.zeros(n - d)
    if n > d and draw(st.booleans()):  # a spike
        tail[int(rng.integers(0, n - d))] = 10.0 ** rng.uniform(-150.0, 150.0)
    elif n > d:  # every magnitude the squares can take, and zeros
        tail = rng.choice([-1.0, 1.0], n - d) * 10.0 ** rng.uniform(-160.0, 150.0, n - d)
        tail[rng.random(n - d) < 0.2] = 0.0
    # heads near the tail's sum, where its low bits decide the rounding
    scale = math.sqrt(math.fsum((tail * tail).tolist()) or 1.0)
    head = rng.normal(size=(draw(st.integers(1, 40)), d)) * scale * 2.0 ** rng.uniform(-40.0, 4.0)
    return head * head, tail


@given(tail_rows())
@example((np.zeros((3, 0)), np.zeros(0)))
@example((np.ones((2, 4)), np.zeros(0)))
@example((np.zeros((2, 0)), np.array([1.0, 2.0 ** -60, 2.0 ** -120, 5e-324])))
# 1 + 2^-53 is a tie that the tail's 2^-60 breaks upwards
@example((np.array([[2.0 ** -53]]), np.array([1.0, 2.0 ** -30])))
@settings(max_examples=200, deadline=None)
def test_tail_expansion_keeps_the_row_sums(case):
    head, tail = case
    parts = _tail_expansion(tail)
    assert all(math.isfinite(x) and x != 0.0 for x in parts)
    assert all(abs(b) < abs(a) for a, b in zip(parts, parts[1:]))
    full = np.hstack([head, np.broadcast_to(tail * tail, (len(head), len(tail)))])
    short = np.hstack([head, np.broadcast_to(np.array(parts), (len(head), len(parts)))])
    want = [math.fsum(row) for row in full.tolist()]
    assert [x.hex() for x in _column_fsums(short.T)] == [x.hex() for x in want]
    assert [math.fsum(row).hex() for row in short.tolist()] == [x.hex() for x in want]


@pytest.mark.parametrize("tail", [
    [1e200],                      # a square that overflows
    [1e154, 1e154, 1e154],        # finite squares whose sum overflows
], ids=["square", "sum"])
@pytest.mark.parametrize("d", [0, 2])
def test_overflowing_tail_is_validation_error(tail, d):
    n = 2 + len(tail)
    p = SequenceProblem(explicit_spectrum(np.linspace(1.0, 0.5, n)),
                        explicit_class(np.ones(n), 1.0), 0.1, n)
    theta = np.array([0.1, 0.2, *tail])
    with pytest.raises(OverflowError):
        _tail_expansion(theta[2:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"level D = {d} overflows"):
            monte_carlo_risk(p, theta, d, SimulationConfig(5, 1, n))
