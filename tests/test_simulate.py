import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minimax_seq import (
    SequenceProblem,
    SimulationConfig,
    ValidationError,
    empirical_worst_case,
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
from minimax_seq.truncation import _BLOCK_DOUBLES


def toy_problem(sigma=0.1, n=16):
    return SequenceProblem(make_power_spectrum(1.0, n),
                           make_power_class(1.0, n), sigma, n)


class TestSampleObservations:
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

    def test_bit_identical_reruns(self):
        p = toy_problem()
        theta = least_favorable(p, 3)
        config = SimulationConfig(500, 99, p.n)
        a = monte_carlo_risk(p, theta, 3, config)
        b = monte_carlo_risk(p, theta, 3, config)
        assert (a.mean_sq_error, a.std_error) == (b.mean_sq_error, b.std_error)

    def test_replications_use_keyed_streams(self):
        # replication r must equal row r of one draw keyed by the master seed
        p = toy_problem()
        theta = least_favorable(p, 3)
        config = SimulationConfig(50, 1234, p.n)
        est = monte_carlo_risk(p, theta, 3, config)
        errors = []
        for obs in sample_observations(theta, p, 1234, count=50):
            diff = theta - estimate(obs, 3)
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


class TestEmpiricalWorstCase:
    def test_spikes_worst_at_first_excluded_coordinate(self):
        p = toy_problem(sigma=0.01)
        d = 3
        candidates = [least_favorable(p, k) for k in range(d, p.n)]
        config = SimulationConfig(200, 5, p.n)
        worst, risk = empirical_worst_case(p, d, candidates, config)
        np.testing.assert_array_equal(worst, least_favorable(p, d))

    def test_single_candidate(self):
        p = toy_problem()
        theta = least_favorable(p, 2)
        worst, risk = empirical_worst_case(p, 2, [theta],
                                           SimulationConfig(50, 3, p.n))
        assert worst is theta

    def test_least_favorable_beats_zero(self):
        p = toy_problem(sigma=0.01)
        zero = np.zeros(p.n)
        spike = least_favorable(p, 4)
        worst, _ = empirical_worst_case(p, 4, [zero, spike],
                                        SimulationConfig(100, 11, p.n))
        assert worst is spike

    def test_outside_candidate_rejected(self):
        p = toy_problem()
        for outside, message in [(np.full(p.n, 1.0), "candidate 1"),
                                 (np.zeros(p.n - 1), "element length"),
                                 (np.zeros((p.n, 1)), "element length")]:
            with pytest.raises(ValidationError, match=message):
                empirical_worst_case(p, 2, [least_favorable(p, 2), outside],
                                     SimulationConfig(10, 1, p.n))

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
    rows = max(1, _BLOCK_DOUBLES // n)
    reps = draw(st.sampled_from([1, max(1, rows - 1), rows, rows + 1, 2 * rows + 1]))
    config = SimulationConfig(reps, draw(st.integers(0, 2 ** 64 - 1)), n)
    return problem, theta, d, config


def reference_risk(problem, theta, D, config):
    """monte_carlo_risk from one draw and one fsum per row: (mean, std_error)."""
    errors = []
    for z in sample_observations(theta, problem, config.master_seed,
                                 count=config.replications):
        d = theta - estimate(z, D)
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


@given(mc_cases())
@example((toy_problem(sigma=0.0), least_favorable(toy_problem(), 2), 16,
          SimulationConfig(300, 3, 16)))
@example((_TOY, least_favorable(_TOY, 3), 0, SimulationConfig(129, 2 ** 64 - 1, 64)))
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
