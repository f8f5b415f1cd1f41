import math

import numpy as np
import pytest

from minimax_seq import (
    SequenceProblem,
    SimulationConfig,
    ValidationError,
    empirical_worst_case,
    estimate,
    least_favorable,
    make_power_class,
    make_power_spectrum,
    monte_carlo_risk,
    sample_observations,
    truncation_risk,
)


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
        a = sample_observations(theta, p, (9, 4))
        b = sample_observations(theta, p, (9, 4))
        np.testing.assert_array_equal(a, b)

    def test_different_replications_differ(self):
        p = toy_problem()
        theta = least_favorable(p, 3)
        a = sample_observations(theta, p, (9, 4))
        b = sample_observations(theta, p, (9, 5))
        assert not np.array_equal(a, b)

    def test_noise_scale_matches_amplification(self):
        # empirical std of z_k - theta_k over many draws is sigma/s_k
        p = toy_problem(sigma=0.2, n=8)
        theta = np.zeros(8)
        draws = 100_000
        acc = np.empty((draws, 8))
        for r in range(draws):
            acc[r] = sample_observations(theta, p, (77, r))
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
        # the r-th replication must equal a standalone draw keyed (seed, r)
        p = toy_problem()
        theta = least_favorable(p, 3)
        config = SimulationConfig(50, 1234, p.n)
        est = monte_carlo_risk(p, theta, 3, config)
        errors = []
        for r in range(50):
            obs = sample_observations(theta, p, (1234, r))
            diff = theta - estimate(obs, 3)
            errors.append(math.fsum((diff * diff).tolist()))
        assert est.mean_sq_error == math.fsum(errors) / 50


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
