import dataclasses
import math
import warnings

import numpy as np
import pytest

from minimax_seq import (
    SaturationWarning,
    SequenceProblem,
    ValidationError,
    certify_maximizer,
    explicit_class,
    explicit_spectrum,
    gateaux_derivative_J,
    hyperrectangle_J,
    make_power_class,
    make_power_spectrum,
    maximize_J_over_ellipsoid,
    minimax_sandwich,
    optimal_truncation,
    power_index,
    rho_squared,
    sample_feasible_rectangles,
    source_set_bound,
    truncation_risk,
)


def toy_problem(sigma=0.1, n=50):
    return SequenceProblem(make_power_spectrum(1.0, n),
                           make_power_class(1.0, n), sigma, n)


class TestHyperrectangleJ:
    def test_zero_rectangle(self):
        sp = make_power_spectrum(1.0, 6)
        assert hyperrectangle_J(np.zeros(6), sp, 0.3) == 0.0

    def test_variance_saturated(self):
        sp = make_power_spectrum(1.0, 6)
        j = hyperrectangle_J(np.full(6, 1e9), sp, 0.3)
        assert j == pytest.approx(0.09 * rho_squared(sp, 6), rel=1e-14)

    def test_hand_computed_mixed(self):
        sp = explicit_spectrum([1.0, 0.1])
        # caps are (0.01, 1): min(0.01, 0.01) + min(0.01, 1)
        assert hyperrectangle_J([0.01, 0.01], sp, 0.1) == pytest.approx(0.02)

    def test_negative_entry_rejected(self):
        sp = make_power_spectrum(1.0, 3)
        with pytest.raises(ValidationError, match="negative"):
            hyperrectangle_J([0.1, -0.1, 0.0], sp, 0.1)


class TestWaterFilling:
    def test_three_coordinate_example(self):
        # unit caps, unit budget: the cheapest coordinate takes everything
        p = SequenceProblem(explicit_spectrum(np.ones(3)),
                            explicit_class([1.0, 2.0, 3.0], 1.0), 1.0, 3)
        sol = maximize_J_over_ellipsoid(p)
        np.testing.assert_array_equal(sol.r_star, [1.0, 0.0, 0.0])
        assert sol.value == 1.0
        assert sorted(sol.set_p) == [1]
        assert sorted(sol.set_qeq) == [1]
        assert sol.budget_used == 1.0

    def test_noiseless_degenerate(self):
        sol = maximize_J_over_ellipsoid(toy_problem(sigma=0.0))
        assert sol.value == 0.0
        np.testing.assert_array_equal(sol.r_star, np.zeros(50))
        assert sol.set_qeq == sol.set_p  # every coordinate sits at its zero cap

    def test_slack_budget_caps_everything(self):
        # budget exceeds the total cost of all caps
        p = SequenceProblem(explicit_spectrum([1.0, 0.5]),
                            explicit_class([1.0, 1.0], 10.0), 0.1, 2)
        sol = maximize_J_over_ellipsoid(p)
        caps = (0.1 / np.array([1.0, 0.5])) ** 2
        np.testing.assert_array_equal(sol.r_star, caps)
        assert sol.value == pytest.approx(0.01 * rho_squared(p.spectrum, 2),
                                          rel=1e-14)

    def test_fractional_pivot_in_neither_set(self):
        # budget 1 fills coordinate 1 (cost 0.5) and half-fills coordinate 2
        p = SequenceProblem(explicit_spectrum([1.0, 1.0]),
                            explicit_class([math.sqrt(0.5), 2.0], 1.0), 1.0, 2)
        sol = maximize_J_over_ellipsoid(p)
        assert sol.r_star[0] == 1.0
        assert sol.r_star[1] == pytest.approx(0.125)
        assert sorted(sol.set_p) == [1]
        assert 2 not in sol.set_qeq

    def test_feasibility_invariant(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 20))
            p = SequenceProblem(
                explicit_spectrum(np.sort(rng.uniform(0.05, 2.0, n))[::-1]),
                explicit_class(np.sort(rng.uniform(0.5, 20.0, n)),
                               float(rng.uniform(0.5, 2.0))),
                float(rng.uniform(1e-3, 1.0)), n)
            sol = maximize_J_over_ellipsoid(p)
            q2 = p.ellipsoid.radius ** 2
            assert sol.budget_used <= q2 * (1.0 + 1e-12)
            assert sol.set_qeq <= sol.set_p
            assert np.all(sol.r_star >= 0.0)

    def test_initial_segment_when_strictly_increasing(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 15))
            weights = np.cumsum(rng.uniform(0.1, 1.0, n)) + 0.5
            p = SequenceProblem(
                explicit_spectrum(np.sort(rng.uniform(0.05, 2.0, n))[::-1]),
                explicit_class(weights, 1.0), float(rng.uniform(0.01, 0.5)), n)
            sol = maximize_J_over_ellipsoid(p)
            members = sorted(sol.set_p)
            assert members == list(range(1, len(members) + 1))

    def test_two_coordinate_dense_grid_oracle(self, rng):
        # direct enumeration over a fine rectangle grid, independent of the
        # water-filling order
        for _ in range(10):
            a = np.sort(rng.uniform(0.5, 3.0, 2))
            q = float(rng.uniform(0.5, 1.5))
            p = SequenceProblem(
                explicit_spectrum(np.sort(rng.uniform(0.2, 1.5, 2))[::-1]),
                explicit_class(a, q), float(rng.uniform(0.1, 1.0)), 2)
            sol = maximize_J_over_ellipsoid(p)
            steps = 2000
            w0 = np.arange(steps + 1)[:, None]
            w1 = np.arange(steps + 1)[None, :]
            caps = (p.sigma / p.spectrum.values) ** 2
            val = (np.minimum(w0 / steps * q ** 2 / a[0] ** 2, caps[0])
                   + np.minimum(w1 / steps * q ** 2 / a[1] ** 2, caps[1]))
            val = np.where(w0 + w1 <= steps, val, -np.inf)
            grid_best = float(val.max())
            assert grid_best <= sol.value + 1e-12
            assert sol.value - grid_best <= 2.0 * q ** 2 / a[0] ** 2 / steps


class TestGateauxCertificate:
    def test_zero_direction(self):
        sol = maximize_J_over_ellipsoid(toy_problem())
        p = toy_problem()
        assert gateaux_derivative_J(sol, sol.r_star) == 0.0

    def test_nonpositive_on_random_directions(self):
        p = toy_problem()
        sol = maximize_J_over_ellipsoid(p)
        assert certify_maximizer(sol, count=1000, seed=7) <= 1e-9

    def test_swapped_allocation_is_refuted(self):
        # move the budget to the expensive coordinate; the direction back
        # toward the true maximizer has a strictly positive derivative
        p = SequenceProblem(explicit_spectrum(np.ones(2)),
                            explicit_class([1.0, 2.0], 1.0), 1.0, 2)
        good = maximize_J_over_ellipsoid(p)
        bad_r = np.array([0.0, 0.25])  # spends the whole budget at a_2^2 = 4
        bad = dataclasses.replace(good, r_star=bad_r,
                                  value=float(np.sum(np.minimum(bad_r, 1.0))),
                                  set_p=frozenset(), set_qeq=frozenset())
        deriv = gateaux_derivative_J(bad, good.r_star)
        assert deriv > 0.1

    def test_infeasible_direction_rejected(self):
        p = toy_problem()
        sol = maximize_J_over_ellipsoid(p)
        too_big = np.full(p.n, 10.0)
        with pytest.raises(ValidationError, match="infeasible"):
            gateaux_derivative_J(sol, too_big)
        with pytest.raises(ValidationError, match="non-negative"):
            gateaux_derivative_J(sol, -sol.r_star - 1e-3)

    def test_sampled_directions_are_feasible(self):
        p = toy_problem()
        r = sample_feasible_rectangles(p, 200, seed=3)
        a2 = p.ellipsoid.weights ** 2
        assert np.all(r >= 0.0)
        assert np.all(r @ a2 <= p.ellipsoid.radius ** 2 * (1 + 1e-12))


class TestSandwich:
    def test_chain_on_regime_grid(self, grid_problems):
        for tag, _, _, _, problem in grid_problems:
            report = minimax_sandwich(problem)
            assert report.chain_ok, f"chain failed on {tag} {report}"
            assert report.lower == report.upper / 2.2
            assert report.lower <= report.upper

    def test_chain_numerically(self):
        report = minimax_sandwich(toy_problem())
        assert report.j_star <= report.upper ** 2 * (1 + 1e-9)
        assert report.upper ** 2 <= 2 * report.j_star * (1 + 1e-9)

    def test_upper_monotone_in_noise(self):
        uppers = [minimax_sandwich(toy_problem(sigma=s)).upper
                  for s in (1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 1.0)]
        assert all(b >= a for a, b in zip(uppers, uppers[1:]))

    def test_saturation_warning_propagates(self):
        p = toy_problem(sigma=1e-9, n=8)
        with pytest.warns(SaturationWarning):
            minimax_sandwich(p)


class TestSourceSetBound:
    def test_matches_ellipsoid_route(self):
        sp = make_power_spectrum(1.0, 60)
        d, bound_sq, lower_sq = source_set_bound(power_index(1.0, 1.0), sp, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            p = SequenceProblem(sp, make_power_class(1.0, 60), 0.01, 60)
            d_star, rms = optimal_truncation(p)
        assert d == d_star
        assert bound_sq == pytest.approx(rms ** 2, rel=1e-12)

    def test_constant_ratio(self):
        sp = make_power_spectrum(1.0, 60)
        _, bound_sq, lower_sq = source_set_bound(power_index(1.0, 1.0), sp, 0.01)
        assert bound_sq / lower_sq == pytest.approx(4.84, rel=1e-15)

    def test_variance_term_shared_with_ellipsoid_case(self):
        # identical sigma^2 * rho_D^2 term by construction
        sp = make_power_spectrum(2.0, 30)
        d, bound_sq, _ = source_set_bound(power_index(3.0, 2.0), sp, 0.05)
        bias = power_index(3.0, 2.0)(float(sp.values[d] ** 2)) ** 2
        assert bound_sq - bias == pytest.approx(
            0.05 ** 2 * rho_squared(sp, d), rel=1e-12)
