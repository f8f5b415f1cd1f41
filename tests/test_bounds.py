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
    exp_power_index,
    explicit_class,
    explicit_spectrum,
    gateaux_derivative_J,
    hyperrectangle_J,
    make_exponential_class,
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
from minimax_seq import bounds
from minimax_seq.truncation import _BLOCK_DOUBLES
from test_properties import reference_derivative


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

    def test_overflowing_sum_is_infinite(self):
        # each min(r_i, cap_i) is 1e308; the sum reads inf, as rho_squared's
        # does, where fsum raised OverflowError
        sp = explicit_spectrum([1e-200, 1e-200])
        assert hyperrectangle_J([1e308, 1e308], sp, 1.0) == math.inf

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

    def test_overflowing_value_is_validation_error(self):
        # the caps 1/1e-308 fill at a cost of 1e-320 * 1e308 each, and
        # J(r*) = 3e308 overflows; fsum raised OverflowError
        p = SequenceProblem(explicit_spectrum([1e-154] * 3),
                            explicit_class([1e-160] * 3, 1.0), 1.0, 3)
        with pytest.raises(ValidationError, match=r"^J\(r_star\) is non-finite"):
            maximize_J_over_ellipsoid(p)

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

    def test_sums_read_only_up_to_the_pivot(self, monkeypatch):
        # the pivot is coordinate k + 1 = 55 of N = 2^14: J(r*) and the
        # budget used are sums of at most k + 1 values, not of N
        n = 1 << 14
        summed = []
        exact_sum = bounds._exact_sum

        def recorded(terms):
            summed.append(len(terms))
            return exact_sum(terms)

        monkeypatch.setattr(bounds, "_exact_sum", recorded)
        sol = maximize_J_over_ellipsoid(toy_problem(sigma=1e-4, n=n))
        k = len(sol.set_p)
        assert k == 54 and sol.r_star[k] > 0.0 and not sol.r_star[k + 1:].any()
        assert len(summed) == 2 and max(summed) <= k + 1

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

    @staticmethod
    def zero_solution(n):
        """r* = 0 with P and Q_eq empty, so the derivative toward r is sum r."""
        p = SequenceProblem(explicit_spectrum(np.ones(n)),
                            explicit_class(np.ones(n), 2.0), 1.0, n)
        return dataclasses.replace(maximize_J_over_ellipsoid(p), r_star=np.zeros(n),
                                   set_p=frozenset(), set_qeq=frozenset())

    @staticmethod
    def per_row(solution, rows):
        """The rows one at a time, independently of the certificate's
        kernel: the negativity check, a math.fsum budget, then the
        per-coordinate derivative; the maximum, or the first row's error."""
        with np.errstate(over="ignore"):
            a2 = solution.problem.ellipsoid.weights ** 2
        q2 = solution.problem.ellipsoid.radius ** 2
        derivatives = []
        for row in rows:
            if np.any(row < 0.0):
                return "ValidationError: r must be non-negative"
            used = row > 0.0
            budget = math.fsum((a2[used] * row[used]).tolist())
            if budget > q2 * (1.0 + 1e-9):
                return (f"ValidationError: r infeasible: sum a_i^2 r_i = "
                        f"{budget!r} exceeds Q^2 = {q2!r}")
            derivatives.append(reference_derivative(solution, row))
        return max(derivatives)

    def certify_rows(self, monkeypatch, solution, rows):
        monkeypatch.setattr(bounds, "sample_feasible_rectangles",
                            lambda problem, count, seed: rows[:count])
        try:
            return certify_maximizer(solution, count=len(rows))
        except ValidationError as exc:
            return f"ValidationError: {exc}"

    def test_row_that_float_sums_rank_low_still_wins(self, monkeypatch):
        # float sums give 1 + 2^-52 for row 0 and 1.0 for row 1, whose
        # exact sum 1 + 1.5 * 2^-52 rounds up to 1 + 2^-51
        u = 2.0 ** -53
        rows = np.array([[1.0, 2 * u, 0.0, 0.0], [1.0, u, u, u]])
        solution = self.zero_solution(4)
        got = self.certify_rows(monkeypatch, solution, rows)
        assert got == self.per_row(solution, rows) == 1.0 + 4 * u

    def test_first_error_in_row_order(self, monkeypatch):
        # rows past the first block fail in either order, in two blocks
        # and in one
        n = 512
        block = _BLOCK_DOUBLES // n
        solution = self.zero_solution(n)
        rows = np.full((5 * block, n), 1e-3)
        first, second, third = 2 * block + 5, 3 * block + 6, 3 * block + 14
        for negative_row, infeasible_row in ((first, second), (second, first),
                                             (second, third), (third, second)):
            bad = rows.copy()
            bad[negative_row, 7] = -1e-3
            bad[infeasible_row] = 1.0
            got = self.certify_rows(monkeypatch, solution, bad)
            assert got == self.per_row(solution, bad)
            assert ("non-negative" in got) == (negative_row < infeasible_row)

    def test_rows_after_the_first_error_are_not_summed(self, monkeypatch):
        # row 1's budget and gain sums overflow, but row 0 fails first
        solution = self.zero_solution(2)
        rows = np.array([[-1.0, 0.0], [1e308, 1e308]])
        got = self.certify_rows(monkeypatch, solution, rows)
        assert got == self.per_row(solution, rows) == (
            "ValidationError: r must be non-negative")

    @staticmethod
    def huge_solution(r_star, set_p):
        """A solution at r_star with P = Q_eq = set_p, where a_i^2 = 1e-200
        and Q^2 = 1e120 leave rows of 1e308 feasible."""
        n = len(r_star)
        p = SequenceProblem(explicit_spectrum(np.ones(n)),
                            explicit_class([1e-100] * n, 1e60), 1.0, n)
        return dataclasses.replace(
            maximize_J_over_ellipsoid(p), r_star=np.array(r_star),
            set_p=frozenset(set_p), set_qeq=frozenset(set_p))

    def test_rows_before_the_first_error_are_summed(self, monkeypatch):
        # row 0 is feasible (budget 2e108 <= Q^2 = 1e120), but its gain sum
        # overflows (in the reference's fsum too), and that error comes
        # before row 1's
        solution = self.huge_solution([0.0, 0.0], ())
        rows = np.array([[1e308, 1e308], [-1.0, 0.0]])
        with pytest.raises(OverflowError):
            self.per_row(solution, rows)
        assert self.certify_rows(monkeypatch, solution, rows) == (
            "ValidationError: derivative toward r is non-finite: "
            "sum_(i not in P) h_i = inf less 0.0 over Q_eq")

    @pytest.mark.parametrize("r_star, set_p, needle", [
        ([0.0] * 4, (), "h_i = inf less 0.0 over Q_eq"),
        # both sums overflow: inf - inf would read NaN
        ([1e308, 1e308, 0.0, 0.0], (1, 2), "h_i = inf less inf over Q_eq"),
    ], ids=["inf", "inf-minus-inf"])
    def test_overflowing_derivative_is_validation_error(self, r_star, set_p, needle):
        solution = self.huge_solution(r_star, set_p)
        with pytest.raises(ValidationError, match="non-finite") as info:
            gateaux_derivative_J(solution, [0.0, 0.0, 1e308, 1e308])
        assert str(info.value).endswith(needle) and "\n" not in str(info.value)

    def test_overflowing_budget_is_infeasible(self):
        # sum a_i^2 r_i = 20 * 1e307 overflows; fsum raised OverflowError
        p = SequenceProblem(make_power_spectrum(1.0, 20),
                            make_power_class(2.0, 20), 0.01, 20)
        solution = maximize_J_over_ellipsoid(p)
        r = 1e307 / p.ellipsoid.weights ** 2
        with pytest.raises(ValidationError,
                           match=r"^r infeasible: sum a_i\^2 r_i = inf exceeds"):
            gateaux_derivative_J(solution, r)

    def test_nan_counts_only_at_row_0(self, monkeypatch):
        # max() keeps a NaN first value, and no later NaN replaces a number
        solution = self.zero_solution(2)
        for rows, want in (([[math.nan, 0.0], [1.0, 0.0]], "nan"),
                           ([[1.0, 0.0], [math.nan, 0.0]], "1.0")):
            rows = np.array(rows)
            got = self.certify_rows(monkeypatch, solution, rows)
            assert repr(got) == repr(self.per_row(solution, rows)) == want

    def test_exponential_class_needs_no_fsum(self, monkeypatch):
        """Every sampled direction of an exponential class is about 0, so
        the derivatives tie within rounding; the row kernel still certifies
        every row's sums, and no row falls back to math.fsum."""
        n = 40
        p = SequenceProblem(make_power_spectrum(1.0, n),
                            make_exponential_class(1.0, n), 0.1, n)
        solution = maximize_J_over_ellipsoid(p)
        want = max(gateaux_derivative_J(solution, row)
                   for row in sample_feasible_rectangles(p, 1000, 0))
        monkeypatch.setattr(math, "fsum", None)  # a fallback would raise
        assert certify_maximizer(solution, count=1000, seed=0).hex() == want.hex()

    def test_sampled_directions_are_feasible(self):
        p = toy_problem()
        r = sample_feasible_rectangles(p, 200, seed=3)
        a2 = p.ellipsoid.weights ** 2
        assert np.all(r >= 0.0)
        assert np.all(r @ a2 <= p.ellipsoid.radius ** 2 * (1 + 1e-12))

    @pytest.mark.parametrize("count, message", [
        (0, "at least 1 direction"),
        (-1, "at least 1 direction"),
        (2.5, "count must be an integer"),
        (True, "count must be an integer"),
    ])
    def test_invalid_direction_counts_rejected(self, count, message):
        p = toy_problem()
        with pytest.raises(ValidationError, match=message):
            sample_feasible_rectangles(p, count, 0)
        with pytest.raises(ValidationError, match=message):
            certify_maximizer(maximize_J_over_ellipsoid(p), count=count)


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

    def test_invalid_spectrum_raises_before_it_scans(self):
        # the scan alone would reach D* = N-1 and warn before the error
        sp = explicit_spectrum([1.0, -0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                source_set_bound(power_index(1.0, 1.0), sp, 0.1)

    def test_overflowing_bias_is_validation_error(self):
        # phi(s_1^2) = (1e200)^1.56 is finite, its square is not; the
        # Python float power raised a bare OverflowError
        sp = explicit_spectrum([1e100])
        with pytest.raises(ValidationError, match=r"level D = 0$"):
            source_set_bound(power_index(1.56, 1.0), sp, 0.1)

    def test_overflowing_phi_is_validation_error(self):
        # (1e-20)^-50 overflows inside exp(-t^-50); the Python float power
        # raised a bare OverflowError
        sp = explicit_spectrum([1.0, 1e-10])
        with pytest.raises(ValidationError, match="'exp_power' overflows at t="):
            source_set_bound(exp_power_index(1.0, 0.01), sp, 0.1)

    def test_nan_spectrum_is_validation_error(self):
        sp = explicit_spectrum([1.0, math.nan, 0.25])
        with pytest.raises(ValidationError):
            source_set_bound(power_index(1.0, 1.0), sp, 0.1)

    def test_runs_one_scan(self, monkeypatch):
        calls = []

        def counting(problem):
            calls.append(problem)
            return optimal_truncation(problem)

        monkeypatch.setattr(bounds, "optimal_truncation", counting)
        source_set_bound(power_index(1.0, 1.0), make_power_spectrum(1.0, 60), 0.01)
        assert calls == []
