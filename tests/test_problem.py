import math
import re

import numpy as np
import pytest

import minimax_seq.problem as problem_mod
from minimax_seq import (
    EllipsoidClass,
    SequenceProblem,
    SingularSpectrum,
    ValidationError,
    custom_index,
    deterministic_rate_sq,
    ellipsoid_from_source_set,
    exp_power_index,
    explicit_class,
    explicit_spectrum,
    log_power_index,
    make_exponential_class,
    make_exponential_spectrum,
    make_power_class,
    make_power_spectrum,
    minimax_sandwich,
    power_index,
    problem_from_json,
    problem_to_json,
    testing_radius_sq as radius_sq,
    truncation_risk,
    validate_problem,
)


class TestSpectrumConstructors:
    def test_power_values(self):
        sp = make_power_spectrum(1.0, 3)
        np.testing.assert_allclose(sp.values, [1.0, 0.5, 1.0 / 3.0], rtol=0)

    def test_power_third_term(self):
        assert make_power_spectrum(2.0, 3).values[2] == pytest.approx(1.0 / 9.0)

    def test_power_single_term(self):
        sp = make_power_spectrum(1.0, 1)
        assert sp.values.tolist() == [1.0]

    def test_exponential_exact_exponent(self):
        sp = make_exponential_spectrum(math.log(2.0), 3)
        assert sp.values[2] == pytest.approx(0.125)

    def test_exponential_first_term(self):
        assert make_exponential_spectrum(1.0, 1).values[0] == pytest.approx(
            0.36787944117144233)

    def test_exponential_pair(self):
        sp = make_exponential_spectrum(0.5, 2)
        np.testing.assert_allclose(sp.values, [math.exp(-0.5), math.exp(-1.0)])

    def test_length_is_the_length_of_values(self):
        sp = SingularSpectrum([1.0, 0.5, 0.25], "explicit", None)
        assert sp.n_max == len(sp) == 3
        assert make_power_spectrum(1.0, 7).n_max == 7
        with pytest.raises(ValidationError, match="1-d"):
            SingularSpectrum(np.ones((2, 2)), "explicit", None)

    @pytest.mark.parametrize("p,n", [(0.0, 3), (-1.0, 3), (1.0, 0), (math.inf, 3)])
    def test_invalid_parameters(self, p, n):
        with pytest.raises(ValidationError):
            make_power_spectrum(p, n)
        with pytest.raises(ValidationError):
            make_exponential_spectrum(p, n)

    def test_power_spectrum_underflow_rejected(self):
        # 64^-200 is below the smallest subnormal
        with pytest.raises(ValidationError, match="underflows"):
            make_power_spectrum(200.0, 64)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_class_exponent(self, kappa):
        with pytest.raises(ValidationError, match="kappa"):
            make_power_class(kappa, 3)
        with pytest.raises(ValidationError, match="kappa"):
            make_exponential_class(kappa, 3)

    @pytest.mark.parametrize("make", [make_power_spectrum, make_exponential_spectrum,
                                      make_power_class, make_exponential_class])
    @pytest.mark.parametrize("n_max", [2 ** 20 + 1, 10 ** 30])
    def test_length_above_the_maximum_rejected(self, make, n_max):
        with pytest.raises(ValidationError,
                           match=f"n_max = {n_max} exceeds the maximum 1048576"):
            make(1e-3, n_max)

    def test_length_at_the_maximum_built(self):
        assert make_power_spectrum(1.0, 2 ** 20).n_max == 2 ** 20

    def test_generator_round_trip(self):
        # s_j * j^p recovers 1 to machine precision for power spectra
        for p in (0.5, 1.0, 2.0, 3.7):
            sp = make_power_spectrum(p, 40)
            j = np.arange(1, 41, dtype=float)
            np.testing.assert_allclose(sp.values * j ** p, 1.0, rtol=5e-16)


class TestArgumentsAreNumbers:
    """The constructors read their arguments as a problem document does: a
    bool or a string is not a number, and a length is an integer."""

    @pytest.mark.parametrize("values, bad", [
        (["1", True], "'1'"), ([1.0, True], "True"), (np.array([True, False]), "True"),
    ])
    def test_explicit_values(self, values, bad):
        with pytest.raises(ValidationError, match=f"^each value must be a number, got {bad}$"):
            explicit_spectrum(values)

    def test_explicit_weights_and_radius(self):
        with pytest.raises(ValidationError, match="^each value must be a number, got '2'$"):
            explicit_class(["2", True], "1.5")
        with pytest.raises(ValidationError, match="^Q must be a number, got '1.5'$"):
            explicit_class([1.0, 2.0], "1.5")
        assert explicit_class(np.array([1, 2]), 1).weights.tolist() == [1.0, 2.0]

    def test_problem_sigma_and_dimension(self):
        spectrum, ellipsoid = make_power_spectrum(1.0, 3), make_power_class(2.0, 3)
        with pytest.raises(ValidationError, match="^sigma must be a number, got '0.1'$"):
            SequenceProblem(spectrum, ellipsoid, "0.1", 3)
        with pytest.raises(ValidationError, match="^N must be an integer, got 3.7$"):
            SequenceProblem(spectrum, ellipsoid, 0.1, 3.7)
        p = SequenceProblem(spectrum, ellipsoid, np.float64(0.1), np.int64(3))
        assert (type(p.sigma), type(p.n)) == (float, int)

    @pytest.mark.parametrize("make", [make_power_spectrum, make_exponential_spectrum,
                                      make_power_class, make_exponential_class])
    def test_generated_length(self, make):
        with pytest.raises(ValidationError, match="^n_max must be an integer, got 3.5$"):
            make(1.0, 3.5)

    def test_generated_exponent_and_radius(self):
        with pytest.raises(ValidationError, match="^p must be a number, got '1'$"):
            make_power_spectrum("1", 3)
        with pytest.raises(ValidationError, match="^kappa must be a number, got True$"):
            make_exponential_class(True, 3)
        with pytest.raises(ValidationError, match="^Q must be a number, got '1'$"):
            make_power_class(1.0, 3, "1")

    # a string raised a bare TypeError, and True was read as 1
    @pytest.mark.parametrize("make, args, message", [
        (log_power_index, ("1",), "kappa must be a number, got '1'"),
        (power_index, ("2", 1.0), "kappa must be a number, got '2'"),
        (power_index, (True, 1), "kappa must be a number, got True"),
        (exp_power_index, (1.0, "2"), "p must be a number, got '2'"),
        (lambda t_max: custom_index(math.sqrt, t_max), ("1",),
         "t_max must be a number, got '1'"),
    ])
    def test_index_parameters(self, make, args, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make(*args)

    # an infinite parameter was accepted: power_index(inf, 1) failed only at
    # the conversion (phi(0.25) = 0.0), and exp_power_index(1, inf) gave the
    # constant exp(-1), which passes check_samples
    @pytest.mark.parametrize("make, args, message", [
        (power_index, (math.inf, 1.0),
         "power index needs kappa > 0 and p > 0, finite; got kappa=inf, p=1.0"),
        (power_index, (1.0, math.nan),
         "power index needs kappa > 0 and p > 0, finite; got kappa=1.0, p=nan"),
        (log_power_index, (-1.0,),
         "log-power index needs kappa > 0, finite; got kappa=-1.0"),
        (exp_power_index, (1.0, math.inf),
         "exp-power index needs kappa > 0 and p > 0, finite; got kappa=1.0, p=inf"),
        (lambda t_max: custom_index(math.sqrt, t_max), (0.0,),
         "custom index needs t_max > 0, got 0.0"),
        (lambda t_max: custom_index(math.sqrt, t_max), (math.nan,),
         "custom index needs t_max > 0, got nan"),
    ])
    def test_index_parameters_finite_and_positive(self, make, args, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make(*args)

    # an exponent that rounded to 0 gave a constant phi (which passes
    # check_samples and converts to constant weights), and one that
    # overflowed gave a phi that is 0 below t = 1 and jumps there
    @pytest.mark.parametrize("make, args, rule, exponent", [
        (power_index, (1e-200, 1e200), "kappa/(2p)", "0.0"),
        (power_index, (1e300, 1e-300), "kappa/(2p)", "inf"),
        (exp_power_index, (1.0, 1e308), "-1/(2p)", "-0.0"),
        (exp_power_index, (1.0, 1e-320), "-1/(2p)", "-inf"),
    ])
    def test_index_exponent_nonzero_and_finite(self, make, args, rule, exponent):
        kind = "power" if make is power_index else "exp-power"
        message = (f"{kind} index needs a nonzero finite exponent {rule}; "
                   f"got kappa={args[0]!r}, p={args[1]!r}, exponent {exponent}")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            make(*args)

    def test_index_parameters_of_any_number_type(self):
        phi = power_index(np.int64(2), np.float64(1.0))
        assert phi(0.25) == power_index(2.0, 1.0)(0.25) == 0.25
        assert type(custom_index(math.sqrt, 1).t_max) is float


class TestSourceSetConversion:
    def test_power_index_power_spectrum(self):
        # phi(t) = t^(kappa/2p) turns s_j = j^-p into weights j^kappa
        sp = make_power_spectrum(1.5, 30)
        cls = ellipsoid_from_source_set(power_index(kappa=2.0, p=1.5), sp)
        j = np.arange(1, 31, dtype=float)
        np.testing.assert_allclose(cls.weights, j ** 2.0, rtol=1e-12)
        assert cls.radius == 1.0

    def test_power_index_exponential_spectrum(self):
        sp = make_exponential_spectrum(0.7, 25)
        cls = ellipsoid_from_source_set(power_index(kappa=1.3, p=0.7), sp)
        j = np.arange(1, 26, dtype=float)
        np.testing.assert_allclose(cls.weights, np.exp(1.3 * j), rtol=1e-12)

    def test_log_power_index_exponential_spectrum(self):
        sp = make_exponential_spectrum(1.0, 20)
        cls = ellipsoid_from_source_set(log_power_index(kappa=2.0), sp)
        j = np.arange(1, 21, dtype=float)
        np.testing.assert_allclose(cls.weights, (2.0 * j) ** 2.0, rtol=1e-12)

    def test_exp_power_index_power_spectrum(self):
        sp = make_power_spectrum(1.0, 15)
        cls = ellipsoid_from_source_set(exp_power_index(kappa=1.0, p=1.0), sp)
        j = np.arange(1, 16, dtype=float)
        np.testing.assert_allclose(cls.weights, np.exp(j), rtol=1e-12)

    def test_identity_on_flat_spectrum(self):
        sp = explicit_spectrum(np.ones(5))
        cls = ellipsoid_from_source_set(custom_index(lambda t: t), sp)
        np.testing.assert_allclose(cls.weights, np.ones(5), rtol=0)

    def test_vanishing_phi_names_the_index(self):
        sp = make_power_spectrum(1.0, 6)
        bad = custom_index(lambda t: 0.0 if t < 0.05 else t)
        with pytest.raises(ValidationError, match="j=5"):
            ellipsoid_from_source_set(bad, sp)

    def test_log_power_rejects_domain_overflow(self):
        # log(1/t) needs t < 1, so a flat spectrum of ones is out of domain
        sp = explicit_spectrum(np.ones(3))
        with pytest.raises(ValidationError, match="j=1"):
            ellipsoid_from_source_set(log_power_index(1.0), sp)

    # a Python float power raised a bare OverflowError in these cases
    def test_overflowing_phi_in_the_exponent_is_validation_error(self):
        # (1e-20)^-50 overflows inside exp(-t^-50), whose value is 0
        sp = explicit_spectrum([1.0, 1e-10])
        with pytest.raises(ValidationError,
                           match=r"j=2: .*'exp_power' overflows at t=1\.0000000000000001e-20$"):
            ellipsoid_from_source_set(exp_power_index(1.0, 0.01), sp)

    def test_overflowing_phi_value_is_validation_error(self):
        # (1e200)^20 overflows
        sp = explicit_spectrum([1e100, 1.0])
        with pytest.raises(ValidationError,
                           match=r"j=1: .*'power' overflows at t=1e\+200$"):
            ellipsoid_from_source_set(power_index(40.0, 1.0), sp)

    def test_decay_probe_that_overflows_ends_the_probing(self):
        # phi is finite at both sample points; the third probe, 1e-9 below
        # them, overflows in t^-50 and so cannot show growth toward 0
        sp = explicit_spectrum([1.0, 0.95])
        cls = ellipsoid_from_source_set(exp_power_index(1.0, 0.01), sp)
        assert cls.weights.tolist() == [1.0 / exp_power_index(1.0, 0.01)(float(t))
                                        for t in sp.values ** 2]

    # check_samples is called with the sample points of the source set;
    # each phi below breaks exactly one of its three checks
    def test_non_monotone_phi_rejected(self):
        with pytest.raises(ValidationError, match="decreasing between t=1.0 and t=1.8"):
            custom_index(lambda t: t * (2.0 - t)).check_samples([0.5, 1.0, 1.8])

    def test_non_positive_phi_rejected(self):
        with pytest.raises(ValidationError, match="not positive/finite at t=0.25"):
            custom_index(lambda t: t - 0.5).check_samples([0.25, 1.0])

    def test_phi_without_decay_rejected(self):
        # phi grows again below the smallest sample point
        phi = custom_index(lambda t: t if t >= 0.01 else 1.0 / t)
        with pytest.raises(ValidationError, match="does not decay"):
            phi.check_samples([0.1, 1.0])

    # phi raising inside its domain ended in the raw exception, from a decay
    # probe (ValueError at t = 5e-7) or from a sample point (ZeroDivisionError)
    @pytest.mark.parametrize("fn, message", [
        (lambda t: math.sqrt(t - 1e-5), "raised ValueError at t=5e-07: math domain error"),
        (lambda t: 1.0 / (t - 0.5),
         "raised ZeroDivisionError at t=0.5: float division by zero"),
        (lambda t: None if t < 1.0 else t, "raised TypeError at t=0.5: float() argument"),
    ], ids=["probe", "sample", "non-number"])
    def test_phi_that_raises_is_one_line(self, fn, message):
        with pytest.raises(ValidationError) as info:
            custom_index(fn).check_samples([0.5, 1.0])
        assert str(info.value).startswith(
            f"index function of kind 'custom' {message}")
        assert "\n" not in str(info.value)

    def test_phi_that_raises_in_the_conversion_names_the_index(self):
        phi = custom_index(lambda t: 1.0 / (t - 0.25))
        with pytest.raises(ValidationError, match=re.escape(
                "phi undefined at index j=2: index function of kind 'custom' "
                "raised ZeroDivisionError at t=0.25: float division by zero")):
            ellipsoid_from_source_set(phi, explicit_spectrum([1.0, 0.5]))

    def test_no_sample_point_rejected(self):
        # each raised a bare IndexError when it read the first value
        message = "^index function needs at least one sample point$"
        with pytest.raises(ValidationError, match=message):
            power_index(1.0, 1.0).check_samples([])
        with pytest.raises(ValidationError, match=message):
            ellipsoid_from_source_set(power_index(1.0, 1.0), explicit_spectrum([]))

    def test_rules_read_the_converted_values(self):
        """The conversion's own values decide the order rule, at the
        distinct s_j^2 in ascending order, as check_samples at those points."""
        phi = custom_index(lambda t: t * (2.0 - t))
        with pytest.raises(ValidationError) as converted:
            ellipsoid_from_source_set(phi, explicit_spectrum([1.25, 1.0, 1.0, 0.5]))
        with pytest.raises(ValidationError) as sampled:
            phi.check_samples([0.25, 1.0, 1.5625])
        assert str(converted.value) == str(sampled.value) == (
            "index function decreasing between t=1.0 and t=1.5625")

    def test_membership_property(self, rng):
        # theta_j = phi(s_j^2) v_j with ||v|| <= 1 stays inside the ellipsoid
        sp = make_power_spectrum(1.0, 40)
        phi = power_index(kappa=2.0, p=1.0)
        cls = ellipsoid_from_source_set(phi, sp)
        for _ in range(50):
            v = rng.standard_normal(40)
            v /= max(1.0, np.linalg.norm(v))
            theta = np.array([phi(float(t)) for t in sp.values ** 2]) * v
            assert float(np.sum(cls.weights ** 2 * theta ** 2)) <= 1.0 + 1e-12


class TestValidation:
    def test_valid_power_problem(self):
        p = SequenceProblem(make_power_spectrum(1.0, 10),
                            make_power_class(2.0, 10), 0.1, 10)
        report = validate_problem(p)
        assert report.passed and report.violations == ()

    def test_decreasing_weights_flagged(self):
        p = SequenceProblem(make_power_spectrum(1.0, 4),
                            explicit_class([-1.0, 2.0, 1.0, 3.0], 1.0), 0.1, 4)
        report = validate_problem(p)
        assert not report.passed
        assert report.violations == (
            (1, "a positive", "a_1 = -1.0"),
            (3, "a non-decreasing", "a_3 = 1.0 < a_2 = 2.0"))

    def test_length_mismatch_flagged(self):
        p = SequenceProblem(make_power_spectrum(1.0, 10),
                            make_power_class(1.0, 9), 0.1, 10)
        report = validate_problem(p)
        assert any(v[1] == "length mismatch" for v in report.violations)

    def test_passed_iff_no_violations(self):
        p = SequenceProblem(make_power_spectrum(1.0, 4),
                            make_power_class(1.0, 4), -0.5, 4)
        report = validate_problem(p)
        assert report.passed == (len(report.violations) == 0)
        assert not report.passed

    @pytest.mark.parametrize("radius, sigma, rule", [
        (1e200, 0.1, "radius squared positive and finite"),   # Q^2 overflows
        (1e-170, 0.1, "radius squared positive and finite"),  # Q^2 underflows
        (math.inf, 0.1, "radius squared positive and finite"),
        (1.0, 1e160, "sigma squared positive and finite"),
        (1.0, 1e-300, "sigma squared positive and finite"),
        (1.0, math.inf, "sigma squared positive and finite"),
    ])
    def test_unrepresentable_squares_flagged(self, radius, sigma, rule):
        p = SequenceProblem(make_power_spectrum(1.0, 4),
                            make_power_class(1.0, 4, radius), sigma, 4)
        assert [v[1] for v in validate_problem(p).violations] == [rule]

    def test_underflowing_weight_squares_flagged_once(self):
        p = SequenceProblem(make_power_spectrum(1.0, 4),
                            explicit_class([1e-200, 1e-190, 1e-170, 1.0], 1.0),
                            0.1, 4)
        assert validate_problem(p).violations == (
            (1, "a squared positive", "a_1 = 1e-200"),)

    def test_overflowing_weight_squares_allowed(self):
        # exp(200*j) is finite for j <= 3, its square is not
        p = SequenceProblem(make_power_spectrum(1.0, 3),
                            make_exponential_class(200.0, 3), 0.1, 3)
        assert validate_problem(p).passed

    def test_infinite_values_flagged_once(self):
        # +inf passes the sign and order rules; numpy must not warn on inf - inf
        p = SequenceProblem(explicit_spectrum([math.inf, math.inf, 1.0]),
                            explicit_class([1.0, math.inf, math.inf], 1.0), 0.1, 3)
        assert validate_problem(p).violations == (
            (1, "spectrum finite", "s_1 = inf"), (2, "a finite", "a_2 = inf"))

    def test_spectrum_rules_then_class_rules_then_scalar_rules(self):
        p = SequenceProblem(explicit_spectrum([math.inf, 1.0]),
                            explicit_class([-1.0, 2.0], 1.0), -1.0, 2)
        assert [v[1] for v in validate_problem(p).violations] == [
            "spectrum finite", "a positive", "sigma positive"]

    def test_zero_dimension_flagged(self):
        p = SequenceProblem(explicit_spectrum([]), explicit_class([], 1.0), 0.1, 0)
        assert [v[1] for v in validate_problem(p).violations] == ["N at least 1"]

    def test_increasing_spectrum_flagged(self):
        p = SequenceProblem(explicit_spectrum([0.5, 1.0]),
                            make_power_class(1.0, 2), 0.1, 2)
        assert any(v[1] == "spectrum non-increasing"
                   for v in validate_problem(p).violations)

    def test_altered_generated_values_flagged(self):
        # a power spectrum and an exponential class that claim their
        # generator but hold other bits at one index each
        s = make_power_spectrum(1.0, 5).values.copy()
        s[2] = np.nextafter(s[2], 0.0)
        a = make_exponential_class(0.5, 5).weights.copy()
        a[4] = a[4] * 2.0
        p = SequenceProblem(SingularSpectrum(s, "power", 1.0),
                            EllipsoidClass(a, 1.0, "exponential", 0.5), 0.1, 5)
        assert [v[:2] for v in validate_problem(p).violations] == [
            (3, "spectrum generator mismatch"), (5, "class generator mismatch")]
        # and the other two: an exponential spectrum and a power class
        s = make_exponential_spectrum(0.5, 5).values.copy()
        s[1] = np.nextafter(s[1], 1.0)
        a = make_power_class(2.0, 5).weights.copy()
        a[3] = np.nextafter(a[3], math.inf)
        p = SequenceProblem(SingularSpectrum(s, "exponential", 0.5),
                            EllipsoidClass(a, 1.0, "power", 2.0), 0.1, 5)
        assert [v[:2] for v in validate_problem(p).violations] == [
            (2, "spectrum generator mismatch"), (4, "class generator mismatch")]

    def test_ties_allowed(self):
        p = SequenceProblem(explicit_spectrum([1.0, 1.0, 0.5]),
                            explicit_class([1.0, 1.0, 2.0], 1.0), 0.1, 3)
        assert validate_problem(p).passed


class TestValidationCache:
    OPERATIONS = (minimax_sandwich, radius_sq, deterministic_rate_sq,
                  lambda problem: truncation_risk(problem, 1))

    @pytest.fixture()
    def validated(self, monkeypatch):
        checked = []
        real = problem_mod.validate_problem

        def counted(problem):
            checked.append(problem)
            return real(problem)

        monkeypatch.setattr(problem_mod, "validate_problem", counted)
        return checked

    def test_valid_problem_is_validated_once(self, validated):
        p = SequenceProblem(make_power_spectrum(1.0, 16),
                            make_power_class(2.0, 16), 0.01, 16)
        for operation in self.OPERATIONS:
            operation(p)
        assert len(validated) == 1 and validated[0] is p

    def test_invalid_problem_raises_on_every_call(self, validated):
        p = SequenceProblem(make_power_spectrum(1.0, 3),
                            explicit_class([2.0, 1.0, 3.0], 1.0), 0.01, 3)
        for operation in self.OPERATIONS:
            with pytest.raises(ValidationError, match="a non-decreasing"):
                operation(p)
        assert len(validated) == len(self.OPERATIONS)


class TestValidationRecord:
    """Each spectrum and class runs the rules on its own array once, when it
    is built; the rules on sigma, Q and N still run for every problem."""

    @pytest.fixture()
    def array_rules(self, monkeypatch):
        """The owner ("spectrum" or "class") of each run of the array rules."""
        runs = []
        real = problem_mod._array_violations

        def counted(what, *args):
            runs.append(what)
            return real(what, *args)

        monkeypatch.setattr(problem_mod, "_array_violations", counted)
        return runs

    def test_failing_arrays_raise_again_on_every_call(self, array_rules):
        bad_s = explicit_spectrum([1.0, 2.0, 0.5])
        bad_a = explicit_class([2.0, 1.0, 3.0], 1.0)
        good_s, good_a = make_power_spectrum(1.0, 3), make_power_class(2.0, 3)
        built = ["spectrum", "class", "spectrum", "class"]
        assert array_rules == built
        for spectrum, ellipsoid, needle in ((bad_s, good_a, "spectrum non-increasing"),
                                            (good_s, bad_a, "a non-decreasing")):
            messages = []
            for sigma in (0.1, 0.01, 0.1):
                with pytest.raises(ValidationError, match=needle) as info:
                    radius_sq(SequenceProblem(spectrum, ellipsoid, sigma, 3))
                messages.append(str(info.value))
            assert len(set(messages)) == 1
            assert array_rules == built  # checking again ran no array rule

    @pytest.mark.parametrize("sigma, radius, n", [
        (-1.0, 1.0, 4), (math.nan, 1.0, 4), (1e200, 1.0, 4), (0.0, 1.0, 4),
        (0.1, 1e200, 4), (0.1, -2.0, 4), (0.1, math.nan, 4), (0.1, 1.0, 5),
        (1e200, 1e-200, 3),
    ])
    def test_recorded_arrays_report_what_fresh_ones_do(self, sigma, radius, n,
                                                        array_rules):
        def fresh():
            return (make_power_spectrum(1.0, 4), explicit_class([1.0, 2.0, 4.0, 8.0],
                                                                radius))

        want = validate_problem(SequenceProblem(*fresh(), sigma, n)).violations
        spectrum, ellipsoid = fresh()
        built = len(array_rules)
        # the arrays pass their own rules on a clean problem, or on this one
        validate_problem(SequenceProblem(spectrum, ellipsoid, 0.1, 4))
        for _ in range(2):
            got = validate_problem(SequenceProblem(spectrum, ellipsoid, sigma, n))
            assert got.violations == want and got.passed is not bool(want)
        assert len(array_rules) == built

    def test_recorded_class_still_reports_a_bad_spectrum_in_order(self, array_rules):
        spectrum = explicit_spectrum([1.0, math.inf, 0.5])
        ellipsoid = explicit_class([1.0, 2.0, 3.0], 1.0)
        fresh_class = explicit_class([1.0, 2.0, 3.0], 1.0)
        validate_problem(SequenceProblem(make_power_spectrum(1.0, 3), ellipsoid, 0.1, 3))
        built = ["spectrum", "class", "class", "spectrum"]
        assert array_rules == built
        got = validate_problem(SequenceProblem(spectrum, ellipsoid, -1.0, 3))
        want = validate_problem(SequenceProblem(spectrum, fresh_class, -1.0, 3))
        assert got.violations == want.violations
        assert [v[1] for v in got.violations] == [
            "spectrum non-increasing", "spectrum finite", "sigma positive"]
        assert array_rules == built

    def test_derived_arrays_are_read_only(self):
        p = SequenceProblem(make_power_spectrum(1.0, 32), make_power_class(1.5, 32),
                            1e-3, 32)
        minimax_sandwich(p)
        radius_sq(p)
        deterministic_rate_sq(p)
        stored = {owner: {k: v for k, v in vars(owner).items()
                          if isinstance(v, np.ndarray)}
                  for owner in (p.spectrum, p.ellipsoid)}
        assert set(stored[p.spectrum]) >= {"values", "_squares", "_float_power_2",
                                           "_inverse_power_2.0", "_inverse_power_4.0",
                                           "_running_sums_2.0", "_running_sums_4.0"}
        assert set(stored[p.ellipsoid]) >= {"weights", "_squares", "_bias"}
        for arrays in stored.values():
            for name, arr in arrays.items():
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0


class TestJsonRoundTrip:
    def test_generated_round_trip(self):
        p = SequenceProblem(make_exponential_spectrum(0.5, 12),
                            make_power_class(2.0, 12, radius=1.5), 0.01, 12)
        doc = problem_to_json(p)
        assert doc["spectrum"] == {"kind": "exponential", "p": 0.5, "n_max": 12}
        assert doc["class"] == {"kind": "power", "kappa": 2.0, "Q": 1.5}
        q = problem_from_json(doc)
        np.testing.assert_array_equal(q.spectrum.values, p.spectrum.values)
        np.testing.assert_array_equal(q.ellipsoid.weights, p.ellipsoid.weights)
        assert (q.sigma, q.n) == (p.sigma, p.n)

    def test_explicit_round_trip(self):
        p = SequenceProblem(explicit_spectrum([1.0, 0.25, 0.04]),
                            explicit_class([1.0, 4.0, 9.0], 2.0), 0.3, 3)
        q = problem_from_json(problem_to_json(p))
        np.testing.assert_array_equal(q.spectrum.values, p.spectrum.values)
        np.testing.assert_array_equal(q.ellipsoid.weights, p.ellipsoid.weights)
        assert q.ellipsoid.radius == 2.0

    def test_unknown_keys_rejected(self):
        doc = problem_to_json(SequenceProblem(make_power_spectrum(1.0, 4),
                                              make_power_class(1.0, 4), 0.1, 4))
        doc["extra"] = 1
        with pytest.raises(ValidationError, match="unknown keys"):
            problem_from_json(doc)

    def test_unknown_nested_keys_rejected(self):
        doc = problem_to_json(SequenceProblem(make_power_spectrum(1.0, 4),
                                              make_power_class(1.0, 4), 0.1, 4))
        doc["spectrum"]["junk"] = True
        with pytest.raises(ValidationError, match="unknown keys"):
            problem_from_json(doc)

    @pytest.mark.parametrize("where, key, value", [
        ("spectrum", "n_max", 4.0),
        ("spectrum", "n_max", 1e20),
        ("spectrum", "n_max", True),
        ("problem", "N", 4.5),
        ("problem", "N", "4"),
    ])
    def test_dimensions_must_be_integers(self, where, key, value):
        doc = problem_to_json(SequenceProblem(make_power_spectrum(1.0, 4),
                                              make_power_class(1.0, 4), 0.1, 4))
        (doc["spectrum"] if where == "spectrum" else doc)[key] = value
        with pytest.raises(ValidationError,
                           match=f"{where} key '{key}': {key} must be an integer"):
            problem_from_json(doc)

    @pytest.mark.parametrize("where, key", [
        ("spectrum", "p"), ("class", "kappa"), ("class", "Q"), ("problem", "sigma"),
    ])
    @pytest.mark.parametrize("value", ["1", " 1 ", "1e-2", True, False])
    def test_numbers_must_be_json_numbers(self, where, key, value):
        doc = problem_to_json(SequenceProblem(make_power_spectrum(1.0, 4),
                                              make_power_class(1.0, 4), 0.1, 4))
        (doc if where == "problem" else doc[where])[key] = value
        with pytest.raises(ValidationError,
                           match=f"^{where} key '{key}': {key} must be a number, "
                                 f"got {value!r}$"):
            problem_from_json(doc)

    @pytest.mark.parametrize("where, key", [
        ("spectrum", "p"), ("class", "kappa"), ("class", "Q"), ("problem", "sigma"),
    ])
    def test_json_integers_are_numbers(self, where, key):
        doc = problem_to_json(SequenceProblem(make_power_spectrum(1.0, 4),
                                              make_power_class(1.0, 4), 0.1, 4))
        (doc if where == "problem" else doc[where])[key] = 1
        p = problem_from_json(doc)
        assert {"p": p.spectrum.param, "kappa": p.ellipsoid.param,
                "Q": p.ellipsoid.radius, "sigma": p.sigma}[key] == 1.0

    @pytest.mark.parametrize("where", ["spectrum", "class"])
    @pytest.mark.parametrize("bad", ["1", True])
    def test_explicit_values_must_be_json_numbers(self, where, bad):
        doc = problem_to_json(SequenceProblem(explicit_spectrum([1.0, 0.5]),
                                              explicit_class([1.0, 2.0], 1.0), 0.1, 2))
        doc[where]["values"][0] = bad
        with pytest.raises(ValidationError,
                           match=f"^{where} key 'values': each value must be a number, "
                                 f"got {bad!r}$"):
            problem_from_json(doc)

    def test_explicit_json_integers_are_numbers(self):
        doc = {"spectrum": {"kind": "explicit", "values": [1, 1]},
               "class": {"kind": "explicit", "values": [1, 2], "Q": 1},
               "sigma": 0, "N": 2}
        p = problem_from_json(doc)
        assert p.spectrum.values.tolist() == [1.0, 1.0]
        assert p.ellipsoid.weights.tolist() == [1.0, 2.0]
        assert (p.ellipsoid.radius, p.sigma) == (1.0, 0.0)

    def test_missing_key_rejected(self):
        with pytest.raises(ValidationError, match="missing"):
            problem_from_json({"sigma": 0.1, "N": 4, "class": {"kind": "power"}})


def test_values_are_immutable():
    sp = make_power_spectrum(1.0, 5)
    with pytest.raises(ValueError):
        sp.values[0] = 2.0


class TestGeneratorFormula:
    """A make_* generator evaluates its formula once, and the object built
    on the result takes that array as it is; an object built directly with
    a generated kind still checks the generator's bits."""

    @pytest.mark.parametrize("make, args", [
        (make_power_spectrum, (1.0, 64)), (make_exponential_spectrum, (0.5, 64)),
        (make_power_class, (2.0, 64)), (make_exponential_class, (0.5, 64)),
    ])
    def test_each_build_evaluates_its_formula_once(self, make, args, monkeypatch):
        built = []
        for kind, (formula, name) in list(problem_mod._FORMULAS.items()):
            def counted(j, c, formula=formula):
                built.append(formula(j, c))
                return built[-1]
            monkeypatch.setitem(problem_mod._FORMULAS, kind, (counted, name))
        made = make(*args)
        assert len(built) == 1
        stored = made.values if isinstance(made, SingularSpectrum) else made.weights
        assert stored is built[0] and not stored.flags.writeable
        assert made._violations == ()

    def test_direct_spectrum_one_ulp_off_is_a_mismatch(self):
        values = make_power_spectrum(1.0, 8).values.copy()
        values[3] = np.nextafter(values[3], 1.0)
        direct = SingularSpectrum(values, "power", 1.0)
        assert direct.values is not values
        report = validate_problem(SequenceProblem(direct, make_power_class(1.0, 8), 0.1, 8))
        assert [(idx, rule) for idx, rule, _ in report.violations] == [
            (4, "spectrum generator mismatch")]
        assert report.violations[0][2] == (
            f"power kind expected {0.25!r}, stored {float(values[3])!r}")
