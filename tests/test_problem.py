import math

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

    def test_missing_key_rejected(self):
        with pytest.raises(ValidationError, match="missing"):
            problem_from_json({"sigma": 0.1, "N": 4, "class": {"kind": "power"}})


def test_values_are_immutable():
    sp = make_power_spectrum(1.0, 5)
    with pytest.raises(ValueError):
        sp.values[0] = 2.0
