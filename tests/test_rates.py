import dataclasses
import gc
import math
import re
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minimax_seq.problem as problem_mod
import minimax_seq.rates as rates_mod
from minimax_seq import (
    IllposednessLabel,
    RateFit,
    RegimeSpec,
    SaturationError,
    SaturationWarning,
    SequenceProblem,
    ValidationError,
    classify_illposedness,
    deterministic_rate_sq,
    explicit_class,
    explicit_spectrum,
    fit_rate,
    make_power_class,
    make_power_spectrum,
    maximize_J_over_ellipsoid,
    minimax_sandwich,
    optimal_truncation,
    sweep,
    testing_radius_sq as radius_sq,
)
from minimax_seq.truncation import _BLOCK_DOUBLES


def spec_for(tag, p=1.0, kappa=1.0, lo=-3, hi=-8, points=12, n=64):
    grid = np.logspace(lo, hi, points)
    return RegimeSpec.from_tag(tag, p, kappa, grid, n=n)


def fresh_problem(spec, sigma, n):
    """The problem of spec at (sigma, n), on a spectrum and class built
    afresh by the make_* functions."""
    make_spectrum = getattr(problem_mod, f"make_{spec.spectrum_kind}_spectrum")
    make_class = getattr(problem_mod, f"make_{spec.smoothness_kind}_class")
    return SequenceProblem(make_spectrum(spec.p, n),
                           make_class(spec.kappa, n, spec.radius), sigma, n)


def whole_grid_rows(spec):
    """Reference for sweep: every point at the smallest N = n * 2^k at which
    no point saturates (the sweep's former whole-grid doubling)."""
    n = spec.n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        while True:
            points = [rates_mod._sweep_point(fresh_problem(spec, s, n))
                      for s in spec.sigma_grid]
            if not any(any(flags) for _, flags in points):
                return [row for row, _ in points]
            n *= 2


# (p range, kappa range) per regime, as in the benchmark's sweep workloads;
# pp cells keep p + kappa >= 1.8 so that N stays in the low thousands
_CELL_RANGES = {"pp": ((0.5, 2.0), (0.5, 3.0)),
                "pe": ((0.5, 2.0), (0.2, 1.5)),
                "ep": ((0.2, 1.5), (0.5, 3.0)),
                "ee": ((0.2, 1.5), (0.2, 1.5))}


@st.composite
def regime_cells(draw):
    tag = draw(st.sampled_from(sorted(_CELL_RANGES)))
    (p_lo, p_hi), (k_lo, k_hi) = _CELL_RANGES[tag]
    p = draw(st.floats(p_lo, p_hi))
    if tag == "pp":
        k_lo = max(k_lo, 1.8 - p)
    kappa = draw(st.floats(k_lo, k_hi))
    exponents = draw(st.lists(st.floats(-7.0, -2.0), min_size=2, max_size=8,
                              unique=True))
    grid = sorted({10.0 ** e for e in exponents}, reverse=True)
    radius = draw(st.sampled_from((0.3, 1.0, 5.0)))
    n = draw(st.sampled_from((4, 16, 64)))
    return RegimeSpec.from_tag(tag, p, kappa, grid, radius=radius, n=n)


class TestSweep:
    def test_bounds_decrease_with_noise(self):
        rows = sweep(spec_for("pp", p=1.0, kappa=2.0, lo=-2, hi=-6, points=8))
        uppers = [r.upper for r in rows]
        assert all(b < a for a, b in zip(uppers, uppers[1:]))

    def test_single_point_matches_optimal_truncation(self):
        rows = sweep(RegimeSpec.from_tag("pp", 1.0, 2.0, (1e-3,), n=64))
        assert len(rows) == 1
        p = SequenceProblem(make_power_spectrum(1.0, 64),
                            make_power_class(2.0, 64), 1e-3, 64)
        d_star, bound = optimal_truncation(p)
        assert rows[0].d_star == d_star
        assert rows[0].upper == bound

    def test_auto_doubles_from_tiny_start(self):
        # N = 4 saturates at once; the sweep must grow it silently
        rows = sweep(RegimeSpec.from_tag("pp", 1.0, 2.0, (1e-4,), n=4))
        assert rows[0].d_star > 3

    def test_dimension_cap_raises(self, monkeypatch):
        monkeypatch.setattr(rates_mod, "_MAX_N", 8)
        with pytest.raises(SaturationError, match="saturated"):
            sweep(RegimeSpec.from_tag("pp", 1.0, 2.0, (1e-6,), n=8))

    @pytest.mark.parametrize("p, kappa, sigma, n, names", [
        # deterministic optimum D ~ (2/sigma^2)^(1/3) = 126 > 63; the others resolve
        (0.5, 1.0, 1e-3, 64, "deterministic"),
        (1.0, 2.0, 1e-6, 8, "estimation, testing, deterministic, water-filling"),
    ])
    def test_dimension_cap_names_saturated_optimizers(self, monkeypatch, p, kappa,
                                                      sigma, n, names):
        monkeypatch.setattr(rates_mod, "_MAX_N", n)
        with pytest.raises(SaturationError) as info:
            sweep(RegimeSpec.from_tag("pp", p, kappa, (sigma,), n=n))
        assert f"touch the end of their range: {names};" in str(info.value)

    @pytest.mark.parametrize("p, kappa", [(math.inf, 1.0), (1.0, math.nan),
                                          (0.0, 1.0)])
    def test_spec_rejects_bad_exponents(self, p, kappa):
        with pytest.raises(ValidationError, match="finite"):
            RegimeSpec.from_tag("pp", p, kappa, (1e-3,))

    @pytest.mark.parametrize("bad, message", [
        ({"p": "1", "kappa": True}, "p must be a number, got '1'"),
        ({"kappa": True}, "kappa must be a number, got True"),
        ({"sigma_grid": ("1e-2", "1e-3")}, "sigma must be a number, got '1e-2'"),
        ({"radius": "1"}, "Q must be a number, got '1'"),
        ({"n": 64.0}, "N must be an integer, got 64.0"),
    ])
    def test_spec_arguments_must_be_numbers(self, bad, message):
        args = {"p": 1.0, "kappa": 2.0, "sigma_grid": (1e-3,), **bad}
        with pytest.raises(ValidationError, match=f"^{message}$"):
            RegimeSpec.from_tag("pp", **args)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            dataclasses.replace(RegimeSpec.from_tag("pp", 1.0, 2.0, (1e-3,)), **bad)

    def test_rows_follow_grid_order(self):
        grid = (1e-2, 1e-3, 1e-4)
        rows = sweep(RegimeSpec.from_tag("pp", 1.0, 2.0, grid))
        assert [r.sigma for r in rows] == list(grid)

    def test_grid_must_decrease(self):
        with pytest.raises(ValidationError):
            RegimeSpec.from_tag("pp", 1.0, 2.0, (1e-3, 1e-2))

    @given(regime_cells())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_whole_grid_rows(self, spec):
        assert sweep(spec) == whole_grid_rows(spec)

    def test_each_point_doubles_from_the_previous_n(self, monkeypatch):
        # at n = 64 the first four points resolve at once; 1e-7 needs N = 256
        grid = (1e-2, 1e-3, 1e-4, 1e-5, 1e-7)
        spec = RegimeSpec.from_tag("pp", 1.0, 2.0, grid, n=64)
        calls, sandwiches = [], []
        point, sandwich = rates_mod._sweep_point, rates_mod.minimax_sandwich

        def counted(problem):
            calls.append((problem.sigma, problem.n))
            return point(problem)

        def counted_sandwich(problem):
            sandwiches.append((problem.sigma, problem.n))
            return sandwich(problem)

        monkeypatch.setattr(rates_mod, "_sweep_point", counted)
        monkeypatch.setattr(rates_mod, "minimax_sandwich", counted_sandwich)
        rows = sweep(spec)
        assert calls == [(s, 64) for s in grid] + [(1e-7, 128), (1e-7, 256)]
        # the scans saturate at (1e-7, 64) and (1e-7, 128), so only the
        # points that yield a row run the sandwich
        assert sandwiches == [(s, 64) for s in grid[:4]] + [(1e-7, 256)]
        assert rows == whole_grid_rows(spec)

    @pytest.mark.parametrize("tag, names", [
        ("pp", "estimation, testing, deterministic, water-filling"),
        ("pe", "estimation, testing, deterministic, water-filling"),
        ("ep", "estimation, deterministic, water-filling"),
        ("ee", None),
    ])
    def test_huge_radius_ends_as_with_every_optimizer_run(self, monkeypatch, tag,
                                                          names):
        # Q^2 = 1e308: where a scan saturates below the largest N, the
        # sandwich is skipped; the sweep still ends in the rows, or the
        # error naming the optimizers, of running all four at every N
        monkeypatch.setattr(rates_mod, "_MAX_N", 256)
        spec = RegimeSpec.from_tag(tag, 1.0, 1.0, (1e-2, 1e-4, 1e-6),
                                   radius=1e154, n=64)
        if names is None:
            assert sweep(spec) == whole_grid_rows(spec)
            return
        with pytest.raises(SaturationError) as info:
            sweep(spec)
        assert str(info.value) == (
            f"regime {tag}: sigma = 0.01 still saturated at N = 256, where these "
            f"optimizers touch the end of their range: {names}; refusing to grow "
            "the model further")

    @pytest.mark.parametrize("field, value, needle", [
        ("radius", 1e200, "Q^2"), ("radius", -1.0, "Q > 0"),
        ("radius", math.nan, "Q > 0"), ("n", 0, "at least 1"),
        ("grid", (1e-100, 1e-200), "sigma^2"), ("grid", (math.nan,), "sigma^2"),
        ("n", 2 ** 20 + 1, "N = 1048577 exceeds the maximum 1048576"),
    ])
    def test_spec_rejects_unrepresentable_inputs(self, field, value, needle):
        args = {"radius": 1.0, "n": 64, "grid": (1e-3,)}
        args[field] = value
        with pytest.raises(ValidationError, match=re.escape(needle)):
            RegimeSpec.from_tag("pp", 1.0, 2.0, args["grid"],
                                radius=args["radius"], n=args["n"])

    @pytest.mark.parametrize("kinds, needle", [
        ((["power"], "power"), "unknown spectrum kind ['power']"),
        (("power", {"kind": "power"}), "unknown smoothness kind {'kind': 'power'}"),
        (("power", None), "unknown smoothness kind None"),
        (("cubic", "power"), "unknown spectrum kind 'cubic'"),
    ])
    def test_spec_rejects_unknown_and_non_string_kinds(self, kinds, needle):
        # an unhashable kind is a validation error, not a TypeError
        with pytest.raises(ValidationError, match=re.escape(needle)):
            RegimeSpec(*kinds, 1.0, 1.0, 1.0, 64, (1e-3,))

    def test_only_generator_errors_become_saturation(self, monkeypatch):
        # exp(-p*j) underflows to 0 before N = 2^20: a resolution failure
        with pytest.raises(SaturationError, match="not representable"):
            sweep(RegimeSpec.from_tag("ep", 700.0, 1.0, (1e-3,), n=2))

        def invalid(problem):
            raise ValidationError("invalid problem: stand-in")

        monkeypatch.setattr(rates_mod, "testing_radius_sq", invalid)
        with pytest.raises(ValidationError, match="stand-in"):
            sweep(RegimeSpec.from_tag("pp", 1.0, 2.0, (1e-3,)))

    def test_generators_run_once_per_n_at_call_time(self, monkeypatch):
        # the traced problem.build layer wraps the problem.make_* names, so a
        # sweep must look them up when it builds; it builds one spectrum and
        # one class per N
        calls = []
        for kind in ("power", "exponential"):
            for what in ("spectrum", "class"):
                real = getattr(problem_mod, f"make_{kind}_{what}")

                def counted(*args, _real=real, _what=what):
                    calls.append((_what, args[1]))
                    return _real(*args)

                monkeypatch.setattr(problem_mod, f"make_{kind}_{what}", counted)
        grid = (1e-2, 1e-3, 1e-4, 1e-5, 1e-7)  # resolves at N = 64, 64, 64, 64, 256
        sweep(RegimeSpec.from_tag("pp", 1.0, 2.0, grid, n=64))
        assert calls == [(what, n) for n in (64, 128, 256)
                         for what in ("spectrum", "class")]
        calls.clear()
        rows = sweep(RegimeSpec.from_tag("ee", 1.0, 1.0, (1e-3, 1e-6, 1e-12), n=4))
        ns = [n for what, n in calls if what == "spectrum"]
        assert calls == [(what, n) for n in ns for what in ("spectrum", "class")]
        assert ns == [4 * 2 ** k for k in range(len(ns))] and len(ns) > 1
        assert rows[-1].d_star < ns[-1] - 1

    def test_sweep_keeps_no_spectrum_once_it_returns(self, monkeypatch):
        built = []
        make = problem_mod.make_power_spectrum

        def recorded(*args):
            spectrum = make(*args)
            built.append(weakref.ref(spectrum))
            return spectrum

        monkeypatch.setattr(problem_mod, "make_power_spectrum", recorded)
        sweep(RegimeSpec.from_tag("pp", 1.0, 2.0, (1e-2, 1e-7), n=64))
        gc.collect()
        assert len(built) == 3  # N = 64, 128, 256
        assert [ref() for ref in built] == [None] * 3

    def test_testing_never_exceeds_estimation(self):
        for tag in ("pp", "pe", "ep", "ee"):
            for row in sweep(spec_for(tag, points=6)):
                assert row.testing_sq <= row.upper ** 2 * (1 + 1e-12)


def _bits(x):
    """x with every float as its hex and every array as its bytes, so that
    == compares bits (0.0 against -0.0, NaN against NaN)."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            _bits(getattr(x, f.name)) for f in dataclasses.fields(x)
            if f.name != "problem")
    return x


def _outcome(call, *args):
    """The bits of call(*args), or its error, with the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = _bits(call(*args)), None
        except (ValidationError, SaturationError) as exc:
            result, error = None, (type(exc), str(exc))
    return result, error, [(w.category, str(w.message)) for w in caught]


_CALLS = (optimal_truncation, radius_sq, deterministic_rate_sq,
          maximize_J_over_ellipsoid, minimax_sandwich)


def fresh_derived(spectrum, ellipsoid) -> dict:
    """Every sigma-free array the optimizers keep on a spectrum or class,
    by (owner, name), computed afresh with plain numpy."""
    s, a = spectrum.values, ellipsoid.weights
    out = {}
    with np.errstate(divide="ignore", over="ignore"):
        out["spectrum", "_squares"] = s * s
        out["spectrum", "_float_power_2"] = np.float_power(s, 2.0)
        for power in (2.0, 4.0):
            terms = 1.0 / np.float_power(s, power)
            sums = np.concatenate(([0.0], np.cumsum(terms)))
            out["spectrum", f"_inverse_power_{power}"] = terms
            out["spectrum", f"_running_sums_{power}"] = sums
            out["spectrum", f"_widened_{power}"] = (np.minimum(sums, sys.float_info.max)
                                                    * (1.0 - (len(s) + 2) * 2.0 ** -52))
        out["class", "_squares"] = a * a
        out["class", "_bias"] = ellipsoid.radius ** 2 / np.float_power(a, 2.0)
    return out


@given(regime_cells())
@example(RegimeSpec.from_tag("pp", 1.0, 2.0, (1e-3, 1e-5), n=2 * _BLOCK_DOUBLES))
@example(RegimeSpec.from_tag("pp", 1.0, 2.0, (1e-3, 1e-5), n=_BLOCK_DOUBLES))
@example(RegimeSpec.from_tag("pe", 1.0, 0.01, (1e-3, 1e-5), n=_BLOCK_DOUBLES + 1))
@settings(max_examples=60, deadline=None)
def test_shared_objects_give_the_bits_of_fresh_ones(spec):
    """The spectrum and class a sweep shares across its grid points, with
    the violations they found when built and their derived arrays, give the
    bits, warnings and errors of objects built afresh for every call,
    sigma = 0 included; the shared pair never runs its array rules again.
    A pair of at most _BLOCK_DOUBLES values keeps every sigma-free array
    the optimizers derive, read-only and with the bits of a fresh
    computation; a longer pair keeps none."""
    n = spec.n
    spectrum, ellipsoid = rates_mod._build_pair(spec, n)  # as sweep builds it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        # warms the shared pair
        rates_mod._sweep_point(SequenceProblem(spectrum, ellipsoid, spec.sigma_grid[0], n))
    array_rules = []
    real = problem_mod._array_violations
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(problem_mod, "_array_violations",
                      lambda *args: array_rules.append(args[1]) or real(*args))
        for sigma in spec.sigma_grid + (0.0,):
            shared = SequenceProblem(spectrum, ellipsoid, sigma, n)
            fresh = fresh_problem(spec, sigma, n)
            for call in _CALLS + (rates_mod._sweep_point,):
                assert _outcome(call, shared) == _outcome(call, fresh), call.__name__
    # only the fresh objects, one spectrum and one class per sigma, ran them
    assert len(array_rules) == 2 * (len(spec.sigma_grid) + 1)
    assert not any(x is spectrum.values or x is ellipsoid.weights for x in array_rules)
    kept = {(what, k): v for what, owner in (("spectrum", spectrum), ("class", ellipsoid))
            for k, v in vars(owner).items() if isinstance(v, np.ndarray) and k.startswith("_")}
    want = fresh_derived(spectrum, ellipsoid) if n <= _BLOCK_DOUBLES else {}
    assert set(kept) == set(want)
    for key, arr in kept.items():
        assert not arr.flags.writeable, key
        assert arr.dtype == np.float64 and arr.tobytes() == want[key].tobytes(), key


class TestRateFits:
    def test_power_power_exponent(self):
        spec = spec_for("pp", p=1.0, kappa=2.0)
        fit = fit_rate(sweep(spec), spec)
        assert fit.fitted == pytest.approx(4.0 / 7.0, abs=0.05)
        assert fit.theory == pytest.approx(4.0 / 7.0)

    def test_exp_exp_exponent(self):
        spec = spec_for("ee", p=1.0, kappa=1.0)
        fit = fit_rate(sweep(spec), spec)
        assert fit.fitted == pytest.approx(0.5, abs=0.05)
        assert fit.theory == 0.5

    def test_severe_log_exponent(self):
        spec = spec_for("ep", p=1.0, kappa=1.0)
        fit = fit_rate(sweep(spec), spec)
        assert fit.fitted == pytest.approx(-1.0, abs=0.15)
        assert fit.theory == -1.0

    def test_mild_log_factor_exponent(self):
        spec = spec_for("pe", p=1.0, kappa=1.0)
        fit = fit_rate(sweep(spec), spec)
        assert fit.fitted == pytest.approx(1.5, abs=0.15)
        assert fit.theory == 1.5

    def test_mild_level_grows_like_log_over_kappa(self):
        # the exact bias-variance balance puts D* near (1/kappa) log(1/sigma),
        # with a slowly decaying -(p/kappa) log D correction
        for kappa in (1.0, 2.0):
            spec = spec_for("pe", p=1.0, kappa=kappa)
            rows = sweep(spec)
            sigma, d_star = rows[-1].sigma, rows[-1].d_star
            ratio = d_star / math.log(1.0 / sigma)
            assert abs(ratio * kappa - 1.0) <= 0.35

    def test_exp_exp_level_constant(self):
        # D*/log(1/sigma) approaches 1/(p+kappa)
        spec = spec_for("ee", p=1.0, kappa=1.0)
        rows = sweep(spec)
        sigma, d_star = rows[-1].sigma, rows[-1].d_star
        want = 1.0 / 2.0
        assert abs(d_star / math.log(1.0 / sigma) - want) <= 0.2 * want

    def test_needs_five_points(self):
        spec = spec_for("pp", points=4)
        with pytest.raises(ValidationError, match=">= 5"):
            fit_rate(sweep(spec), spec)

    def test_trace_records_levels(self):
        spec = spec_for("pp", points=6)
        rows = sweep(spec)
        fit = fit_rate(rows, spec)
        assert fit.d_star_trace == tuple((r.sigma, r.d_star) for r in rows)
        assert all(b >= a for (_, a), (_, b) in zip(fit.d_star_trace,
                                                    fit.d_star_trace[1:]))


class TestClassification:
    def test_moderate_regimes(self):
        for tag in ("pp", "ee"):
            spec = spec_for(tag, points=6)
            fit = fit_rate(sweep(spec), spec)
            assert classify_illposedness(fit) is IllposednessLabel.MODERATE

    def test_mild_regime(self):
        spec = spec_for("pe", points=6)
        fit = fit_rate(sweep(spec), spec)
        assert classify_illposedness(fit) is IllposednessLabel.MILD

    def test_severe_regime(self):
        spec = spec_for("ep", points=6)
        fit = fit_rate(sweep(spec), spec)
        assert classify_illposedness(fit) is IllposednessLabel.SEVERE

    @pytest.mark.parametrize("regime", ["pq", "", None, ["pp"]])
    def test_unknown_regime_refused(self, regime):
        fit = RateFit(regime, 0.5, 0.5, residual=0.0, d_star_trace=())
        with pytest.raises(ValidationError, match="^unknown regime tag .*; use one of "):
            classify_illposedness(fit)

    def test_ambiguous_fit_refused(self):
        fit = RateFit("pp", 0.5, 0.5, residual=0.9, d_star_trace=())
        with pytest.raises(ValidationError, match="ambiguous"):
            classify_illposedness(fit)


class TestTestingRadius:
    def test_flat_spectrum_hand_oracle(self):
        n = 50
        p = SequenceProblem(explicit_spectrum(np.ones(n)),
                            make_power_class(1.0, n), 0.05, n)
        d, value = radius_sq(p)
        cands = [max(1.0 / (dd + 1) ** 2, 0.05 ** 2 * math.sqrt(dd))
                 for dd in range(n)]
        assert value == min(cands)
        assert d == cands.index(min(cands))

    def test_noiseless_is_bias_only(self):
        n = 12
        p = SequenceProblem(make_power_spectrum(1.0, n),
                            make_power_class(1.0, n), 0.0, n)
        with pytest.warns(SaturationWarning):
            d, value = radius_sq(p)
        assert (d, value) == (n - 1, 1.0 / n ** 2)


class TestDeterministicRate:
    def test_flat_spectrum_reduces_to_bias_plus_noise(self):
        n = 12
        p = SequenceProblem(explicit_spectrum(np.ones(n)),
                            make_power_class(1.0, n), 0.05, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            d, value = deterministic_rate_sq(p)
        cands = [1.0] + [1.0 / (dd + 1) ** 2 + 0.05 ** 2 for dd in range(1, n)]
        assert value == min(cands)

    def test_deterministic_rate_is_slower_for_power_spectra(self):
        # deterministic exponent kappa/(kappa+p) = 2/3 exceeds the
        # statistical kappa/(kappa+p+1/2) = 4/7
        spec = spec_for("pp", p=1.0, kappa=2.0)
        rows = sweep(spec)
        sig = np.array([r.sigma for r in rows])
        det = np.polyfit(np.log(sig),
                         0.5 * np.log([r.deterministic_sq for r in rows]), 1)[0]
        est = np.polyfit(np.log(sig), np.log([r.upper for r in rows]), 1)[0]
        assert det == pytest.approx(2.0 / 3.0, abs=0.05)
        assert est == pytest.approx(4.0 / 7.0, abs=0.05)
        assert det > est

    def test_exponential_spectrum_rates_coincide(self):
        # testing, deterministic and statistical rates share the exponent;
        # the logarithmic regime converges slowly and needs a deep grid
        for tag, mode in (("ee", "power"), ("ep", "loglog")):
            spec = spec_for(tag, lo=-6, hi=-20, points=24)
            rows = sweep(spec)
            sig = np.array([r.sigma for r in rows])
            x = np.log(sig) if mode == "power" else np.log(np.log(1.0 / sig))
            est = np.polyfit(x, np.log([r.upper for r in rows]), 1)[0]
            tst = np.polyfit(x, 0.5 * np.log([r.testing_sq for r in rows]), 1)[0]
            det = np.polyfit(x, 0.5 * np.log([r.deterministic_sq for r in rows]), 1)[0]
            assert abs(tst - est) <= 0.05
            assert abs(det - est) <= 0.05
