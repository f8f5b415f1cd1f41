import math
import operator
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minimax_seq import (
    SaturationWarning,
    SequenceProblem,
    SimulationConfig,
    ValidationError,
    decompose,
    deterministic_rate_sq,
    ellipsoid_from_source_set,
    estimate,
    explicit_class,
    explicit_spectrum,
    least_favorable,
    make_exponential_spectrum,
    make_integration_operator,
    make_power_class,
    make_power_spectrum,
    monte_carlo_risk,
    optimal_truncation,
    power_index,
    reconstruct,
    rho_squared,
    sample_observations,
    source_set_bound,
    subset_truncation_risk,
    testing_radius_sq as radius_sq,
    truncation_risk,
)
from minimax_seq import truncation
from minimax_seq.truncation import (
    _ARRAY_SUM_MIN,
    _BLOCK_DOUBLES,
    _PrefixSpreads,
    _column_fsums,
    _exact_sum,
    _running_sums,
    _widened,
)

import scan_reference


def toy_problem(sigma=0.1, n=50):
    return SequenceProblem(make_power_spectrum(1.0, n),
                           make_power_class(1.0, n), sigma, n)


class TestRhoSquared:
    def test_flat_spectrum(self):
        assert rho_squared(explicit_spectrum(np.ones(8)), 5) == 5.0

    def test_power_spectrum_hand_sum(self):
        # 1/s_j^2 = j^2: 1 + 4 + 9
        assert rho_squared(make_power_spectrum(1.0, 5), 3) == 14.0

    def test_empty_sum(self):
        assert rho_squared(make_power_spectrum(1.0, 5), 0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            rho_squared(make_power_spectrum(1.0, 5), 6)


class TestTruncationRisk:
    def test_hand_computed_decomposition(self):
        r = truncation_risk(toy_problem(), 2)
        assert r.bias_sq == pytest.approx(1.0 / 9.0, rel=1e-15)
        assert r.variance == pytest.approx(0.05, rel=1e-15)
        assert r.total == pytest.approx(0.1611111111111111, rel=1e-12)
        assert r.total == r.bias_sq + r.variance
        assert r.rmse == math.sqrt(r.total)

    def test_zero_estimator(self):
        r = truncation_risk(toy_problem(), 0)
        assert r.variance == 0.0
        assert r.total == 1.0  # Q^2 / a_1^2

    def test_noiseless(self):
        r = truncation_risk(toy_problem(sigma=0.0), 7)
        assert r.total == r.bias_sq == 1.0 / 64.0

    def test_level_bounds(self):
        with pytest.raises(ValidationError):
            truncation_risk(toy_problem(n=10), 10)
        with pytest.raises(ValidationError):
            truncation_risk(toy_problem(), -1)

    def test_monotone_bias_and_variance(self):
        p = toy_problem()
        risks = [truncation_risk(p, d) for d in range(p.n)]
        for lo, hi in zip(risks, risks[1:]):
            assert hi.bias_sq <= lo.bias_sq
            assert hi.variance >= lo.variance

    @pytest.mark.parametrize("n", [64, _BLOCK_DOUBLES + 1])
    def test_closed_forms_compute_a_prefix_no_scan_sees(self, n):
        # on objects no scan has warmed, the closed forms compute only the
        # levels they read and keep nothing, so a later scan reads whole arrays
        p, short = toy_problem(1e-3, n), toy_problem(1e-3, 64)
        for d in (0, 5, 63):
            assert truncation_risk(p, d) == truncation_risk(short, d)
        assert rho_squared(p.spectrum, 40) == rho_squared(short.spectrum, 40)
        assert (subset_truncation_risk(toy_problem(1e-3, n), [1, 3])
                == subset_truncation_risk(short, [1, 3]))
        assert not [k for owner in (p.spectrum, p.ellipsoid)
                    for k, v in vars(owner).items() if isinstance(v, np.ndarray)
                    and k.startswith("_")]
        assert optimal_truncation(p) == optimal_truncation(toy_problem(1e-3, n))


def _argmin(values):
    """Full-range argmin with ties going to the smaller level."""
    best = min(range(len(values)), key=lambda d: (values[d], d))
    return best, values[best]


# Dyadic entries keep every sum exact, so equal risks at different levels
# (ties) are common; the continuous range covers generic spectra, and the
# wide one (about 1e-30..1, with noise levels down to 1e-40) sums terms of
# very different magnitudes.  Sizes reach a few hundred levels, so the
# running prefix sums of the scans read many values; the entries come from
# a drawn seed, because drawing hundreds of floats one by one is slow.
_DYADIC = (0.25, 0.5, 1.0, 2.0, 4.0)


def _entries(kind, rng, n):
    if kind == "dyadic":
        return rng.choice(_DYADIC, n)
    if kind == "mixed":
        return np.where(rng.random(n) < 0.5, rng.choice(_DYADIC, n),
                        rng.uniform(0.05, 4.0, n))
    return 10.0 ** rng.uniform(-30.0, 0.0, n)


@st.composite
def _scan_inputs(draw):
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = st.sampled_from(["dyadic", "mixed", "wide"])
    s = np.sort(_entries(draw(kinds), rng, n))[::-1]
    a = np.sort(_entries(draw(kinds), rng, n))
    if draw(st.booleans()):
        a = 1.0 / a[::-1]  # weights from 1 up to about 1e30 when wide
    q = draw(st.one_of(st.sampled_from(_DYADIC), st.floats(0.5, 2.0)))
    sigma = draw(st.one_of(st.sampled_from([0.0, 0.125, 0.5, 1.0]),
                           st.floats(1e-4, 1.0),
                           st.floats(-40.0, 0.0).map(lambda e: 10.0 ** e)))
    exponent = draw(st.sampled_from([0.25, 0.5, 1.0]))
    return s.tolist(), a.tolist(), q, sigma, exponent


def _prefix_fsums(terms):
    """The exactly rounded sum of every prefix of the non-negative terms,
    the bits of math.fsum where it does not overflow on the way; a sum that
    rounds past the largest double reads inf (scan_reference's Fraction
    sums)."""
    return list(scan_reference._exact_prefix_sums(terms))


_TERM = st.one_of(
    st.floats(0.0, allow_nan=False),  # includes inf
    st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, 1e300, 1e308,
                     1.7976931348623157e308, math.inf]),
    st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
)


_MAX = sys.float_info.max  # (2^53 - 1) * 2^971


class TestRowFsums:
    @pytest.mark.parametrize("shape", [(64, 64), (8, 512), (1, 4096)])
    def test_squared_errors_are_certified_without_fsum(self, monkeypatch, shape):
        """Rows of squared normal draws, the Monte Carlo case, all pass the
        certificate as the columns of a C-contiguous array and of a .T
        view; no sum falls back to math.fsum.  (The bits are checked
        against fsum in test_properties.py.)"""
        x = np.random.default_rng(3).standard_normal(shape) ** 2
        want = [math.fsum(row) for row in x.tolist()]
        columns = np.ascontiguousarray(x.T)
        monkeypatch.setattr(math, "fsum", None)  # a fallback would raise
        assert _column_fsums(columns).tolist() == want
        assert _column_fsums(x.T).tolist() == want


    def test_fallback_columns_of_a_one_level_block_are_fsum(self, monkeypatch):
        """A Monte Carlo block at D = 1 (one squared error per replication,
        then the constant tail's part) whose sums are mostly ties: every
        column that falls back reads math.fsum's bits, or inf where fsum
        overflows on the way, over several groups of columns."""
        rng = np.random.default_rng(5)
        cols = 3 * (_BLOCK_DOUBLES // 2) + 5
        head = 1.0 + rng.integers(0, 2 ** 20, cols) * 2.0 ** -52
        head[rng.random(cols) < 0.25] = 0.0  # a zero sum whose sign fsum decides
        block = np.vstack([head, np.full(cols, 2.0 ** -53)])  # 1 + k u + u/2: ties
        huge = np.array([[_MAX, 2.0 ** 1000, 1.0], [_MAX, _MAX, 2.0 ** -60]])

        def fsum_or_inf(column):
            try:
                return math.fsum(column)
            except OverflowError:
                return math.inf

        fallbacks = []
        real = truncation._fsum
        monkeypatch.setattr(truncation, "_fsum",
                            lambda *args: fallbacks.append(1) or real(*args))
        for x in (block, np.ascontiguousarray(huge)):
            want = [fsum_or_inf(column).hex() for column in x.T.tolist()]
            assert [v.hex() for v in _column_fsums(x).tolist()] == want
        assert len(fallbacks) > cols // 2


# fsum passes 2^1024 on the way, but the exact sum lies 2^900 below the
# tie max + 2^970, so it rounds to max
_OVER_THE_TOP = [_MAX - 2.0 ** 971, 2.0 ** 971 - 2.0 ** 918, 2.0 ** 918 - 2.0 ** 900,
                 2.0 ** 970]


class TestExactSum:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("pad", [0, _BLOCK_DOUBLES], ids=["list", "chunks"])
    def test_sum_that_fsum_overflows_is_rounded_exactly(self, sign, pad):
        terms = [sign * x for x in _OVER_THE_TOP] + [0.0] * pad
        with pytest.raises(OverflowError):
            math.fsum(terms)
        want = float(sum(map(Fraction, terms)))
        assert want == sign * _MAX
        assert _exact_sum(np.array(terms)).hex() == want.hex()

    @pytest.mark.parametrize("terms, want", [
        (_OVER_THE_TOP + [2.0 ** 900], math.inf),  # the tie rounds to 2^1024
        ([-x for x in _OVER_THE_TOP] + [-2.0 ** 900], -math.inf),
        ([_MAX, _MAX, -_MAX, -_MAX], 0.0),
        ([1e308, 1e308, -1e308, 5e-324], 1e308),
        ([1e308, 1e308, -math.inf], -math.inf),
        ([1e308, 1e308, math.inf, math.nan], math.nan),
    ])
    def test_overflow_on_the_way_keeps_the_exact_sum(self, terms, want):
        """Where fsum overflows on the way, the sum is the exact one rounded
        once, +-inf only where that overflows; a non-finite term decides
        it as in fsum."""
        assert _exact_sum(np.array(terms)).hex() == want.hex()

    def test_inf_minus_inf_raises_after_an_overflow(self):
        with pytest.raises(ValueError):
            _exact_sum(np.array([1e308, 1e308, math.inf, -math.inf]))

    @pytest.mark.parametrize("n", [_ARRAY_SUM_MIN + 1, 800, 3 * _BLOCK_DOUBLES + 5])
    def test_long_sums_are_certified_without_fsum(self, monkeypatch, n):
        """Squared normal draws, the Monte Carlo mean's terms, and their
        squared deviations pass the certificate past the crossover, in one
        block or several; no sum falls back to math.fsum."""
        errors = np.random.default_rng(11).standard_normal(n) ** 2
        deviations = np.float_power(errors - math.fsum(errors.tolist()) / n, 2.0)
        want = [math.fsum(errors.tolist()), math.fsum(deviations.tolist())]
        monkeypatch.setattr(math, "fsum", None)  # a fallback would raise
        assert [_exact_sum(errors), _exact_sum(deviations)] == want

    def test_short_sums_are_fsum(self, monkeypatch):
        calls = []
        monkeypatch.setattr(truncation, "_certified_sum", calls.append)
        assert _exact_sum(np.full(_ARRAY_SUM_MIN, 0.1)) == math.fsum([0.1] * _ARRAY_SUM_MIN)
        assert calls == []

    def test_long_sums_hold_no_temporary_of_their_length(self):
        """The passes over 2^20 values allocate one buffer of at most
        _BLOCK_DOUBLES values: numpy reports its allocations to
        tracemalloc."""
        x = np.random.default_rng(12).random(1 << 20)
        want = math.fsum(x.tolist())
        tracemalloc.start()
        try:
            got = _exact_sum(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2 * 8 * _BLOCK_DOUBLES


class TestOptimalTruncation:
    @given(_scan_inputs())
    @example(([1.0] * 6, [1.0] * 6, 1.0, 0.0, 0.5))  # every level ties
    # testing radius ties at D = 1..5
    @example(([1.0] * 6, [1.0, 2.0, 2.0, 2.0, 2.0, 2.0], 1.0, 0.125, 1.0))
    @example(([0.5] * 3, [1.0, 1.0, 3.0], 3.0, 1.0, 1.0))  # risk 9, 13, 9
    @settings(max_examples=300, deadline=None)
    def test_matches_exhaustive_argmin(self, inputs):
        """All four level scans stop early; each must still return the
        full-range argmin and its value, bit for bit."""
        s, a, q, sigma, exponent = inputs
        n = len(s)
        p = SequenceProblem(explicit_spectrum(s), explicit_class(a, q), sigma, n)
        spec = p.spectrum.values
        sig2 = sigma ** 2
        inv2 = _prefix_fsums([1.0 / spec[j] ** 2 for j in range(n)])
        inv4 = _prefix_fsums([1.0 / spec[j] ** 4 for j in range(n)])
        bias = [q ** 2 / p.ellipsoid.weights[d] ** 2 for d in range(n)]
        phi = power_index(2.0 * exponent, 1.0)  # phi(t) = t^exponent

        totals = [bias[d] + sig2 * inv2[d] for d in range(n)]
        testing = [max(bias[d], sig2 * math.sqrt(inv4[d])) for d in range(n)]
        deterministic = [bias[d] + (sig2 / spec[d - 1] ** 2 if d else 0.0)
                         for d in range(n)]
        # the source set is the ellipsoid with weights 1/phi(s_j^2) and Q = 1
        w = ellipsoid_from_source_set(phi, p.spectrum).weights
        with np.errstate(over="ignore"):  # a weight whose square overflows
            source = [1.0 / w[d] ** 2 + sig2 * inv2[d] for d in range(n)]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            d_star, bound = optimal_truncation(p)
            want_d, want = _argmin(totals)
            assert (d_star, bound) == (want_d, math.sqrt(want))
            assert truncation_risk(p, d_star).total == want
            assert radius_sq(p) == _argmin(testing)
            assert deterministic_rate_sq(p) == _argmin(deterministic)
            d_src, bound_sq, _ = source_set_bound(phi, p.spectrum, sigma)
            assert (d_src, bound_sq) == _argmin(source)

    def test_huge_noise_selects_zero(self):
        p = toy_problem(sigma=10.0)
        d_star, bound = optimal_truncation(p)
        assert d_star == 0
        assert bound == 1.0  # Q / a_1

    def test_noiseless_saturates_at_the_end(self):
        p = toy_problem(sigma=0.0, n=12)
        with pytest.warns(SaturationWarning):
            d_star, bound = optimal_truncation(p)
        assert d_star == 11
        assert bound == pytest.approx(1.0 / 12.0)

    def test_noiseless_overflowing_noise_sum_is_zero(self):
        # 1/s_j^2 overflows from j = 355 on; with sigma = 0 each noise term is
        # still exactly 0 (not 0 * inf = NaN), so every scan reaches D = N-1
        n = 400
        p = SequenceProblem(make_exponential_spectrum(1.0, n),
                            make_power_class(1.0, n), 0.0, n)
        bias = 1.0 / n ** 2
        with pytest.warns(SaturationWarning):
            assert optimal_truncation(p) == (n - 1, math.sqrt(bias))
        with pytest.warns(SaturationWarning):
            assert radius_sq(p) == (n - 1, bias)
        with pytest.warns(SaturationWarning):
            assert deterministic_rate_sq(p) == (n - 1, bias)
        risk = truncation_risk(p, n - 1)
        assert (risk.variance, risk.total) == (0.0, bias)
        assert subset_truncation_risk(p, range(1, n)) == bias

    def test_constant_weights_tie_break_smallest(self):
        p = SequenceProblem(make_power_spectrum(1.0, 6),
                            explicit_class(np.ones(6), 1.0), 0.0, 6)
        d_star, bound = optimal_truncation(p)
        assert (d_star, bound) == (0, 1.0)


    # each optimizer on a noiseless problem, whose best level is D = N-1,
    # by the words its warning names it with
    SCANS = {
        "optimal level": optimal_truncation,
        "testing radius optimum": radius_sq,
        "deterministic rate optimum": deterministic_rate_sq,
        "source-set optimum": lambda p: source_set_bound(
            power_index(2.0, 1.0), p.spectrum, p.sigma),
    }

    @pytest.mark.parametrize("name", SCANS)
    def test_each_optimizer_warns_at_the_end_of_its_range(self, name):
        with pytest.warns(SaturationWarning) as record:
            d_star = self.SCANS[name](toy_problem(sigma=0.0, n=12))[0]
        assert d_star == 11
        assert [str(w.message) for w in record] == [
            f"{name} hit the end of the range (D* = N-1 = 11); "
            "increase N to resolve the minimum"]
        assert record[0].filename == __file__  # the line that called the scan

    def test_inf_at_every_level_raises_without_warning(self):
        # N = 1, and the bias Q^2/a_1^2 = 1e300/1e-300 overflows
        p = SequenceProblem(explicit_spectrum([1.0]),
                            explicit_class([1e-150], 1e150), 0.1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite"):
                optimal_truncation(p)
            # phi(s_1^2)^2 = ((1e200)^1.56)^2 overflows
            with pytest.raises(ValidationError, match="non-finite"):
                source_set_bound(power_index(1.56, 1.0), explicit_spectrum([1e100]), 0.1)
        # the two scans that return the inf still warn at D* = N-1 = 0
        for scan in (radius_sq, deterministic_rate_sq):
            with pytest.warns(SaturationWarning):
                assert scan(p) == (0, math.inf)


def _spreads(terms):
    """The exact-read object of a scan over terms, with readout S_D."""
    terms = np.array(terms, dtype=np.float64)
    with np.errstate(over="ignore"):
        approx = _running_sums(terms)
        return _PrefixSpreads(1.0, terms, operator.mul, approx, _widened(approx))


class TestArrayScan:
    @given(st.lists(_TERM, max_size=300))
    # the running sum stays at 1, while the exact sum rounds up to 1 + 2^-52
    @example([1.0, 0.6 * 2.0 ** -53, 0.6 * 2.0 ** -53])
    @example([_MAX, _MAX, 1.0])  # the running sum overflows
    @example([1e308, 1e308, 1.0])  # fsum overflows at the second term
    @example([1.0] * 40 + [1e308, 1e308])  # overflow after many finite terms
    @example([1e308, 1e308, math.inf])  # fsum overflows, not inf + 1e308
    @example([math.inf] + [1.0] * 40)
    @example([1.0, 1e-300, 3.0] * 50)  # sums that no double holds exactly
    @example([2.0 ** -1074] * 70 + [1e300] * 70)
    # max + 2^970 lies halfway to 2^1024 and rounds to even: inf
    @example([_MAX, 2.0 ** 970])
    @example([_MAX, 2.0 ** 969])  # a quarter of the way: rounds down to max
    @example([_MAX, 2.0 ** 969, 2.0 ** 969])  # two quarters make the half: inf
    @example([2.0 ** -1074] * 40)  # a subnormal run
    @example([1e300, 0.1, 2.0 ** -1074, 3.0])  # finer terms, smaller parts
    @settings(max_examples=300, deadline=None)
    def test_bounds_enclose_every_exact_prefix_sum(self, terms):
        """lower[k] <= fsum(terms[:k]) <= upper(k) for every prefix, and the
        exact reads, the first by one fsum and every later one carried, are
        that fsum, also where the sum rounds to or past the largest double
        and where it is subnormal."""
        spreads = _spreads(terms)
        exact = _prefix_fsums(terms)
        assert all(spreads.lower[k] <= want <= spreads.upper(k)
                   for k, want in enumerate(exact))
        assert [spreads(k).hex() for k in range(len(terms) + 1)] == [
            x.hex() for x in exact]

    @given(st.lists(st.one_of(_TERM, st.floats(0.5, 1.0).map(_MAX.__mul__)),
                    max_size=200), st.sets(st.integers(0, 200)))
    # the sum rounds up to max, so its expansion holds -2^969; later terms
    # keep it at max, then reach the half to 2^1024
    @example([_MAX - 2.0 ** 971, 2.0 ** 970 + 2.0 ** 969] + [2.0 ** 969] * 3,
             {2, 3, 5})
    # the read at 3 is max, 2^900 above the exact sum; the carried fsum at 4
    # overflows on the way to max, so it re-reads the prefix, whose fsum
    # overflows too: the exact sum rounds to max, as in the reference
    @example([_MAX - 2.0 ** 971, 2.0 ** 971 - 2.0 ** 918, 2.0 ** 918 - 2.0 ** 900,
              2.0 ** 970], {3, 4})
    # the read at 2 rounds 1 + 2^-53 down to 1; only its residual 2^-53
    # lifts the read at 3 past the tie, to 1 + 2^-52
    @example([1.0, 2.0 ** -53, 2.0 ** -60], {2, 3})
    # each read leaves a residual below half an ulp of its total
    @example([1.0, 2.0 ** -60, 2.0 ** -120, 3.0, 2.0 ** -61, 5e-324], {1, 2, 4, 6})
    @settings(max_examples=300, deadline=None)
    def test_any_increasing_reads_are_fsum_of_their_prefix(self, terms, levels):
        """Reads at a random increasing subset of the levels, so carried
        segments hold many terms, are math.fsum of each prefix bit for bit,
        also near the largest double, where the carried parts may be
        negative."""
        levels = sorted(k for k in levels if k <= len(terms))
        spreads = _spreads(terms)
        exact = _prefix_fsums(terms)
        assert [spreads(k).hex() for k in levels] == [exact[k].hex() for k in levels]

    def test_flat_risk_returns_level_zero_quickly(self):
        # every level ties at 1.0 (sigma^2 * sum j^2 is far below half an ulp
        # of 1), so every level is a candidate; each is skipped because its
        # lower bound is not below the incumbent at D = 0
        n = 20000
        p = SequenceProblem(make_power_spectrum(1.0, n),
                            explicit_class(np.ones(n), 1.0), 1e-150, n)
        start = time.perf_counter()
        assert optimal_truncation(p) == (0, 1.0)
        assert radius_sq(p) == (0, 1.0)
        assert deterministic_rate_sq(p) == (0, 1.0)
        # the per-level loop took 0.03 s per scan; one fsum per candidate 10 s
        assert time.perf_counter() - start < 1.0

    def test_near_tie_plateau_reads_past_the_fsum_budget(self, monkeypatch):
        # Q^2/a_(D+1)^2 + sigma^2 * S_D stays within a few ulps of 1 + c, so
        # that many levels need their exact sums: each read after the first
        # carries the last one's exact sum, so no term is converted twice
        n = 300
        s = make_power_spectrum(1.0, n)
        sigma = 1e-3
        noise = np.array([math.fsum((1.0 / s.values[:d] ** 2).tolist())
                          for d in range(n)])
        weights = 1.0 / np.sqrt(1.0 + sigma ** 2 * (2.0 * noise[-1] - noise))
        p = SequenceProblem(s, explicit_class(weights, 1.0), sigma, n)
        converted = []  # the values each exact read converts to floats

        class Counted(np.ndarray):
            def tolist(self):
                converted.append(self.size)
                return super().tolist()

        noise_terms = truncation._noise_terms
        monkeypatch.setattr(truncation, "_noise_terms",
                            lambda *args: noise_terms(*args).view(Counted))
        assert optimal_truncation(p) == scan_reference.optimal_truncation(p)
        assert len(converted) > 100 and sum(converted) <= n


_LEVEL_READS = {
    "rho_squared": lambda p, v: rho_squared(p.spectrum, v),
    "truncation_risk": truncation_risk,
    "least_favorable": least_favorable,
    "estimate": lambda p, v: estimate(np.zeros(p.n), v),
    "subset_truncation_risk": lambda p, v: subset_truncation_risk(p, [v]),
    "sample_observations": lambda p, v: sample_observations(np.zeros(p.n), p, 0, D=v),
    "monte_carlo_risk": lambda p, v: monte_carlo_risk(p, np.zeros(p.n), v,
                                                      SimulationConfig(4, 0, p.n)),
    "reconstruct": lambda p, v: reconstruct(np.ones(p.n),
                                            decompose(make_integration_operator(p.n)), v),
}


@pytest.mark.parametrize("name", list(_LEVEL_READS))
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
def test_levels_must_be_integers(name, value):
    """A level, or an index of P, that is not an integer raises a one-line
    ValidationError: not a raw TypeError or IndexError, and not the
    truncated index (a P entry 1.5 is not index 1, True is not 1)."""
    with pytest.raises(ValidationError, match=r"must be an integer, got") as info:
        _LEVEL_READS[name](toy_problem(n=8), value)
    assert "\n" not in str(info.value)


# the reads that share problem._level's rule, each with its largest level
# at N = 8: the problem's N - 1 or N, or the operator's rank
@pytest.mark.parametrize("name, top", [
    ("least_favorable", 7), ("estimate", 8), ("sample_observations", 8),
    ("monte_carlo_risk", 8), ("reconstruct", 8)])
def test_levels_out_of_range_name_the_range(name, top):
    read = _LEVEL_READS[name]
    for level in (-1, top + 1):
        with pytest.raises(ValidationError) as info:
            read(toy_problem(n=8), level)
        assert str(info.value) == f"level D = {level} out of range 0..{top}"
    read(toy_problem(n=8), top)


def test_integer_levels_of_any_type_keep_their_values():
    p = toy_problem(n=8)
    assert rho_squared(p.spectrum, np.int64(3)) == rho_squared(p.spectrum, 3)
    assert truncation_risk(p, np.int32(3)) == truncation_risk(p, 3)
    assert subset_truncation_risk(p, np.array([1, 3])) == subset_truncation_risk(p, {1, 3})


class TestLeastFavorable:
    def test_unusable_problem_rejected_before_allocating(self):
        # N = 2^70 against a spectrum of 8: np.zeros(N) raised a raw
        # ValueError ("Maximum allowed dimension exceeded")
        p = SequenceProblem(make_power_spectrum(1.0, 8), make_power_class(1.0, 8),
                            0.1, 2 ** 70)
        with pytest.raises(ValidationError, match=r"^invalid problem: N mismatch"):
            least_favorable(p, 2)

    def test_spike_shape(self):
        el = least_favorable(toy_problem(), 2)
        want = np.zeros(50)
        want[2] = 1.0 / 3.0
        np.testing.assert_array_equal(el, want)
        assert not el.flags.writeable

    def test_on_ellipsoid_boundary(self):
        p = toy_problem()
        for d in (0, 3, 17):
            el = least_favorable(p, d)
            radius_sq = float(np.sum(p.ellipsoid.weights ** 2 * el ** 2))
            assert radius_sq == pytest.approx(p.ellipsoid.radius ** 2, rel=1e-12)

    def test_bias_at_spike_matches_closed_form(self):
        p = toy_problem()
        d = 4
        el = least_favorable(p, d)
        tail = float(np.sum(el[d:] ** 2))
        assert tail == pytest.approx(truncation_risk(p, d).bias_sq, rel=1e-15)


class TestSubsetTruncation:
    def test_initial_segment_equals_closed_form(self):
        p = toy_problem()
        for n in (0, 1, 5, 20):
            assert subset_truncation_risk(p, range(1, n + 1)) == \
                truncation_risk(p, n).total

    def test_hand_computed_subset(self):
        # keep {2,3}: bias 1/a_1^2 = 1, variance 0.01 * (4 + 9)
        assert subset_truncation_risk(toy_problem(), {2, 3}) == \
            pytest.approx(1.13, rel=1e-14)

    def test_initial_segment_is_best(self, rng):
        for _ in range(60):
            n = int(rng.integers(3, 30))
            p = SequenceProblem(
                explicit_spectrum(np.sort(rng.uniform(0.1, 2.0, n))[::-1]),
                explicit_class(np.sort(rng.uniform(0.5, 20.0, n)),
                               float(rng.uniform(0.5, 2.0))),
                float(rng.uniform(1e-3, 0.5)), n)
            size = int(rng.integers(0, n))
            subset = rng.choice(n, size=size, replace=False) + 1
            assert subset_truncation_risk(p, subset) >= \
                truncation_risk(p, size).total

    def test_overflowing_noise_sum_is_infinite(self):
        # s_j = exp(-j): 1/s_j^2 overflows from j = 355 on; as in rho_squared
        # the noise sum reads as inf, with no RuntimeWarning
        n = 400
        p = SequenceProblem(make_exponential_spectrum(1.0, n),
                            make_power_class(1.0, n), 0.1, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert subset_truncation_risk(p, range(1, 400)) == math.inf
            assert subset_truncation_risk(p, range(1, 360)) == math.inf
            # the largest finite initial segment, bit for bit
            assert subset_truncation_risk(p, range(1, 355)) == \
                truncation_risk(p, 354).total < math.inf
            # finite terms 1e308 whose sum overflows in fsum
            flat = SequenceProblem(explicit_spectrum([1e-154] * 4),
                                   explicit_class([1.0] * 4, 1.0), 0.1, 4)
            assert subset_truncation_risk(flat, {1, 2}) == math.inf

    def test_full_set_rejected(self):
        with pytest.raises(ValidationError):
            subset_truncation_risk(toy_problem(n=4), {1, 2, 3, 4})

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValidationError):
            subset_truncation_risk(toy_problem(n=4), {0, 1})
        with pytest.raises(ValidationError):
            subset_truncation_risk(toy_problem(n=4), {5})

    def test_unrepresentable_sigma_squared_rejected(self):
        # sigma^2 = 1e400 overflows: the problem check rejects it
        p = SequenceProblem(explicit_spectrum([1.0, 0.5]),
                            explicit_class([1.0, 2.0], 1.0), 1e200, 2)
        with pytest.raises(ValidationError, match="sigma"):
            subset_truncation_risk(p, {1})

    def test_overflowing_bias_is_infinite(self):
        # Q^2/a_1^2 = 1e300/1e-300 overflows; it reads as inf, with no warning
        p = SequenceProblem(explicit_spectrum([1.0, 0.5]),
                            explicit_class([1e-150, 1.0], 1e150), 0.1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert subset_truncation_risk(p, set()) == math.inf
            assert subset_truncation_risk(p, {1}) == truncation_risk(p, 1).total


class TestEstimate:
    def test_zero_level(self):
        obs = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(estimate(obs, 0), np.zeros(3))

    def test_full_level_copies(self):
        obs = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(estimate(obs, 3), obs)

    def test_projection(self):
        obs = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(estimate(obs, 2), [1.0, 2.0, 0.0])

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            estimate(np.array([1.0, 2.0]), 3)
