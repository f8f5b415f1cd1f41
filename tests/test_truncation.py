import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minimax_seq import (
    SaturationWarning,
    SequenceProblem,
    ValidationError,
    deterministic_rate_sq,
    estimate,
    explicit_class,
    explicit_spectrum,
    least_favorable,
    make_exponential_spectrum,
    make_power_class,
    make_power_spectrum,
    optimal_truncation,
    power_index,
    rho_squared,
    source_set_bound,
    subset_truncation_risk,
    testing_radius_sq as radius_sq,
    truncation_risk,
)
from minimax_seq.truncation import _exact_prefix_sums, _row_fsums


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
    """math.fsum of every prefix of terms, an overflowing sum read as inf."""
    out = []
    for k in range(len(terms) + 1):
        try:
            out.append(math.fsum(terms[:k]))
        except OverflowError:
            out.append(math.inf)
    return out


_TERM = st.one_of(
    st.floats(0.0, allow_nan=False),  # includes inf
    st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 3.0, 1e300, 1e308,
                     1.7976931348623157e308, math.inf]),
    st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
)


_MAX = sys.float_info.max  # (2^53 - 1) * 2^971


class TestExactPrefixSums:
    @given(st.lists(_TERM, max_size=300))
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
    @example([2.0 ** -1074] * 5)  # a subnormal run
    @example([1e300, 0.1, 2.0 ** -1074, 3.0])  # finer terms rescale the count
    @example(list(np.array([0.1, 1e-300, 3.0, 2.0 ** -1074, 1e308])))  # np.float64
    @settings(max_examples=300, deadline=None)
    def test_readout_is_fsum_of_every_prefix(self, terms):
        """Every value the running sum reads out is math.fsum of the prefix,
        bit for bit, also where the sum rounds to or past the largest double
        and where it is subnormal."""
        got = list(_exact_prefix_sums(iter(terms)))
        assert [x.hex() for x in got] == [x.hex() for x in _prefix_fsums(terms)]

    @pytest.mark.parametrize("terms", [[1.0, 2.0, 3.0, 4.0, 5.0],
                                       [1.0, math.inf, 1.0, 1.0, 1.0],
                                       [_MAX, _MAX, 1.0, 1.0, 1.0]])
    def test_reading_k_plus_1_values_draws_at_most_k_terms(self, terms):
        """A term is drawn only when its prefix is read, also once the sum
        reads inf, so a scan that stops early computes no further term."""
        for k in range(len(terms) + 1):
            drawn = []
            sums = _exact_prefix_sums(drawn.append(t) or t for t in terms)
            list(itertools.islice(sums, k + 1))
            assert len(drawn) <= k


class TestRowFsums:
    @pytest.mark.parametrize("shape", [(64, 64), (8, 512), (1, 4096)])
    def test_squared_errors_are_certified_without_fsum(self, monkeypatch, shape):
        """Rows of squared normal draws, the Monte Carlo case, all pass the
        certificate; no row falls back to math.fsum.  (The bits are checked
        against fsum in test_properties.py.)"""
        x = np.random.default_rng(3).standard_normal(shape) ** 2
        want = [math.fsum(row) for row in x.tolist()]
        monkeypatch.setattr(math, "fsum", None)  # a fallback would raise
        assert _row_fsums(x).tolist() == want


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
        source = [phi(float(spec[d] ** 2)) ** 2 + sig2 * inv2[d] for d in range(n)]

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


class TestLeastFavorable:
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
