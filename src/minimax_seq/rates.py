"""Reconstruction-rate experiments across spectrum/smoothness regimes.

Regime tags name the spectrum kind first, the smoothness kind second:

    pp  power spectrum / power smoothness      rate sigma^(k/(k+p+1/2))
    pe  power spectrum / analytic smoothness   rate sigma*log(1/sigma)^(p+1/2)
    ep  exponential spectrum / power smoothness  rate log(1/sigma)^-k
    ee  exponential spectrum / analytic smoothness  rate sigma^(k/(p+k))

Power-type rates (pp, ee) are fitted as the slope of log(bound) against
log(sigma); the logarithmic regime (ep) as the slope of log(bound) against
log(log(1/sigma)); the near-linear regime (pe) as the slope of
log(bound/sigma) against log(log(1/sigma)).  Sweeps double the model
dimension at each grid point until no optimizer touches the end of its
search range.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .bounds import minimax_sandwich
from .problem import (
    _FORMULAS,
    _MAX_N,
    SaturationError,
    SaturationWarning,
    SequenceProblem,
    ValidationError,
    _generator,
    _integer,
    _number,
)
from .truncation import _MAX, _SUM, _best_level, _derived, _prefix_spreads

__all__ = [
    "REGIME_TAGS",
    "RegimeSpec",
    "SweepRow",
    "RateFit",
    "IllposednessLabel",
    "sweep",
    "fit_rate",
    "classify_illposedness",
    "testing_radius_sq",
    "deterministic_rate_sq",
]


class IllposednessLabel(Enum):
    MILD = "mild"
    MODERATE = "moderate"
    SEVERE = "severe"


class _Regime(NamedTuple):
    spectrum_kind: str
    smoothness_kind: str
    coordinates: Callable  # (sigma, bound) -> the fit's (x, y)
    theory: Callable  # (p, kappa) -> the rate exponent
    label: IllposednessLabel


# Each regime tag and what it means (see the module docstring).
_REGIMES = {
    "pp": _Regime("power", "power", lambda sigma, bound: (np.log(sigma), np.log(bound)),
                  lambda p, kappa: kappa / (kappa + p + 0.5), IllposednessLabel.MODERATE),
    "pe": _Regime("power", "exponential",
                  lambda sigma, bound: (np.log(np.log(1.0 / sigma)),
                                        np.log(bound / sigma)),
                  lambda p, kappa: p + 0.5, IllposednessLabel.MILD),
    "ep": _Regime("exponential", "power",
                  lambda sigma, bound: (np.log(np.log(1.0 / sigma)), np.log(bound)),
                  lambda p, kappa: -kappa, IllposednessLabel.SEVERE),
    "ee": _Regime("exponential", "exponential",
                  lambda sigma, bound: (np.log(sigma), np.log(bound)),
                  lambda p, kappa: kappa / (p + kappa), IllposednessLabel.MODERATE),
}
REGIME_TAGS = tuple(_REGIMES)


def _regime(tag) -> _Regime:
    try:
        return _REGIMES[tag]
    except (KeyError, TypeError):  # TypeError: an unhashable tag
        raise ValidationError(
            f"unknown regime tag {tag!r}; use one of {REGIME_TAGS}") from None


@dataclass(frozen=True)
class RegimeSpec:
    """One regime cell: generator kinds, their exponents, and a noise grid.

    p, kappa, the radius and each noise level must be numbers and n an
    integer; a bool or a string is neither.
    """

    spectrum_kind: str
    smoothness_kind: str
    p: float
    kappa: float
    radius: float
    n: int
    sigma_grid: tuple

    def __post_init__(self) -> None:
        for name, kind in (("spectrum", self.spectrum_kind),
                           ("smoothness", self.smoothness_kind)):
            if not (isinstance(kind, str) and kind in _FORMULAS):
                raise ValidationError(f"unknown {name} kind {kind!r}")
        for name, label in (("p", "p"), ("kappa", "kappa"), ("radius", "Q")):
            object.__setattr__(self, name, _number(label, getattr(self, name)))
        object.__setattr__(self, "n", _integer("N", self.n))
        for name, value in (("p", self.p), ("kappa", self.kappa)):
            if not (value > 0 and math.isfinite(value)):
                raise ValidationError(f"regime needs finite {name} > 0, got {value!r}")
        # validate_problem's rules on N, Q and sigma, which it applies to every
        # problem the sweep builds; the arrays it builds check their own rules
        if not self.n >= 1:
            raise ValidationError(f"regime needs start dimension N at least 1, got {self.n!r}")
        if self.n > _MAX_N:
            raise ValidationError(
                f"regime start dimension N = {self.n} exceeds the maximum {_MAX_N}")
        q = self.radius
        if not (q > 0.0 and 0.0 < q * q < math.inf):
            raise ValidationError(
                f"regime needs radius Q > 0 with Q^2 positive and finite, got {q!r}")
        grid = tuple(_number("sigma", s) for s in self.sigma_grid)
        if not grid:
            raise ValidationError("sigma grid must be non-empty")
        for s in grid:
            if not (s > 0.0 and 0.0 < s * s < math.inf):
                raise ValidationError(
                    f"sigma grid needs sigma > 0 with sigma^2 positive and finite, "
                    f"got {s!r}")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("sigma grid must be strictly decreasing")
        object.__setattr__(self, "sigma_grid", grid)

    @property
    def tag(self) -> str:
        return self.spectrum_kind[0] + self.smoothness_kind[0]

    @classmethod
    def from_tag(cls, tag: str, p: float, kappa: float, sigma_grid,
                 radius: float = 1.0, n: int = 64) -> "RegimeSpec":
        regime = _regime(tag)
        return cls(regime.spectrum_kind, regime.smoothness_kind, p, kappa, radius, n,
                   tuple(sigma_grid))


@dataclass(frozen=True)
class SweepRow:
    sigma: float
    d_star: int
    upper: float
    lower: float
    j_star: float
    testing_sq: float
    deterministic_sq: float


@dataclass(frozen=True)
class RateFit:
    regime: str
    fitted: float
    theory: float
    residual: float
    d_star_trace: tuple


# sigma^2 * sqrt(sum_{j<=D} 1/s_j^4)
_testing_spreads = _prefix_spreads(4.0, lambda sig2, x: sig2 * np.sqrt(x))


def testing_radius_sq(problem: SequenceProblem) -> tuple[int, float]:
    """Squared separation radius for detection: minimize over D the larger of
    Q^2/a_{D+1}^2 and sigma^2 * sqrt(sum_{j<=D} 1/s_j^4).

    The fourth powers make this never exceed the estimation bound squared.
    """
    return _best_level(problem, "testing radius optimum", _testing_spreads, _MAX)


def _deterministic_spreads(sig2: float, spectrum):
    """0 at level 0 and sigma^2/s_D^2 at level D >= 1, exactly; the squares
    are computed once per spectrum."""
    spread = np.zeros(spectrum.n_max + 1)
    if sig2:
        spread[1:] = sig2 / _derived(spectrum, "_float_power_2", np.float_power,
                                     spectrum.values, 2.0)
    return spread


def deterministic_rate_sq(problem: SequenceProblem) -> tuple[int, float]:
    """Squared bound for bounded deterministic noise: minimize over D the sum
    Q^2/a_{D+1}^2 + sigma^2/s_D^2 (bias only at D = 0)."""
    return _best_level(problem, "deterministic rate optimum", _deterministic_spreads,
                       _SUM)


_OPTIMIZERS = ("estimation", "testing", "deterministic", "water-filling")


def _build_pair(spec: RegimeSpec, n: int) -> tuple:
    """spec's spectrum and class at length n, from the make_* names looked
    up at call time; a ValidationError from either is a SaturationError."""
    try:
        return (_generator("spectrum", spec.spectrum_kind)(spec.p, n),
                _generator("class", spec.smoothness_kind)(spec.kappa, n, spec.radius))
    except ValidationError as exc:
        raise SaturationError(
            f"regime {spec.tag}: dimension N = {n} is not representable "
            f"({exc}); the noise grid cannot be resolved") from exc


def _sweep_point(problem: SequenceProblem) -> tuple[SweepRow | None, tuple]:
    """One grid point, with one flag per entry of _OPTIMIZERS, set where
    that optimizer touches the end of its search range.

    Saturation is read from returned values (an optimizer at D = N-1, or
    the sandwich's water-filling capping every coordinate), not from
    warnings, which sweep silences.  A ValidationError passes through.

    The two cheap scans run first (testing, then deterministic).  Below
    N = _MAX_N, read from this module at call time, a point where either
    of them saturates returns (None, flags) at once: sweep doubles N for
    it whatever the sandwich would say, so the sandwich is not called and
    its two flags read False.  At _MAX_N all four optimizers run, so the
    SaturationError there names every one still at the end of its range.
    """
    n = problem.n
    d_test, testing = testing_radius_sq(problem)
    d_det, deterministic = deterministic_rate_sq(problem)
    scans = (d_test >= n - 1, d_det >= n - 1)
    if any(scans) and n < _MAX_N:
        return None, (False, *scans, False)
    report = minimax_sandwich(problem)
    row = SweepRow(problem.sigma, report.d_star, report.upper, report.lower,
                   report.j_star, testing, deterministic)
    return row, (report.d_star >= n - 1, *scans, report.saturated)


def sweep(spec: RegimeSpec) -> list[SweepRow]:
    """Evaluate bounds on the noise grid, doubling N at each point until
    no optimizer touches the end of its range.

    The first point starts at spec.n; each later point starts at the N
    where the point before it resolved (the grid decreases, so D* grows
    along it) and doubles from there on its own.  The rows are ordered by
    the input grid and equal, by ==, the rows of evaluating every point at
    the smallest N = spec.n * 2^k at which no point saturates, because a
    resolved point reads the same bits at any larger N from the sequence:

    - a generator's first N entries have the same bits when it builds 2N
      entries (problem._FORMULAS is elementwise: j^-p, j^kappa, exp(-p*j),
      exp(kappa*j); the property
      test_properties.py::test_generator_prefix_keeps_its_bits_at_twice_the_length
      checks all four generators);
    - the weights are non-decreasing, so the water-filling runs in index
      order and visits the added coordinates last; when the water-filling is
      unsaturated the budget runs out before them, they get r = 0, and the
      fsum of J(r*) is unchanged;
    - for the generated weights the scanned risks have no second dip after
      the early stop: past D* they never fall back to the incumbent, and
      ties go to the smaller level, so a level added by doubling cannot win.

    The argument needs generated weights (a jump in explicit a_j could make
    a second dip), which is all sweep builds.

    The points at one N share one spectrum and one class, held until the
    next doubling, so the rules on their arrays run once per N, and so do
    the sigma-free arrays of the scans and the water-filling (noise terms
    and their running sums, squares, the bias Q^2/a_j^2), which sigma^2
    only scales; the bits are those of objects built afresh for every
    point.  A point still saturated at N = 2^20 raises a SaturationError
    that names the optimizers still at the end of their range for that
    point; a generator that cannot build the next N raises one too.

    A point runs the testing and deterministic scans first, and below
    N = 2^20 one that either of them saturates doubles N without calling
    the sandwich (_sweep_point): its row would be dropped anyway, so the
    rows are unchanged, and at 2^20 all four optimizers run, so the error
    names every one still at the end of its range.  Skipping the sandwich
    cannot skip an error of its own either.  The problem's validation runs
    first in every optimizer, so it fails alike in any order, and on a
    valid generated pair the sandwich never raises: a_1 >= 1 and the a_j
    do not decrease, so the level-0 risk Q^2/a_1^2 is finite, the pivot
    r_k is at most the budget left and J(r*) <= sum_i r_i <=
    sum_i a_i^2 r_i, which is Q^2 up to the rounding of the running
    budget, also finite.
    """
    rows, n, pair = [], spec.n, None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        for sigma in spec.sigma_grid:
            while True:
                pair = pair or _build_pair(spec, n)
                row, flags = _sweep_point(SequenceProblem(*pair, sigma, n))
                if not any(flags):
                    break
                if n >= _MAX_N:
                    names = ", ".join(name for name, hit in zip(_OPTIMIZERS, flags) if hit)
                    raise SaturationError(
                        f"regime {spec.tag}: sigma = {sigma!r} still saturated at "
                        f"N = {n}, where these optimizers touch the end of their "
                        f"range: {names}; refusing to grow the model further")
                n *= 2
                pair = None  # so that two pairs are never held at once
            rows.append(row)
    return rows


def fit_rate(table, spec: RegimeSpec) -> RateFit:
    """Least-squares rate fit in the regime's coordinates (see module docs)."""
    rows = list(table)
    if len(rows) < 5:
        raise ValidationError(f"rate fit needs >= 5 grid points, got {len(rows)}")
    sigma = np.array([row.sigma for row in rows])
    bound = np.array([row.upper for row in rows])
    if np.any(bound <= 0.0):
        raise ValidationError("degenerate grid: non-positive bounds")

    regime = _REGIMES[spec.tag]
    x, y = regime.coordinates(sigma, bound)
    if float(np.ptp(x)) <= 0.0:
        raise ValidationError("degenerate grid: no spread in fit coordinates")
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(slope * x + intercept - y)))
    trace = tuple((row.sigma, row.d_star) for row in rows)
    return RateFit(spec.tag, float(slope), regime.theory(spec.p, spec.kappa), residual,
                   trace)


_RESIDUAL_THRESHOLD = 0.5


def classify_illposedness(fit: RateFit) -> IllposednessLabel:
    """Label the statistical problem from the fitted rate.

    Mild: the bound is linear in sigma up to a polylogarithmic factor.
    Severe: the bound decays only polylogarithmically.  Moderate: power type.
    A residual above _RESIDUAL_THRESHOLD means the fit does not follow its
    regime's shape and classification is refused.
    """
    label = _regime(fit.regime).label
    if fit.residual > _RESIDUAL_THRESHOLD:
        raise ValidationError(
            f"ambiguous fit: residual {fit.residual!r} exceeds "
            f"{_RESIDUAL_THRESHOLD!r} in fit coordinates")
    return label
