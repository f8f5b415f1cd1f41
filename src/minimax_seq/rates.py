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

import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from enum import Enum

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
)
from .truncation import _best_level, _exact_prefix_sums, _noise

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

REGIME_TAGS = ("pp", "pe", "ep", "ee")
_KIND = {"p": "power", "e": "exponential"}


class IllposednessLabel(Enum):
    MILD = "mild"
    MODERATE = "moderate"
    SEVERE = "severe"


@dataclass(frozen=True)
class RegimeSpec:
    """One regime cell: generator kinds, their exponents, and a noise grid."""

    spectrum_kind: str
    smoothness_kind: str
    p: float
    kappa: float
    radius: float
    n: int
    sigma_grid: tuple

    def __post_init__(self) -> None:
        if self.spectrum_kind not in _FORMULAS:
            raise ValidationError(f"unknown spectrum kind {self.spectrum_kind!r}")
        if self.smoothness_kind not in _FORMULAS:
            raise ValidationError(f"unknown smoothness kind {self.smoothness_kind!r}")
        for name, value in (("p", self.p), ("kappa", self.kappa)):
            if not (value > 0 and math.isfinite(value)):
                raise ValidationError(f"regime needs finite {name} > 0, got {value!r}")
        # the rules validate_problem applies to every problem the sweep builds
        if not self.n >= 1:
            raise ValidationError(f"regime needs start dimension N at least 1, got {self.n!r}")
        if self.n > _MAX_N:
            raise ValidationError(
                f"regime start dimension N = {self.n} exceeds the maximum {_MAX_N}")
        q = self.radius
        if not (q > 0.0 and 0.0 < q * q < math.inf):
            raise ValidationError(
                f"regime needs radius Q > 0 with Q^2 positive and finite, got {q!r}")
        grid = tuple(float(s) for s in self.sigma_grid)
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
        if tag not in REGIME_TAGS:
            raise ValidationError(f"unknown regime tag {tag!r}; use one of {REGIME_TAGS}")
        return cls(_KIND[tag[0]], _KIND[tag[1]], float(p), float(kappa),
                   float(radius), int(n), tuple(sigma_grid))


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


def _build_problem(spec: RegimeSpec, sigma: float, n: int) -> SequenceProblem:
    return SequenceProblem(
        _generator("spectrum", spec.spectrum_kind)(spec.p, n),
        _generator("class", spec.smoothness_kind)(spec.kappa, n, spec.radius),
        sigma, n)


def testing_radius_sq(problem: SequenceProblem) -> tuple[int, float]:
    """Squared separation radius for detection: minimize over D the larger of
    Q^2/a_{D+1}^2 and sigma^2 * sqrt(sum_{j<=D} 1/s_j^4).

    The fourth powers make this never exceed the estimation bound squared.
    """
    def spreads(sig2, s):
        return _noise(sig2, map(math.sqrt, _exact_prefix_sums(1.0 / x ** 4 for x in s)))
    return _best_level(problem, "testing radius optimum", spreads, max)


def deterministic_rate_sq(problem: SequenceProblem) -> tuple[int, float]:
    """Squared bound for bounded deterministic noise: minimize over D the sum
    Q^2/a_{D+1}^2 + sigma^2/s_D^2 (bias only at D = 0)."""
    def spreads(sig2, s):
        return itertools.chain((0.0,), (sig2 / x ** 2 if sig2 else 0.0 for x in s))
    return _best_level(problem, "deterministic rate optimum", spreads, operator.add)


_OPTIMIZERS = ("estimation", "testing", "deterministic", "water-filling")


def _sweep_point(spec: RegimeSpec, sigma: float, n: int) -> tuple[SweepRow, tuple]:
    """One grid point at dimension n, with one flag per entry of _OPTIMIZERS,
    set where that optimizer touches the end of its search range.

    Saturation is read from returned values (an optimizer at D = N-1, or
    the sandwich's water-filling capping every coordinate), not from
    warnings, which sweep silences.  A generator that over- or underflows
    at this n makes the point unresolvable: that alone is a SaturationError;
    any other ValidationError passes through.
    """
    try:
        problem = _build_problem(spec, sigma, n)
    except ValidationError as exc:
        raise SaturationError(
            f"regime {spec.tag}: dimension N = {n} is not representable "
            f"({exc}); the noise grid cannot be resolved") from exc
    report = minimax_sandwich(problem)
    d_test, testing = testing_radius_sq(problem)
    d_det, deterministic = deterministic_rate_sq(problem)
    row = SweepRow(sigma, report.d_star, report.upper, report.lower,
                   report.j_star, testing, deterministic)
    return row, (report.d_star >= n - 1, d_test >= n - 1, d_det >= n - 1,
                 report.saturated)


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
    a second dip), which is all sweep builds.  A point still saturated at
    N = 2^20 raises a SaturationError that names the optimizers still at
    the end of their range for that point; a generator that cannot build
    the next N raises one too.
    """
    rows, n = [], spec.n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        for sigma in spec.sigma_grid:
            while True:
                row, flags = _sweep_point(spec, sigma, n)
                if not any(flags):
                    break
                if n >= _MAX_N:
                    names = ", ".join(name for name, hit in zip(_OPTIMIZERS, flags) if hit)
                    raise SaturationError(
                        f"regime {spec.tag}: sigma = {sigma!r} still saturated at "
                        f"N = {n}, where these optimizers touch the end of their "
                        f"range: {names}; refusing to grow the model further")
                n *= 2
            rows.append(row)
    return rows


_FIT_MODE = {"pp": "power", "ee": "power", "ep": "loglog", "pe": "mild"}


def _theory_value(spec: RegimeSpec) -> float:
    tag = spec.tag
    if tag == "pp":
        return spec.kappa / (spec.kappa + spec.p + 0.5)
    if tag == "ee":
        return spec.kappa / (spec.p + spec.kappa)
    if tag == "ep":
        return -spec.kappa
    return spec.p + 0.5  # pe


def fit_rate(table, spec: RegimeSpec) -> RateFit:
    """Least-squares rate fit in the regime's coordinates (see module docs)."""
    rows = list(table)
    if len(rows) < 5:
        raise ValidationError(f"rate fit needs >= 5 grid points, got {len(rows)}")
    sigma = np.array([row.sigma for row in rows])
    bound = np.array([row.upper for row in rows])
    if np.any(bound <= 0.0):
        raise ValidationError("degenerate grid: non-positive bounds")

    mode = _FIT_MODE[spec.tag]
    if mode == "power":
        x, y = np.log(sigma), np.log(bound)
    elif mode == "loglog":
        x, y = np.log(np.log(1.0 / sigma)), np.log(bound)
    else:
        x, y = np.log(np.log(1.0 / sigma)), np.log(bound / sigma)
    if float(np.ptp(x)) <= 0.0:
        raise ValidationError("degenerate grid: no spread in fit coordinates")
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(slope * x + intercept - y)))
    trace = tuple((row.sigma, row.d_star) for row in rows)
    return RateFit(spec.tag, float(slope), _theory_value(spec), residual, trace)


_RESIDUAL_THRESHOLD = 0.5


def classify_illposedness(fit: RateFit) -> IllposednessLabel:
    """Label the statistical problem from the fitted rate.

    Mild: the bound is linear in sigma up to a polylogarithmic factor.
    Severe: the bound decays only polylogarithmically.  Moderate: power type.
    A residual above _RESIDUAL_THRESHOLD means the fit does not follow its
    regime's shape and classification is refused.
    """
    if fit.residual > _RESIDUAL_THRESHOLD:
        raise ValidationError(
            f"ambiguous fit: residual {fit.residual!r} exceeds "
            f"{_RESIDUAL_THRESHOLD!r} in fit coordinates")
    if fit.regime == "pe":
        return IllposednessLabel.MILD
    if fit.regime == "ep":
        return IllposednessLabel.SEVERE
    return IllposednessLabel.MODERATE
