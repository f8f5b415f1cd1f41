"""Problem definitions for the diagonal Gaussian observation model.

A problem instance couples a decreasing sequence of operator singular
values s_1 >= s_2 >= ... > 0 with a smoothness ellipsoid
{theta : sum_j a_j^2 theta_j^2 <= Q^2} and a noise level sigma.  In the
diagonalized model the k-th coefficient is observed as
z_k = theta_k + sigma * (1/s_k) * xi_k with standard normal xi_k, so small
singular values amplify noise and force regularization.

Everything here is finite-dimensional: sequences have a fixed length N and
all tail quantities downstream use closed forms that do not truncate tails.
Constructed values are immutable and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "SaturationError",
    "SaturationWarning",
    "SingularSpectrum",
    "EllipsoidClass",
    "IndexFunction",
    "SequenceProblem",
    "ValidationReport",
    "make_power_spectrum",
    "make_exponential_spectrum",
    "explicit_spectrum",
    "make_power_class",
    "make_exponential_class",
    "explicit_class",
    "power_index",
    "log_power_index",
    "exp_power_index",
    "custom_index",
    "ellipsoid_from_source_set",
    "validate_problem",
    "ensure_usable",
    "problem_to_json",
    "problem_from_json",
]


_MAX_N = 1 << 20  # the largest length a generator builds


class ValidationError(ValueError):
    """Invalid parameters, malformed inputs, or violated preconditions."""


class SaturationError(RuntimeError):
    """A finite model was too small to resolve the requested quantity."""


class SaturationWarning(UserWarning):
    """An optimizer hit the boundary of the finite search range."""


def _integer(name: str, value) -> int:
    """value as a plain int; bools and non-integral numbers are rejected."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def _seed(name: str, value) -> int:
    """value as a plain int that fits in 64 unsigned bits, a Philox key word."""
    value = _integer(name, value)
    if not 0 <= value < 2 ** 64:
        raise ValidationError(f"{name} must fit in 64 unsigned bits")
    return value


def _indices(n_max) -> np.ndarray:
    """j = 1..n_max as float64; a length above _MAX_N is rejected before
    anything is allocated."""
    if n_max > _MAX_N:
        raise ValidationError(f"n_max = {n_max!r} exceeds the maximum {_MAX_N}")
    return np.arange(1, n_max + 1, dtype=np.float64)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SingularSpectrum:
    """Positive non-increasing singular values with generator metadata.

    ``kind`` is one of ``"power"`` (s_j = j^-p), ``"exponential"``
    (s_j = exp(-p*j)) or ``"explicit"``; ``param`` holds p for the
    generated kinds and is None for explicit values.
    """

    values: np.ndarray
    kind: str
    param: float | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.ndim != 1:
            raise ValidationError("spectrum values must be 1-d")

    @property
    def n_max(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.n_max


@dataclass(frozen=True, eq=False)
class EllipsoidClass:
    """Positive non-decreasing weights a_j and radius Q of the ellipsoid.

    The set is {theta : sum_j a_j^2 theta_j^2 <= Q^2}; faster-growing
    weights mean faster coefficient decay, i.e. smoother solutions.
    """

    weights: np.ndarray
    radius: float
    kind: str
    param: float | None

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _freeze(self.weights))
        if self.weights.ndim != 1:
            raise ValidationError("class weights must be 1-d")

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class IndexFunction:
    """Continuous non-decreasing function phi on (0, t_max] with phi(0+) = 0.

    Translates spectral decay into smoothness: solutions of the form
    phi(T*T) v with ||v|| <= 1 have coefficients theta_j = phi(s_j^2) v_j.
    """

    fn: Callable[[float], float]
    kind: str
    t_max: float

    def __call__(self, t: float) -> float:
        if not 0.0 < t <= self.t_max:
            raise ValidationError(
                f"index function of kind {self.kind!r} undefined at t={t!r} "
                f"(domain (0, {self.t_max!r}])"
            )
        return float(self.fn(t))

    def check_samples(self, points: Sequence[float]) -> None:
        """Verify monotonicity, positivity and decay toward 0 at sample points."""
        pts = sorted(float(t) for t in points)
        vals = [self(t) for t in pts]
        for t, v in zip(pts, vals):
            if not (v > 0.0) or not math.isfinite(v):
                raise ValidationError(f"index function not positive/finite at t={t!r}")
        for (t1, v1), (t2, v2) in zip(zip(pts, vals), zip(pts[1:], vals[1:])):
            if v2 < v1:
                raise ValidationError(
                    f"index function decreasing between t={t1!r} and t={t2!r}"
                )
        # decay toward the origin, probed a few decades below the smallest point
        probe = vals[0]
        for k in (1, 2, 3):
            t = pts[0] * 10.0 ** (-3 * k)
            if t <= 0.0:
                break
            v = float(self.fn(t))
            if v > probe * (1.0 + 1e-12):
                raise ValidationError("index function does not decay toward 0")
            probe = v


@dataclass(frozen=True, eq=False)
class SequenceProblem:
    """A spectrum, a smoothness class, and a noise level of common length.

    ``_usable`` records a passed ensure_usable: every field is frozen and the
    arrays are read-only, so the outcome cannot change afterwards.
    """

    spectrum: SingularSpectrum
    ellipsoid: EllipsoidClass
    sigma: float
    n: int
    _usable: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_problem; passed iff violations is empty."""

    passed: bool
    violations: tuple = field(default_factory=tuple)


# The generated kinds, each a formula f and its name in messages: a spectrum
# has s_j = f(j, -p) and a class a_j = f(j, kappa), at j = 1..N.
_FORMULAS = {
    "power": (lambda j, c: j ** c, "j^{}"),
    "exponential": (lambda j, c: np.exp(c * j), "exp({}*j)"),
}


def _spectrum(kind: str, p: float, n_max: int) -> SingularSpectrum:
    """The generated spectrum of ``kind`` with exponent p, length n_max."""
    if not (p > 0 and math.isfinite(p)):
        raise ValidationError(f"{kind} spectrum needs finite p > 0, got {p!r}")
    if not n_max >= 1:
        raise ValidationError(f"spectrum length must be >= 1, got {n_max!r}")
    formula, name = _FORMULAS[kind]
    values = formula(_indices(n_max), -float(p))
    if values[-1] <= 0.0:
        raise ValidationError(f"{name.format('-p')} underflows to 0 "
                              f"at j={n_max} for p={p!r}; reduce n_max")
    return SingularSpectrum(values, kind, float(p))


def _class(kind: str, kappa: float, n_max: int, radius: float) -> EllipsoidClass:
    """The generated class of ``kind`` with exponent kappa, length n_max."""
    if not (kappa > 0 and math.isfinite(kappa)):
        raise ValidationError(f"{kind} class needs finite kappa > 0, got {kappa!r}")
    if not n_max >= 1 or not radius > 0:
        raise ValidationError("class needs n_max >= 1 and radius > 0")
    formula, name = _FORMULAS[kind]
    with np.errstate(over="ignore"):  # reported below, as one ValidationError
        weights = formula(_indices(n_max), float(kappa))
    if not np.all(np.isfinite(weights)):
        raise ValidationError(f"{name.format('kappa')} overflows "
                              f"at j={n_max} for kappa={kappa!r}; reduce n_max")
    return EllipsoidClass(weights, float(radius), kind, float(kappa))


def _generator(what: str, kind: str):
    """make_<kind>_<what> for a kind in _FORMULAS and what "spectrum" or
    "class", read from the module when called, so that a wrapper installed
    on that name (perfbench's traced run) is the one that runs."""
    return globals()[f"make_{kind}_{what}"]


def make_power_spectrum(p: float, n_max: int) -> SingularSpectrum:
    """Singular values s_j = j^-p for j = 1..n_max."""
    return _spectrum("power", p, n_max)


def make_exponential_spectrum(p: float, n_max: int) -> SingularSpectrum:
    """Singular values s_j = exp(-p*j) for j = 1..n_max."""
    return _spectrum("exponential", p, n_max)


def explicit_spectrum(values: Sequence[float]) -> SingularSpectrum:
    """Wrap explicitly given singular values (validated via validate_problem)."""
    return SingularSpectrum(values, "explicit", None)


def make_power_class(kappa: float, n_max: int, radius: float = 1.0) -> EllipsoidClass:
    """Weights a_j = j^kappa (moderate smoothness)."""
    return _class("power", kappa, n_max, radius)


def make_exponential_class(kappa: float, n_max: int, radius: float = 1.0) -> EllipsoidClass:
    """Weights a_j = exp(kappa*j) (analytic smoothness)."""
    return _class("exponential", kappa, n_max, radius)


def explicit_class(weights: Sequence[float], radius: float) -> EllipsoidClass:
    """Wrap explicitly given weights (validated via validate_problem)."""
    arr = np.asarray(weights, dtype=np.float64)
    return EllipsoidClass(arr, float(radius), "explicit", None)


def power_index(kappa: float, p: float) -> IndexFunction:
    """phi(t) = t^(kappa/(2p)); with s_j = j^-p this yields weights j^kappa."""
    if not (kappa > 0 and p > 0):
        raise ValidationError("power index needs kappa > 0 and p > 0")
    e = kappa / (2.0 * p)
    return IndexFunction(lambda t: t ** e, "power", math.inf)


def log_power_index(kappa: float) -> IndexFunction:
    """phi(t) = log(1/t)^-kappa on (0, 1); with s_j = exp(-p*j) this yields
    weights proportional to j^kappa."""
    if not kappa > 0:
        raise ValidationError("log-power index needs kappa > 0")
    # log(1/t) must stay positive, so the domain stops strictly below 1
    t_max = math.nextafter(1.0, 0.0)
    return IndexFunction(lambda t: math.log(1.0 / t) ** (-kappa), "log_power", t_max)


def exp_power_index(kappa: float, p: float) -> IndexFunction:
    """phi(t) = exp(-kappa * t^(-1/(2p))); with s_j = j^-p this yields
    weights exp(kappa*j)."""
    if not (kappa > 0 and p > 0):
        raise ValidationError("exp-power index needs kappa > 0 and p > 0")
    e = -1.0 / (2.0 * p)
    return IndexFunction(lambda t: math.exp(-kappa * t ** e), "exp_power", math.inf)


def custom_index(fn: Callable[[float], float], t_max: float = math.inf) -> IndexFunction:
    return IndexFunction(fn, "custom", float(t_max))


def ellipsoid_from_source_set(phi: IndexFunction, spectrum: SingularSpectrum) -> EllipsoidClass:
    """Convert source-set smoothness into ellipsoid weights a_j = 1/phi(s_j^2).

    Solutions x = phi(T*T) v with ||v|| <= 1 have theta_j = phi(s_j^2) v_j,
    hence sum_j theta_j^2 / phi(s_j^2)^2 <= 1: they lie in the ellipsoid
    with the returned weights and radius Q = 1.  The weights are
    non-decreasing because phi is non-decreasing and s_j is non-increasing.
    """
    t = spectrum.values ** 2
    weights = np.empty_like(t)
    for j, tj in enumerate(t):
        try:
            v = phi(float(tj))
        except ValidationError as exc:
            raise ValidationError(f"phi undefined at index j={j + 1}: {exc}") from exc
        if not (v > 0.0 and math.isfinite(v)):
            raise ValidationError(
                f"phi(s_j^2) vanished or overflowed at index j={j + 1} "
                f"(phi({float(tj)!r}) = {v!r})")
        weights[j] = 1.0 / v
    phi.check_samples(np.unique(t))
    return EllipsoidClass(weights, 1.0, "from_source_set", None)


def _check_generated(values: np.ndarray, kind: str, param: float | None, what: str,
                     violations: list) -> None:
    if kind not in _FORMULAS or param is None:
        return
    j = np.arange(1, values.size + 1, dtype=np.float64)
    expect = _FORMULAS[kind][0](j, -param if what == "spectrum" else param)
    bad = np.nonzero(values != expect)[0]
    if bad.size:
        k = int(bad[0])
        violations.append((k + 1, f"{what} generator mismatch",
                           f"{kind} kind expected {float(expect[k])!r}, "
                           f"stored {float(values[k])!r}"))


def validate_problem(problem: SequenceProblem) -> ValidationReport:
    """Check every structural invariant; reports violations, never raises."""
    v: list = []
    s = problem.spectrum.values
    a = problem.ellipsoid.weights

    # messages print Python floats (1.0, not np.float64(1.0))
    for j in np.nonzero(~(s > 0.0))[0].tolist():
        v.append((j + 1, "spectrum positive", f"s_{j + 1} = {float(s[j])!r}"))
    # compared, not subtracted: inf - inf would warn
    for j in np.nonzero(s[1:] > s[:-1])[0].tolist():
        v.append((j + 2, "spectrum non-increasing",
                  f"s_{j + 2} = {float(s[j + 1])!r} > s_{j + 1} = {float(s[j])!r}"))
    for j in np.nonzero(~(a > 0.0))[0].tolist():
        v.append((j + 1, "a positive", f"a_{j + 1} = {float(a[j])!r}"))
    for j in np.nonzero(a[1:] < a[:-1])[0].tolist():
        v.append((j + 2, "a non-decreasing",
                  f"a_{j + 2} = {float(a[j + 1])!r} < a_{j + 1} = {float(a[j])!r}"))
    # +inf passes the sign rules; only the first index is named
    for x, name, rule in ((s, "s", "spectrum finite"), (a, "a", "a finite")):
        big = np.nonzero(x == math.inf)[0]
        if big.size:
            j = int(big[0])
            v.append((j + 1, rule, f"{name}_{j + 1} = inf"))
    # the bias Q^2/a_j^2 needs a_j^2 > 0; a_j^2 = inf (exponential classes) is fine
    with np.errstate(over="ignore"):
        tiny = np.nonzero((a > 0.0) & ~(a * a > 0.0))[0]
    if tiny.size:
        j = int(tiny[0])
        v.append((j + 1, "a squared positive", f"a_{j + 1} = {float(a[j])!r}"))
    _check_generated(s, problem.spectrum.kind, problem.spectrum.param, "spectrum", v)
    _check_generated(a, problem.ellipsoid.kind, problem.ellipsoid.param, "class", v)
    # the risks use Q^2 and sigma^2, so the squares must be positive and finite
    q = problem.ellipsoid.radius
    if not q > 0.0:
        v.append((None, "radius positive", f"Q = {q!r}"))
    elif not 0.0 < q * q < math.inf:
        v.append((None, "radius squared positive and finite", f"Q = {q!r}"))
    if not problem.sigma > 0.0:
        v.append((None, "sigma positive", f"sigma = {problem.sigma!r}"))
    elif not 0.0 < problem.sigma * problem.sigma < math.inf:
        v.append((None, "sigma squared positive and finite",
                  f"sigma = {problem.sigma!r}"))
    if s.size != a.size:
        v.append((None, "length mismatch",
                  f"spectrum length {s.size}, class length {a.size}"))
    if problem.n < 1:
        v.append((None, "N at least 1", f"N = {problem.n}"))
    if problem.n != s.size:
        v.append((None, "N mismatch", f"N = {problem.n}, spectrum length {s.size}"))
    return ValidationReport(passed=not v, violations=tuple(v))


def ensure_usable(problem: SequenceProblem) -> None:
    """Raise ValidationError unless the problem is structurally sound.

    Same checks as validate_problem except that sigma = 0 is tolerated:
    the noiseless limit is a documented edge case of several operations.
    A pass is stored on the problem, so later calls return at once; a
    failing problem is checked again, and raises again, on every call.
    """
    if problem._usable:
        return
    report = validate_problem(problem)
    bad = [x for x in report.violations
           if not (x[1] == "sigma positive" and problem.sigma == 0.0)]
    if bad:
        lines = "; ".join(f"{rule} (index {idx}): {detail}" for idx, rule, detail in bad)
        raise ValidationError(f"invalid problem: {lines}")
    object.__setattr__(problem, "_usable", True)


# ---------------------------------------------------------------------------
# JSON surface: {spectrum:{kind,p,n_max|values}, class:{kind,kappa,Q|values},
#                sigma, N} with field names fixed as written.

def _spectrum_to_json(sp: SingularSpectrum) -> dict:
    if sp.kind in _FORMULAS:
        return {"kind": sp.kind, "p": sp.param, "n_max": sp.n_max}
    return {"kind": "explicit", "values": [float(x) for x in sp.values]}


def _class_to_json(cl: EllipsoidClass) -> dict:
    if cl.kind in _FORMULAS:
        return {"kind": cl.kind, "kappa": cl.param, "Q": cl.radius}
    # source-set-derived weights serialize by value; phi itself is not portable
    return {"kind": "explicit", "values": [float(x) for x in cl.weights],
            "Q": cl.radius}


def problem_to_json(problem: SequenceProblem) -> dict:
    return {
        "spectrum": _spectrum_to_json(problem.spectrum),
        "class": _class_to_json(problem.ellipsoid),
        "sigma": problem.sigma,
        "N": problem.n,
    }


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")


def _field(doc: dict, key: str, convert, where: str):
    """convert(doc[key]); a missing key or a failed conversion is invalid."""
    if key not in doc:
        raise ValidationError(f"{where} missing key {key!r}")
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where} key {key!r}: {exc}") from exc


def problem_from_json(doc: dict) -> SequenceProblem:
    """Build a problem from its JSON document; unknown keys are rejected."""
    if not isinstance(doc, dict):
        raise ValidationError("problem document must be a JSON object")
    _reject_unknown(doc, {"spectrum", "class", "sigma", "N"}, "problem")
    for key in ("spectrum", "class", "sigma", "N"):
        if key not in doc:
            raise ValidationError(f"problem document missing key {key!r}")

    sp_doc = doc["spectrum"]
    if not isinstance(sp_doc, dict) or "kind" not in sp_doc:
        raise ValidationError("spectrum must be an object with a 'kind'")
    kind = sp_doc["kind"]
    if kind in _FORMULAS:
        _reject_unknown(sp_doc, {"kind", "p", "n_max"}, "spectrum")
        spectrum = _generator("spectrum", kind)(
            _field(sp_doc, "p", float, "spectrum"),
            _field(sp_doc, "n_max", partial(_integer, "n_max"), "spectrum"))
    elif kind == "explicit":
        _reject_unknown(sp_doc, {"kind", "values"}, "spectrum")
        spectrum = _field(sp_doc, "values", explicit_spectrum, "spectrum")
    else:
        raise ValidationError(f"unknown spectrum kind {kind!r}")

    cl_doc = doc["class"]
    if not isinstance(cl_doc, dict) or "kind" not in cl_doc:
        raise ValidationError("class must be an object with a 'kind'")
    kind = cl_doc["kind"]
    radius = _field(cl_doc, "Q", float, "class") if "Q" in cl_doc else 1.0
    if kind in _FORMULAS:
        _reject_unknown(cl_doc, {"kind", "kappa", "Q"}, "class")
        ellipsoid = _generator("class", kind)(_field(cl_doc, "kappa", float, "class"),
                                              spectrum.n_max, radius)
    elif kind == "explicit":
        _reject_unknown(cl_doc, {"kind", "values", "Q"}, "class")
        ellipsoid = _field(cl_doc, "values",
                           lambda values: explicit_class(values, radius), "class")
    else:
        raise ValidationError(f"unknown class kind {kind!r}")

    return SequenceProblem(spectrum, ellipsoid,
                           _field(doc, "sigma", float, "problem"),
                           _field(doc, "N", partial(_integer, "N"), "problem"))


def load_problem(path: str) -> SequenceProblem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, not UTF-8, or an oversized integer
            raise ValidationError(f"config {path}: {exc}") from exc
    return problem_from_json(doc)
