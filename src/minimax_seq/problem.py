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
from typing import Callable, NamedTuple, Sequence

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
    "load_problem",
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


def _level(D, top: int) -> int:
    """D as a truncation level in 0..top; it must be an integer (_integer)."""
    D = _integer("D", D)
    if not 0 <= D <= top:
        raise ValidationError(f"level D = {D} out of range 0..{top}")
    return D


def _number(name: str, value) -> float:
    """value as a float; a bool or a string is not a JSON number."""
    if isinstance(value, (bool, str)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return float(value)


def _numbers(values):
    """Explicit values, with each entry of a list or tuple checked by
    _number, and each entry of an array that holds no ints or floats."""
    if isinstance(values, np.ndarray):
        entries = () if values.dtype.kind in "iuf" else values.ravel().tolist()
    else:
        entries = values if isinstance(values, (list, tuple)) else ()
    for value in entries:
        _number("each value", value)
    return values


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


class _Generated(NamedTuple):
    """A fresh array that _spectrum or _class built from _FORMULAS.  The
    object built on it takes the array without a copy, and the
    generator-match rule holds for it by construction."""

    array: np.ndarray


def _freeze(arr) -> tuple[np.ndarray, bool]:
    """arr as a read-only float64 array, and whether it is a generator's:
    a _Generated array is taken as it is, any other array is copied."""
    generated = isinstance(arr, _Generated)
    out = arr.array if generated else np.array(arr, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out, generated


@dataclass(frozen=True, eq=False)
class SingularSpectrum:
    """Positive non-increasing singular values with generator metadata.

    ``kind`` is one of ``"power"`` (s_j = j^-p), ``"exponential"``
    (s_j = exp(-p*j)) or ``"explicit"``; ``param`` holds p for the
    generated kinds and is None for explicit values.

    The values are read-only and the fields frozen, so what is derived from
    them alone stays valid: ``_violations`` holds the violations of the
    rules on the values, found once when the spectrum is built, and the
    level scans and the water-filling keep their sigma-free arrays
    (squares, noise terms, their running sums and the widened running
    sums) in the instance, computed once (truncation._derived), for a
    spectrum of at most truncation._BLOCK_DOUBLES values.  The values are a
    copy of the array passed in, except for the array a make_* generator
    has just built, which is taken as it is; the generator-match rule of a
    generated kind runs on every spectrum but that one, whose values are
    the formula's by construction.
    """

    values: np.ndarray
    kind: str
    param: float | None
    _violations: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values, generated = _freeze(self.values)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValidationError("spectrum values must be 1-d")
        object.__setattr__(self, "_violations", _array_violations(
            "spectrum", values, self.kind, self.param, generated))

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

    As for SingularSpectrum, ``_violations`` holds the violations of the
    rules on the weights, found once when the class is built, the
    sigma-free arrays derived from the weights and Q (the bias
    Q^2/a_j^2, the squares a_j^2) are kept in the instance, computed once,
    and a generator's own array is taken without a copy or a
    generator-match check.
    """

    weights: np.ndarray
    radius: float
    kind: str
    param: float | None
    _violations: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        weights, generated = _freeze(self.weights)
        object.__setattr__(self, "weights", weights)
        if weights.ndim != 1:
            raise ValidationError("class weights must be 1-d")
        object.__setattr__(self, "_violations", _array_violations(
            "class", weights, self.kind, self.param, generated))

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
        try:
            return float(self.fn(t))
        except OverflowError:  # a Python float power raises instead of giving inf
            raise ValidationError(
                f"index function of kind {self.kind!r} overflows at t={t!r}") from None
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise self._failure(t, exc) from None

    def _failure(self, t: float, exc: Exception) -> ValidationError:
        """The one-line error for phi raising ``exc`` at t inside its domain."""
        detail = " ".join(str(exc).split())
        return ValidationError(f"index function of kind {self.kind!r} raised "
                               f"{type(exc).__name__} at t={t!r}: {detail}")

    def check_samples(self, points: Sequence[float]) -> None:
        """Verify positivity and monotonicity at the sample points (at least
        one), and that phi does not grow toward 0 below the smallest of them.
        Samples cannot decide phi(0+) = 0: a phi tending to a constant, like
        1 + t, passes."""
        pts = sorted(float(t) for t in points)
        self._check_values(pts, [self(t) for t in pts])

    def _check_values(self, pts: list, vals: list) -> None:
        """The rules of check_samples on phi's values ``vals`` at the
        ascending points ``pts``; only the decay probes evaluate phi."""
        if not pts:
            raise ValidationError("index function needs at least one sample point")
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
            try:
                v = float(self.fn(t))
            except OverflowError:  # phi is bounded near 0: an intermediate value
                break
            except (ArithmeticError, ValueError, TypeError) as exc:
                raise self._failure(t, exc) from None
            if v > probe * (1.0 + 1e-12):
                raise ValidationError("index function does not decay toward 0")
            probe = v


@dataclass(frozen=True, eq=False)
class SequenceProblem:
    """A spectrum, a smoothness class, and a noise level of common length.

    sigma is a number and N an integer; a bool or a string is neither.
    ``_usable`` records a passed ensure_usable: every field is frozen and the
    arrays are read-only, so the outcome cannot change afterwards.  Problems
    may share their spectrum and class (the points of a sweep at one N do):
    the rules on those arrays ran once, when each object was built, and the
    arrays the optimizers derive from them are computed once per object,
    while the rules on sigma, Q and N run for every problem.
    """

    spectrum: SingularSpectrum
    ellipsoid: EllipsoidClass
    sigma: float
    n: int
    _usable: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", _number("sigma", self.sigma))
        object.__setattr__(self, "n", _integer("N", self.n))


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
    p, n_max = _number("p", p), _integer("n_max", n_max)
    if not (p > 0 and math.isfinite(p)):
        raise ValidationError(f"{kind} spectrum needs finite p > 0, got {p!r}")
    if not n_max >= 1:
        raise ValidationError(f"spectrum length must be >= 1, got {n_max!r}")
    formula, name = _FORMULAS[kind]
    values = formula(_indices(n_max), -p)
    if values[-1] <= 0.0:
        raise ValidationError(f"{name.format('-p')} underflows to 0 "
                              f"at j={n_max} for p={p!r}; reduce n_max")
    return SingularSpectrum(_Generated(values), kind, p)


def _class(kind: str, kappa: float, n_max: int, radius: float) -> EllipsoidClass:
    """The generated class of ``kind`` with exponent kappa, length n_max."""
    kappa, n_max, radius = (_number("kappa", kappa), _integer("n_max", n_max),
                            _number("Q", radius))
    if not (kappa > 0 and math.isfinite(kappa)):
        raise ValidationError(f"{kind} class needs finite kappa > 0, got {kappa!r}")
    if not n_max >= 1 or not radius > 0:
        raise ValidationError("class needs n_max >= 1 and radius > 0")
    formula, name = _FORMULAS[kind]
    with np.errstate(over="ignore"):  # reported below, as one ValidationError
        weights = formula(_indices(n_max), kappa)
    if not np.isfinite(weights).all():
        raise ValidationError(f"{name.format('kappa')} overflows "
                              f"at j={n_max} for kappa={kappa!r}; reduce n_max")
    return EllipsoidClass(_Generated(weights), radius, kind, kappa)


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
    """Wrap explicitly given singular values; each must be a number, not a
    bool or a string (their rules are reported by validate_problem)."""
    return SingularSpectrum(_numbers(values), "explicit", None)


def make_power_class(kappa: float, n_max: int, radius: float = 1.0) -> EllipsoidClass:
    """Weights a_j = j^kappa (moderate smoothness)."""
    return _class("power", kappa, n_max, radius)


def make_exponential_class(kappa: float, n_max: int, radius: float = 1.0) -> EllipsoidClass:
    """Weights a_j = exp(kappa*j) (analytic smoothness)."""
    return _class("exponential", kappa, n_max, radius)


def explicit_class(weights: Sequence[float], radius: float) -> EllipsoidClass:
    """Wrap explicitly given weights and radius; each must be a number, not
    a bool or a string (their rules are reported by validate_problem)."""
    return EllipsoidClass(_numbers(weights), _number("Q", radius), "explicit", None)


def _index_params(kind: str, **params: float) -> list[float]:
    """The parameters of a named index kind, each read as _number reads it
    and required finite and > 0."""
    values = [_number(name, value) for name, value in params.items()]
    if not all(0.0 < v < math.inf for v in values):
        need = " and ".join(f"{name} > 0" for name in params)
        got = ", ".join(f"{name}={v!r}" for name, v in zip(params, values))
        raise ValidationError(f"{kind} index needs {need}, finite; got {got}")
    return values


def _index_exponent(kind: str, rule: str, e: float, kappa: float, p: float) -> float:
    """The exponent e of a named index kind, required nonzero and finite:
    with e = 0 phi is constant, which its sample checks cannot see."""
    if not (e != 0.0 and math.isfinite(e)):
        raise ValidationError(f"{kind} index needs a nonzero finite exponent {rule}; "
                              f"got kappa={kappa!r}, p={p!r}, exponent {e!r}")
    return e


def power_index(kappa: float, p: float) -> IndexFunction:
    """phi(t) = t^(kappa/(2p)); with s_j = j^-p this yields weights j^kappa."""
    kappa, p = _index_params("power", kappa=kappa, p=p)
    e = _index_exponent("power", "kappa/(2p)", kappa / (2.0 * p), kappa, p)
    return IndexFunction(lambda t: t ** e, "power", math.inf)


def log_power_index(kappa: float) -> IndexFunction:
    """phi(t) = log(1/t)^-kappa on (0, 1); with s_j = exp(-p*j) this yields
    weights proportional to j^kappa."""
    kappa, = _index_params("log-power", kappa=kappa)
    # log(1/t) must stay positive, so the domain stops strictly below 1
    t_max = math.nextafter(1.0, 0.0)
    return IndexFunction(lambda t: math.log(1.0 / t) ** (-kappa), "log_power", t_max)


def exp_power_index(kappa: float, p: float) -> IndexFunction:
    """phi(t) = exp(-kappa * t^(-1/(2p))); with s_j = j^-p this yields
    weights exp(kappa*j)."""
    kappa, p = _index_params("exp-power", kappa=kappa, p=p)
    e = _index_exponent("exp-power", "-1/(2p)", -1.0 / (2.0 * p), kappa, p)
    return IndexFunction(lambda t: math.exp(-kappa * t ** e), "exp_power", math.inf)


def custom_index(fn: Callable[[float], float], t_max: float = math.inf) -> IndexFunction:
    """phi = fn on (0, t_max]; t_max is a number > 0, inf by default."""
    t_max = _number("t_max", t_max)
    if not t_max > 0.0:
        raise ValidationError(f"custom index needs t_max > 0, got {t_max!r}")
    return IndexFunction(fn, "custom", t_max)


def ellipsoid_from_source_set(phi: IndexFunction, spectrum: SingularSpectrum) -> EllipsoidClass:
    """Convert source-set smoothness into ellipsoid weights a_j = 1/phi(s_j^2).

    Solutions x = phi(T*T) v with ||v|| <= 1 have theta_j = phi(s_j^2) v_j,
    hence sum_j theta_j^2 / phi(s_j^2)^2 <= 1: they lie in the ellipsoid
    with the returned weights and radius Q = 1.  The weights are
    non-decreasing because phi is non-decreasing and s_j is non-increasing.

    phi is evaluated once per coordinate.  The rules of check_samples then
    run on those values at the distinct s_j^2, so only its decay probes
    evaluate phi again: at most N + 3 calls in all.
    """
    t = spectrum.values ** 2
    vals = []
    for j, tj in enumerate(t.tolist()):
        try:
            v = phi(tj)
        except ValidationError as exc:
            raise ValidationError(f"phi undefined at index j={j + 1}: {exc}") from exc
        if not (v > 0.0 and math.isfinite(v)):
            raise ValidationError(
                f"phi(s_j^2) vanished or overflowed at index j={j + 1} "
                f"(phi({tj!r}) = {v!r})")
        vals.append(v)
    phi_t = np.array(vals, dtype=np.float64)
    pts, first = np.unique(t, return_index=True)
    phi._check_values(pts.tolist(), phi_t[first].tolist())
    # a subnormal phi(s_j^2) gives an inf weight, which the class's own
    # rules report (a_j finite), as for any other weight array
    with np.errstate(over="ignore"):
        weights = 1.0 / phi_t
    return EllipsoidClass(weights, 1.0, "from_source_set", None)


# Each array's symbol and rule prefix in messages, the order it keeps with
# the comparison that breaks it, and the sign of its generator's exponent.
_ARRAY_RULES = {"spectrum": ("s", "spectrum", "non-increasing", ">", operator.gt, -1.0),
                "class": ("a", "a", "non-decreasing", "<", operator.lt, 1.0)}

# the largest double whose square rounds to 0: a_j^2 > 0 exactly where
# a_j > this, with no square computed (and none to overflow)
_SQUARE_UNDERFLOW = float.fromhex("0x1.6a09e667f3bccp-538")


def _hits(mask: np.ndarray) -> list:
    """The indices where mask is True."""
    return mask.nonzero()[0].tolist()


def _first_hit(mask: np.ndarray) -> list:
    """The first index where mask is True, as a list of at most one."""
    return mask.nonzero()[0][:1].tolist()


def _array_violations(what: str, x: np.ndarray, kind: str, param,
                      generated: bool) -> tuple:
    """The violations of the rules on a spectrum's values or a class's
    weights (``what``): positive, monotone, finite, a_j^2 > 0 (class only)
    and, for a generated kind, the generator's bits, which a generator's
    own array (``generated``) has by construction.  Each rule is one
    whole-array mask, and only the indices where it holds a True are
    formatted."""
    sym, name, order, op, breaks, sign = _ARRAY_RULES[what]
    positive = x > 0.0
    # messages print Python floats (1.0, not np.float64(1.0))
    v = [(j + 1, f"{name} positive", f"{sym}_{j + 1} = {x.item(j)!r}")
         for j in _hits(~positive)]
    # compared, not subtracted: inf - inf would warn
    v += [(j + 2, f"{name} {order}", f"{sym}_{j + 2} = {x.item(j + 1)!r} "
                                     f"{op} {sym}_{j + 1} = {x.item(j)!r}")
          for j in _hits(breaks(x[1:], x[:-1]))]
    # +inf passes the sign and order rules; only the first index is named
    firsts = [(x == math.inf, f"{name} finite")]
    if what == "class":  # the bias Q^2/a_j^2 needs a_j^2 > 0; a_j^2 = inf is fine
        firsts.append((positive & (x <= _SQUARE_UNDERFLOW), "a squared positive"))
    v += [(j + 1, rule, f"{sym}_{j + 1} = {x.item(j)!r}")
          for bad, rule in firsts for j in _first_hit(bad)]
    if kind in _FORMULAS and param is not None and not generated:
        with np.errstate(over="ignore"):  # an overflowed formula mismatches
            expect = _FORMULAS[kind][0](np.arange(1, x.size + 1, dtype=np.float64),
                                        sign * param)
        v += [(j + 1, f"{what} generator mismatch",
               f"{kind} kind expected {expect.item(j)!r}, stored {x.item(j)!r}")
              for j in _first_hit(x != expect)]
    return tuple(v)


def validate_problem(problem: SequenceProblem) -> ValidationReport:
    """Check every structural invariant; reports violations, never raises.

    It lists the spectrum's violations, then the class's, each found once
    when that object was built; then the rules on Q, sigma, the lengths and
    N, which run on every call.
    """
    s, a = problem.spectrum.values, problem.ellipsoid.weights
    v = [*problem.spectrum._violations, *problem.ellipsoid._violations]
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
    A pass is stored on the problem, so the optimizer calls of one sweep
    point share one check; a failing problem is checked again, and raises
    again, on every call.
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
    if isinstance(kind, str) and kind in _FORMULAS:
        _reject_unknown(sp_doc, {"kind", "p", "n_max"}, "spectrum")
        spectrum = _generator("spectrum", kind)(
            _field(sp_doc, "p", partial(_number, "p"), "spectrum"),
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
    radius = _field(cl_doc, "Q", partial(_number, "Q"), "class") if "Q" in cl_doc else 1.0
    if isinstance(kind, str) and kind in _FORMULAS:
        _reject_unknown(cl_doc, {"kind", "kappa", "Q"}, "class")
        ellipsoid = _generator("class", kind)(
            _field(cl_doc, "kappa", partial(_number, "kappa"), "class"),
            spectrum.n_max, radius)
    elif kind == "explicit":
        _reject_unknown(cl_doc, {"kind", "values", "Q"}, "class")
        ellipsoid = _field(cl_doc, "values",
                           lambda values: explicit_class(values, radius), "class")
    else:
        raise ValidationError(f"unknown class kind {kind!r}")

    return SequenceProblem(spectrum, ellipsoid,
                           _field(doc, "sigma", partial(_number, "sigma"), "problem"),
                           _field(doc, "N", partial(_integer, "N"), "problem"))


def load_problem(path: str) -> SequenceProblem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, not UTF-8, or an oversized integer
            raise ValidationError(f"config {path}: {exc}") from exc
    return problem_from_json(doc)
