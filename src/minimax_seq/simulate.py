"""Monte Carlo validation of the closed-form risks.

Noise is drawn from counter-based Philox streams keyed by
(seed, replication): replication r of a run with master seed m reads the
stream keyed (m, r), and coordinate k reads position k of that stream.
Values therefore depend only on the key tuple, never on evaluation order
or degree of parallelism, and repeated runs are bit-identical.  Averages
accumulate in fixed replication order through math.fsum.

Monte Carlo draws its replications in blocks from one Philox bit
generator per block, re-keyed to the start of each replication's stream,
so a block holds exactly the bits of its one-at-a-time draws.  Each
block's squared errors are summed per replication by the certified
array kernel truncation._row_fsums, which returns math.fsum's bits (rows
it cannot certify read fsum itself).  The normal draw is most of a
replication's cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import (
    SequenceProblem,
    ValidationError,
    _integer,
    _seed,
    ensure_usable,
)
from .truncation import _BLOCK_DOUBLES, _checked_vector, _row_fsums

__all__ = [
    "SimulationConfig",
    "RiskEstimate",
    "sample_observations",
    "monte_carlo_risk",
    "empirical_worst_case",
]


@dataclass(frozen=True)
class SimulationConfig:
    replications: int
    master_seed: int
    n: int

    def __post_init__(self) -> None:
        for name in ("replications", "master_seed", "n"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")
        _seed("master_seed", self.master_seed)


@dataclass(frozen=True)
class RiskEstimate:
    """Averaged squared error with its Monte Carlo standard error."""

    mean_sq_error: float
    std_error: float
    replications: int
    seed: int


def _key(seed) -> tuple[int, int]:
    """The Philox key of ``seed``: an integer m reads (m, 0), a pair stays."""
    if isinstance(seed, tuple):
        if len(seed) != 2:
            raise ValidationError("seed tuple must have two components")
        return _seed("seed[0]", seed[0]), _seed("seed[1]", seed[1])
    return _seed("seed", seed), 0


def sample_observations(theta, problem: SequenceProblem, seed,
                        count: int | None = None) -> np.ndarray:
    """Draw z_k = theta_k + sigma * (1/s_k) * xi_k from the stream keyed by seed.

    ``seed`` is an integer m, read as the key (m, 0), or an (m, r) pair of
    integers, each in [0, 2^64); anything else raises ValidationError.
    Identical inputs give identical observations, returned as a read-only
    array.  With ``count=None`` the result has shape (N,).  With
    ``count=k`` it is a (k, N) block whose row i equals the single draw
    keyed (m, r + i): one Philox bit generator is re-keyed through its
    public state before each row, to the start of that row's stream.
    """
    theta = _checked_vector(theta, problem.n)
    m, r0 = _key(seed)
    xi = np.empty((1 if count is None else count, problem.n))
    if r0 + len(xi) > 2 ** 64:
        raise ValidationError("seed[1] + count - 1 must fit in 64 unsigned bits")
    bitgen = np.random.Philox(key=m)
    gen = np.random.Generator(bitgen)
    key = [m, r0]
    start = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for i, row in enumerate(xi):
        key[1] = r0 + i
        bitgen.state = start
        gen.standard_normal(out=row)
    z = theta + (problem.sigma / problem.spectrum.values) * xi
    if count is None:
        z = z[0]
    z.flags.writeable = False
    return z


def monte_carlo_risk(problem: SequenceProblem, theta, D: int,
                     config: SimulationConfig) -> RiskEstimate:
    """Average squared estimation error over config.replications draws.

    Replication r uses the stream keyed (master_seed, r), so the estimate
    is independent of evaluation order and reproducible bit-for-bit.  The
    draws come in blocks of at most _BLOCK_DOUBLES noise values, so memory
    stays bounded for any replication count; each replication's squared
    error is the math.fsum of its row, read for a whole block at once by
    _row_fsums.
    """
    ensure_usable(problem)
    n = problem.n
    if config.n != n:
        raise ValidationError(
            f"config dimension {config.n} does not match problem N = {n}")
    if not 0 <= D <= n:
        raise ValidationError(f"level D = {D} out of range 0..{n}")
    theta = _checked_vector(theta, n)
    reps = config.replications
    rows = max(1, _BLOCK_DOUBLES // n)
    errors = []
    try:
        with np.errstate(over="ignore"):  # an overflow is reported below
            for r0 in range(0, reps, rows):
                z = sample_observations(theta, problem, (config.master_seed, r0),
                                        count=min(rows, reps - r0))
                # theta - estimate(z, D), row by row
                d = np.empty_like(z)
                d[:, :D] = theta[:D] - z[:, :D]
                d[:, D:] = theta[D:]
                errors.extend(_row_fsums(d * d).tolist())
        total = math.fsum(errors)
        if not math.isfinite(total):  # a squared error is inf or NaN
            raise OverflowError
        if min(errors) == max(errors):
            # degenerate (e.g. noiseless) runs have exactly zero sample variance
            return RiskEstimate(errors[0], 0.0, reps, config.master_seed)
        mean = total / reps
        var = math.fsum((e - mean) ** 2 for e in errors) / (reps - 1)
    except OverflowError:
        raise ValidationError(
            f"Monte Carlo squared error at level D = {D} overflows") from None
    std_error = math.sqrt(var / reps)
    return RiskEstimate(mean, std_error, reps, config.master_seed)


def empirical_worst_case(problem: SequenceProblem, D: int, candidates,
                         config: SimulationConfig) -> tuple[object, RiskEstimate]:
    """Largest Monte Carlo risk among explicit candidate elements.

    Candidates must lie in the ellipsoid.  All candidates share the same
    noise streams (common random numbers), so comparisons differ only in
    their bias contributions.  Ties keep the earliest candidate.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValidationError("candidate list is empty")
    a = problem.ellipsoid.weights
    q2 = problem.ellipsoid.radius ** 2
    vectors = []
    for pos, cand in enumerate(candidates):
        theta = _checked_vector(cand, problem.n)
        radius_sq = math.fsum((a * theta) ** 2)
        if radius_sq > q2 * (1.0 + 1e-12):
            raise ValidationError(
                f"candidate {pos} lies outside the ellipsoid "
                f"(sum a^2 theta^2 = {radius_sq!r} > Q^2 = {q2!r})")
        vectors.append(theta)

    worst = worst_risk = None
    for cand, theta in zip(candidates, vectors):
        risk = monte_carlo_risk(problem, theta, D, config)
        if worst_risk is None or risk.mean_sq_error > worst_risk.mean_sq_error:
            worst, worst_risk = cand, risk
    assert worst is not None and worst_risk is not None
    return worst, worst_risk
