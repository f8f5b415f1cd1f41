"""Monte Carlo validation of the closed-form risks.

Noise is drawn from counter-based Philox streams.  A Monte Carlo run with
master seed m reads the one stream keyed m, in replication order:
replication r holds the normals r*N .. r*N + N - 1 of that stream, and
coordinate k of a replication reads the k-th of its N.  Values therefore
depend only on the seed, and repeated runs are bit-identical.  Averages
accumulate in fixed replication order through math.fsum.

Monte Carlo draws its replications in blocks, each the next rows of the
same generator, so the bits do not depend on the block size.  Each
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


# most replications one Monte Carlo run may hold: each keeps its squared
# error, about 46 bytes, so 2^22 of them stay under 200 MB
_MAX_REPLICATIONS = 1 << 22


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
        if self.replications > _MAX_REPLICATIONS:
            raise ValidationError(f"replications = {self.replications} exceeds the "
                                  f"maximum {_MAX_REPLICATIONS}")
        _seed("master_seed", self.master_seed)


@dataclass(frozen=True)
class RiskEstimate:
    """Averaged squared error with its Monte Carlo standard error."""

    mean_sq_error: float
    std_error: float
    replications: int
    seed: int


def sample_observations(theta, problem: SequenceProblem, seed,
                        count: int | None = None) -> np.ndarray:
    """Draw z_k = theta_k + sigma * (1/s_k) * xi_k from a Philox stream.

    ``seed`` is an integer m in [0, 2^64), which keys a new stream
    ``Philox(key=m)``, or a ``np.random.Generator``, whose stream continues
    where its last draw stopped; any other seed raises ValidationError.
    Identical inputs give identical observations, returned as a read-only
    array.  With ``count=None`` the result has shape (N,).  With
    ``count=k``, an integer k >= 1, it is a (k, N) block holding the next
    k*N normals in row order, so row 0 of a block keyed m is the single
    draw keyed m, and successive calls on one Generator give the rows of
    one call with their summed count.
    """
    theta = _checked_vector(theta, problem.n)
    shape = problem.n
    if count is not None:
        count = _integer("count", count)
        if count < 1:
            raise ValidationError(f"count must be >= 1, got {count!r}")
        shape = (count, problem.n)
    gen = seed
    if not isinstance(gen, np.random.Generator):
        gen = np.random.Generator(np.random.Philox(key=_seed("seed", seed)))
    z = theta + (problem.sigma / problem.spectrum.values) * gen.standard_normal(shape)
    z.flags.writeable = False
    return z


def monte_carlo_risk(problem: SequenceProblem, theta, D: int,
                     config: SimulationConfig) -> RiskEstimate:
    """Average squared estimation error over config.replications draws.

    The replications read one Philox stream keyed master_seed in order,
    so the estimate is reproducible bit-for-bit.  The draws come in blocks
    of at most _BLOCK_DOUBLES noise values from that one generator, so
    memory stays bounded for any replication count and the bits do not
    depend on the block size; each replication's squared error is the
    math.fsum of its row, read for a whole block at once by _row_fsums.
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
    gen = np.random.Generator(np.random.Philox(key=config.master_seed))
    errors = []
    try:
        with np.errstate(over="ignore"):  # an overflow is reported below
            for r0 in range(0, reps, rows):
                z = sample_observations(theta, problem, gen,
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
    ensure_usable(problem)
    candidates = list(candidates)
    if not candidates:
        raise ValidationError("candidate list is empty")
    a = problem.ellipsoid.weights
    q2 = problem.ellipsoid.radius ** 2
    vectors = []
    for pos, cand in enumerate(candidates):
        theta = _checked_vector(cand, problem.n)
        with np.errstate(over="ignore"):  # inf lies outside, reported below
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
