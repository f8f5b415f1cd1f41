"""Monte Carlo validation of the closed-form risks.

Noise is drawn from counter-based Philox streams keyed by
(seed, replication): replication r of a run with master seed m reads the
stream keyed (m, r), and coordinate k reads position k of that stream.
Values therefore depend only on the key tuple, never on evaluation order
or degree of parallelism, and repeated runs are bit-identical.  Averages
accumulate in fixed replication order through math.fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import SequenceProblem, ValidationError, ensure_usable
from .truncation import _checked_vector, estimate

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
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValidationError("master_seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class RiskEstimate:
    """Averaged squared error with its Monte Carlo standard error."""

    mean_sq_error: float
    std_error: float
    replications: int
    seed: int


def _stream(seed) -> np.random.Generator:
    """Philox generator keyed by an integer or an (int, int) pair."""
    if isinstance(seed, tuple):
        if len(seed) != 2:
            raise ValidationError("seed tuple must have two components")
        key = np.array([np.uint64(seed[0]), np.uint64(seed[1])], dtype=np.uint64)
    else:
        key = np.array([np.uint64(seed), np.uint64(0)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_observations(theta, problem: SequenceProblem, seed) -> np.ndarray:
    """Draw z_k = theta_k + sigma * (1/s_k) * xi_k from the stream keyed by seed.

    ``seed`` is an integer or an (int, int) pair; identical inputs give
    identical observations, returned as a read-only array.
    """
    theta = _checked_vector(theta, problem.n)
    xi = _stream(seed).standard_normal(problem.n)
    z = theta + (problem.sigma / problem.spectrum.values) * xi
    z.flags.writeable = False
    return z


def monte_carlo_risk(problem: SequenceProblem, theta, D: int,
                     config: SimulationConfig) -> RiskEstimate:
    """Average squared estimation error over config.replications draws.

    Replication r uses the stream keyed (master_seed, r), so the estimate
    is independent of evaluation order and reproducible bit-for-bit.
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
    errors = []
    try:
        with np.errstate(over="ignore"):  # an overflow is reported below
            for r in range(reps):
                z = sample_observations(theta, problem, (config.master_seed, r))
                d = theta - estimate(z, D)
                errors.append(math.fsum((d * d).tolist()))
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
