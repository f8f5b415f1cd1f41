"""Monte Carlo validation of the closed-form risks.

Noise is drawn from counter-based Philox streams.  The truncated estimator
at level D reads only the first D observed coefficients, so a replication
draws only those.  A Monte Carlo run with master seed m reads the one
stream keyed m, in replication order: replication r holds the normals
r*D .. r*D + D - 1 of that stream, coordinate k of a replication reads the
k-th of its D, and D = 0 draws nothing.  Values therefore depend only on
the seed, and repeated runs are bit-identical.  Averages are exactly
rounded sums, with the bits of math.fsum in replication order.

Monte Carlo draws its replications in blocks, each the next rows of the
same generator, so the bits do not depend on the block size.  A
replication's squared error is the math.fsum of its N squared coordinate
errors; the N - D beyond the level are the same theta_j^2 in every
replication, so each holds their sum once, as the few doubles of an
exact expansion (_tail_expansion, through truncation._expansion), which
keeps fsum's bits.  A block holds as many replications of those
D + len(expansion) values as fit in _BLOCK_DOUBLES (at least one),
stored one replication per column: a C-contiguous (D + len(expansion))
x replications array.  Its columns are summed by the certified array
kernel truncation._column_fsums, which returns math.fsum's bits (columns
it cannot certify read the exact sum itself) and adds across contiguous
rows, so its passes are vector operations rather than many short row
reductions.  The squared errors stay one float64 array; their mean and
sample variance are truncation._exact_sum of it and of its squared
deviations, which past a few hundred replications certifies fsum's bits
in whole-array passes over blocks of at most _BLOCK_DOUBLES values
rather than converting each term for fsum.  The squared deviations are
formed by np.float_power, which calls libm pow as the Python float
(e - mean) ** 2 does.  Every sum that overflows reads inf, and is
reported as a ValidationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import (
    SequenceProblem,
    ValidationError,
    _integer,
    _level,
    _seed,
    ensure_usable,
)
from .truncation import (
    _BLOCK_DOUBLES,
    _checked_vector,
    _column_fsums,
    _exact_sum,
    _expansion,
)

__all__ = [
    "SimulationConfig",
    "RiskEstimate",
    "sample_observations",
    "monte_carlo_risk",
]


# most replications one Monte Carlo run may hold: each keeps its squared
# error as a double, so 2^22 of them stay under 200 MB (about 69 MB max RSS
# for `mseq simulate --reps 4194304` at N = 64)
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
                        count: int | None = None, *,
                        D: int | None = None) -> np.ndarray:
    """Draw z_k = theta_k + sigma * (1/s_k) * xi_k from a Philox stream.

    The problem is checked first (ensure_usable; a flag read after its
    first pass).  ``seed`` is an integer m in [0, 2^64), which keys a new
    stream ``Philox(key=m)``, or a ``np.random.Generator``, whose stream
    continues where its last draw stopped; any other seed raises
    ValidationError.
    Identical inputs give identical observations, returned as a read-only
    array.  ``theta`` has length N.  The level D, an integer in 0..N
    (default N), keeps the coordinates 1..D only: each observation reads
    the next D normals of the stream, so D = N gives the default's bits
    and D = 0 draws nothing.  With ``count=None`` the result has shape
    (D,).  With ``count=k``, an integer k >= 1, it is a (k, D) block holding
    the next k*D normals in row order, so row 0 of a block keyed m is the
    single draw keyed m, and successive calls on one Generator give the
    rows of one call with their summed count.  A coordinate whose noise
    sigma/s_k * xi_k or observation overflows (a tiny s_k) reads +-inf,
    with no warning.
    """
    ensure_usable(problem)
    n = problem.n
    theta = _checked_vector(theta, n)
    D = _level(n if D is None else D, n)
    shape = D
    if count is not None:
        count = _integer("count", count)
        if count < 1:
            raise ValidationError(f"count must be >= 1, got {count!r}")
        shape = (count, D)
    gen = seed
    if not isinstance(gen, np.random.Generator):
        gen = np.random.Generator(np.random.Philox(key=_seed("seed", seed)))
    with np.errstate(over="ignore"):  # an overflowing coordinate reads +-inf
        scale = problem.sigma / problem.spectrum.values[:D]
        z = theta[:D] + scale * gen.standard_normal(shape)
    z.flags.writeable = False
    return z


def _tail_expansion(theta_tail: np.ndarray) -> list[float]:
    """Non-overlapping doubles whose exact sum is sum_j theta_j*theta_j
    over theta_tail, each square rounded as a double; [] for a zero sum
    (truncation._expansion of the squares).  A row that holds these parts
    in place of the squares has the same exact sum, so fsum and
    _column_fsums give it the same bits.  A square or sum that overflows
    raises OverflowError.
    """
    with np.errstate(over="ignore"):  # an infinite square is raised below
        squares = theta_tail * theta_tail
    if not np.isfinite(squares).all():
        raise OverflowError
    return _expansion(squares.tolist())


def monte_carlo_risk(problem: SequenceProblem, theta, D: int,
                     config: SimulationConfig) -> RiskEstimate:
    """Average squared estimation error over config.replications draws.

    The replications read one Philox stream keyed master_seed in order, D
    normals each, so the estimate is reproducible bit-for-bit.  Each
    replication's squared error is the math.fsum of its D squared errors
    of the estimated coordinates and the exact expansion of the rest, one
    column of its block, read for a whole block at once by _column_fsums.
    A block is max(1, _BLOCK_DOUBLES // (D + len(expansion))) replications,
    one sample_observations call at level D on the one generator, so a
    block holds at most _BLOCK_DOUBLES values (or one replication), and
    the bits do not depend on the block size.  The squared errors are kept as one float64
    array, 8 bytes per replication; the mean is _exact_sum of it, and the
    sample variance _exact_sum of its squared deviations, each a
    np.float_power(e - mean, 2.0), with the bits of (e - mean) ** 2.  A
    squared error or deviation, or a sum of them, that overflows raises
    ValidationError.
    """
    ensure_usable(problem)
    n = problem.n
    if config.n != n:
        raise ValidationError(
            f"config dimension {config.n} does not match problem N = {n}")
    D = _level(D, n)
    theta = _checked_vector(theta, n)
    reps = config.replications
    gen = np.random.Generator(np.random.Philox(key=config.master_seed))
    errors = np.empty(reps)
    try:
        with np.errstate(over="ignore"):  # an overflow is reported below
            tail = np.array(_tail_expansion(theta[D:]))
            width = D + len(tail)
            block = max(1, _BLOCK_DOUBLES // max(1, width))
            for r0 in range(0, reps, block):
                z = sample_observations(theta, problem, gen,
                                        count=min(block, reps - r0), D=D)
                # the squares of theta - estimate(z, D), one replication
                # per column, with the constant coordinates beyond D
                # replaced by their exact sum
                sq = np.empty((width, len(z)))
                head = sq[:D]
                np.subtract(theta[:D, None], z.T, out=head)
                head *= head
                sq[D:] = tail[:, None]
                errors[r0:r0 + len(z)] = _column_fsums(sq)
        total = _exact_sum(errors)
        if not math.isfinite(total):  # a squared error or their sum is inf
            raise OverflowError
        if errors.min() == errors.max():
            # degenerate (e.g. noiseless) runs have exactly zero sample variance
            return RiskEstimate(float(errors[0]), 0.0, reps, config.master_seed)
        mean = total / reps
        # the squared deviations, in place: float_power calls libm pow, as
        # the float (e - mean) ** 2 does
        errors -= mean
        with np.errstate(over="ignore"):  # an overflow is reported below
            np.float_power(errors, 2.0, out=errors)
        var = _exact_sum(errors) / (reps - 1)
        if not math.isfinite(var):  # a squared deviation overflows
            raise OverflowError
    except OverflowError:
        raise ValidationError(
            f"Monte Carlo squared error at level D = {D} overflows") from None
    std_error = math.sqrt(var / reps)
    return RiskEstimate(mean, std_error, reps, config.master_seed)

