"""Fingerprint of the Monte Carlo bits.  Run from the repository root:

    PYTHONPATH=src python tests/mc_digest.py

Prints a sha256 over ``(mean, stderr).hex()`` of 1112 Monte Carlo
estimates: 1100 generated problems (power and exponential spectra and
classes, N from 1 to 64, sigma = 0 on every 7th, D = 0 on every third
and D = N on the next, R from 1 to 299 with R = 1 on every 50th, spike
and random interior theta) and the 12 estimates of acceptance criterion 1
(seed 20240817, R = 10^4).  The random-stream contract: each estimate
reads the one Philox stream keyed by its master seed, replication after
replication, D normals each.  A change that keeps that contract prints
the same digest as its parent; tests/test_fingerprints.py pins the line.
"""

import hashlib
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from conftest import regime_grid

from minimax_seq import (
    SequenceProblem,
    SimulationConfig,
    least_favorable,
    make_exponential_class,
    make_exponential_spectrum,
    make_power_class,
    make_power_spectrum,
    minimax_sandwich,
    monte_carlo_risk,
)

GENERATED = 1100


def generated_cases(seed: int = 11):
    """(problem, theta, D, config) for the generated problems."""
    rng = random.Random(seed)
    for i in range(GENERATED):
        n = rng.randint(1, 64)
        make_spectrum = rng.choice((make_power_spectrum, make_exponential_spectrum))
        make_class = rng.choice((make_power_class, make_exponential_class))
        spectrum = make_spectrum(rng.uniform(0.25, 2.0), n)
        ellipsoid = make_class(rng.uniform(0.25, 2.0), n)
        sigma = 0.0 if i % 7 == 0 else 10.0 ** rng.uniform(-4.0, -1.0)
        problem = SequenceProblem(spectrum, ellipsoid, sigma, n)
        d = (0, n, rng.randint(0, n))[i % 3]
        reps = 1 if i % 50 == 0 else rng.randint(1, 299)
        if i % 2:
            theta = least_favorable(problem, rng.randint(0, n - 1))
        else:  # strictly inside the ellipsoid
            u = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
            theta = u / (ellipsoid.weights * np.sqrt(n))
        yield problem, theta, d, SimulationConfig(reps, rng.getrandbits(64), n)


def criterion_1_cases():
    for _, _, _, _, problem in regime_grid():
        d_star = minimax_sandwich(problem).d_star
        yield (problem, least_favorable(problem, d_star), d_star,
               SimulationConfig(10_000, 20240817, problem.n))


def digest_line() -> str:
    digest = hashlib.sha256()
    count = 0
    for cases in (generated_cases(), criterion_1_cases()):
        for problem, theta, d, config in cases:
            est = monte_carlo_risk(problem, theta, d, config)
            digest.update(f"{est.mean_sq_error.hex()} {est.std_error.hex()}\n".encode())
            count += 1
    return f"{count} estimates sha256 {digest.hexdigest()}"


if __name__ == "__main__":
    print(digest_line())
