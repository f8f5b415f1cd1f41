"""Fingerprint of the jmax certificate bits.  Run from the repository root:

    PYTHONPATH=src python tests/jmax_digest.py

Prints a sha256 over ``certify_maximizer(...).hex()`` on 1200 generated
problems: power, exponential and explicit spectra and classes in every
pairing, N from 1 to 96, sigma = 0 on every 7th, exponential classes
whose a_j^2 overflow, explicit values spread over up to 40 decades, and
on every 40th problem a budget Q^2 so large against a^2 that every
sampled row is infinite and the certificate raises (its message is
hashed instead).  Direction counts run from 1 to 1000, with count = 1 on
every 50th problem and count = 1000 on every 75th.  A change that keeps
the certificate's contract prints the same digest as its parent;
tests/test_fingerprints.py pins the line.
"""

import hashlib
import random

from minimax_seq import (
    SequenceProblem,
    ValidationError,
    certify_maximizer,
    explicit_class,
    explicit_spectrum,
    make_exponential_class,
    make_exponential_spectrum,
    make_power_class,
    make_power_spectrum,
    maximize_J_over_ellipsoid,
)

PROBLEMS = 1200


def generated_cases(seed: int = 12):
    """(solution, count, seed) for the generated problems."""
    rng = random.Random(seed)
    for i in range(PROBLEMS):
        n = rng.randint(1, 96)
        spectrum_kind, class_kind = i % 3, (i // 3) % 3
        if spectrum_kind == 0:
            spectrum = make_power_spectrum(rng.uniform(0.25, 2.0), n)
        elif spectrum_kind == 1:
            spectrum = make_exponential_spectrum(rng.uniform(0.05, 2.0), n)
        else:
            spectrum = explicit_spectrum(sorted(
                (10.0 ** rng.uniform(-20.0, 0.0) for _ in range(n)), reverse=True))
        radius = 10.0 ** rng.uniform(-1.0, 1.0)
        if i % 40 == 39:  # Q^2 / (d @ a^2) overflows: every row is infeasible
            ellipsoid = explicit_class(sorted(
                10.0 ** rng.uniform(-154.0, -150.0) for _ in range(n)),
                10.0 ** rng.uniform(140.0, 150.0))
        elif class_kind == 0:
            ellipsoid = make_power_class(rng.uniform(0.25, 2.0), n, radius)
        elif class_kind == 1:  # a_j^2 overflows from j > 355/kappa
            ellipsoid = make_exponential_class(rng.uniform(0.05, 6.0), n, radius)
        else:
            ellipsoid = explicit_class(sorted(
                10.0 ** rng.uniform(-20.0, 20.0) for _ in range(n)), radius)
        sigma = 0.0 if i % 7 == 0 else 10.0 ** rng.uniform(-6.0, 0.0)
        problem = SequenceProblem(spectrum, ellipsoid, sigma, n)
        if i % 50 == 0:
            count = 1
        elif i % 75 == 0:
            count = 1000
        else:
            count = rng.randint(1, 1000)
        yield maximize_J_over_ellipsoid(problem), count, rng.getrandbits(32)


def digest_line() -> str:
    digest = hashlib.sha256()
    raised = 0
    for solution, count, seed in generated_cases():
        try:
            line = certify_maximizer(solution, count=count, seed=seed).hex()
        except ValidationError as exc:
            line, raised = f"ValidationError: {exc}", raised + 1
        digest.update(f"{line}\n".encode())
    return f"{PROBLEMS} certificates ({raised} raised) sha256 {digest.hexdigest()}"


if __name__ == "__main__":
    print(digest_line())
