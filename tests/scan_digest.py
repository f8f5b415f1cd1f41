"""Fingerprint of the level-scan bits.  Run from the repository root:

    PYTHONPATH=src python tests/scan_digest.py

Prints a sha256 over ``(D*, value.hex())`` of the four level scans
(optimal_truncation, testing_radius_sq, deterministic_rate_sq and
source_set_bound) on 1200 generated problems: power, exponential and
explicit spectra and classes in every pairing, N from 1 to 240, sigma = 0
on every 7th problem, and on every 5th an explicit spectrum reaching
1e-170 (1/s_j^2 and 1/s_j^4 overflow, so the noise sums read inf), an
explicit class spanning 1e-150..1e150 (a_j^2 near underflow and
overflow) and sigma down to 1e-150 (sigma^2 near underflow).
source_set_bound takes the spectrum with the power, log-power and
exp-power index functions in turn, and scans the ellipsoid they convert
to (weights 1/phi(s_j^2), Q = 1) over the problem's sigma; where the
index function is undefined at some s_j^2, or vanishes there, it
raises.  A scan that raises hashes the exception's type only, so that a
reworded message does not move the digest.  A change that keeps the scans' contract prints the same digest
as its parent; tests/test_fingerprints.py pins the line.
"""

import hashlib
import random
import warnings

from minimax_seq import (
    SaturationWarning,
    SequenceProblem,
    ValidationError,
    deterministic_rate_sq,
    exp_power_index,
    explicit_class,
    explicit_spectrum,
    log_power_index,
    make_exponential_class,
    make_exponential_spectrum,
    make_power_class,
    make_power_spectrum,
    optimal_truncation,
    power_index,
    source_set_bound,
    testing_radius_sq,
)

PROBLEMS = 1200


def _decades(rng, lo, hi, n, reverse=False):
    return sorted((10.0 ** rng.uniform(lo, hi) for _ in range(n)), reverse=reverse)


def generated_cases(seed: int = 13):
    """(problem, index function) for the generated problems."""
    rng = random.Random(seed)
    for i in range(PROBLEMS):
        n = rng.randint(1, 240)
        extreme = i % 5 == 4
        spectrum_kind, class_kind = i % 3, (i // 3) % 3
        if spectrum_kind == 0:
            spectrum = make_power_spectrum(rng.uniform(0.25, 3.0), n)
        elif spectrum_kind == 1:
            spectrum = make_exponential_spectrum(rng.uniform(0.05, min(2.0, 300 / n)), n)
        else:
            low = -170.0 if extreme else -12.0
            spectrum = explicit_spectrum(_decades(rng, low, -0.01, n, reverse=True))
        radius = 10.0 ** rng.uniform(-1.0, 1.0)
        if class_kind == 0:
            ellipsoid = make_power_class(rng.uniform(0.25, 3.0), n, radius)
        elif class_kind == 1:  # a_j^2 overflows from j > 355/kappa
            ellipsoid = make_exponential_class(rng.uniform(0.05, min(4.0, 700 / n)), n,
                                               radius)
        elif extreme:
            ellipsoid = explicit_class(_decades(rng, -150.0, 150.0, n), radius)
        else:
            ellipsoid = explicit_class(_decades(rng, 0.0, 12.0, n), radius)
        if i % 7 == 0:
            sigma = 0.0
        elif extreme:
            sigma = 10.0 ** rng.uniform(-150.0, 0.0)
        else:
            sigma = 10.0 ** rng.uniform(-8.0, 0.0)
        index_kind = (i // 9) % 3
        if index_kind == 0:
            phi = power_index(rng.uniform(0.25, 3.0), rng.uniform(0.25, 3.0))
        elif index_kind == 1:
            phi = log_power_index(rng.uniform(0.25, 3.0))
        else:
            phi = exp_power_index(rng.uniform(0.05, 2.0), rng.uniform(0.5, 3.0))
        yield SequenceProblem(spectrum, ellipsoid, sigma, n), phi


def _line(scan, *args) -> str:
    try:
        d_star, value = scan(*args)[:2]
    except ValidationError:
        return "ValidationError"
    return f"{d_star} {value.hex()}"


def digest_line() -> str:
    digest = hashlib.sha256()
    raised = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        for problem, phi in generated_cases():
            lines = [_line(optimal_truncation, problem),
                     _line(testing_radius_sq, problem),
                     _line(deterministic_rate_sq, problem),
                     _line(source_set_bound, phi, problem.spectrum, problem.sigma)]
            raised += sum(line.startswith("ValidationError") for line in lines)
            digest.update("".join(f"{line}\n" for line in lines).encode())
    return (f"{PROBLEMS} problems, {4 * PROBLEMS} scans ({raised} raised) "
            f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    print(digest_line())
