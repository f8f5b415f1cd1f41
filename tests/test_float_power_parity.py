"""np.float_power(x, 2.0) and np.float_power(x, 4.0) equal the numpy-scalar
x ** 2 and x ** 4 bit for bit, and np.float_power(x, 2.0) equals the
Python-float x ** 2, on positive and negative x.

The level scans build their squares and fourth powers as whole arrays with
np.float_power, and the per-level values they must reproduce were written
as numpy-scalar powers.  The Monte Carlo variance squares its deviations,
of either sign, with np.float_power, and its reference writes them as
Python-float powers.  All of these call libm pow, so they agree on one
platform whatever its CPU features; np.power(x, 2.0) and x * x do not
(numpy squares there, with another rounding).  The check runs in this
process and again in child processes with numpy's AVX-512 loops off and
with glibc's AVX2/FMA variants off; each override is set only in the
child's environment.  Run from the repository root as a script, the check prints
its mismatch counts and exits 1 on any mismatch:

    PYTHONPATH=src python tests/test_float_power_parity.py
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minimax_seq.problem import _FORMULAS

OVERRIDES = {
    "numpy without AVX-512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "glibc without AVX2/FMA": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4,-AVX"},
}


def parity_values() -> np.ndarray:
    """The generated spectra and classes, and extreme doubles, each with
    its negation."""
    parts = []
    j = np.arange(1, 4097, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        for formula, _ in _FORMULAS.values():
            for c in np.linspace(0.05, 3.0, 24):
                for sign in (-1.0, 1.0):
                    parts.append(formula(j, sign * c))
        tiny, big = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max
        edges = [tiny, 2.0 ** -1022, 2.0 ** -537, 2.0 ** -268, 1.0, 2.0 ** 256,
                 2.0 ** 511, 2.0 ** 512, np.sqrt(big), big ** 0.25, big]
        for x in edges:
            parts.append(np.array([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]))
    rng = np.random.default_rng(20240817)
    bits = rng.integers(0, 0x7FF0000000000000, 200000, dtype=np.int64)
    parts.append(bits.view(np.float64))  # every finite exponent, subnormals too
    values = np.concatenate(parts)
    values = values[np.isfinite(values) & (values > 0.0)]
    return np.concatenate([values, -values])


def mismatches(values: np.ndarray) -> dict:
    """Count of values whose float_power bits differ from the scalar power:
    numpy-scalar x ** 2 and x ** 4, then Python-float x ** 2."""
    out = {}
    with np.errstate(over="ignore", under="ignore"):
        for k in (2, 4):
            array = np.float_power(values, float(k))
            scalar = np.array([x ** k for x in values])
            out[f"x**{k}"] = int((array.view(np.int64) != scalar.view(np.int64)).sum())
    # a Python float raises OverflowError where the power overflows; such
    # a value reads inf, as float_power's does
    python = []
    for x in values.tolist():
        try:
            python.append(x ** 2)
        except OverflowError:
            python.append(math.inf)
    with np.errstate(over="ignore"):
        array = np.float_power(values, 2.0)
    out["float x**2"] = int((array.view(np.int64) != np.array(python).view(np.int64)).sum())
    return out


def test_float_power_matches_scalar_power_here():
    assert mismatches(parity_values()) == {"x**2": 0, "x**4": 0, "float x**2": 0}


@pytest.mark.parametrize("name", OVERRIDES)
def test_float_power_matches_scalar_power_under_override(name):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, **OVERRIDES[name])
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stdout + child.stderr


if __name__ == "__main__":
    counts = mismatches(parity_values())
    print("mismatches: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    sys.exit(1 if any(counts.values()) else 0)
