"""truncation._column_fsums returns the bits of math.fsum for every column
whatever order numpy adds in.

numpy picks its reduction loops by the CPU's features at run time, so the
grouping of the kernel's maxima and sums differs between machines.  The
kernel certifies each result, and a column it cannot certify reads the
exact sum, so its bits must not move.  The check sums fixed-seed rows
(squared normals as in Monte Carlo, signed values of mixed scales, and
near-ties that the last bits of dust decide) as the columns of a
C-contiguous array and of a .T view, in this process and again in a child
process with numpy's AVX-512 loops off; the override is set only in the
child's environment.  Run from the repository root as a script, the check
prints its mismatch counts and exits 1 on any mismatch:

    PYTHONPATH=src python tests/test_column_fsums_parity.py
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from minimax_seq.truncation import _BLOCK_DOUBLES, _column_fsums

NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def _near_ties(rng, count: int, width: int) -> np.ndarray:
    """Rows b + h + dust: h is half an ulp of b, a tie, and the dust comes
    in pairs d, -d * (1 + lost) that cancel up to a few units of their last
    bit, so the rounding of the sum rests on the dust's last bits."""
    b = 1.0 + rng.integers(0, 1 << 20, count) * 2.0 ** -52
    h = rng.choice([-1.0, 1.0], count) * 2.0 ** -53
    pairs = (width - 2) // 2
    dust = rng.standard_normal((count, pairs)) * 2.0 ** rng.integers(-100, -45, (count, pairs))
    lost = rng.integers(-1, 2, (count, pairs)) * 2.0 ** -52
    rows = np.hstack([b[:, None], h[:, None], dust, -dust * (1.0 + lost),
                      np.zeros((count, (width - 2) % 2))])
    scale = 2.0 ** rng.integers(-500, 500, count)
    return rng.permuted(rows, axis=1) * scale[:, None]


def parity_rows() -> list:
    """Blocks of rows, each at most _BLOCK_DOUBLES values, at the widths of
    Monte Carlo rows (D plus a few tail doubles) and a few wider ones."""
    rng = np.random.default_rng(20261020)
    blocks = []
    for width in (2, 3, 6, 17, 34, 64, 257):
        count = _BLOCK_DOUBLES // width
        blocks.append(rng.standard_normal((count, width)) ** 2)
        blocks.append(rng.standard_normal((count, width))
                      * 2.0 ** rng.integers(-30, 30, (count, width)))
        blocks.append(_near_ties(rng, count, width))
    return blocks


def mismatches(blocks: list) -> dict:
    """Count of rows whose column sum differs in its bits from math.fsum of
    the row, in each layout."""
    out = {"C-contiguous": 0, ".T view": 0}
    for rows in blocks:
        want = np.array([math.fsum(row) for row in rows.tolist()])
        for name, columns in (("C-contiguous", np.ascontiguousarray(rows.T)),
                              (".T view", rows.T)):
            got = _column_fsums(columns)
            out[name] += int((got.view(np.int64) != want.view(np.int64)).sum())
    return out


def test_column_fsums_match_fsum_here():
    assert mismatches(parity_rows()) == {"C-contiguous": 0, ".T view": 0}


def test_column_fsums_match_fsum_without_avx512():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, **NO_AVX512)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stdout + child.stderr


if __name__ == "__main__":
    counts = mismatches(parity_rows())
    print("mismatches: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    sys.exit(1 if any(counts.values()) else 0)
