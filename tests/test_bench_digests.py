"""One pass of every perfbench workload at seed 1 reproduces the output
digests recorded in perfbench/digests.json.

The benchmark checks each op's output against those digests and counts a
mismatch as a failed op; this test runs the same check, so a change that
moves an output byte fails here before a benchmark run sees it.  It uses
perfbench/run.py's run_pass and expected_digests and changes nothing under
perfbench/.  The pass runs in a child process, because the benchmark pins
its thread counts before numpy loads.  Run from the repository root as a
script, the check prints each workload's failed ops and exits 1 on any:

    python tests/test_bench_digests.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1


def failed_ops() -> dict:
    """{workload: (ops, failed, first messages)} of one checked pass each."""
    sys.path.insert(0, str(PERFBENCH))
    import run
    run.pin_environment()
    import workloads
    out = {}
    for name in sorted(workloads.WORKLOADS):
        expected = run.expected_digests(name, SEED)
        with tempfile.TemporaryDirectory() as workdir:
            lib, wl, ops, inputs, _ = run.setup_once(name, SEED, workdir)
            if expected is None or len(expected) != 8 * len(ops):
                out[name] = (len(ops), len(ops), ["no recorded digests for this op list"])
                continue
            result = run.run_pass(lib, wl, ops, inputs, expected)
        out[name] = (len(ops), result.failed, result.messages[:3])
    return out


def test_one_pass_of_every_workload_matches_its_digests(tmp_path):
    child = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                           cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stdout + child.stderr
    counts = json.loads(child.stdout.splitlines()[-1])
    assert {name: failed for name, (ops, failed, _) in counts.items() if ops >= 100} \
        == {"cli_mix": 0, "mc_validate": 0, "sweep_lab": 0}


if __name__ == "__main__":
    counts = failed_ops()
    for name, (ops, failed, messages) in counts.items():
        print(f"{name}: {failed} of {ops} ops failed", file=sys.stderr)
        for message in messages:
            print(f"  {message}", file=sys.stderr)
    print(json.dumps(counts))
    sys.exit(1 if any(failed for _, failed, _ in counts.values()) else 0)
