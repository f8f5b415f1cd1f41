"""Benchmark of the minimax_seq library, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads (workloads.py, listed in
BENCHMARK.json) are sweep_lab, mc_validate and cli_mix.  Each is a closed
loop with one client in this process: the next op starts when the previous
one returns.  A run executes one checked warm-up pass over the workload's
fixed op list, then repeats the list until ``--seconds`` have elapsed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

    setup_s      median of several cold set-ups, each in a fresh interpreter:
                 import numpy and the package, build the workload's inputs
                 (library objects, config and matrix files)
    wall_s       median over passes of the summed op latencies of one pass
    op_p50_ms,   percentiles over the ops of the list of each op's median
    op_p90_ms    latency over the passes
    peak_rss_mb  peak resident memory of this process

Times are scaled to a reference speed (see CAL_REFERENCE_S).  The line
before the last, ``raw {...}``, holds every metric as measured, unscaled;
the table above it prints both.  ``fail_ratio`` (failed ops / attempted
ops) is printed in that table and carried by the ``attempted`` and
``failed`` fields.  An op fails on a wrong exit code, an exception, or a
failed output check.

With ``--trace 1`` untraced and traced passes alternate; the last line
reports per-layer metrics (medians over traced passes) and
``trace.overhead_ratio``, the traced wall_s over the untraced wall_s.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
SHOWN_FAILURES = 5
# Timings are reported at a reference speed.  The host's speed drifts by
# 20-50% over tens of seconds when neighbours load the shared cores, so a
# fixed calibration kernel runs after every op and each latency is scaled by
# CAL_REFERENCE_S over the kernel's local median time.  CAL_REFERENCE_S is
# the kernel's time on an uncontended core of a 2-vCPU x86-64 host with
# Python 3.11 and numpy 2.4; the line above the result records the raw times.
CAL_REFERENCE_S = 1.2e-3
CAL_WINDOW = 5
CAL_SETUP_SAMPLES = 15


def pin_environment() -> dict:
    """Pin thread counts before numpy loads, and describe the environment.

    ``MSEQ_THREADS`` (sweep pool size) defaults to ``os.cpu_count()``,
    which can exceed the CPUs this process may use.  It is pinned to 1:
    the sweep scans are pure Python, so a second pool thread only contends
    for the interpreter lock, and on 2 CPUs it made sweep_lab slower and
    its wall time vary by over 10% between identical runs.  BLAS also runs
    one thread: its default moved cli_mix by about 40%.
    """
    nproc = len(os.sched_getaffinity(0))
    os.environ["MSEQ_THREADS"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "MSEQ_THREADS": os.environ["MSEQ_THREADS"],
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "python": platform.python_version()}


def import_library():
    """Import minimax_seq from this checkout's sources, never another copy."""
    if not (SRC / "minimax_seq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: library sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import minimax_seq
    if SRC not in Path(minimax_seq.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported minimax_seq from {minimax_seq.__file__}")
    return minimax_seq


def setup_once(workload: str, seed: int, workdir: str):
    """Import the library, draw the op list and build the workload's inputs.

    Returns (lib, workload, ops, inputs, seconds).  ``seconds`` covers the
    imports and ``prepare`` (library objects, config and matrix files), not
    the drawing of the op list: its rejection loops run the benchmark's own
    reference model (checks.Model), not the library.
    """
    start = time.perf_counter()
    lib = import_library()
    import workloads
    wl = workloads.WORKLOADS[workload]
    imported = time.perf_counter()
    ops = wl.make_ops(seed)
    drawn = time.perf_counter()
    inputs = wl.prepare(lib, ops, workdir)
    return lib, wl, ops, inputs, (imported - start) + (time.perf_counter() - drawn)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median cold set-up time over fresh interpreters: (adjusted, raw)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        workdir = tempfile.mkdtemp(dir=WORK_ROOT)
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", str(seed), "--setup-only", workdir],
                capture_output=True, text=True, timeout=120, check=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return (statistics.median(x["setup_s"] for x in samples),
            statistics.median(x["raw_s"] for x in samples))


def calibration_time() -> float:
    """Time of a fixed mix of interpreter and small-array numpy work (~1.5 ms)."""
    import numpy as np
    start = time.perf_counter()
    xs = [1.0 / (j * j) for j in range(1, 1500)]
    for _ in range(12):
        math.fsum(xs)
        sum([x * x for x in xs])
    a = np.arange(1, 300, dtype=np.float64)
    for _ in range(100):
        (a ** -1.5).sum()
    return time.perf_counter() - start


class Pass:
    """Latencies, calibration times, output digests and failures of one pass."""

    def __init__(self) -> None:
        self.latencies: list = []
        self.calibration: list = []
        self.digests: list = []
        self.failed = 0
        self.messages: list = []

    def adjusted(self) -> list:
        """Latencies at reference speed: each is scaled by CAL_REFERENCE_S over
        the median calibration time of the ops within CAL_WINDOW of it."""
        cal, k = self.calibration, CAL_WINDOW
        return [lat * CAL_REFERENCE_S / statistics.median(cal[max(0, i - k):i + k + 1])
                for i, lat in enumerate(self.latencies)]


def op_latencies(passes) -> list:
    """Each op's median latency over the passes of a run.

    Percentiles are taken over these, one value per op of the list.  Pooling
    every pass instead would put p90 of the 128-op lists on the edge between
    two ops' clusters of samples, where one outlying sample decides it.
    """
    return [statistics.median(samples) for samples in zip(*passes)]


def check_op(wl, op, inp, out, recorded) -> tuple[list, str | None]:
    try:
        errors, dig = wl.check(op, inp, out)
    except Exception:  # malformed output fails its op
        return [traceback.format_exc(limit=3)], None
    if recorded and dig is not None and dig != recorded:
        errors.append(f"output digest {dig} != recorded {recorded}")
    return errors, dig


def run_pass(lib, wl, ops, inputs, expected, tracer=None) -> Pass:
    result = Pass()
    with warnings.catch_warnings():
        warnings.simplefilter("error", lib.SaturationWarning)
        for i, (op, inp) in enumerate(zip(ops, inputs)):
            failure = None
            if tracer is not None:
                tracer.op, tracer.active = i, True
            start = time.perf_counter()
            try:
                out = wl.run(lib, inp)
            except Exception:  # an op that raises is a failed op; keep going
                failure = traceback.format_exc(limit=3)
            finally:
                result.latencies.append(time.perf_counter() - start)
                if tracer is not None:
                    tracer.active = False
            result.calibration.append(calibration_time())
            errors, dig = ([failure], None) if failure else \
                check_op(wl, op, inp, out, expected and expected[8 * i:8 * i + 8])
            result.digests.append(dig)
            if errors:
                result.failed += 1
                result.messages.append(f"op {i} {op.kind} {op.args}: {'; '.join(errors)}")
    return result


def expected_digests(workload: str, seed: int) -> str | None:
    """Recorded per-op digests (8 hex digits each) for this seed, if any."""
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="ascii")).get(workload, {}).get(str(seed))


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="minimax_seq benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("sweep_lab", "mc_validate", "cli_mix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    env = pin_environment()
    if args.setup_only:
        raw = setup_once(args.workload, args.seed, args.setup_only)[-1]
        cal = statistics.median(calibration_time() for _ in range(CAL_SETUP_SAMPLES))
        print(json.dumps({"setup_s": raw * CAL_REFERENCE_S / cal, "raw_s": raw}))
        return 0

    import_library()
    units = declared_metrics(bool(args.trace))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
        lib, wl, ops, inputs, _ = setup_once(args.workload, args.seed, workdir)
        import numpy
        import tracing
        from checks import percentile
        env["numpy"] = numpy.__version__
        expected = expected_digests(args.workload, args.seed)
        if expected is not None and len(expected) != 8 * len(ops):
            raise SystemExit("perfbench: recorded digests do not match the op list")
        # the first pass fills caches and lazy imports; it is checked, not timed
        warmup = run_pass(lib, wl, ops, inputs, expected)
        deadline = time.perf_counter() + args.seconds
        plain, traced, layer_runs = [], [], []
        tracer = tracing.Tracer(lib.__name__) if args.trace else None
        while not plain or (tracer is not None and not traced) \
                or time.perf_counter() < deadline:
            plain.append(run_pass(lib, wl, ops, inputs, expected))
            if tracer is None:
                continue
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(lib, wl, ops, inputs, expected, tracer))
            finally:
                tracer.uninstall()
            silent = tracer.silent_layers(args.workload)
            if silent:
                raise SystemExit(f"perfbench: wrapped layers never called on "
                                 f"{args.workload}: {', '.join(silent)}")
            layer_runs.append(tracing.layer_metrics(tracer.spans, tracer.counts))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    passes = [warmup, *plain, *traced]
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    for message in [m for p in passes for m in p.messages][:SHOWN_FAILURES]:
        print(f"FAILED {message}", file=sys.stderr)
    wall_s = statistics.median(sum(p.adjusted()) for p in plain)
    raw_ops = op_latencies([p.latencies for p in plain])
    raw = {"setup_s": raw_setup_s,
           "wall_s": statistics.median(sum(p.latencies) for p in plain),
           "op_p50_ms": 1e3 * percentile(raw_ops, 50),
           "op_p90_ms": 1e3 * percentile(raw_ops, 90)}
    if tracer is None:
        latencies = op_latencies([p.adjusted() for p in plain])
        values = {"setup_s": setup_s, "wall_s": wall_s,
                  "op_p50_ms": 1e3 * percentile(latencies, 50),
                  "op_p90_ms": 1e3 * percentile(latencies, 90),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    else:
        values = {name: statistics.median(run[name] for run in layer_runs)
                  for name in layer_runs[0]}
        values["trace.overhead_ratio"] = \
            statistics.median(sum(p.adjusted()) for p in traced) / wall_s
        raw["trace.overhead_ratio"] = \
            statistics.median(sum(p.latencies) for p in traced) / raw["wall_s"]
    # per-layer times and peak_rss_mb are not scaled: their raw value is the value
    raw = {name: raw.get(name, value) for name, value in values.items()}
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                         "differ from BENCHMARK.json")

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    for name, value in values.items():
        note = f"  (raw {raw[name]:.6g})" if raw[name] != value else ""
        print(f"  {name:34s} {value:14.6g} {units[name]}{note}")
    print(f"  {'fail_ratio':34s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} ops)")
    # the program's own seconds, unscaled, beside the reported figures
    print(f"raw {json.dumps(raw)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
