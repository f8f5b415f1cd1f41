"""Record per-op output digests:  python3 perfbench/record_digests.py

Runs one untimed pass of every workload for each of the seeds 0..15 and
rewrites perfbench/digests.json.  A benchmark run on a recorded
seed then fails every op whose deterministic output bytes changed, so a
faster program that alters a printed byte does not pass.  Monte Carlo
outputs are not digested; they are checked statistically.  Recording is
refused if any op fails its other checks.
"""

import json
import shutil
import sys
import tempfile

import run

SEEDS = range(16)


def main() -> int:
    run.pin_environment()
    lib = run.import_library()
    import workloads
    recorded = {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    for name, wl in workloads.WORKLOADS.items():
        recorded[name] = {}
        for seed in SEEDS:
            workdir = tempfile.mkdtemp(dir=run.WORK_ROOT)
            try:
                ops = wl.make_ops(seed)
                result = run.run_pass(lib, wl, ops, wl.prepare(lib, ops, workdir), None)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if result.failed:
                raise SystemExit(f"{name} seed {seed}: {result.messages[0]}")
            recorded[name][str(seed)] = "".join(d or "-" * 8 for d in result.digests)
            print(name, seed, flush=True)
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="ascii")
    try:
        run.WORK_ROOT.rmdir()
    except OSError:  # another run still uses it
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
