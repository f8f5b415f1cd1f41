"""Shared subprocess harness for CLI end-to-end tests."""

import os
import subprocess
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).parent
DATA = TESTS_DIR / "data"
GOLDEN = TESTS_DIR / "golden"

# every golden case: (name, argv builder taking a scratch dir, output file or None)
GOLDEN_CASES = [
    ("risk", lambda tmp: ["risk", "--config", str(DATA / "power_problem.json"),
                          "--d", "2"], None),
    ("optimal", lambda tmp: ["optimal", "--config",
                             str(DATA / "power_problem.json")], None),
    ("jmax", lambda tmp: ["jmax", "--config", str(DATA / "power_problem.json"),
                          "--seed", "7", "--directions", "200"], None),
    ("simulate", lambda tmp: ["simulate", "--config",
                              str(DATA / "power_problem.json"),
                              "--d", "3", "--reps", "500", "--seed", "42"], None),
    ("simulate_noiseless", lambda tmp: ["simulate", "--config",
                                        str(DATA / "noiseless_problem.json"),
                                        "--d", "4", "--reps", "100",
                                        "--seed", "1"], None),
    ("sweep", lambda tmp: ["sweep", "--regime", "pp", "--p", "1", "--kappa", "2",
                           "--grid", "1e-2:1e-4:5", "--n", "64",
                           "--out", str(tmp / "sweep.csv")], "sweep.csv"),
    ("rates", lambda tmp: ["rates", "--in", str(GOLDEN / "sweep.golden")], None),
    ("invert", lambda tmp: ["invert", "--matrix", str(DATA / "integ8.csv"),
                            "--data", str(DATA / "data8.csv"), "--d", "8",
                            "--out", str(tmp / "invert.csv")], "invert.csv"),
]


def run_cli(argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "minimax_seq", *argv],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def run_golden_case(name, tmp):
    """Execute one golden case; returns (exit code, observable bytes)."""
    case = {c[0]: c for c in GOLDEN_CASES}[name]
    code, stdout, _ = run_cli(case[1](Path(tmp)))
    if case[2] is not None:
        out = (Path(tmp) / case[2]).read_bytes()
    else:
        out = stdout
    return code, out
