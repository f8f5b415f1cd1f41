"""The three benchmark workloads: seeded op lists, set-up, execution, checks.

An op is one user-level request: one ``rates.sweep`` call (sweep_lab), one
validated problem (mc_validate) or one ``mseq`` command run in-process
through ``minimax_seq.cli.run`` (cli_mix).  Op lists depend only on the
workload seed, drawn with ``random.Random``, so one seed always gives one
list.  ``prepare`` turns an op list into inputs (objects and files) before
timing starts; ``run`` is the timed call; ``check`` validates its output
and returns the errors plus a digest of the deterministic output bytes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import logging
import math
import random
import struct
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (RMS_FACTOR, Model, chain_holds, close, digest,
                    monte_carlo_errors, sandwich_errors, sweep_row_errors)

TAGS = ("pp", "pe", "ep", "ee")
KIND = {"p": "power", "e": "exponential"}

# sweep_lab: the pinned grid 1e-2..1e-7 at 8 points, starting at N = 64
SWEEP_GRID = tuple(float(s) for s in np.logspace(-2, -7, 8))
SWEEP_N = 64
# pp cost grows steeply as p + kappa shrinks, so p + kappa walks a fixed
# ladder over [1.8, 4.5] and the seed only splits it.  The split still moves
# a deep cell's cost by 1.7x between p/(p+kappa) = 0.3 and 0.7 (longer fsum
# partials), so it is drawn from PP_SPLIT.  The rungs avoid the p + kappa
# bands where a split in [0.3, 0.7] decides whether the sweep doubles N once
# more (about 2.5x the cost).  Other regimes cost milliseconds.
PP_SPLIT = (0.45, 0.55)  # symmetric about 1/2
PP_LADDER = (1.85, 1.875, 2.0, 2.045, 2.18, 2.235, 2.25, 2.41, 2.497, 2.505,
             2.671, 2.758, 2.82, 2.995, 3.019, 3.106, 3.194, 3.23, 3.425, 3.455,
             3.542, 3.629, 3.716, 3.775, 4.0, 4.03, 4.065, 4.152, 4.239, 4.326,
             4.413, 4.5)
SWEEP_RANGES = {"pe": ((0.5, 2.0), (0.2, 1.5)),
                "ep": ((0.2, 1.5), (0.5, 3.0)),
                "ee": ((0.2, 1.5), (0.2, 1.5))}

# mc_validate: criterion-1 pipeline at N = 64 and R = 800
MC_N = 64
MC_REPS = 800
MC_RANGES = {"pp": ((0.5, 2.0), (0.5, 3.0)),
             "pe": ((0.5, 2.0), (0.1, 1.0)),
             "ep": ((0.1, 1.0), (0.5, 3.0)),
             "ee": ((0.1, 1.0), (0.1, 1.0))}

# cli_mix: command counts per pass (200 ops).  With 16 jmax commands, the
# ones dearer than an invert of size 256 number about 14, so p90 (the 20th
# dearest op) falls inside the uniform cluster of 12 such inverts instead of
# on the steep, config-dependent tail of small jmax commands.
CLI_COUNTS = {"risk": 44, "optimal": 40, "jmax": 16, "simulate": 24,
              "sweep": 16, "invert": 24, "bad": 10, "saturating": 10}
JMAX_DIRECTIONS = 500
SIM_REPS = 300
INVERT_SIZES = (128, 256)


@dataclass(frozen=True)
class Op:
    kind: str
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    make_ops: Callable[[int], list]
    prepare: Callable     # (lib, ops, workdir) -> list of per-op inputs
    run: Callable         # (lib, input) -> output
    check: Callable       # (op, input, output) -> (errors, digest or None)


# ---------------------------------------------------------------- sweep_lab

def sweep_lab_ops(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    # antithetic splits: adjacent rungs (similar cost) get s and 1 - s, so
    # the split's effect on their summed cost cancels to first order
    for pair in range(0, len(PP_LADDER), 2):
        share = rng.uniform(*PP_SPLIT)
        for total, s in zip(PP_LADDER[pair:pair + 2], (share, 1.0 - share)):
            ops.append(Op("sweep", {"tag": "pp", "p": total * s,
                                    "kappa": total * (1.0 - s)}))
    for tag, (p_range, k_range) in SWEEP_RANGES.items():
        for _ in range(32):
            ops.append(Op("sweep", {"tag": tag, "p": rng.uniform(*p_range),
                                    "kappa": rng.uniform(*k_range)}))
    rng.shuffle(ops)
    return ops


def _prepare_sweeps(lib, ops, workdir):
    return [lib.RegimeSpec.from_tag(op.args["tag"], op.args["p"], op.args["kappa"],
                                    SWEEP_GRID, n=SWEEP_N) for op in ops]


def _run_sweep(lib, spec):
    return lib.sweep(spec)


def _row_tuple(row) -> tuple:
    """A row as plain Python numbers, so its digest depends on values only."""
    return (float(row.sigma), int(row.d_star), float(row.upper), float(row.lower),
            float(row.j_star), float(row.testing_sq), float(row.deterministic_sq))


def _check_sweep(op, spec, rows):
    table = [_row_tuple(r) for r in rows]
    return sweep_row_errors(SWEEP_GRID, table), digest(repr(table).encode())


# -------------------------------------------------------------- mc_validate

def mc_validate_ops(seed: int) -> list:
    """32 problems per regime at N = 64, redrawn until the best level is at
    most N/2 and water-filling leaves the budget binding (no saturation)."""
    rng = random.Random(seed)
    ops = []
    for tag in TAGS:
        p_range, k_range = MC_RANGES[tag]
        for _ in range(32):
            while True:
                p, kappa = rng.uniform(*p_range), rng.uniform(*k_range)
                sigma = 10.0 ** rng.uniform(-5.0, -1.0)
                model = Model(tag, p, kappa, sigma, MC_N)
                if model.best_level()[0] <= MC_N // 2 and not model.fully_capped():
                    break
            ops.append(Op("mc", {"tag": tag, "p": p, "kappa": kappa, "sigma": sigma,
                                 "mc_seed": rng.getrandbits(63)}))
    rng.shuffle(ops)
    return ops


def _build(lib, tag, p, kappa, sigma, n):
    spectrum = (lib.make_power_spectrum if tag[0] == "p"
                else lib.make_exponential_spectrum)(p, n)
    ellipsoid = (lib.make_power_class if tag[1] == "p"
                 else lib.make_exponential_class)(kappa, n)
    return lib.SequenceProblem(spectrum, ellipsoid, sigma, n)


def _prepare_mc(lib, ops, workdir):
    inputs = []
    for op in ops:
        a = op.args
        problem = _build(lib, a["tag"], a["p"], a["kappa"], a["sigma"], MC_N)
        inputs.append((problem, lib.SimulationConfig(MC_REPS, a["mc_seed"], MC_N)))
    return inputs


def _run_mc(lib, inp):
    problem, config = inp
    report = lib.minimax_sandwich(problem)
    theta = lib.least_favorable(problem, report.d_star)
    est = lib.monte_carlo_risk(problem, theta, report.d_star, config)
    closed = lib.truncation_risk(problem, report.d_star).total
    z = (est.mean_sq_error - closed) / est.std_error if est.std_error else 0.0
    return report, est, closed, z


def _check_mc(op, inp, out):
    report, est, closed, _z = out
    a = op.args
    model = Model(a["tag"], a["p"], a["kappa"], a["sigma"], MC_N)
    d_ref, total_ref = model.best_level()
    errors = sandwich_errors(report.upper, report.lower, report.j_star)
    if report.d_star != d_ref:
        errors.append(f"D*={report.d_star} but the argmin of the risk is {d_ref}")
    elif not close(closed, total_ref):
        errors.append(f"closed form {closed!r} != reference {total_ref!r}")
    if est.replications != MC_REPS:
        errors.append(f"R={est.replications}, expected {MC_REPS}")
    errors += monte_carlo_errors(est.mean_sq_error, est.std_error, closed)
    fixed = (int(report.d_star), float(report.upper), float(report.lower),
             float(report.j_star), float(closed))
    return errors, digest(repr(fixed).encode())


# ------------------------------------------------------------------ cli_mix

def _cli_config(rng, tag: str, n: int) -> tuple[dict, int]:
    """A config of regime ``tag`` and dimension n whose best level is at
    most n/2.

    Exponential parameters stay below 150/n, so a_j^2 and 1/s_j^2 and
    their products remain finite doubles.
    """
    while True:
        p = rng.uniform(0.3, 2.0) if tag[0] == "p" else rng.uniform(0.05, 150.0 / n)
        kappa = rng.uniform(1.0, 3.0) if tag[1] == "p" else rng.uniform(0.05, 150.0 / n)
        sigma = 10.0 ** rng.uniform(-6.0, -2.0)
        d, _ = Model(tag, p, kappa, sigma, n).best_level()
        if d <= n // 2:
            return {"tag": tag, "p": p, "kappa": kappa, "sigma": sigma, "N": n}, d


def _sizes(count: int) -> list:
    """(regime, N) for each of ``count`` commands of one kind: N on a fixed
    ladder over [64, 512], regimes in turn.  Command cost grows with N (the
    jmax certificate linearly) and depends on the regime (the range of the
    summed weights), so fixing both keeps the mix's cost and p90 seed-free."""
    return [(TAGS[i % 4], 64 + round(448 * i / (count - 1))) for i in range(count)]


def cli_mix_ops(seed: int) -> list:
    rng = random.Random(seed)
    groups = []
    for tag, n in _sizes(CLI_COUNTS["risk"]):
        cfg, _d = _cli_config(rng, tag, n)
        groups.append([Op("risk", {"config": cfg, "d": rng.randint(0, n - 1)})])
    for tag, n in _sizes(CLI_COUNTS["optimal"]):
        groups.append([Op("optimal", {"config": _cli_config(rng, tag, n)[0]})])
    for tag, n in _sizes(CLI_COUNTS["jmax"]):
        groups.append([Op("jmax", {"config": _cli_config(rng, tag, n)[0],
                                   "seed": rng.randrange(1 << 16)})])
    for tag, n in _sizes(CLI_COUNTS["simulate"]):
        cfg, d = _cli_config(rng, tag, n)
        groups.append([Op("simulate", {"config": cfg, "d": d,
                                       "seed": rng.getrandbits(32)})])
    for k in range(CLI_COUNTS["sweep"]):
        sweep = {"p": rng.uniform(0.8, 2.0), "kappa": rng.uniform(1.0, 3.0),
                 "grid": f"1e-2:1e-4:{rng.randint(5, 7)}", "csv": f"sweep_{k}.csv"}
        groups.append([Op("sweep", sweep), Op("rates", sweep)])
    for k in range(CLI_COUNTS["invert"]):
        groups.append([Op("invert", {
            "n": INVERT_SIZES[k % 2], "fmt": ("csv", "bin")[k // 2 % 2],
            "d": rng.randint(4, 32), "data": f"data_{k}.csv",
            "noise_seed": rng.getrandbits(32),
            "out": f"invert_{k}.csv" if k % 8 >= 4 else None})])
    for k, (tag, n) in enumerate(_sizes(CLI_COUNTS["bad"])):
        groups.append([Op("bad", {"config": _cli_config(rng, tag, n)[0],
                                  "flaw": ("key", "kind")[k % 2],
                                  "command": ("risk", "optimal")[k // 2 % 2]})])
    for _ in range(CLI_COUNTS["saturating"]):
        groups.append([Op("saturating", {"config": {
            "tag": "pp", "p": 1.0, "kappa": 2.0, "N": rng.randint(8, 16),
            "sigma": 10.0 ** rng.uniform(-10.0, -9.0)}})])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def _config_doc(cfg: dict) -> dict:
    return {"spectrum": {"kind": KIND[cfg["tag"][0]], "p": cfg["p"], "n_max": cfg["N"]},
            "class": {"kind": KIND[cfg["tag"][1]], "kappa": cfg["kappa"], "Q": 1.0},
            "sigma": cfg["sigma"], "N": cfg["N"]}


def _model(cfg: dict) -> Model:
    return Model(cfg["tag"], cfg["p"], cfg["kappa"], cfg["sigma"], cfg["N"])


def _integration_operator(n: int) -> np.ndarray:
    return np.tril(np.ones((n, n))) / float(n)


def _write_matrix_bin(matrix: np.ndarray, path: Path) -> None:
    path.write_bytes(b"MSEQ1" + struct.pack("<II", *matrix.shape)
                     + matrix.astype("<f8").tobytes(order="C"))


def _write_lines(path: Path, rows) -> None:
    path.write_text("".join(",".join(format(float(x), ".17g") for x in row) + "\n"
                            for row in rows), encoding="ascii")


@dataclass
class CliInput:
    argv: list
    workdir: Path
    expect: int = 0
    solution: np.ndarray | None = None  # invert: set by the op's first check


class _CurrentStderr:
    """Stream that writes to whatever ``sys.stderr`` is at each write."""

    def write(self, text: str) -> int:
        return sys.stderr.write(text)

    def flush(self) -> None:
        sys.stderr.flush()


def _prepare_cli(lib, ops, workdir):
    importlib.import_module(lib.__name__ + ".cli")
    # cli.run configures logging once per process, on the sys.stderr of its
    # first call; bind the handler to the current stderr instead, so each
    # op's log lines land in that op's captured stderr
    logging.basicConfig(stream=_CurrentStderr(), format="%(name)s: %(message)s",
                        level=logging.INFO)
    workdir = Path(workdir)
    for n in INVERT_SIZES:
        matrix = _integration_operator(n)
        _write_lines(workdir / f"integ{n}.csv", matrix)
        _write_matrix_bin(matrix, workdir / f"integ{n}.bin")
    inputs = []
    for i, op in enumerate(ops):
        a = op.args
        if "config" in a:
            doc = _config_doc(a["config"])
            if op.kind == "bad" and a["flaw"] == "key":
                doc["surprise"] = True
            elif op.kind == "bad":
                doc["spectrum"]["kind"] = "gaussian"
            (workdir / f"config_{i}.json").write_text(json.dumps(doc), encoding="ascii")
        config = ["--config", str(workdir / f"config_{i}.json")]
        inp = CliInput([], workdir)
        if op.kind == "risk":
            inp.argv = ["risk", *config, "--d", str(a["d"])]
        elif op.kind in ("optimal", "saturating"):
            inp.argv = ["optimal", *config]
            inp.expect = 3 if op.kind == "saturating" else 0
        elif op.kind == "jmax":
            inp.argv = ["jmax", *config, "--seed", str(a["seed"]),
                        "--directions", str(JMAX_DIRECTIONS)]
        elif op.kind == "simulate":
            inp.argv = ["simulate", *config, "--d", str(a["d"]),
                        "--reps", str(SIM_REPS), "--seed", str(a["seed"])]
        elif op.kind == "sweep":
            inp.argv = ["sweep", "--regime", "pp", "--p", repr(a["p"]),
                        "--kappa", repr(a["kappa"]), "--grid", a["grid"],
                        "--n", "64", "--out", str(workdir / a["csv"])]
        elif op.kind == "rates":
            inp.argv = ["rates", "--in", str(workdir / a["csv"])]
        elif op.kind == "invert":
            n = a["n"]
            t = (np.arange(n) + 0.5) / n
            y = _integration_operator(n) @ np.sin(math.pi * t) \
                + np.random.default_rng(a["noise_seed"]).normal(0.0, 1e-4, n)
            _write_lines(workdir / a["data"], y[:, None])
            inp.argv = ["invert", "--matrix", str(workdir / f"integ{n}.{a['fmt']}"),
                        "--data", str(workdir / a["data"]), "--d", str(a["d"])]
            if a["out"]:
                inp.argv += ["--out", str(workdir / a["out"])]
        else:  # bad
            inp.argv = [a["command"], *config]
            if a["command"] == "risk":
                inp.argv += ["--d", "1"]
            inp.expect = 2
        inputs.append(inp)
    return inputs


@functools.lru_cache(maxsize=None)
def _integration_svd(n: int):
    return np.linalg.svd(_integration_operator(n))


def _invert_reference(inp: CliInput, a: dict) -> np.ndarray:
    """The benchmark's own SVD solution of an invert op.  It is computed on
    the op's first check, in the untimed warm-up pass, not in set-up."""
    if inp.solution is None:
        u, sv, vt = _integration_svd(a["n"])
        data, d = np.loadtxt(inp.workdir / a["data"], dtype=np.float64), a["d"]
        inp.solution = vt[:d].T @ ((u[:, :d].T @ data) / sv[:d])
    return inp.solution


def _run_cli(lib, inp: CliInput):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run(inp.argv)
    return code, out.getvalue(), err.getvalue()


def _parse_sweep_csv(text: str) -> list:
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#") and not line.startswith("sigma")]
    return [(float(r[0]), int(r[1]), *(float(x) for x in r[2:])) for r in rows]


def _grid(spec: str) -> tuple:
    hi, lo, points = spec.split(":")
    return tuple(np.logspace(math.log10(float(hi)), math.log10(float(lo)), int(points)))


def _check_cli(op, inp: CliInput, out):
    code, stdout, stderr = out
    a = op.args
    errors = []
    if code != inp.expect:
        first = (stderr.strip().splitlines() or [""])[-1]
        return [f"exit code {code}, expected {inp.expect}: {first}"], None
    written = b""
    if op.kind == "sweep":
        written = (inp.workdir / a["csv"]).read_bytes()
    elif op.kind == "invert" and a["out"]:
        written = (inp.workdir / a["out"]).read_bytes()
    doc = json.loads(stdout) if op.kind not in ("sweep", "invert", "bad") else None

    if op.kind == "risk":
        bias, variance, total = _model(a["config"]).risk(a["d"])
        if doc["D"] != a["d"] or not all(close(doc[k], v) for k, v in (
                ("bias_sq", bias), ("variance", variance), ("total", total))):
            errors.append(f"risk {doc} differs from reference {(bias, variance, total)}")
    elif op.kind in ("optimal", "saturating"):
        cfg = a["config"]
        d_ref, total_ref = _model(cfg).best_level()
        if op.kind == "optimal":
            errors += sandwich_errors(doc["upper"], doc["lower"], doc["j_star"])
        elif doc["lower"] != doc["upper"] / RMS_FACTOR:
            errors.append("lower is not upper/2.2")
        # the chain is claimed for resolved problems; chain_ok must report it
        if doc["chain_ok"] is not chain_holds(doc["upper"], doc["j_star"]):
            errors.append(f"chain_ok={doc['chain_ok']} misreports the chain")
        if doc["D_star"] != d_ref:
            errors.append(f"D*={doc['D_star']} but the argmin of the risk is {d_ref}")
        elif not close(doc["upper"] ** 2, total_ref):
            errors.append(f"upper^2={doc['upper'] ** 2!r} != reference {total_ref!r}")
        if op.kind == "saturating" and doc["D_star"] != cfg["N"] - 1:
            errors.append(f"saturating config resolved at D*={doc['D_star']}")
    elif op.kind == "jmax":
        cert, value = doc["certificate"], doc["value"]
        if cert["directions"] != JMAX_DIRECTIONS or cert["ok"] is not True:
            errors.append(f"certificate {cert}")
        if not cert["max_derivative"] <= 1e-9 * max(1.0, abs(value)):
            errors.append(f"max_derivative {cert['max_derivative']!r} above tolerance")
        _d, total_ref = _model(a["config"]).best_level()
        if not value * (1.0 - 1e-9) <= total_ref <= 2.0 * value * (1.0 + 1e-9):
            errors.append(f"J*={value!r} does not bracket e_T^2={total_ref!r}")
    elif op.kind == "simulate":
        est = doc["estimate"]
        closed = _model(a["config"]).risk(a["d"])[2]
        if est["R"] != SIM_REPS or est["seed"] != a["seed"]:
            errors.append(f"estimate header {est}")
        if not close(doc["closed_form"], closed):
            errors.append(f"closed form {doc['closed_form']!r} != reference {closed!r}")
        errors += monte_carlo_errors(est["mse"], est["stderr"], doc["closed_form"])
    elif op.kind == "sweep":
        errors += sweep_row_errors(_grid(a["grid"]), _parse_sweep_csv(written.decode()))
    elif op.kind == "rates":
        rows = _parse_sweep_csv((inp.workdir / a["csv"]).read_text())
        x = np.log([r[0] for r in rows])
        y = np.log([r[2] for r in rows])
        slope = float(np.polyfit(x, y, 1)[0])
        theory = a["kappa"] / (a["kappa"] + a["p"] + 0.5)
        if (doc["regime"], doc["label"]) != ("pp", "moderate") \
                or not close(doc["theory"], theory) \
                or not math.isclose(doc["fitted"], slope, rel_tol=1e-9):
            errors.append(f"rate fit {doc} vs slope {slope!r}, theory {theory!r}")
    elif op.kind == "invert":
        text = written.decode() if a["out"] else stdout
        x = np.array([float(v) for v in text.split()])
        ref = _invert_reference(inp, a)
        if x.shape != ref.shape or \
                np.max(np.abs(x - ref)) > 1e-8 * max(1.0, float(np.max(np.abs(ref)))):
            errors.append("invert solution differs from the reference SVD solution")
    elif not stderr.startswith("mseq: validation error"):
        errors.append(f"unexpected stderr for a rejected config: {stderr!r}")

    if op.kind == "simulate":  # the random-stream contract may change
        return errors, None
    return errors, digest(str(code).encode(), stdout.encode(), written)


WORKLOADS = {
    "sweep_lab": Workload(sweep_lab_ops, _prepare_sweeps, _run_sweep, _check_sweep),
    "mc_validate": Workload(mc_validate_ops, _prepare_mc, _run_mc, _check_mc),
    "cli_mix": Workload(cli_mix_ops, _prepare_cli, _run_cli, _check_cli),
}
