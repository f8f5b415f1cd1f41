"""The JSON document of each result type, and the sweep CSV.

Floats print with 17 significant digits (round-trip safe), fields keep a
fixed order, and identical inputs always produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np

from .bounds import KnapsackSolution, SandwichReport
from .problem import ValidationError
from .rates import RateFit, RegimeSpec, SweepRow
from .simulate import RiskEstimate
from .truncation import RiskDecomposition

__all__ = [
    "format_float",
    "render_json",
    "document",
    "emit_report",
    "sweep_csv_text",
    "write_sweep_csv",
    "read_sweep_csv",
]

SCHEMA_HEADER = "# minimax-seq v1"
# the sweep CSV has one column per SweepRow field, in field order
SWEEP_COLUMNS = tuple(f.name for f in dataclasses.fields(SweepRow))
_SWEEP_TYPES = tuple(int if f.type in (int, "int") else float
                     for f in dataclasses.fields(SweepRow))
# line 2 of the sweep CSV, as sweep_csv_text writes it
_META_FORMAT = "# regime=<tag> p=<float> kappa=<float> Q=<float>"
_META_LINE = re.compile(r"# regime=(\S+) p=(\S+) kappa=(\S+) Q=(\S+)")


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def render_json(obj) -> str:
    """JSON text with insertion-ordered keys and 17-digit floats."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{render_json(v)}"
                         for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


# the document of each result type, with its keys in output order
_DOCUMENTS = {
    RiskDecomposition: lambda r: {
        "D": r.level, "bias_sq": r.bias_sq, "variance": r.variance,
        "total": r.total, "rmse": r.rmse},
    RiskEstimate: lambda r: {
        "mse": r.mean_sq_error, "stderr": r.std_error,
        "R": r.replications, "seed": r.seed},
    SandwichReport: lambda r: {
        "sigma": r.sigma, "D_star": r.d_star, "upper": r.upper,
        "lower": r.lower, "j_star": r.j_star, "chain_ok": r.chain_ok},
    KnapsackSolution: lambda r: {
        "value": r.value, "r_star": list(r.r_star),
        "set_P": sorted(r.set_p), "set_Qeq": sorted(r.set_qeq),
        "budget_used": r.budget_used},
    RateFit: lambda r: {
        "regime": r.regime, "fitted": r.fitted, "theory": r.theory,
        "residual": r.residual},
}


def document(result) -> dict:
    """The JSON document of a result object: a new dict a caller may extend."""
    to_document = _DOCUMENTS.get(type(result))
    if to_document is None:
        raise ValidationError(f"cannot report {type(result).__name__}")
    return to_document(result)


def emit_report(result) -> str:
    """One line of JSON for a result object or an already-built document."""
    return render_json(result if isinstance(result, dict) else document(result)) + "\n"


def sweep_csv_text(rows, spec: RegimeSpec) -> str:
    lines = [SCHEMA_HEADER,
             f"# regime={spec.tag} p={format_float(spec.p)} "
             f"kappa={format_float(spec.kappa)} Q={format_float(spec.radius)}",
             ",".join(SWEEP_COLUMNS)]
    # ".17g" prints an integral value without a point, so d_star reads as an int
    lines += [",".join(map(format_float, dataclasses.astuple(row))) for row in rows]
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows, spec: RegimeSpec, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(sweep_csv_text(rows, spec))


def read_sweep_csv(path: str) -> tuple[list[SweepRow], RegimeSpec]:
    """The inverse of sweep_csv_text: the rows, and the regime of line 2 with
    the rows' sigmas as its grid (N is not recorded, so it is the default)."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not ASCII text: {exc}") from exc
    # a file shorter than 3 lines reads as blank lines, which the checks reject
    schema, meta_line, column_line, *body = lines + [""] * (3 - len(lines))
    if schema != SCHEMA_HEADER:
        raise ValidationError(
            f"{path}: missing schema header {SCHEMA_HEADER!r}")
    meta = _META_LINE.fullmatch(meta_line)
    if meta is None:
        raise ValidationError(f"{path}: line 2 is not {_META_FORMAT!r}: {meta_line!r}")
    try:
        p, kappa, radius = map(float, meta.group(2, 3, 4))
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed metadata {meta_line!r}: {exc}") from exc
    if column_line != ",".join(SWEEP_COLUMNS):
        raise ValidationError(f"{path}: unexpected column header {column_line!r}")
    rows = []
    for line in body:
        parts = line.split(",")
        if len(parts) != len(SWEEP_COLUMNS):
            raise ValidationError(f"{path}: malformed row {line!r}")
        try:
            rows.append(SweepRow(*(convert(x) for convert, x in zip(_SWEEP_TYPES, parts))))
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed row {line!r}: {exc}") from exc
    return rows, RegimeSpec.from_tag(meta.group(1), p, kappa,
                                     [row.sigma for row in rows], radius=radius)
