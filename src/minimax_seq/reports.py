"""Deterministic JSON/CSV emission for result types.

Floats print with 17 significant digits (round-trip safe), fields keep a
fixed order, and identical inputs always produce identical bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .bounds import KnapsackSolution, SandwichReport
from .problem import ValidationError
from .rates import IllposednessLabel, RateFit, RegimeSpec, SweepRow
from .simulate import RiskEstimate
from .truncation import RiskDecomposition

__all__ = [
    "format_float",
    "render_json",
    "emit_report",
    "write_sweep_csv",
    "read_sweep_csv",
]

SCHEMA_HEADER = "# minimax-seq v1"
SWEEP_COLUMNS = ("sigma", "d_star", "upper", "lower", "j_star",
                 "testing_sq", "deterministic_sq")


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


def _risk_dict(r: RiskDecomposition) -> dict:
    return {"D": r.level, "bias_sq": r.bias_sq, "variance": r.variance,
            "total": r.total, "rmse": r.rmse}


def _estimate_dict(r: RiskEstimate) -> dict:
    return {"mse": r.mean_sq_error, "stderr": r.std_error,
            "R": r.replications, "seed": r.seed}


def _sandwich_dict(r: SandwichReport) -> dict:
    return {"sigma": r.sigma, "D_star": r.d_star, "upper": r.upper,
            "lower": r.lower, "j_star": r.j_star, "chain_ok": r.chain_ok}


def _knapsack_dict(r: KnapsackSolution) -> dict:
    return {"value": r.value, "r_star": list(r.r_star),
            "set_P": sorted(r.set_p), "set_Qeq": sorted(r.set_qeq),
            "budget_used": r.budget_used}


def _ratefit_dict(r: RateFit, label: IllposednessLabel | None = None) -> dict:
    out = {"regime": r.regime, "fitted": r.fitted, "theory": r.theory,
           "residual": r.residual}
    if label is not None:
        out["label"] = label.value
    return out


# per-type CSV row schemas for list outputs
_CSV_ROWS = {
    RiskDecomposition: (("D", "bias_sq", "variance", "total"),
                        lambda r: [str(r.level), format_float(r.bias_sq),
                                   format_float(r.variance),
                                   format_float(r.total)]),
    RiskEstimate: (("mse", "stderr", "R", "seed"),
                   lambda r: [format_float(r.mean_sq_error),
                              format_float(r.std_error),
                              str(r.replications), str(r.seed)]),
    SandwichReport: (("sigma", "D_star", "upper", "lower", "j_star"),
                     lambda r: [format_float(r.sigma), str(r.d_star),
                                format_float(r.upper), format_float(r.lower),
                                format_float(r.j_star)]),
}


def emit_report(results, format: str = "json") -> str:
    """Serialize a result object; lists of rows also support format='csv'."""
    if format not in ("json", "csv"):
        raise ValidationError(f"unknown format {format!r}")
    if isinstance(results, list) and results and isinstance(results[0], SweepRow):
        if format == "csv":
            return sweep_csv_text(results)
        return render_json([_sweep_row_dict(r) for r in results]) + "\n"
    if isinstance(results, list) and results and type(results[0]) in _CSV_ROWS:
        columns, to_row = _CSV_ROWS[type(results[0])]
        if format == "csv":
            lines = [",".join(columns)]
            lines += [",".join(to_row(r)) for r in results]
            return "\n".join(lines) + "\n"
    if format == "csv":
        raise ValidationError("csv format needs a list of row-typed results")
    if isinstance(results, RiskDecomposition):
        doc = _risk_dict(results)
    elif isinstance(results, RiskEstimate):
        doc = _estimate_dict(results)
    elif isinstance(results, SandwichReport):
        doc = _sandwich_dict(results)
    elif isinstance(results, KnapsackSolution):
        doc = _knapsack_dict(results)
    elif isinstance(results, RateFit):
        doc = _ratefit_dict(results)
    elif isinstance(results, list):
        doc = [_risk_dict(r) if isinstance(r, RiskDecomposition)
               else _estimate_dict(r) if isinstance(r, RiskEstimate)
               else _sandwich_dict(r) if isinstance(r, SandwichReport)
               else r for r in results]
    elif isinstance(results, dict):
        doc = results
    else:
        raise ValidationError(f"cannot report {type(results).__name__}")
    return render_json(doc) + "\n"


def _sweep_row_dict(row: SweepRow) -> dict:
    return {"sigma": row.sigma, "d_star": row.d_star, "upper": row.upper,
            "lower": row.lower, "j_star": row.j_star,
            "testing_sq": row.testing_sq,
            "deterministic_sq": row.deterministic_sq}


def sweep_csv_text(rows, spec: RegimeSpec | None = None) -> str:
    lines = [SCHEMA_HEADER]
    if spec is not None:
        lines.append(f"# regime={spec.tag} p={format_float(spec.p)} "
                     f"kappa={format_float(spec.kappa)} "
                     f"Q={format_float(spec.radius)}")
    lines.append(",".join(SWEEP_COLUMNS))
    for row in rows:
        lines.append(",".join([
            format_float(row.sigma), str(row.d_star), format_float(row.upper),
            format_float(row.lower), format_float(row.j_star),
            format_float(row.testing_sq), format_float(row.deterministic_sq)]))
    return "\n".join(lines) + "\n"


def write_sweep_csv(rows, spec: RegimeSpec, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(sweep_csv_text(rows, spec))


def read_sweep_csv(path: str) -> tuple[list[SweepRow], dict]:
    """Read a sweep CSV; returns rows plus metadata parsed from '#' lines."""
    meta: dict = {}
    rows: list[SweepRow] = []
    header_seen = False
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not ASCII text: {exc}") from exc
    if not lines or lines[0] != SCHEMA_HEADER:
        raise ValidationError(
            f"{path}: missing schema header {SCHEMA_HEADER!r}")
    for line in lines[1:]:
        if not line.strip():
            continue
        if line.startswith("#"):
            for piece in line[1:].split():
                if "=" in piece:
                    key, val = piece.split("=", 1)
                    meta[key] = val
            continue
        if not header_seen:
            if line != ",".join(SWEEP_COLUMNS):
                raise ValidationError(f"{path}: unexpected column header {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != len(SWEEP_COLUMNS):
            raise ValidationError(f"{path}: malformed row {line!r}")
        try:
            rows.append(SweepRow(float(parts[0]), int(parts[1]), float(parts[2]),
                                 float(parts[3]), float(parts[4]),
                                 float(parts[5]), float(parts[6])))
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed row {line!r}: {exc}") from exc
    if not header_seen:
        raise ValidationError(f"{path}: no column header found")
    return rows, meta
