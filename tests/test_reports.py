import json

import pytest

from minimax_seq import (
    SequenceProblem,
    ValidationError,
    make_power_class,
    make_power_spectrum,
    minimax_sandwich,
    monte_carlo_risk,
    least_favorable,
    SimulationConfig,
    truncation_risk,
)
from minimax_seq.rates import RegimeSpec, sweep
from minimax_seq.reports import (
    document,
    emit_report,
    format_float,
    read_sweep_csv,
    render_json,
    sweep_csv_text,
    write_sweep_csv,
)


def toy_problem(sigma=0.1, n=20):
    return SequenceProblem(make_power_spectrum(1.0, n),
                           make_power_class(1.0, n), sigma, n)


class TestFloatFormatting:
    def test_round_trip_safe(self):
        for x in (0.1, 1.0 / 3.0, 1e-300, 123456789.123456789, 2.0 ** -52):
            assert float(format_float(x)) == x

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            format_float(float("inf"))

    def test_booleans_are_not_integers(self):
        assert render_json(True) == "true"
        assert render_json({"ok": False}) == '{"ok":false}'


class TestEmitReport:
    def test_risk_json_field_order(self):
        text = emit_report(truncation_risk(toy_problem(), 2))
        assert text.startswith('{"D":2,"bias_sq":')
        doc = json.loads(text)
        assert list(doc) == ["D", "bias_sq", "variance", "total", "rmse"]

    def test_estimate_json_field_order(self):
        p = toy_problem()
        est = monte_carlo_risk(p, least_favorable(p, 2), 2,
                               SimulationConfig(20, 5, p.n))
        doc = json.loads(emit_report(est))
        assert list(doc) == ["mse", "stderr", "R", "seed"]
        assert doc["R"] == 20 and doc["seed"] == 5

    def test_document_is_a_new_dict_a_caller_extends(self):
        sandwich = minimax_sandwich(toy_problem())
        doc = document(sandwich)
        doc["extra"] = 1
        assert "extra" not in document(sandwich)
        assert emit_report(doc) == emit_report(sandwich)[:-2] + ',"extra":1}\n'

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError, match="cannot report list"):
            emit_report([truncation_risk(toy_problem(), 1)])

    def test_deterministic_bytes(self):
        p = toy_problem()
        a = emit_report(minimax_sandwich(p))
        b = emit_report(minimax_sandwich(p))
        assert a == b


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        spec = RegimeSpec.from_tag("pp", 1.0, 2.0, (1e-2, 1e-3, 1e-4),
                                   radius=0.5, n=64)
        rows = sweep(spec)
        path = str(tmp_path / "sweep.csv")
        write_sweep_csv(rows, spec, path)
        got, got_spec = read_sweep_csv(path)
        assert got == rows
        assert all(type(row.d_star) is int for row in got)
        assert (got_spec.tag, got_spec.p, got_spec.kappa, got_spec.radius) == \
            (spec.tag, spec.p, spec.kappa, spec.radius)
        assert got_spec.sigma_grid == tuple(row.sigma for row in rows)

    def test_header_versioned(self):
        spec = RegimeSpec.from_tag("ee", 1.0, 1.0, (1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
        text = sweep_csv_text(sweep(spec), spec)
        assert text.splitlines()[0] == "# minimax-seq v1"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sigma,d_star\n0.1,2\n")
        with pytest.raises(ValidationError, match="schema header"):
            read_sweep_csv(str(path))
