"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import json
import math
import statistics
from dataclasses import replace

import pytest

import checks
import run
import tracing
import workloads
from workloads import WORKLOADS

lib = run.import_library()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_op_list(name):
    make = WORKLOADS[name].make_ops
    assert make(7) == make(7)
    assert make(7) != make(8)
    assert len(make(7)) >= 100


@pytest.mark.parametrize("seed", range(12))
def test_sweep_lab_cost_stays_stratified(seed):
    ops = workloads.sweep_lab_ops(seed)
    pp = sorted(op.args["p"] + op.args["kappa"] for op in ops if op.args["tag"] == "pp")
    assert all(math.isclose(x, y) for x, y in zip(pp, workloads.PP_LADDER))
    for tag in workloads.TAGS:
        assert sum(op.args["tag"] == tag for op in ops) == 32
    for op in ops:
        if op.args["tag"] == "pp":
            share = op.args["p"] / (op.args["p"] + op.args["kappa"])
            assert workloads.PP_SPLIT[0] <= share <= workloads.PP_SPLIT[1]
        else:
            p_range, k_range = workloads.SWEEP_RANGES[op.args["tag"]]
            assert p_range[0] <= op.args["p"] <= p_range[1]
            assert k_range[0] <= op.args["kappa"] <= k_range[1]


def test_percentile_interpolates_between_ranks():
    assert checks.percentile(list(range(1, 11)), 50) == pytest.approx(5.5)
    assert checks.percentile(list(range(1, 11)), 90) == pytest.approx(9.1)
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0, 0.5]
    assert checks.percentile(values, 50) == statistics.median(values)
    # 100 ops: p90 sits 0.1 of the way from the 90th to the 91st smallest
    assert checks.percentile(list(range(100)), 90) == pytest.approx(89.1)


def _span(name, start, end, parent=None, info=None):
    span = tracing.Span(name, parent, 0)
    span.start, span.end, span.info = start, end, info
    return span


def test_union_and_self_time():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == 4.0
    parent = _span("cli.run", 0.0, 10.0)
    children = [_span("a", 1, 3, parent), _span("b", 2, 5, parent),
                _span("c", 8, 12, parent)]  # last one outlives its parent
    assert tracing.self_time(parent, children) == pytest.approx(4.0)
    assert tracing.self_time(parent, []) == 10.0


def test_layer_metrics_arithmetic():
    sweep = _span("rates.sweep", 0.0, 10.0, info=2)  # two rows returned
    points = [_span("bounds.sandwich", 1, 2, sweep, 64),
              _span("bounds.sandwich", 1.5, 3, sweep, 64),
              _span("bounds.sandwich", 4, 6, sweep, 128)]
    scan = _span("truncation.optimal", 4, 5, points[2], 17)
    mc = _span("simulate.mc", 11, 13, info=800)
    cert = _span("bounds.certify", 13, 14, info=(500, 100))
    m = tracing.layer_metrics([sweep, *points, scan, mc, cert], {"simulate.sample": 800})
    assert m["rates.sweep.points_evaluated"] == 3
    assert m["rates.sweep.doublings"] == 1
    assert m["rates.sweep.point_yield"] == pytest.approx(2 / 3)
    assert m["rates.sweep.self_s"] == pytest.approx(10 - 4)  # [1, 3] and [4, 6]
    assert m["truncation.optimal.levels"] == 17
    assert m["simulate.mc.us_per_rep"] == pytest.approx(2e6 / 800)
    assert m["bounds.certify.ns_per_coord"] == pytest.approx(1e9 / 50_000)
    assert m["simulate.sample.calls"] == 800


def test_tracer_links_pool_threads_and_restores(monkeypatch):
    monkeypatch.setenv("MSEQ_THREADS", "2")
    original = lib.sweep
    tracer = tracing.Tracer(lib.__name__)
    tracer.install()
    try:
        tracer.active = True
        spec = lib.RegimeSpec.from_tag("pp", 1.0, 2.0, (1e-2, 1e-3, 1e-4), n=64)
        lib.sweep(spec)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert lib.sweep is original
    points = [s for s in tracer.spans if s.name == "bounds.sandwich"]
    assert len(points) >= 3
    assert all(tracing._ancestor(s, "rates.sweep") is not None for s in points)
    assert tracer.silent_layers("sweep_lab") == []
    scans = [s for s in tracer.spans if s.name == "truncation.optimal"]
    assert all(s.parent.name == "bounds.sandwich" for s in scans)


def test_monte_carlo_check_handles_zero_stderr():
    closed = 0.125
    assert checks.monte_carlo_errors(math.nextafter(closed, 1.0), 0.0, closed) == []
    assert checks.monte_carlo_errors(closed * 1.01, 0.0, closed)
    assert checks.monte_carlo_errors(closed + 6.0 * 1e-3, 1e-3, closed) == []
    assert checks.monte_carlo_errors(closed + 7.0 * 1e-3, 1e-3, closed)


def _one_optimal_op(tmp_path):
    wl = WORKLOADS["cli_mix"]
    op = next(op for op in wl.make_ops(3) if op.kind == "optimal")
    return wl, [op], wl.prepare(lib, [op], tmp_path)


def test_correct_op_passes(tmp_path):
    wl, ops, inputs = _one_optimal_op(tmp_path)
    result = run.run_pass(lib, wl, ops, inputs, None)
    assert (result.failed, len(result.latencies)) == (0, 1), result.messages


def test_wrong_d_star_counts_as_failed(tmp_path):
    wl, ops, inputs = _one_optimal_op(tmp_path)

    def tampered(lib_, inp):
        code, stdout, stderr = wl.run(lib_, inp)
        doc = json.loads(stdout)
        doc["D_star"] += 1
        return code, json.dumps(doc), stderr

    result = run.run_pass(lib, replace(wl, run=tampered), ops, inputs, None)
    assert result.failed == 1
    assert "D*=" in result.messages[0]


def test_wrong_digest_counts_as_failed(tmp_path):
    wl, ops, inputs = _one_optimal_op(tmp_path)
    assert run.run_pass(lib, wl, ops, inputs, "00000000").failed == 1


def test_raising_op_counts_as_failed(tmp_path):
    wl, ops, inputs = _one_optimal_op(tmp_path)

    def broken(lib_, inp):
        raise RuntimeError("boom")

    result = run.run_pass(lib, replace(wl, run=broken), ops, inputs, None)
    assert result.failed == 1 and "boom" in result.messages[0]


def test_cli_configs_are_resolved_and_saturating_ones_saturate():
    for seed in range(4):
        for op in workloads.cli_mix_ops(seed):
            cfg = op.args.get("config")
            if cfg is None:
                continue
            d, _ = workloads._model(cfg).best_level()
            if op.kind == "saturating":
                assert d == cfg["N"] - 1
            else:
                assert d <= cfg["N"] // 2
