"""perfbench/layers.json names the library functions its traced run wraps.
A rename that leaves that file behind would otherwise fail only the traced
benchmark run, so every name must resolve here."""

import importlib
import json
import math
from pathlib import Path

from minimax_seq import (
    SequenceProblem,
    least_favorable,
    make_power_class,
    make_power_spectrum,
    simulate,
)
from minimax_seq.truncation import _BLOCK_DOUBLES

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.json"


def test_every_wrapped_name_is_a_library_callable():
    doc = json.loads(LAYERS.read_text())
    names = [name for group in ("spans", "counters")
             for layer in doc[group].values() for name in layer["wraps"]]
    assert names
    missing = []
    for name in names:
        module, function = name.rsplit(".", 1)
        target = getattr(importlib.import_module(f"minimax_seq.{module}"),
                         function, None)
        if not callable(target):
            missing.append(name)
    assert missing == []


def test_monte_carlo_draws_through_sample_observations(monkeypatch):
    """The traced run counts simulate.sample_observations calls and fails when
    a workload that runs Monte Carlo records none: one call per block."""
    calls = []
    original = simulate.sample_observations

    def counting(*args, **kwargs):
        calls.append(kwargs.get("count"))
        return original(*args, **kwargs)

    monkeypatch.setattr(simulate, "sample_observations", counting)
    n, reps = 64, 1000
    problem = SequenceProblem(make_power_spectrum(1.0, n),
                              make_power_class(1.0, n), 0.1, n)
    theta = least_favorable(problem, 3)
    simulate.monte_carlo_risk(problem, theta, 3,
                              simulate.SimulationConfig(reps, 7, n))
    # a block holds at most _BLOCK_DOUBLES values of rows D + len(tail) wide
    rows = max(1, _BLOCK_DOUBLES // (3 + len(simulate._tail_expansion(theta[3:]))))
    assert len(calls) >= 1
    assert len(calls) == math.ceil(reps / rows)
    assert sum(calls) == reps
