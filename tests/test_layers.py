"""perfbench/layers.json names the library functions its traced run wraps.
A rename that leaves that file behind would otherwise fail only the traced
benchmark run, so every name must resolve here."""

import importlib
import json
from pathlib import Path

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
