"""The rules on a spectrum's values or a class's weights as per-value
loops: the reference that problem._array_violations must match exactly.

Each rule walks the values as Python floats in index order and formats
its message as validate_problem reports it: positive and monotone name
every index that breaks them; finite, a_j^2 > 0 (a class only, tested by
squaring the float) and the generator's bits name the first only.  The
generator rule runs for a generated kind with a parameter unless the
array is the generator's own (``generated``).
"""

import math

import numpy as np

from minimax_seq.problem import _FORMULAS

# symbol, rule prefix, order, the comparison that breaks it, exponent sign
_RULES = {"spectrum": ("s", "spectrum", "non-increasing", ">", -1.0),
          "class": ("a", "a", "non-decreasing", "<", 1.0)}


def _first(values, test):
    """[j] for the first index whose value passes test, or []."""
    return next(([j] for j, value in enumerate(values) if test(value)), [])


def array_violations(what, x, kind, param, generated):
    sym, name, order, op, sign = _RULES[what]
    values = [float(value) for value in x]
    v = [(j + 1, f"{name} positive", f"{sym}_{j + 1} = {value!r}")
         for j, value in enumerate(values) if not value > 0.0]
    for j, (before, after) in enumerate(zip(values, values[1:])):
        if after > before if op == ">" else after < before:
            v.append((j + 2, f"{name} {order}",
                      f"{sym}_{j + 2} = {after!r} {op} {sym}_{j + 1} = {before!r}"))
    firsts = [(lambda value: value == math.inf, f"{name} finite")]
    if what == "class":
        firsts.append((lambda value: value > 0.0 and not value * value > 0.0,
                       "a squared positive"))
    for test, rule in firsts:
        v += [(j + 1, rule, f"{sym}_{j + 1} = {values[j]!r}")
              for j in _first(values, test)]
    if kind in _FORMULAS and param is not None and not generated:
        with np.errstate(over="ignore"):
            expect = _FORMULAS[kind][0](np.arange(1, len(values) + 1, dtype=np.float64),
                                        sign * param).tolist()
        v += [(j + 1, f"{what} generator mismatch",
               f"{kind} kind expected {expect[j]!r}, stored {values[j]!r}")
              for j in _first(zip(values, expect), lambda pair: pair[0] != pair[1])]
    return tuple(v)
