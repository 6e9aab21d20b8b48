"""Opcode budget of whole sorts.

Counts the bytecode instructions one ``Sorter(seed=1).sort_with_stats``
executes, with ``sys.settrace`` and ``f_trace_opcodes``, on sorted,
reversed, front-half reversed, back-half reversed, random and
few-distinct (values 1..100) inputs of 2000 ints with the default
comparator, and on the random input as 8-char strings and as floats.
Ints and strs run the compiled functions' total-order body, floats
their inline body.  Unlike wall time, the count is exact and
the same on every run, so a change that adds per-stage or per-step work
shows here even when the host's timing noise would hide it.  Each count
must stay at or below its pinned budget; lower it when a change saves
instructions.  Bytecode differs between interpreter versions, so the
test runs on CPython 3.11 only.
"""

import sys

import pytest

from tsqsort import GenSpec, Sorter, generate

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the budgets are CPython 3.11 bytecode counts")

N = 2000


def hex8(v):
    return f"{v:08x}"


def half_up(v):
    return v + 0.5


# shape -> (reorder, arange, element map, budget); each budget is the
# measured count, with the total-order body for ints and strs and the
# inline body for floats.
BUDGETS = {
    "sorted": ("sorted", 2**31 - 1, int, 180472),
    "reversed": ("reversed", 2**31 - 1, int, 261578),
    "fronthalfreversed": ("fronthalfreversed", 2**31 - 1, int, 359850),
    "backhalfreversed": ("backhalfreversed", 2**31 - 1, int, 262769),
    "random": ("identity", 2**31 - 1, int, 743833),
    "arange100": ("identity", 100, int, 459240),
    "strings": ("identity", 2**31 - 1, hex8, 743837),
    "floats": ("identity", 2**31 - 1, half_up, 751107),
}


def opcodes(ar):
    """Opcodes executed by one sort of ``ar``."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return tracer

    sorter = Sorter(seed=1)
    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        sorter.sort_with_stats(ar)
    finally:
        sys.settrace(old)
    return count


@pytest.mark.parametrize("shape", sorted(BUDGETS))
def test_sort_stays_within_its_opcode_budget(shape):
    reorder, arange, element, budget = BUDGETS[shape]
    ar = [element(v) for v in generate(GenSpec(
        distribution="random", reorder=reorder, n=N, arange=arange,
        seed=31))]
    want = sorted(ar)
    count = opcodes(ar)
    assert ar == want
    assert count <= budget, (shape, count, budget)
