"""Opcode budget of whole sorts.

Counts the bytecode instructions one ``Sorter(seed=1).sort_with_stats``
executes, with ``sys.settrace`` and ``f_trace_opcodes``, on sorted,
reversed, front-half reversed, back-half reversed, random and
few-distinct (values 1..100) inputs of 2000 ints with the default
comparator.  Unlike wall time, the count is exact and
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

# shape -> (reorder, arange, budget); each budget is the measured count
# with states 2L/2R/3L/3R as loops that store no label.  The
# comment gives the count with index loops for the sorted fast path's
# scans, before they iterated the list.
BUDGETS = {
    "sorted": ("sorted", 2**31 - 1, 218107),  # was 271300
    "reversed": ("reversed", 2**31 - 1, 335694),  # was 369459
    "fronthalfreversed": ("fronthalfreversed", 2**31 - 1,
                          439429),  # was 466332
    "backhalfreversed": ("backhalfreversed", 2**31 - 1,
                         355307),  # was 386529
    "random": ("identity", 2**31 - 1, 751443),  # was 767383
    "arange100": ("identity", 100, 463361),  # was 473598
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
    reorder, arange, budget = BUDGETS[shape]
    ar = generate(GenSpec(distribution="random", reorder=reorder, n=N,
                          arange=arange, seed=31))
    want = sorted(ar)
    count = opcodes(ar)
    assert ar == want
    assert count <= budget, (shape, count, budget)
