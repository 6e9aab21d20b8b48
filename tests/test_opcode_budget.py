"""Opcode budget of whole sorts.

Counts the bytecode instructions one ``Sorter(seed=1).sort_with_stats``
executes, with ``sys.settrace`` and ``f_trace_opcodes``, on sorted,
reversed, random and few-distinct (values 1..100) inputs of 2000 ints
with the default comparator.  Unlike wall time, the count is exact and
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

# shape -> (reorder, arange, budget); the comment gives the count with
# the recursive driver, per-comparison pivot counts and a store in every
# verify-scan step, before the explicit-stack driver replaced them
BUDGETS = {
    "sorted": ("sorted", 2**31 - 1, 271300),  # was 308722
    "reversed": ("reversed", 2**31 - 1, 369459),  # was 397542
    "random": ("identity", 2**31 - 1, 767383),  # was 785713
    "arange100": ("identity", 100, 473598),  # was 480923
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
