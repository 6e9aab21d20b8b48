"""Opcode budget of whole sorts.

Counts the bytecode instructions one ``Sorter(seed=1).sort_with_stats``
executes (``tsqsort.profile.count_opcodes``) on sorted, reversed,
front-half reversed, back-half reversed, random and few-distinct
(values 1..100) inputs of 2000 ints with the default comparator, on the
random input as 8-char strings and as floats, and on the random ints
with a Python ``cmp``.  Ints and strs run the compiled functions'
total-order body, floats their inline body and the ``cmp`` sort the
generic path.  Unlike wall time, the count is exact and
the same on every run, so a change that adds per-stage or per-step work
shows here even when the host's timing noise would hide it.  Each count
must stay at or below its pinned budget; lower it when a change saves
instructions.  Bytecode differs between interpreter versions, so the
test runs on CPython 3.11 only.
"""

import sys

import pytest

from tsqsort import GenSpec, Sorter, generate
from tsqsort.profile import count_opcodes

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the budgets are CPython 3.11 bytecode counts")

N = 2000


def hex8(v):
    return f"{v:08x}"


def half_up(v):
    return v + 0.5


def cmp(x, y):
    return (x > y) - (x < y)


# shape -> (reorder, arange, element map, comparator, budget); each
# budget is the measured count, with the total-order body for ints and
# strs, the inline body for floats and the generic path for ``cmp``.
BUDGETS = {
    "sorted": ("sorted", 2**31 - 1, int, None, 177786),
    "reversed": ("reversed", 2**31 - 1, int, None, 258273),
    "fronthalfreversed": ("fronthalfreversed", 2**31 - 1, int, None,
                          344146),
    "backhalfreversed": ("backhalfreversed", 2**31 - 1, int, None, 254496),
    "random": ("identity", 2**31 - 1, int, None, 680278),
    "arange100": ("identity", 100, int, None, 432334),
    "strings": ("identity", 2**31 - 1, hex8, None, 680282),
    "floats": ("identity", 2**31 - 1, half_up, None, 746169),
    "cmp": ("identity", 2**31 - 1, int, cmp, 979875),
}


@pytest.mark.parametrize("shape", sorted(BUDGETS))
def test_sort_stays_within_its_opcode_budget(shape):
    reorder, arange, element, comparator, budget = BUDGETS[shape]
    ar = [element(v) for v in generate(GenSpec(
        distribution="random", reorder=reorder, n=N, arange=arange,
        seed=31))]
    want = sorted(ar)
    count = count_opcodes(Sorter(seed=1).sort_with_stats, ar,
                          comparator).total
    assert ar == want
    assert count <= budget, (shape, count, budget)
