"""Opcode budget of whole sorts.

Counts the bytecode instructions one ``Sorter(seed=1).sort_with_stats``
executes (``tsqsort.profile.count_opcodes``, on inputs of
``tsqsort.profile.SHAPES``) on sorted, reversed,
front-half reversed, back-half reversed, random and few-distinct
(values 1..100) inputs of 2000 ints with the default comparator, on the
random input as 8-char strings and as floats, and on the random ints
with a Python ``cmp``.  Ints and strs run the compiled functions'
total-order body, floats their inline body and the ``cmp`` sort the
generic path.  Unlike wall time, the count is exact and
the same on every run, so a change that adds per-stage or per-step work
shows here even when the host's timing noise would hide it.  Each count
must stay at or below its pinned budget; lower it when a change saves
instructions.  The random ints, the floats and the ``cmp`` sort also run
no ``NOP`` but one per ``try`` of the sort's set-up.  Bytecode differs between
interpreter versions, so the test runs on CPython 3.11 only.
"""

import linecache
import sys

import pytest

from tsqsort import Sorter
from tsqsort.profile import cheap_cmp, count_opcodes
from tsqsort.profile import shape_input as profile_input

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the budgets are CPython 3.11 bytecode counts")

N = 2000

# shape -> (its tsqsort.profile shape, comparator, budget); each budget
# is the measured count, with the total-order body for ints and strs,
# the inline body for floats and the generic path for ``cmp``.
BUDGETS = {
    "sorted": ("sorted", None, 17985),
    "reversed": ("reversed", None, 163192),
    "fronthalfreversed": ("fronthalfreversed", None, 240435),
    "backhalfreversed": ("backhalfreversed", None, 151718),
    "random": ("random", None, 603725),
    "arange100": ("arange100", None, 388175),
    "strings": ("strings", None, 603729),
    "floats": ("floats", None, 744063),
    "cmp": ("random", cheap_cmp, 979875),
}


def shape_input(shape):
    """The input of ``shape`` (GenSpec seed 31) and its comparator."""
    profile_shape, comparator, _ = BUDGETS[shape]
    return profile_input(profile_shape, N, 31), comparator


@pytest.mark.parametrize("shape", sorted(BUDGETS))
def test_sort_stays_within_its_opcode_budget(shape):
    budget = BUDGETS[shape][-1]
    ar, comparator = shape_input(shape)
    want = sorted(ar)
    count = count_opcodes(Sorter(seed=1).sort_with_stats, ar,
                          comparator).total
    assert ar == want
    assert count <= budget, (shape, count, budget)


@pytest.mark.parametrize("shape", ("random", "floats", "cmp"))
def test_sort_runs_no_nop_but_once_per_try(shape):
    # A NOP is an instruction CPython keeps for a line event alone.  The
    # total-order body (ints), the inline body (floats) and the generic
    # path (cmp) run none, and neither does the driver's loop; only the
    # try statements of the sort's set-up run one, once per sort.
    ar, comparator = shape_input(shape)
    census = count_opcodes(Sorter(seed=1).sort_with_stats, ar, comparator,
                           by_line=True)
    for (path, line), count in census.nops.items():
        assert linecache.getline(path, line).strip() == "try:", (path, line)
        assert count == 1, (path, line, count)
    assert census.nop_total <= 3
