"""The partition machine's geared scans against its index loops.

Three scans of ``core._run_machine`` run in two gears: the pre-scan
takes ``core._GEAR`` index steps and then iterates the rest of its span
with a positioned list iterator; the scan from the left after a
collapse onto mid, and the first left scan of state 1 after a pre-scan
that shifted gear, iterate from their first step.  A sequence that
``core._scannable`` would view keeps the index loops, so the machine
run on ``Indexed``, a list that reads through its own ``__getitem__``,
is the machine without gears.  On every frame both runs must leave the
same array, return the same cursors, add the same counts and make the
same comparator calls in the same order, on the generic path (a
logging comparator), the inline body (the default comparator) and the
total-order body.  ``index_scan_calls`` transcribes the index loops
the gears replace; the logged calls must begin with its calls.

The frames put the stop of the pre-scan and of the scan from the left
at 0, 1, ``_GEAR`` - 1, ``_GEAR`` and ``_GEAR`` + 1 steps, deep into
the span, at its last two steps and nowhere, and enter the machine at
_PRESCAN and at _L1, where no scan is geared.  Sorts of other sequence
types must give the counts a list gives, and a comparator that changes
the list's length in an iterator scan must end the sort in ValueError.
"""

import array
import collections
import itertools
import random
import sys

import pytest

from tsqsort import GenSpec, Sorter, core, generate
from tsqsort.core import _GEAR, _L1, _PRESCAN, CT_LEN
from tsqsort.inline import _default_cmp3, _total_cmp3

from conftest import cmp3
from test_sorted_scan_iter import Bare, GeneratorIter, Writes

H = 60              # elements on each side of mid
N = 2 * H + 1
MID = H
P = 500             # the pivot's value
STOPS = (0, 1, _GEAR - 1, _GEAR, _GEAR + 1, 40, H - 2, H - 1, None)


class Item:
    """An element the logging comparator compares by ``v``; ``i`` names
    it in the call log."""

    __slots__ = ("v", "i")

    def __init__(self, v, i):
        self.v = v
        self.i = i


class Indexed(list):
    """A list that reads through its own ``__getitem__``, so the machine
    keeps its index loops."""

    def __getitem__(self, i):
        return list.__getitem__(self, i)


def frame(rnd, right_stop, right_kind, left_stop, left_kind):
    """Values of an N-element stage around the pivot's hole at MID.  From
    the right end, ``right_stop`` elements above the pivot and then one
    of ``right_kind`` ("below" or "equal"); from the left end,
    ``left_stop`` elements below it and then one of ``left_kind``
    ("above" or "equal").  A stop of None fills its whole side."""
    kinds = {"below": (0, P - 1), "equal": (P, P), "above": (P + 1, 999)}
    values = [rnd.randint(0, 999) for _ in range(N)]
    values[MID] = P
    for step in range(H if right_stop is None else right_stop):
        values[N - 1 - step] = rnd.randint(*kinds["above"])
    if right_stop is not None:
        values[N - 1 - right_stop] = rnd.randint(*kinds[right_kind])
    for step in range(H if left_stop is None else left_stop):
        values[step] = rnd.randint(*kinds["below"])
    if left_stop is not None:
        values[left_stop] = rnd.randint(*kinds[left_kind])
    return values


def index_scan_calls(ar, cmp, mid, p, l, r):
    """The elements the machine's index loops compare from a _PRESCAN
    entry, in order, through its first two scans: the pre-scan from r
    down to mid, and then the scan from l up to mid, after a collapse
    onto mid or as state 1's first left scan."""
    calls = []
    while True:
        calls.append(ar[r])
        if cmp(ar[r], p) <= 0:
            break
        r -= 1
        if r == mid:
            break
    while True:
        calls.append(ar[l])
        if cmp(ar[l], p) >= 0:
            break
        l += 1
        if l == mid:
            break
    return calls


def entry(label, ar):
    """The machine's entry arguments (l, r, ml, mr, m, lc, holdover) at
    ``label``: the pre-scan's, from the range's ends, or _L1's, with the
    holdover taken from the right end, where it leaves the hole at r."""
    if label == _PRESCAN:
        return 0, N - 1, MID, MID, MID, 0, None
    return 0, N - 1, MID, MID, MID, 1, ar[N - 1]


@pytest.fixture
def tails(monkeypatch):
    """The kinds of list iterator the machine hands ``islice``, in
    order."""
    seen = []
    islice = core.islice

    def counted(it, count):
        if sys._getframe(1).f_code.co_name == "_run_machine":
            seen.append(type(it).__name__)
        return islice(it, count)

    monkeypatch.setattr(core, "islice", counted)
    return seen


def run(make, values, label, cmp, p):
    """(array after, returned tuple, counter vector) of one machine
    call on ``make(values)``."""
    ar = make(values)
    ct = [0] * CT_LEN
    out = core._run_machine(ar, cmp, MID, p, label, *entry(label, ar),
                            [None] * ((N + 1) // 2), ct)
    return list(ar), out, ct


def expected_tails(label, right_stop):
    """The iterators the machine's geared scans use: at _PRESCAN, when
    the pre-scan has not stopped in its first _GEAR steps, its own and
    that of the scan from the left, after a collapse or in state 1."""
    if label == _PRESCAN and (right_stop is None or right_stop >= _GEAR):
        return ["list_reverseiterator", "list_iterator"]
    return []


CASES = list(itertools.product(STOPS, ("below", "equal"), STOPS,
                               ("above", "equal")))


@pytest.mark.parametrize("label", (_PRESCAN, _L1), ids=("prescan", "l1"))
def test_geared_scans_match_the_index_loops(label, tails):
    rnd = random.Random(2501 + label)
    for right_stop, right_kind, left_stop, left_kind in CASES:
        values = frame(rnd, right_stop, right_kind, left_stop, left_kind)
        where = (right_stop, right_kind, left_stop, left_kind)

        # the generic path, with every comparator call logged
        items = [Item(v, i) for i, v in enumerate(values)]
        pivot = Item(P, -1)
        runs = []
        for make in (list, Indexed):
            log = []

            def logged(x, y):
                log.append((x.i, y.i))
                return cmp3(x.v, y.v)

            del tails[:]
            ar, out, ct = run(make, items, label, logged, pivot)
            runs.append(([x.i for x in ar], out, ct, log, list(tails)))
        geared, indexed = runs
        assert geared[:4] == indexed[:4], where
        assert geared[4] == expected_tails(label, right_stop), where
        assert indexed[4] == [], where
        if label == _PRESCAN:
            first = index_scan_calls(items, lambda x, y: cmp3(x.v, y.v),
                                     MID, pivot, 0, N - 1)
            assert geared[3][:len(first)] == [(x.i, -1) for x in first], \
                where

        # the inline and the total-order body, on ints
        for cmp in (_default_cmp3, _total_cmp3):
            assert run(list, values, label, cmp, P) == \
                run(Indexed, values, label, cmp, P), (where, cmp.__name__)


# sequence type -> (constructor, whether the machine's scans iterate it)
SEQUENCES = {
    "list": (list, True),
    "writes": (Writes, True),
    "generator_iter": (GeneratorIter, False),
    "indexed": (Indexed, False),
    "array": (lambda v: array.array("q", v), False),
    "UserList": (collections.UserList, False),
    "bare": (lambda v: Bare(list(v)), False),
}


def shaped(shape):
    """A 3000-element input whose flag-0 stages scan long runs."""
    return generate(GenSpec(distribution="random", reorder=shape, n=3000,
                            arange=2**31 - 1, seed=25))


@pytest.mark.parametrize("shape", ("fronthalfreversed", "backhalfreversed"))
@pytest.mark.parametrize("kind", sorted(SEQUENCES))
def test_sequences_sort_with_the_counts_of_a_list(kind, shape, tails):
    values = shaped(shape)
    want = list(values)
    want_stats = Sorter(seed=1).sort_with_stats(want)
    make, iterated = SEQUENCES[kind]
    del tails[:]
    seq = make(values)
    stats = Sorter(seed=1).sort_with_stats(seq)
    assert list(seq) == want == sorted(values)
    assert stats == want_stats
    assert set(tails) == ({"list_reverseiterator", "list_iterator"}
                          if iterated else set())
    if kind == "writes":
        assert seq.writes == stats.array_writes


class Boom(Exception):
    pass


def comparator_acting_in(tails, kind, act):
    """A comparator that runs ``act`` once, on its first call after the
    machine starts an iterator scan of ``kind``."""
    def cmp(x, y):
        if kind in tails:
            del tails[:]
            act()
        return cmp3(x, y)
    return cmp


@pytest.mark.parametrize("kind", ("list_reverseiterator", "list_iterator"))
@pytest.mark.parametrize("how", ("append", "pop", "halve"))
def test_a_length_change_in_an_iterator_scan_raises(how, kind, tails):
    ar = shaped("fronthalfreversed")
    acts = {"append": lambda: ar.append(0), "pop": ar.pop,
            "halve": lambda: ar.__delitem__(slice(len(ar) // 2, None))}
    del tails[:]
    cmp = comparator_acting_in(tails, kind, acts[how])
    with pytest.raises(ValueError, match="list modified during sort"):
        Sorter(seed=1).sort_with_stats(ar, cmp)


@pytest.mark.parametrize("kind", ("list_reverseiterator", "list_iterator"))
def test_a_raising_comparator_propagates_from_an_iterator_scan(kind,
                                                              tails):
    boom = Boom()

    def act():
        raise boom

    del tails[:]
    with pytest.raises(Boom) as raised:
        Sorter(seed=1).sort_with_stats(shaped("fronthalfreversed"),
                                       comparator_acting_in(tails, kind, act))
    assert raised.value is boom
