"""The sorted fast path's iterator scans against its index-loop scans.

``core._sorted_handler`` runs its four scans as ``for x in islice(it,
count)`` over list iterators moved with ``__setstate__`` and reads a
stopped scan's cursor back from ``__length_hint__``.  ``index_loop_handler``
below is the handler as it was before, with index loops, compiled with
``inline.compare_inline()`` as ``core`` compiles its own.  On every
frame both must return the same tuple, leave the same array, add the
same counts and make the same rich comparisons in the same order, on
the inline path (the default comparator) and on the generic one.

The frames are every word over {0, 1, 2} of length at most 8, with the
pivot extracted at the center, and random frames of up to 200 elements
cut from sorted, near-sorted and few-distinct data, padded on both
sides so the scans' spans end inside the list.  Named cases cover the
scans that run zero times, and a comparison that changes the list's
length in a verify scan must end the sort in ValueError.

Sequences that are not lists, or lists that iterate otherwise, reach
the scans through ``core._SeqView``; they must sort as a list does.
"""

import array
import collections
import itertools
import random

import pytest

from tsqsort import ShadowWriteMonitor, Sorter, core
from tsqsort.core import (_DONE, _L1_2, _ML1_2, _MLEFT, _MLEFT_NOSCAN,
                          _MRIGHT, _MRIGHT_NOSCAN, _R1_3, CT_CMP, CT_LEN,
                          CT_WA, CT_WS)
from tsqsort.handlers import handle_possibly_reversed, handle_possibly_sorted
from tsqsort.inline import _default_cmp3, compare_inline


@compare_inline()
def index_loop_handler(ar, cmp3, a, b, mid, p, ct, depth, thr):
    nwa = 0
    lc = -1
    for l in range(a, mid):
        if (lc := cmp3(ar[l], p)) >= 0:
            break
    else:
        l = mid
    rc = 1
    for r in range(b, mid, -1):
        if (rc := cmp3(ar[r], p)) <= 0:
            break
    else:
        r = mid
    ncmp = l - a + (lc >= 0) + b - r + (rc <= 0)
    ml = mr = mid
    if lc == 0 and rc >= 0:
        lc = 0
        for ml in range(mid - 1, l, -1):
            if (lc := cmp3(ar[ml], p)) != 0:
                break
        else:
            ml = l
        ncmp += mid - 1 - ml + (ml != l)
    if rc == 0 and ml == l:
        for mr in range(mid + 1, r):
            if (lc := cmp3(ar[mr], p)) != 0:
                break
        else:
            mr = r
        ncmp += mr - mid - 1 + (mr != r)

    hold = None
    if ml == l and mr == r:
        ar[mid] = p
        nwa += 1
        l -= 1
        r += 1
        out = _DONE
    else:
        if l == mid:
            hold = ar[r]
            if mr == mid:
                lc = rc
                out = _MRIGHT
            else:
                out = _MRIGHT_NOSCAN
        elif r == mid:
            hold = ar[l]
            if ml == mid:
                out = _MLEFT
            else:
                out = _MLEFT_NOSCAN
        elif ml < mid:
            hold = ar[l]
            ar[mid] = ar[r]
            nwa += 1
            out = _MRIGHT_NOSCAN if ml == l else _ML1_2
        elif lc == 0:
            hold = ar[l]
            lc = rc
            out = _R1_3
        else:
            hold = ar[r]
            lc = rc
            out = _L1_2
        ct[CT_WS] += 1

    ct[CT_CMP] += ncmp
    ct[CT_WA] += nwa
    return out, l, r, ml, mr, mid, lc, hold


class Logged:
    """An int that logs each rich comparison as (op, own tag, other's
    tag) in ``log``; the tag is the element's place in its input."""

    __slots__ = ("v", "tag")
    log = []

    def __init__(self, v, tag):
        self.v = v
        self.tag = tag

    def __lt__(self, other):
        Logged.log.append(("<", self.tag, other.tag))
        return self.v < other.v

    def __gt__(self, other):
        Logged.log.append((">", self.tag, other.tag))
        return self.v > other.v


def generic(x, y):
    return _default_cmp3(x, y)


def run(handler, values, a, b, cmp3):
    """(returned tuple as tags, array as tags, ct, comparisons) of one
    call over ``values`` with the pivot extracted at the center of
    [a..b]; the hole holds None."""
    ar = [Logged(v, i) for i, v in enumerate(values)]
    mid = (a + b) >> 1
    p = ar[mid]
    ar[mid] = None
    ct = [0] * CT_LEN
    Logged.log = []
    out = handler(ar, cmp3, a, b, mid, p, ct, 0, 0)
    log = Logged.log
    Logged.log = []
    hold = out[-1]
    tags = [None if x is None else x.tag for x in ar]
    return (out[:-1] + (None if hold is None else hold.tag,), tags, ct,
            log)


def assert_same(values, a=0, b=None):
    if b is None:
        b = len(values) - 1
    for cmp3 in (_default_cmp3, generic):
        want = run(index_loop_handler, values, a, b, cmp3)
        got = run(core._sorted_handler, values, a, b, cmp3)
        assert got == want, (values, a, b, cmp3.__name__)


def test_the_reference_is_compiled_inline():
    assert index_loop_handler.__wrapped__ is not index_loop_handler


def test_every_word_over_three_values_up_to_length_8():
    for n in range(1, 9):
        for word in itertools.product(range(3), repeat=n):
            assert_same(list(word))


def shaped(rnd, n):
    shape = rnd.choice(("sorted", "near", "few"))
    if shape == "few":
        values = sorted(rnd.randrange(rnd.randint(1, 5)) for _ in range(n))
    else:
        values = sorted(rnd.sample(range(4 * n + 4), n))
    if shape != "sorted":
        for _ in range(rnd.randint(1, 3)):
            i, j = rnd.randrange(n), rnd.randrange(n)
            values[i], values[j] = values[j], values[i]
    return values


@pytest.mark.parametrize("seed", range(4))
def test_random_padded_frames(seed):
    rnd = random.Random(seed)
    for _ in range(300):
        n = rnd.randint(1, 200)
        left = [rnd.randrange(-50, 50) for _ in range(rnd.randint(0, 5))]
        right = [rnd.randrange(-50, 50) for _ in range(rnd.randint(0, 5))]
        values = left + shaped(rnd, n) + right
        assert_same(values, len(left), len(left) + n - 1)


# mid == a == b: both verify scans run zero times; mid == a: the left
# one does; r == mid + 1: the scan for equals above does, after a left
# scan that reached mid ([0, 5, 5, 9] bypasses); then equals below up
# to a, equals everywhere, and an equal left of a mismatch
@pytest.mark.parametrize("values", (
    [5], [5, 9], [9, 5], [5, 5],
    [0, 5, 5, 9], [0, 5, 5, 5], [0, 5, 5, 3],
    [5, 5, 5, 9], [5, 5, 5, 5, 5], [0, 5, 0, 9, 9],
))
def test_scans_that_run_zero_times(values):
    assert_same(values)


def test_the_n4_bypass_keeps_the_left_scans_lc():
    # [0, _, p, 9]: the left scan reaches mid, the right one stops on
    # the equal at mid + 1 and the scan for equals above runs zero
    # times; the stage bypasses with lc still -1
    ar = [0, None, 5, 9]
    out = core._sorted_handler(ar, _default_cmp3, 0, 3, 1, 5, [0] * CT_LEN,
                               0, 0)
    assert out == (_DONE, 0, 3, 1, 2, 1, -1, None)
    assert out == index_loop_handler([0, None, 5, 9], _default_cmp3, 0, 3,
                                     1, 5, [0] * CT_LEN, 0, 0)


class Mutating:
    """An int whose ``__lt__`` applies ``how`` to ``target`` at its
    ``at``-th call."""

    __slots__ = ("v",)
    target = []
    how = None
    at = 0
    calls = 0

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        Mutating.calls += 1
        if Mutating.calls == Mutating.at:
            Mutating.how(Mutating.target)
        return self.v < other.v

    def __gt__(self, other):
        return self.v > other.v


MUTATIONS = {
    "append": lambda ar: ar.append(Mutating(-1)),
    "extend": lambda ar: ar.extend([Mutating(-1), Mutating(-2)]),
    "pop": lambda ar: ar.pop(),
    "pop0": lambda ar: ar.pop(0),
    "clear": lambda ar: ar.clear(),
}


def first_stage_scan_calls(n):
    """How many ``__lt__`` calls a sort of sorted(range(n)) makes before
    its first stage's sorted fast path starts, and then in its two verify
    scans."""
    calls = []

    def spy(*args):
        calls.append(Mutating.calls)
        out = handler(*args)
        calls.append(Mutating.calls)
        return out

    handler = core._sorted_handler
    ar = [Mutating(v) for v in range(n)]
    Mutating.calls, Mutating.at = 0, 0
    core._sorted_handler = spy
    try:
        Sorter(seed=1).sort(ar)
    finally:
        core._sorted_handler = handler
    return calls[0], calls[1] - calls[0]


@pytest.mark.parametrize("how", sorted(MUTATIONS))
@pytest.mark.parametrize("where", (0.25, 0.75))
@pytest.mark.parametrize("path", ("inline", "generic"))
def test_a_length_change_in_a_verify_scan_raises(how, where, path):
    n = 500
    before, scanned = first_stage_scan_calls(n)
    assert scanned >= n - 2
    ar = [Mutating(v) for v in range(n)]
    Mutating.target, Mutating.how, Mutating.calls = ar, MUTATIONS[how], 0
    # in the left verify scan at 0.25, in the right one at 0.75
    Mutating.at = before + int(scanned * where)
    cmp = None if path == "inline" else generic
    try:
        with pytest.raises(ValueError, match="list modified during sort"):
            Sorter(seed=1).sort(ar, cmp)
    finally:
        Mutating.target, Mutating.at = [], 0


# --- sequences other than lists reach the scans through a view ---


class GeneratorIter(list):
    """A list whose ``__iter__`` is a generator."""

    def __iter__(self):
        yield from list.__iter__(self)


class Bare:
    """A sequence with only ``__len__``, ``__getitem__`` and
    ``__setitem__``."""

    def __init__(self, data):
        self.data = data

    def __len__(self):
        return len(self.data)

    def __getitem__(self, i):
        return self.data[i]

    def __setitem__(self, i, v):
        self.data[i] = v


SEQUENCES = {
    "array": lambda v: array.array("q", v),
    "UserList": collections.UserList,
    "generator_iter": GeneratorIter,
    "monitor": lambda v: ShadowWriteMonitor(list(v)),
    "bare": lambda v: Bare(list(v)),
}


def data(shape, n):
    rnd = random.Random(n)
    if shape == "sorted":
        return list(range(n))
    if shape == "reversed":
        return list(range(n, 0, -1))
    if shape == "random":
        return rnd.sample(range(4 * n), n)
    return [rnd.randrange(5) for _ in range(n)]


@pytest.mark.parametrize("n", (2, 17, 500, 3000))
@pytest.mark.parametrize("shape", ("sorted", "reversed", "random", "few"))
@pytest.mark.parametrize("kind", sorted(SEQUENCES))
def test_other_sequences_sort_as_a_list_does(kind, shape, n):
    values = data(shape, n)
    want = list(values)
    want_stats = Sorter(seed=1).sort_with_stats(want)
    seq = SEQUENCES[kind](values)
    stats = Sorter(seed=1).sort_with_stats(seq)
    assert list(seq) == want == sorted(values)
    assert stats == want_stats
    if kind == "monitor":
        assert seq.writes == stats.array_writes


class Doubled(list):
    """A list that reads every element doubled, which its own iterators
    would not."""

    def __getitem__(self, i):
        return 2 * list.__getitem__(self, i)


class Writes(list):
    """A list that counts its stores."""

    writes = 0

    def __setitem__(self, i, v):
        self.writes += 1
        list.__setitem__(self, i, v)


def test_only_lists_that_read_as_list_are_scanned_as_they_are():
    for seq in ([], Writes()):
        assert core._scannable(seq) is seq
    for make in list(SEQUENCES.values()) + [Doubled]:
        seq = make([1, 2])
        view = core._scannable(seq)
        assert isinstance(view, core._SeqView) and view.seq is seq


@pytest.mark.parametrize("kind", sorted(SEQUENCES))
def test_public_handlers_take_other_sequences(kind):
    values = [0, 2, 4, 6, 8, 7, 10, 12, 14]
    for handler in (handle_possibly_sorted, handle_possibly_reversed):
        want = list(values)
        got = SEQUENCES[kind](values)
        assert handler(got, 0, 8, 8, finish=True) == \
            handler(want, 0, 8, 8, finish=True)
        assert list(got) == want
