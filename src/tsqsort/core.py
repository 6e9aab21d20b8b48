"""Triple-state quicksort: explicit-stack driver and the partition machine.

One stage keeps two elements outside the array (the pivot and
a holdover), so two slots are logically empty at any instant and every
element move is a single copy instead of a three-copy swap.  Elements
equal to the pivot collect in a middle block grown outward from the
center.  A stage runs as a small state machine:

* State 1: both sides open; four scan cursors (l, r, ml, mr) juggle the
  two holes while equals are stored directly into the middle block,
  always growing the block toward the larger facing gap.
* States 2L/2R: one side closed, relatively many equals; the block is
  kept in the array and rolled one slot per crossing element.
* States 3L/3R: one side closed, relatively few equals; equals go to a
  retained temporary buffer and runs of same-side elements are block
  copied into the gap, then the buffer drains back into the middle.

Exits place the holdover and pivot and retract the subrange bounds so
no later stage revisits pivot-equal elements.  Pivot selection returns
an order flag; flagged stages first try the possibly-sorted or
possibly-reversed fast paths, falling back into the machine mid-stage
with their scan progress kept.

A stage's state lives in locals of the function running it, as in one
C function: a fast-path handler returns its resume label, the cursors
(l, r, ml, mr, m), lc and the holdover as one tuple; ``Sorter._range``
unpacks it and passes it to the machine, which returns the stage's new
bounds and its exit.  Nothing of a stage outlives it.

``Sorter._range`` pops ranges off an explicit stack of pending ranges
and runs stages on each: after a stage it goes on with the smaller side
and pushes the larger, so the stack holds at most floor(log2 n) ranges
however deep the stages nest, and a range of at most
``insertion_threshold`` elements is a leaf it insertion-sorts before it
pops the next.  Both loops test a condition, so neither runs a ``NOP``
for a ``while True:`` line at each pass.  Its own tallies (stages, depth,
fast-path activations, fallbacks, state-1 entries) live in locals and
reach the counter vector once per sort; the pivot extraction's write,
one per stage, is counted by law, from the stage count, in
``Sorter._fill_stats``.  It calls every layer (pivot selection, the
insertion sort, both handlers, the machine) through this module's
globals, so a wrapper set on one of them sees every call.

The machine runs a stage as one forward pass of structured code: the
pre-scan, the state-1 cycle, the closing scan and state choice, one of
states 2L/2R/3L/3R, the state-3 drain and Exit2.  State 1 is a single
straight-line cycle, left scan, place, right scan, place; a prologue
before it makes the placement an entry or an equal left pending, and an
equals detour after it stores the equal and grows the block over the
equals beyond it.  Each of 2L/2R/3L/3R is one loop whose turn acts on
the non-equal at m, steps m and scans the equals beyond it.  The drain
runs when the stage ran state 3, and Exit2 unless the pre-scan ended
the stage.  A label says only where a stage enters the pass: at the
pre-scan or at a fast-path handler's resume point, where it falls back
mid-stage; no loop stores or reads one.  Every run of the machine ends
the stage it enters.

The sorted fast path's scans iterate the array with list iterators
that they move with ``__setstate__`` and read their position back from
with ``__length_hint__``.  A list whose class keeps list's
``__len__``, ``__getitem__``, ``__iter__`` and ``__reversed__`` is
scanned as it is; the fast path reads any other sequence (an
``array.array``, a ``UserList``, a list subclass that reads otherwise,
a bare ``__getitem__``/``__setitem__`` sequence) through a
``_SeqView``, whose generic iterators have both.  Every other layer
indexes the sequence itself.

The machine's scans that start once per stage run in two gears, as
galloping does in Timsort: index steps first, an iterator once a scan
has shown itself long.  The pre-scan takes ``_GEAR`` index steps and
runs the rest of its span on a list iterator.  Two scans start only
after one that ran long, on data that has just shown itself ordered,
and iterate from their first step: the scan from the left after a
pre-scan that crossed its whole half, and the first left scan of state
1 after a pre-scan that shifted gear.  An iterator's set-up and
read-back cost about what 16 index steps save, so every scan that
starts once per turn keeps its index loop: the later state-1 scans,
the equals scans and those of 2L/2R/3L/3R, which average about two
steps on random input.  A sequence the fast path would view through a
``_SeqView`` keeps the index loop to the end of every scan; the
machine asks only when a scan reaches its gear, and never makes a view.

``Sorter.stage_hook``, when set, is called once per partition stage,
after the partition and before the driver goes on to its sides, with an
``instrument.StageRecord``; unset, it costs one test per stage.

The machine, both fast-path handlers, the pivot medians and the
insertion sort are decorated with ``inline.compare_inline``: an ``ast``
transformer compiles them once more from their own source with every
``cmp3(x, y)`` call inlined, and that variant runs whenever the
comparator is the default one.  A scan's test, written as
``if (lc := cmp3(ar[l], p)) >= 0: break``, compiles to branches on
``<`` and ``>`` themselves, with no three-way value built or re-tested.
When the default comparator sorts a list of exact ints or of exact
strs, ``Sorter.sort_with_stats`` passes ``inline._total_cmp3`` down
instead, and each of them runs its total-order body, whose scans make
one rich comparison a step (see ``inline``).

There, and only there, scans stop on sentinels, since no element or
comparator can see the comparison with one.  State 1 keeps a value
equal to the pivot at both edges of the equals block: an edge is an
equal unless the middle hole sits there, so after each placement of the
prologue the machine stores the pivot into that hole.  The left and
right scans and the cycle's placements then test no bound; a scan that
stops on an equal asks whether it reached the block.  States 3L/3R
store the pivot into the side hole at l (r) before a run scan, which
then runs bare down to it (up to it).  ``Sorter._range``
tells the insertion sort that a leaf other than the leftmost has a left
neighbour at most its every element, on which the scan of a displaced
element stops.  The source keeps both forms behind the compile-time
flag ``inline.TOTAL_BODY``, which each compiled body folds, so the
inline body and the generic path keep every bound test and store no
sentinel.  The machine writes its state-1 cycle twice, under ``if
TOTAL_BODY:`` for a total order and in its ``elif`` for any comparator:
the first form's scans are bare ``while ar[l] < p: l += 1`` and
``while ar[r] > p: r -= 1`` loops, an increment and a compare a step,
as in Sedgewick's "Implementing Quicksort Programs".  Neither the
uncounted store nor the extra comparison changes a count: the store
goes into a hole a later write of the stage fills, and the machine and
the insertion sort count comparisons by law from their cursors.

The same body of the sorted fast path skips work whose counts are
fixed.  On a strictly increasing range of n elements the stage tree is
fixed by n and ``insertion_threshold``: every stage's samples are in
order, its pivot is the center, the fast path ends it with n - 1
comparisons and one write, each leaf compares n - 1 times and writes
nothing, and the array is left as it was.  So where the fast path ends
a stage, it tests each side for strict increase in one C pass and, for
a side that passes, adds ``_sorted_run``'s closed form to the counters
and collapses the side's bound, so the driver drops it; every count is
the one the stages and leaves would have made.  The driver passes the
handler its insertion threshold, or 0, which turns the test off, when a
stage hook is set, since the hook sees every stage.
"""

from __future__ import annotations

import threading
from itertools import islice
from operator import lt

from .bigelem import LATE_SWAP_BYTES, sort_large_elements
from .config import DEFAULT_CONFIG, SortConfig
from .inline import (TOTAL_BODY, _default_cmp3, _total_cmp3, _total_order,
                     compare_inline)
from .instrument import StageRecord
from .pivot import (MEDOF3_MAX_N, MEDOF5_MAX_N, NINTHER_MAX_N, MitigationRng,
                    select_pivot)
from .smallsort import insertion_sort
from .stats import (EXIT2, EXIT3L, EXIT3R, S1, S2L, S2R, S3L, S3R, SortStats)

__all__ = [
    "TempStore", "TempAllocationError", "Sorter", "sort",
    "sort_with_stats", "free_temp_storage", "default_sorter",
]


class TempAllocationError(MemoryError):
    """The ceil(n/2) temporary buffer could not be allocated."""


class TempStore:
    """Retained equals buffer; capacity ceil(n/2) of the largest sort.

    The machine never grows the buffer: ceil(n/2) slots are proven to
    suffice for any stage over a range of n elements [a..b] with
    mid = (a + b) >> 1.  Only states 3L/3R write to it, a stage runs at
    most one of them, and its exit drains the buffer back to empty.
    State 3L starts with the right side closed and its scan cursor m
    below the block, m < ml <= mid, so the unscanned run [l..m] holds at
    most mid - a elements.  Each element taken from that run adds at
    most one entry: itself if it equals the pivot, or the block element
    it displaces if it is above the pivot and copied into the gap over
    the block; an element below the pivot adds none.  So the fill stays
    at most mid - a.  State 3R mirrors this with the run [m..r],
    m > mr >= mid, of at most b - mid elements.  Both are at most
    floor(n/2), and every subrange is shorter than the array.
    """

    __slots__ = ("buf", "alloc_count")

    def __init__(self):
        self.buf: list = []
        self.alloc_count = 0

    @property
    def capacity(self) -> int:
        return len(self.buf)

    def ensure(self, cap: int) -> None:
        if cap > len(self.buf):
            try:
                self.buf = [None] * cap
            except MemoryError as exc:
                raise TempAllocationError(
                    f"cannot allocate equals buffer of {cap} slots") from exc
            self.alloc_count += 1

    def release(self) -> None:
        self.buf = []


# Machine labels: the points where a stage enters the machine, the
# pre-scan or a fast-path handler's resume point, in the order of the
# machine's phases.  _DONE is no entry: a handler returns it when it
# ends the stage itself.  The *_2 labels (and _R1_3) are
# post-comparison points: the element under the relevant cursor is
# compared already, above the pivot at _L1_2, below it at _R1_3, and
# with lc holding the result at the others.  _L1 and _R1 come first
# among the state-1 labels: state 1 enters them with a scan, the others
# with a placement.  A stage entered at a label up to _MR1_2 runs state
# 1.  _MLEFT (_MRIGHT) enters with the right (left) side closed, before
# the closing scan; _MLEFT_NOSCAN (_MRIGHT_NOSCAN) after it, with ml
# (mr) on a non-equal, lc != 0.  Within the machine a stage whose
# pre-scan shifted gear goes on into state 1 still at _PRESCAN.
_PRESCAN = 0
_L1 = 1
_R1 = 2
_L1_2 = 3
_R1_3 = 4
_ML1_2 = 5
_MR1_2 = 6
_MLEFT = 7
_MRIGHT = 8
_MLEFT_NOSCAN = 9
_MRIGHT_NOSCAN = 10
_DONE = 11

_LABEL_NAMES = {
    _PRESCAN: "prescan", _L1: "l_scan1", _R1: "r_scan1",
    _L1_2: "l_scan1_2", _R1_3: "r_scan1_3", _ML1_2: "ml_scan1_2",
    _MR1_2: "mr_scan1_2", _MLEFT: "mleft", _MRIGHT: "mright",
    _MLEFT_NOSCAN: "mleft_noscan", _MRIGHT_NOSCAN: "mright_noscan",
    _DONE: "done",
}

# Per entry label, the elements of [l..r] outside [ml..mr] compared at
# entry: the holdover's but at _PRESCAN, and the cursor's at *_2, _R1_3.
_PRECOMPARED = (0,) + (1,) * 2 + (2,) * 4 + (1,) * 4

# Index steps a geared machine scan takes before it goes on with a
# positioned list iterator: an iterator's set-up and read-back cost about
# what 16 index steps save.
_GEAR = 16

# Counter vector indices (a plain list is the cheapest mutable record).
# The first three are the [comparisons, array writes, scratch writes]
# tally of select_pivot and insertion_sort, so ct is passed to them as is.
CT_CMP = 0
CT_WA = 1       # array element writes
CT_WS = 2       # scratch writes: holdover, pivot slot, swap temp, buffer
CT_TI_HW = 3    # equals-buffer high water, updated when a state-3 run exits
CT_S1 = 4
CT_S2L = 5
CT_S2R = 6
CT_S3L = 7
CT_S3R = 8
CT_EXIT2 = 9
CT_EXIT3L = 10
CT_EXIT3R = 11
CT_HSORT = 12
CT_HREV = 13
CT_HFALL = 14
CT_STAGES = 15
CT_DEPTH = 16
CT_LEN = 17


@compare_inline()
def _run_machine(ar, cmp3, mid, p, label, l, r, ml, mr, m, lc, temp, tar,
                 ct):
    """Run the partition machine from ``label`` to the end of the stage
    and return its new bounds and exit, ``(new_l, new_r, last_exit)``.

    The machine is one forward pass of phases: the pre-scan (with the
    case that collapses onto mid), the state-1 cycle, the closing scan
    and state choice, one of states 2L/2R/3L/3R, the state-3 drain and
    Exit2.  ``label`` is where the stage enters.  State 1 ends by
    setting _MLEFT or _MRIGHT, the closing scan's entry, and the
    closing scan sets the *_NOSCAN label when it stops on a non-equal;
    states 2L/2R/3L/3R are loops that neither store nor read a label.
    The drain is keyed on ``last_exit``, and Exit2 runs unless the
    pre-scan ended the stage (_DONE).  A state 2/3 loop is entered with
    its cursor m on a non-equal, lc != 0.

    Three scans run in two gears (see the module docstring): the
    pre-scan, ``_GEAR`` index steps and then a list iterator over the
    rest of its span; the scan from the left after a pre-scan that
    collapsed onto mid, and the first left scan of state 1 after a
    pre-scan that shifted gear, on an iterator from their first step.
    The pre-scan that shifted gear leaves the label at _PRESCAN, which
    is how state 1 knows.  The first left scan stops one short of ml,
    so it ends on a non-equal above the pivot, placed as at _L1_2, on
    an equal, stored by the equals detour, or with the cycle's left
    scan to compare ar[ml - 1] and end state 1 there.  A geared scan
    makes the comparisons of the index loop, in its order.

    In the total-order body (``TOTAL_BODY``) the state-1 cycle is the
    one written under ``if TOTAL_BODY:``, whose scans run unguarded, as
    bare ``while ar[l] < p:`` and ``while ar[r] > p:`` loops that store
    only their cursor.  Between the prologue and the cycle the machine
    stores ``p`` into the middle hole at m, which the prologue's
    placement has just emptied (or, at an entry by a scan, the pivot's
    extraction or a handler's move left empty), so ar[ml] and ar[mr]
    both compare equal to the pivot.  A scan's stop compares once more:
    on a non-equal the turn places it and goes on, and on an equal the
    cycle ends with lc = -1 at l == ml, as the bound test would have
    ended state 1, lc = 1 at r == mr, and lc = 0 elsewhere, where the
    equals detour stores it.  The cycle assigns lc only there, since
    every way out of it does.  The store is not counted, since a later
    write of the stage fills that hole as it fills every hole, and the
    array after the stage is the one the other bodies leave.  The
    inline body and the generic path run the ``elif``'s guarded cycle,
    which keeps the bound tests and never stores it.  The run scans of
    states 3L/3R are written the same way: the side hole at l (r) takes
    ``p``, the scan is a bare ``while ar[m] > p:`` (``<``) loop that
    stops there at the latest, and its stop sets lc as the guarded scan
    would, keeping it at m == l (r).

    ``mid`` is the stage's center and ``p`` its extracted pivot.  The
    cursors, ``lc`` (the last comparison) and the holdover ``temp`` are
    the ones a fast-path handler returns with its resume label; the
    pre-scan is entered with l, r at the range's ends and
    ml = mr = m = mid.  ``tar`` is the equals buffer, of at least
    ceil(n/2) slots for the stage's n-element range; it is empty again
    when the stage ends.

    Comparisons are counted once, by law: the machine compares each
    element of [l..r] outside [ml..mr] (entry cursors) once, but for the
    ``_PRECOMPARED[label]`` its entry compared, and Exit2 the holdover
    again.  Each comparison is of a position a cursor steps onto, and no
    position is stepped onto twice: the pre-scan and state 1 move l, r
    inward and ml, mr outward until they meet, the block edges stopping
    short of the holes at l and r, and the closing scan carries a block
    edge on to its hole; states 2L/3L compare each element strictly
    between l and m once as m steps down and l up until they meet (a
    state-3 run is scanned by m); 2R/3R mirror this.

    Writes are counted by law where one holds.  A state-1 turn places
    two elements and adds 2 once; a turn that leaves between its
    placements, when the r hole meets the block or the right scan stops
    on an element not below the pivot, adds 1 there.  States 2L/2R/3L/3R
    count a turn the same way: it places the non-equal at m into the
    side hole, scans from that side and places what the scan stops on
    (2L/2R also roll the block over it), and adds its writes once at
    its end, or 1 where it leaves after the first placement; a 2L/2R
    roll adds its 2 once.  In states 3L/3R a run copy writes its
    length, added after the copy (``k - m`` or ``r - m`` in 3L, ``m -
    k`` or ``m - l`` in 3R).  Every buffered equal is pushed once and
    drained back once, so the drain adds ``ti`` to both the scratch and
    the array writes.  The other writes, a placement each, count one by
    one.
    """
    ct[CT_CMP] += r - l - (mr - ml) - _PRECOMPARED[label]
    nwa = 0
    nws = 0
    ti = 0
    last_exit = EXIT2

    # ----- pre-scan from the right, for the holdover -----
    if label == _PRESCAN:
        # _GEAR index steps, then the rest of the span on a positioned
        # list iterator, as in _sorted_handler, if ar reads as a list
        g = r - _GEAR
        if g < mid:
            g = mid
        while True:
            if (lc := cmp3(ar[r], p)) <= 0:
                label = _L1
                break
            r -= 1
            if r == g:
                if r == mid:
                    break
                if _scannable(ar) is not ar:
                    g = mid
                    continue
                it = reversed(ar)
                it.__setstate__(r)
                lc = 1
                for x in islice(it, r - mid):
                    if (lc := cmp3(x, p)) <= 0:
                        r = it.__length_hint__()
                        break
                else:
                    r = mid
                break
        if lc <= 0:
            # the label is _L1 if an index step found the holdover
            temp = ar[r]
            nws += 1
        else:
            # Collapsed onto mid: everything above mid exceeds the
            # pivot.  Scan from the left for the first element not
            # below the pivot; if none, the pivot drops straight into
            # the hole.  Otherwise hold that element out and continue
            # as a closed-right-side stage with an empty middle block.
            if _scannable(ar) is ar:
                it = iter(ar)
                it.__setstate__(l)
                lc = -1
                for x in islice(it, mid - l):
                    if (lc := cmp3(x, p)) >= 0:
                        l = len(ar) - it.__length_hint__() - 1
                        break
                else:
                    l = mid
            else:
                while True:
                    if (lc := cmp3(ar[l], p)) >= 0:
                        break
                    l += 1
                    if l == mid:
                        break
            if lc < 0:
                ar[mid] = p
                nwa += 1
                l = mid - 1
                r = mid + 1
                label = _DONE
            else:
                temp = ar[l]
                nws += 1
                r = mid
                label = _MLEFT

    # ----- state 1: both sides open -----
    # Hoare-style scans alternate: from l for an element not below the
    # pivot, written into the hole at r, then from r for one not above,
    # written into the hole at l.  An equal found at k goes into the
    # middle hole at m, and the block grows toward the larger facing
    # gap over the equals beyond its edge; the first non-equal there
    # leaves a new middle hole and is placed like a scan's find.  The
    # phase ends when a cursor meets the block: lc < 0 once l == ml,
    # lc > 0 once mr == r, or lc == 0 when the block grows onto one.
    if label <= _MR1_2:
        # from here lc > 0 iff the right scan comes next, after the
        # pending placement into the hole at r if there is one
        if label == _L1:
            lc = -1
        elif label == _PRESCAN:
            # the pre-scan shifted gear: the first left scan iterates,
            # up to ml - 1, which it leaves to the cycle
            it = iter(ar)
            it.__setstate__(l)
            lc = -1
            for x in islice(it, ml - 1 - l):
                if (lc := cmp3(x, p)) >= 0:
                    l = k = len(ar) - it.__length_hint__() - 1
                    if lc > 0:
                        label = _L1_2
                    break
            else:
                l = ml - 1
        elif label == _R1:
            lc = 1
        elif label == _L1_2:
            k = l
            lc = 1
        elif label == _R1_3:
            k = r
            lc = -1
        elif label == _ML1_2:
            m = k = ml
        else:
            m = k = mr
        while True:
            # prologue, once per entry and per equal: place the
            # non-equal found at k into a side hole, and run the right
            # scan when it is next
            if lc > 0:
                if label > _R1:
                    ar[r] = ar[k]
                    nwa += 1
                    r -= 1
                    if mr == r:
                        break
                while True:
                    if (lc := cmp3(ar[r], p)) <= 0:
                        break
                    r -= 1
                    if mr == r:
                        break
                if lc >= 0:
                    k = r
                else:
                    ar[l] = ar[r]
                    nwa += 1
                    l += 1
                    if ml == l:
                        break
            elif label > _R1:
                ar[l] = ar[k]
                nwa += 1
                l += 1
                if ml == l:
                    break
            # the cycle: a left scan step, or a turn of both scans and
            # both placements, whose two writes count once
            if TOTAL_BODY:
                # the sentinel: the middle hole takes the pivot's value,
                # so both block edges compare equal and stop the scans,
                # which test no bound; a scan that stops on an equal at
                # the block's edge ends state 1 as the bound test would
                ar[m] = p
                if lc < 0:
                    while True:
                        while ar[l] < p:
                            l += 1
                        if ar[l] > p:
                            ar[r] = ar[l]
                            r -= 1
                            while ar[r] > p:
                                r -= 1
                            if ar[r] < p:
                                ar[l] = ar[r]
                                nwa += 2
                                l += 1
                            else:
                                nwa += 1
                                lc = 1 if r == mr else 0
                                k = r
                                break
                        else:
                            lc = -1 if l == ml else 0
                            k = l
                            break
            elif lc < 0:
                while True:
                    if (lc := cmp3(ar[l], p)) < 0:
                        l += 1
                        if l == ml:
                            break
                    else:
                        if lc == 0:
                            k = l
                            break
                        ar[r] = ar[l]
                        r -= 1
                        if mr == r:
                            nwa += 1
                            break
                        while True:
                            if (lc := cmp3(ar[r], p)) <= 0:
                                break
                            r -= 1
                            if mr == r:
                                break
                        if lc >= 0:
                            nwa += 1
                            k = r
                            break
                        ar[l] = ar[r]
                        nwa += 2
                        l += 1
                        if ml == l:
                            break
            if lc != 0:
                break
            # the equals detour: store the equal into the middle hole
            # and grow the block toward the larger facing gap, over the
            # equals beyond it
            ar[m] = ar[k]
            nwa += 1
            if r - mr > ml - l:
                while True:
                    mr += 1
                    if mr == r:
                        break
                    if (lc := cmp3(ar[mr], p)) != 0:
                        break
                if lc == 0:
                    break
                m = k = mr
                label = _MR1_2
            else:
                while True:
                    ml -= 1
                    if ml == l:
                        break
                    if (lc := cmp3(ar[ml], p)) != 0:
                        break
                if lc == 0:
                    break
                m = k = ml
                label = _ML1_2
        if lc == 0:
            # the block grew onto a cursor
            label = _MRIGHT if ml == l else _MLEFT
        elif lc > 0:
            # The middle hole may sit at the block's left edge; move the
            # block top into it so the hole lands at r where states
            # 2L/3L expect it.
            if m == ml and ml != mr:
                ar[ml] = ar[mr]
                nwa += 1
            label = _MLEFT
        else:
            if m == mr and ml != mr:
                ar[mr] = ar[ml]
                nwa += 1
            label = _MRIGHT

    # ----- closing scan: one side closed -----
    # The block's edge facing the open side absorbs the equals beyond
    # it.  Stopped on a non-equal, the stage goes on to state 2 or 3;
    # having reached the hole, it goes on to Exit2.
    if label == _MLEFT:
        # Right side closed; absorb equals adjoining the block's left
        # edge.
        while True:
            ml -= 1
            if ml == l:
                break
            if (lc := cmp3(ar[ml], p)) != 0:
                label = _MLEFT_NOSCAN
                break
    elif label == _MRIGHT:
        while True:
            mr += 1
            if mr == r:
                break
            if (lc := cmp3(ar[mr], p)) != 0:
                label = _MRIGHT_NOSCAN
                break

    # ----- states 2L/2R/3L/3R: one side closed, m scanning -----
    # ml (mr) sits on the first non-equal below (above) the block with
    # its lc set, by the closing scan or by a fast-path handler.  m takes
    # it over, and few equals against the open side choose state 3,
    # many state 2.  A turn of each state's loop acts on the non-equal
    # at m, steps m and scans the equals beyond it; the loop ends when m
    # meets l (2L/3L) or r (2R/3R).
    if label == _MLEFT_NOSCAN:
        m = ml
        ml += 1
        if mr - ml <= (ml - l) // 4:
            # 3L: m moving left, equals buffered, a run of elements
            # above the pivot block-copied into the gap descending
            # from r
            ct[CT_S3L] += 1
            last_exit = EXIT3L
            while True:
                if lc > 0:
                    # collect the run of > pivot elements below m
                    k = m
                    if TOTAL_BODY:
                        # the sentinel: the side hole at l takes the
                        # pivot's value and stops the scan
                        ar[l] = p
                        m -= 1
                        while ar[m] > p:
                            m -= 1
                        if m != l:
                            lc = -1 if ar[m] < p else 0
                    else:
                        while True:
                            m -= 1
                            if m == l:
                                break
                            if (lc := cmp3(ar[m], p)) <= 0:
                                break
                    k2 = m + 1
                    # copy the run [k2..k] into the gap descending
                    # from r, buffering block elements it consumes
                    if k - m < r - k:
                        while True:
                            ar[r] = ar[k2]
                            r -= 1
                            if r >= ml:
                                tar[ti] = ar[r]
                                ti += 1
                            k2 += 1
                            if k2 > k:
                                break
                        nwa += k - m
                    else:
                        while True:
                            ar[r] = ar[k2]
                            r -= 1
                            if r >= ml:
                                tar[ti] = ar[r]
                                ti += 1
                            elif r <= k:
                                r = k2
                                break
                            k2 += 1
                        nwa += r - m
                    if m == l:
                        break
                if lc == 0:
                    # an equal the run stopped on
                    tar[ti] = ar[m]
                    ti += 1
                else:
                    ar[l] = ar[m]
                    l += 1
                    if m == l:
                        nwa += 1
                        break
                    while True:
                        if (lc := cmp3(ar[l], p)) >= 0:
                            break
                        l += 1
                        if m == l:
                            break
                    if lc < 0:
                        nwa += 1
                        break
                    if lc == 0:
                        tar[ti] = ar[l]
                        ti += 1
                        nwa += 1
                    else:
                        ar[r] = ar[l]
                        nwa += 2
                        r -= 1
                        if r >= ml:
                            tar[ti] = ar[r]
                            ti += 1
                m -= 1
                if m == l:
                    break
                while True:
                    if (lc := cmp3(ar[m], p)) != 0:
                        break
                    tar[ti] = ar[m]
                    ti += 1
                    m -= 1
                    if m == l:
                        break
                if lc == 0:
                    break
        else:
            # 2L: m moving left, equals left in place, the block rolled
            # one slot per element above the pivot
            ct[CT_S2L] += 1
            while True:
                if lc > 0:
                    ar[r] = ar[m]
                    r -= 1
                    ar[m] = ar[r]
                    nwa += 2
                else:
                    ar[l] = ar[m]
                    l += 1
                    if m == l:
                        nwa += 1
                        break
                    # scan from l for an element not below the pivot
                    while True:
                        if (lc := cmp3(ar[l], p)) >= 0:
                            break
                        l += 1
                        if m == l:
                            break
                    if lc < 0:
                        nwa += 1
                        break
                    if lc == 0:
                        ar[m] = ar[l]
                        nwa += 2
                    else:
                        ar[r] = ar[l]
                        r -= 1
                        ar[m] = ar[r]
                        nwa += 3
                m -= 1
                if m == l:
                    break
                while True:
                    if (lc := cmp3(ar[m], p)) != 0:
                        break
                    m -= 1
                    if m == l:
                        break
                if lc == 0:
                    break
    elif label == _MRIGHT_NOSCAN:
        m = mr
        mr -= 1
        if mr - ml <= (r - mr) // 4:
            # 3R: m moving right, equals buffered
            ct[CT_S3R] += 1
            last_exit = EXIT3R
            while True:
                if lc < 0:
                    k = m
                    if TOTAL_BODY:
                        ar[r] = p
                        m += 1
                        while ar[m] < p:
                            m += 1
                        if m != r:
                            lc = 1 if ar[m] > p else 0
                    else:
                        while True:
                            m += 1
                            if m == r:
                                break
                            if (lc := cmp3(ar[m], p)) >= 0:
                                break
                    k2 = m - 1
                    if m - k < k - l:
                        while True:
                            ar[l] = ar[k2]
                            l += 1
                            if l <= mr:
                                tar[ti] = ar[l]
                                ti += 1
                            k2 -= 1
                            if k2 < k:
                                break
                        nwa += m - k
                    else:
                        while True:
                            ar[l] = ar[k2]
                            l += 1
                            if l <= mr:
                                tar[ti] = ar[l]
                                ti += 1
                            elif l >= k:
                                l = k2
                                break
                            k2 -= 1
                        nwa += m - l
                    if m == r:
                        break
                if lc == 0:
                    tar[ti] = ar[m]
                    ti += 1
                else:
                    ar[r] = ar[m]
                    r -= 1
                    if m == r:
                        nwa += 1
                        break
                    while True:
                        if (lc := cmp3(ar[r], p)) <= 0:
                            break
                        r -= 1
                        if m == r:
                            break
                    if lc > 0:
                        nwa += 1
                        break
                    if lc == 0:
                        tar[ti] = ar[r]
                        ti += 1
                        nwa += 1
                    else:
                        ar[l] = ar[r]
                        nwa += 2
                        l += 1
                        if l <= mr:
                            tar[ti] = ar[l]
                            ti += 1
                m += 1
                if m == r:
                    break
                while True:
                    if (lc := cmp3(ar[m], p)) != 0:
                        break
                    tar[ti] = ar[m]
                    ti += 1
                    m += 1
                    if m == r:
                        break
                if lc == 0:
                    break
        else:
            # 2R: m moving right
            ct[CT_S2R] += 1
            while True:
                if lc < 0:
                    ar[l] = ar[m]
                    l += 1
                    ar[m] = ar[l]
                    nwa += 2
                else:
                    ar[r] = ar[m]
                    r -= 1
                    if m == r:
                        nwa += 1
                        break
                    while True:
                        if (lc := cmp3(ar[r], p)) <= 0:
                            break
                        r -= 1
                        if m == r:
                            break
                    if lc > 0:
                        nwa += 1
                        break
                    if lc == 0:
                        ar[m] = ar[r]
                        nwa += 2
                    else:
                        ar[l] = ar[r]
                        l += 1
                        ar[m] = ar[l]
                        nwa += 3
                m += 1
                if m == r:
                    break
                while True:
                    if (lc := cmp3(ar[m], p)) != 0:
                        break
                    m += 1
                    if m == r:
                        break
                if lc == 0:
                    break

    # ----- tail: the state-3 drain, then Exit2 -----
    if last_exit is not EXIT2:
        # buffered equals back beside the block
        if ti > ct[CT_TI_HW]:
            ct[CT_TI_HW] = ti
        nws += ti
        nwa += ti
        if last_exit is EXIT3L:
            ct[CT_EXIT3L] += 1
            while ti > 0:
                ti -= 1
                m += 1
                ar[m] = tar[ti]
        else:
            ct[CT_EXIT3R] += 1
            while ti > 0:
                ti -= 1
                m -= 1
                ar[m] = tar[ti]

    # Exit2 places the holdover and the pivot
    if label != _DONE:
        ct[CT_EXIT2] += 1
        ct[CT_CMP] += 1  # the holdover, compared a second time
        if (lc := cmp3(temp, p)) >= 0:
            ar[r] = temp
            ar[l] = p
            nwa += 2
            l -= 1
            if lc == 0:
                r += 1
        else:
            ar[l] = temp
            ar[r] = p
            nwa += 2
            r += 1

    ct[CT_WA] += nwa
    ct[CT_WS] += nws
    return l, r, last_exit


# ---------------------------------------------------------------------------
# Fast-path handlers for possibly-sorted / possibly-reversed stages.


class _SeqView:
    """A sequence seen through ``__len__``, ``__getitem__`` and
    ``__setitem__`` alone.

    ``iter()`` and ``reversed()`` of a view are Python's generic
    sequence iterators, which can be moved with ``__setstate__`` and
    tell their position through ``__length_hint__``, as a list's own
    iterators do; the sorted fast path's scans need both.  An
    ``array.array``'s iterator has no ``__length_hint__``, and a
    ``UserList`` iterates with a generator, so the fast path reads every
    sequence but a list that reads as ``list`` does through a view
    (:func:`_scannable`).
    """

    __slots__ = ("seq",)

    def __init__(self, seq):
        self.seq = seq

    def __len__(self):
        return len(self.seq)

    def __getitem__(self, i):
        return self.seq[i]

    def __setitem__(self, i, v):
        self.seq[i] = v


# what the sorted fast path's scans read a list through: their cursors
# come from len() and the list's own iterators, which bypass a
# subclass's __getitem__
_SCAN_READS = ("__len__", "__getitem__", "__iter__", "__reversed__")


def _scannable(ar):
    """``ar`` itself when it is a list whose class keeps list's
    ``_SCAN_READS``, else a ``_SeqView`` of it."""
    t = type(ar)
    if t is list or (issubclass(t, list) and all(
            getattr(t, k) is getattr(list, k) for k in _SCAN_READS)):
        return ar
    return _SeqView(ar)


def _sorted_run(n, thr, memo=None):
    """``(stages, comparisons, writes, height)`` of what ``Sorter._range``
    does to a strictly increasing range of n >= 2 elements with
    ``insertion_threshold`` thr.

    A range of at most thr elements is a leaf: n - 1 comparisons and no
    write.  A longer one is a stage: its samples are in order, so pivot
    selection compares 3, 6, 12 or 21 times, along the ladder of
    ``pivot``, writes nothing and flags +1 with the pivot at mid; the
    sorted fast path compares n - 1 times, writes the pivot back, its
    one write, and ends the stage with the sides [a..mid-1] and
    [mid+1..b], both strictly increasing, and the driver drops a side
    of one element.  The array is left as it was.  ``height`` is how
    much deeper than the range its deepest range lies.  The sizes of
    one level take at most two adjacent values, so a call memoises at
    most two a level in ``memo``, a dict of its own: no cache outlives
    the call, and the call costs the same whatever ran before it.
    """
    if n <= thr:
        return 0, n - 1, 0, 0
    if memo is None:
        memo = {}
    elif n in memo:
        return memo[n]
    if n <= MEDOF3_MAX_N:
        ncmp = 3
    elif n <= MEDOF5_MAX_N:
        ncmp = 6
    elif n <= NINTHER_MAX_N:
        ncmp = 12
    else:
        ncmp = 21
    ncmp += n - 1
    stages = 1
    height = 0
    half = (n - 1) >> 1
    for side in (half, n - 1 - half):
        if side > 1:
            s, c, _, h = _sorted_run(side, thr, memo)
            stages += s
            ncmp += c
            if h >= height:
                height = h + 1
    memo[n] = run = (stages, ncmp, stages, height)
    return run


def _sorted_side(ar, lo, hi, thr, depth, ct) -> bool:
    """Whether the side ar[lo..hi] of a stage at ``depth`` is strictly
    increasing, tested in one C pass; if it is, its subtree's counts,
    ``_sorted_run``'s, are added to ``ct`` as the driver would add them,
    its deepest range at ``depth + 1 + height``."""
    it = iter(ar)
    it.__setstate__(lo)
    it2 = iter(ar)
    it2.__setstate__(lo + 1)
    if not all(map(lt, islice(it, hi - lo), it2)):
        return False
    stages, ncmp, nwa, height = _sorted_run(hi - lo + 1, thr)
    ct[CT_CMP] += ncmp
    ct[CT_WA] += nwa
    ct[CT_STAGES] += stages
    ct[CT_HSORT] += stages
    depth += 1 + height
    if depth > ct[CT_DEPTH]:
        ct[CT_DEPTH] = depth
    return True


@compare_inline()
def _sorted_handler(ar, cmp3, a, b, mid, p, ct, depth, thr):
    """Verify left-below/right-above around the extracted pivot.

    Two verify scans run first: from a for the first element not below
    the pivot and from b for the first one not above it, each stopping
    at mid.  lc < 0 after them iff l reached mid, and rc > 0 iff r did.
    Equals around the center are then absorbed into the middle block:
    below it when ar[l] equals the pivot and ar[r] is not below it, and
    above it when ar[r] is equal and the block already reaches l.  If
    the block then spans [l..r], the stage completes with only the
    pivot restore; otherwise it drops into the main machine at the
    matching resume point with all scan progress kept.

    The scans, long by design on ordered input, iterate the elements
    themselves: ``for x in islice(it, count)`` over a list iterator
    ``it`` moved to the scan's first position with ``__setstate__``,
    ``iter(ar)`` going up and ``reversed(ar)`` going down, so a step
    holds no subscript, cursor or operand temporary, and the comparison
    stays in bytecode.  ``ar`` must be a list that iterates as ``list``
    does, or a ``_SeqView`` (see :func:`_scannable`).  Only a scan that
    stops reads its cursor back, from the count of elements the
    iterator has left: the element just compared sits at ``len(ar) -
    it.__length_hint__() - 1`` going up and at
    ``it.__length_hint__()`` going down.  A scan that runs out leaves
    its cursor at the end of its span.  The comparisons are counted
    once, from where the scans stopped.

    Three scans directly follow the value their name keeps while they go
    on (``lc = -1``, ``rc = 1``, ``lc = 0``) and leave the loop on every
    other value, so their compiled steps store nothing (see
    ``inline``); the cursor read-back sits in the leaving arm and keeps
    that so.  The scan for equals above keeps its store: after a left
    scan that reached mid, lc is -1, and a ``lc = 0`` before a scan that
    runs zero times would change the lc returned.

    ``mid`` is the stage's center, ``(a + b) >> 1``, and ``depth`` the
    stage's depth.  In the total-order body, a stage the handler ends
    with ``thr`` nonzero (the driver's insertion threshold) has each of
    its sides [a..l] and [r..b] of two or more elements tested for
    strict increase (:func:`_sorted_side`).  A side that passes has its
    whole subtree counted by law, ``_sorted_run(n, thr)``'s stages,
    comparisons, writes and a depth of ``depth + 1 + height``, inside
    this call, and its bound collapsed to ``a - 1`` (``b + 1``), so the
    driver drops it.  With ``thr`` 0, as the public ``handlers`` API and
    a driver with a stage hook pass it, and on the other bodies, no side
    is tested.

    Returns ``(label, l, r, ml, mr, m, lc, holdover)``: the resume label
    and the machine's entry state, or _DONE with the stage's new bounds
    in l and r.
    """
    it = iter(ar)
    it.__setstate__(a)
    lc = -1
    for x in islice(it, mid - a):
        if (lc := cmp3(x, p)) >= 0:
            l = len(ar) - it.__length_hint__() - 1
            break
    else:
        l = mid
    it = reversed(ar)
    it.__setstate__(b)
    rc = 1
    for x in islice(it, b - mid):
        if (rc := cmp3(x, p)) <= 0:
            r = it.__length_hint__()
            break
    else:
        r = mid
    ncmp = l - a + (lc >= 0) + b - r + (rc <= 0)
    ml = mr = mid
    if lc == 0 and rc >= 0:
        # equals bordering the block from below; lc is 0 already, and
        # saying so lets the compiled scan skip its store of 0
        it = reversed(ar)
        it.__setstate__(mid - 1)
        lc = 0
        for x in islice(it, mid - 1 - l):
            if (lc := cmp3(x, p)) != 0:
                ml = it.__length_hint__()
                break
        else:
            ml = l
        ncmp += mid - 1 - ml + (ml != l)
    if rc == 0 and ml == l:
        # equals bordering the block from above
        it = iter(ar)
        it.__setstate__(mid + 1)
        for x in islice(it, r - mid - 1):
            if (lc := cmp3(x, p)) != 0:
                mr = len(ar) - it.__length_hint__() - 1
                break
        else:
            mr = r
        ncmp += mr - mid - 1 + (mr != r)

    hold = None
    if ml == l and mr == r:
        # [l..r] holds only the pivot's equals
        ar[mid] = p
        ct[CT_WA] += 1
        l -= 1
        r += 1
        out = _DONE
        if TOTAL_BODY and thr:
            # a strictly increasing side is counted by law and dropped
            if l > a and _sorted_side(ar, a, l, thr, depth, ct):
                l = a - 1
            if r < b and _sorted_side(ar, r, b, thr, depth, ct):
                r = b + 1
    else:
        if l == mid:
            # left half below the pivot, ar[r] not above it
            hold = ar[r]
            if mr == mid:
                lc = rc
                out = _MRIGHT
            else:
                out = _MRIGHT_NOSCAN
        elif r == mid:
            # right half above the pivot, ar[l] not below it
            hold = ar[l]
            if ml == mid:
                out = _MLEFT
            else:
                out = _MLEFT_NOSCAN
        elif ml < mid:
            # equals at both cursors: ar[r] takes the center hole
            hold = ar[l]
            ar[mid] = ar[r]
            ct[CT_WA] += 1
            out = _MRIGHT_NOSCAN if ml == l else _ML1_2
        elif lc == 0:
            # ar[l] equal to the pivot, ar[r] below it
            hold = ar[l]
            lc = rc
            out = _R1_3
        else:
            # ar[l] above the pivot, ar[r] not: a mismatched pair
            hold = ar[r]
            lc = rc
            out = _L1_2
        ct[CT_WS] += 1

    ct[CT_CMP] += ncmp
    return out, l, r, ml, mr, mid, lc, hold


@compare_inline()
def _reversed_handler(ar, cmp3, a, b, mid, p, ct, tol):
    """Swap outermost pairs inward while both sides look reversed.

    Misplaced elements that already sit on their final side are skipped
    and counted against ``tol``; exceeding it falls back into the main
    machine with progress kept.  The swap loop ends in one of four
    phases, each written once:

    * equals below: ar[l] equals the pivot; the block grows down from
      mid over equals, falling back at _R1 on a non-equal, or reaching
      l, which leaves the left side settled;
    * equals above: ar[r] equals the pivot and ar[l] is above it; the
      block grows up from mid, falling back at _MR1_2 on a non-equal,
      or reaching r, which leaves the right side settled;
    * left settled (ml == l): [a..l) is below the pivot and [l..mid)
      equal to it (empty once l reached mid); the block grows up over
      equals and r scans down over elements above, until the two meet
      (the stage ends) or both stop (fall back at _MRIGHT_NOSCAN);
    * right settled (mr == r), its mirror without the scan from l: the
      stage ends when the block reaches l, else it falls back at
      _MLEFT_NOSCAN.

    ml == l and mr == r mark the settled sides, so a cursor that reached
    mid settles its side with an empty block.  In the settled phases
    only two write patterns depend on whether that block is empty
    (l == mid, r == mid) or holds equals.  Comparisons are counted per
    step: the right-settled phase reuses the swap loop's comparison of
    ar[l] (``lc = 1``), so no law over the cursors, like the machine's,
    holds for every stage.

    Returns ``(label, l, r, ml, mr, m, lc, holdover)`` as the sorted
    handler does.  Once a fallback, or the swap loop's bypass, sets the
    label, no later phase runs: each one's test fails on the cursors
    left.
    """
    ncmp = 0
    nwa = 0
    nws = 0
    l = a
    r = b
    m = ml = mr = mid
    hold = None
    rc = 1
    cl = 1
    cr = 1

    # ----- swap loop: lc, rc hold the comparisons of ar[l], ar[r] -----
    while True:
        ncmp += 1
        if (lc := cmp3(ar[l], p)) <= 0:
            if lc == 0:
                break
            # left element already on its final side
            l += 1
            if l == mid:
                break
            if cl > tol:
                # back to the standard initialization, progress kept
                out = _PRESCAN
                break
            cl += 1
            continue
        ncmp += 1
        if (rc := cmp3(ar[r], p)) >= 0:
            if rc == 0:
                break
            # right elements already on their final side
            while True:
                r -= 1
                if r == mid:
                    break
                if cr > tol:
                    hold = ar[l]
                    nws += 1
                    out = _R1
                    break
                cr += 1
                ncmp += 1
                if (rc := cmp3(ar[r], p)) <= 0:
                    break
            if rc >= 0:
                break
        t2 = ar[l]
        ar[l] = ar[r]
        ar[r] = t2
        nws += 1
        nwa += 2
        if l + 2 == r:
            ar[mid] = p
            nwa += 1
            out = _DONE
            break
        l += 1
        r -= 1
        if l == mid or r == mid:
            break

    if lc == 0:
        # ----- equals below: absorb equals below the center -----
        while True:
            ml -= 1
            if ml == l:
                break
            ncmp += 1
            if cmp3(ar[ml], p) != 0:
                break
        if ml != l:
            ar[mid] = ar[l]
            nwa += 1
            hold = ar[ml]
            nws += 1
            m = ml
            out = _R1
    elif rc == 0:
        # ----- equals above: absorb equals above the center -----
        while True:
            mr += 1
            if mr == r:
                break
            ncmp += 1
            if (lc := cmp3(ar[mr], p)) != 0:
                break
        if mr != r:
            hold = ar[l]
            nws += 1
            ar[mid] = ar[r]
            nwa += 1
            out = _MR1_2

    if ml == l:
        # ----- left settled: grow the block up, scan r down -----
        while True:
            mr += 1
            ncmp += 1
            if (lc := cmp3(ar[mr], p)) != 0:
                break
            if mr == r:
                break
        if mr != r:
            while True:
                ncmp += 1
                if cmp3(ar[r], p) <= 0:
                    break
                r -= 1
                if mr == r:
                    break
        if mr == r:
            # the cursors met; lc holds ar[r]'s comparison
            if lc < 0:
                if l < mid:
                    t2 = ar[r]
                    nws += 1
                    ar[r] = ar[l]
                    nwa += 1
                    ar[l] = t2
                    nwa += 1
                    ar[mid] = p
                    nwa += 1
                else:
                    ar[l] = ar[r]
                    nwa += 1
                    ar[r] = p
                    nwa += 1
                r += 1
            else:
                ar[mid] = p
                nwa += 1
                l -= 1
                if lc == 0:
                    r += 1
            out = _DONE
        else:
            hold = ar[r]
            nws += 1
            if l < mid:
                ar[mid] = ar[l]
                nwa += 1
            out = _MRIGHT_NOSCAN
    elif mr == r:
        # ----- right settled: grow the block down to l -----
        # rc < 0 iff a swap just put an uncompared element at l
        while True:
            ml -= 1
            if ml == l and rc >= 0:
                lc = 1  # ar[l] compared above the pivot already
                break
            ncmp += 1
            if (lc := cmp3(ar[ml], p)) != 0:
                break
            if ml == l:
                break
        if ml == l:
            # the block reached l; lc holds ar[l]'s comparison
            if lc > 0:
                if r > mid:
                    t2 = ar[l]
                    nws += 1
                    ar[l] = ar[r]
                    nwa += 1
                    ar[r] = t2
                    nwa += 1
                    ar[mid] = p
                    nwa += 1
                else:
                    ar[mid] = ar[l]
                    nwa += 1
                    ar[l] = p
                    nwa += 1
                l -= 1
            else:
                ar[mid] = p
                nwa += 1
                if lc == 0:
                    l -= 1
                r += 1
            out = _DONE
        else:
            if r > mid:
                ar[mid] = ar[r]
                nwa += 1
            hold = ar[l]
            nws += 1
            out = _MLEFT_NOSCAN

    ct[CT_CMP] += ncmp
    ct[CT_WA] += nwa
    ct[CT_WS] += nws
    return out, l, r, ml, mr, m, lc, hold


# ---------------------------------------------------------------------------
# Driver.


class Sorter:
    """A sorter instance: config, mitigation generator, retained buffer.

    One instance must not be used from two threads at once (the equals
    buffer is per-instance state); distinct instances are independent.
    The buffer is kept after a sort so later calls reuse it; call
    :meth:`free_temp_storage` to release it explicitly.

    A sort runs :meth:`_range`, the explicit-stack driver, and
    :meth:`_fill_stats` turns its counter vector into ``SortStats``,
    adding the pivot extractions' writes, one per stage, by law.

    Any mutable sequence sorts.  A list whose class keeps list's
    ``__len__``, ``__getitem__``, ``__iter__`` and ``__reversed__`` is
    handed to every layer as it is; any other sequence
    (``array.array``, ``UserList``, a list subclass that reads
    otherwise, a bare sequence) reaches the sorted fast path through a
    ``_SeqView``, whose iterators its scans can move and read back, and
    every other layer as it is.
    """

    def __init__(self, config: SortConfig | None = None,
                 seed: int | None = None):
        self.config = config if config is not None else DEFAULT_CONFIG
        self.rng = MitigationRng(seed)
        self.temp = TempStore()
        self.stage_hook = None
        self._active = False

    # -- public API --

    def sort(self, ar, cmp=None, element_size: int | None = None) -> None:
        self.sort_with_stats(ar, cmp, element_size)

    def sort_with_stats(self, ar, cmp=None,
                        element_size: int | None = None) -> SortStats:
        """Sort ``ar`` in place; returns the run's counters.

        Raises ValueError, as ``list.sort`` does, when the comparator
        changed the list's length: a shorter list shows in the middle of
        a stage, as an IndexError or as a ValueError from a sorted-path
        scan whose span it cut short, a longer one only at the end.

        With the default comparator, a list of exact ints or of exact
        strs (one pass over the element types) is sorted with
        ``_total_cmp3``, which selects the total-order bodies of the
        compiled layers; every count is the one the inline bodies give.
        """
        if self._active:
            raise RuntimeError("sorter instance is not reentrant")
        cmp3 = cmp if cmp is not None else _default_cmp3
        n = len(ar)
        stats = SortStats()
        if n > 1:
            if element_size is not None and element_size >= LATE_SWAP_BYTES:
                return sort_large_elements(ar, cmp3, self)
            if cmp3 is _default_cmp3 and _total_order(ar):
                cmp3 = _total_cmp3
            self.temp.ensure((n + 1) // 2)
            self._active = True
            try:
                self.rng.next()
                ct = [0] * CT_LEN
                try:
                    self._range(ar, cmp3, 0, n - 1, 1, self.temp.buf, ct)
                except (IndexError, ValueError) as exc:
                    if len(ar) != n:
                        raise ValueError("list modified during sort") from exc
                    raise
                if len(ar) != n:
                    raise ValueError("list modified during sort")
                self._fill_stats(stats, ct)
            finally:
                self._active = False
        return stats

    def free_temp_storage(self) -> None:
        """Release the retained equals buffer; the next sort reallocates."""
        if self._active:
            raise RuntimeError("cannot free temp storage during a sort")
        self.temp.release()

    # -- internals --

    def _fill_stats(self, stats: SortStats, ct) -> None:
        # each stage's pivot extraction writes the held-out slot once
        scratch = ct[CT_WS] + ct[CT_STAGES]
        stats.comparisons = ct[CT_CMP]
        stats.array_writes = ct[CT_WA]
        stats.scratch_writes = scratch
        stats.element_writes = ct[CT_WA] + scratch
        stats.temp_high_water = ct[CT_TI_HW]
        stats.max_depth = ct[CT_DEPTH]
        stats.stages = ct[CT_STAGES]
        stats.state_activations = {
            S1: ct[CT_S1], S2L: ct[CT_S2L], S2R: ct[CT_S2R],
            S3L: ct[CT_S3L], S3R: ct[CT_S3R], EXIT2: ct[CT_EXIT2],
            EXIT3L: ct[CT_EXIT3L], EXIT3R: ct[CT_EXIT3R],
        }
        stats.handler_activations = {
            "sorted": ct[CT_HSORT],
            "reversed": ct[CT_HREV],
            "fallbacks": ct[CT_HFALL],
        }

    def _range(self, ar, cmp3, a, b, depth, tar, ct) -> None:
        """Sort ar[a..b], whose depth is ``depth``, with an explicit stack.

        The outer loop pops a range off ``pending``, which starts with
        ar[a..b], and the inner loop runs its stages.  After a stage the
        inner loop goes on with the smaller side and pushes the larger
        one, ``(a, b, depth)``, on ``pending``; a side of at most one
        element is dropped, as is one the sorted fast path has counted by
        law and collapsed (see ``_sorted_handler``), and a range of at most
        ``insertion_threshold`` elements is a leaf, sorted in place.  The
        smaller side of a range holds at most half of it, so ``pending``
        never holds more than floor(log2 n) ranges, and the stages run in
        the order a recursion into the smaller side would run them.  A
        popped range never deepens ``max_depth``: its sibling, at the
        same depth, ran first.  The tallies reach ``ct`` once, at the
        end.
        """
        cfg = self.config
        thr = cfg.insertion_threshold
        tol = cfg.reverse_tolerance
        rng = self.rng
        hook = self.stage_hook
        # a hook sees every stage, so with one set the sorted fast path
        # counts no strictly increasing side by law
        sthr = thr if hook is None else 0
        sar = _scannable(ar)
        # every leaf but the leftmost has a left neighbour at most its
        # every element, which the insertion sort may scan onto
        first = a
        pending = [(a, b, depth)]
        maxd = depth
        stages = nsort = nrev = nfall = ns1 = 0
        while pending:
            a, b, depth = pending.pop()
            while b - a >= thr:
                stages += 1
                if hook is not None:
                    cmp0 = ct[CT_CMP]
                    writes0 = ct[CT_WA] + ct[CT_WS]
                p, _, flag = select_pivot(ar, a, b, cfg, rng, cmp3, ct)
                mid = (a + b) >> 1
                if flag == 0:
                    label = _PRESCAN
                    ns1 += 1
                    new_l, new_r, last_exit = _run_machine(
                        ar, cmp3, mid, p, label, a, b, mid, mid, mid, 0, None,
                        tar, ct)
                else:
                    if flag > 0:
                        nsort += 1
                        label, l, r, ml, mr, m, lc, hold = _sorted_handler(
                            sar, cmp3, a, b, mid, p, ct, depth, sthr)
                    else:
                        nrev += 1
                        label, l, r, ml, mr, m, lc, hold = _reversed_handler(
                            ar, cmp3, a, b, mid, p, ct, tol)
                    if label == _DONE:
                        new_l = l
                        new_r = r
                        last_exit = None
                    else:
                        nfall += 1
                        if label <= _MR1_2:
                            ns1 += 1
                        new_l, new_r, last_exit = _run_machine(
                            ar, cmp3, mid, p, label, l, r, ml, mr, m, lc, hold,
                            tar, ct)
                if hook is not None:
                    hook(StageRecord(
                        a, b, p, flag,
                        None if label == _DONE else _LABEL_NAMES[label],
                        last_exit, new_l, new_r, ct[CT_CMP] - cmp0,
                        ct[CT_WA] + ct[CT_WS] - writes0 + 1))
                # go on with the smaller side (the left one on a tie), push
                # the larger; the sides are ar[a..new_l] and ar[new_r..b]
                depth += 1
                if new_l - a <= b - new_r:
                    if new_l > a:
                        if new_r < b:
                            pending.append((new_r, b, depth))
                        b = new_l
                    elif new_r < b:
                        a = new_r
                    else:
                        break
                elif new_r < b:
                    pending.append((a, new_l, depth))
                    a = new_r
                elif new_l > a:
                    b = new_l
                else:
                    break
                if depth > maxd:
                    maxd = depth
            else:
                insertion_sort(ar, a, b, cmp3, ct, a > first)
        ct[CT_STAGES] += stages
        ct[CT_DEPTH] = max(ct[CT_DEPTH], maxd)
        ct[CT_HSORT] += nsort
        ct[CT_HREV] += nrev
        ct[CT_HFALL] += nfall
        ct[CT_S1] += ns1


# ---------------------------------------------------------------------------
# Module-level convenience API around a default retained instance.

default_sorter = Sorter()
# held while a module-level call uses default_sorter
_default_lock = threading.Lock()


def sort(ar, cmp=None, config: SortConfig | None = None,
         element_size: int | None = None) -> SortStats:
    """Sort in place with the module's default sorter instance.

    A call runs on a one-off sorter instead when its ``config`` differs
    from the default sorter's, so the override never carries over into
    later calls, or when the default sorter is busy with a call from
    another thread (or from inside a comparator), so concurrent calls
    never share its buffer.
    """
    if config is None or config == default_sorter.config:
        if _default_lock.acquire(blocking=False):
            try:
                return default_sorter.sort_with_stats(ar, cmp, element_size)
            finally:
                _default_lock.release()
        config = default_sorter.config
    return Sorter(config).sort_with_stats(ar, cmp, element_size)


def sort_with_stats(ar, cmp=None, config: SortConfig | None = None,
                    element_size: int | None = None) -> SortStats:
    return sort(ar, cmp, config, element_size)


def free_temp_storage() -> None:
    """Release the default sorter's retained buffer.

    Raises RuntimeError while a module-level call is using it.
    """
    if not _default_lock.acquire(blocking=False):
        raise RuntimeError("cannot free temp storage during a sort")
    try:
        default_sorter.free_temp_storage()
    finally:
        _default_lock.release()
