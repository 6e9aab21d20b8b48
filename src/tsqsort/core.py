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

``Sorter._range`` is one loop over an explicit stack of pending ranges:
after a stage it goes on with the smaller side and pushes the larger,
so the stack holds at most floor(log2 n) ranges however deep the stages
nest, and ranges of at most ``insertion_threshold`` elements are leaves
it insertion-sorts in the same loop.  Its own tallies (stages, depth,
fast-path activations, fallbacks, state-1 entries) live in locals and
reach the counter vector once per sort; the pivot extraction's write,
one per stage, is counted by law, from the stage count, in
``Sorter._fill_stats``.  It calls every layer (pivot selection, the
insertion sort, both handlers, the machine) through this module's
globals, so a wrapper set on one of them sees every call.

The machine runs a stage as one forward pass of phases: the pre-scan,
the state-1 cycle, the closing scan and state choice, one of states
2L/2R/3L/3R, the state-3 drain and Exit2.  State 1 is a single
straight-line cycle, left scan, place, right scan, place, that reads no
label; a prologue before it makes the placement an entry or an equal
left pending, and an equals detour after it stores the equal and grows
the block over the equals beyond it.  Each of 2L/2R/3L/3R is a local
loop over its scan steps.  Labels remain only as entry points into the
pass: the pre-scan and the fast-path handlers' resume points, where
they fall back mid-stage.  Every run of the machine ends the stage it
enters.

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
"""

from __future__ import annotations

import threading

from .config import DEFAULT_CONFIG, SortConfig
from .inline import _default_cmp3, compare_inline
from .instrument import StageRecord
from .pivot import MitigationRng, select_pivot
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


# Machine labels, in the order of the machine's phases: the pre-scan,
# the state-1 cycle, the closing scan and state choice, states
# 2L/2R/3L/3R, the state-3 drains and Exit2.  The machine is entered at
# the pre-scan or at a fast-path handler's resume point; the other
# labels are points it passes on its way to _DONE.  The *_2 labels (and
# _R1_3) are post-comparison points: the element under the relevant
# cursor is compared already, above the pivot at _L1_2, below it at
# _R1_3, and with lc holding the result at the others.  _L1 and _R1
# come first among the state-1 labels: state 1 enters them with a
# scan, the others with a placement.  A stage entered at a label up to
# _MR1_2 runs state 1.
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
_M2L = 11
_M2L_2 = 12
_M2R = 13
_M2R_2 = 14
_M3L = 15
_M3L_2 = 16
_M3R = 17
_M3R_2 = 18
_EXIT3L = 19
_EXIT3R = 20
_EXIT2 = 21
_DONE = 22

_LABEL_NAMES = {
    _PRESCAN: "prescan", _L1: "l_scan1", _R1: "r_scan1",
    _L1_2: "l_scan1_2", _R1_3: "r_scan1_3", _ML1_2: "ml_scan1_2",
    _MR1_2: "mr_scan1_2", _MLEFT: "mleft", _MRIGHT: "mright",
    _MLEFT_NOSCAN: "mleft_noscan", _MRIGHT_NOSCAN: "mright_noscan",
    _M2L: "m_scan2L", _M2L_2: "m_scan2L_2", _M2R: "m_scan2R",
    _M2R_2: "m_scan2R_2", _M3L: "m_scan3L", _M3L_2: "m_scan3L_2",
    _M3R: "m_scan3R", _M3R_2: "m_scan3R_2",
    _EXIT3L: "exit3L", _EXIT3R: "exit3R", _EXIT2: "exit2", _DONE: "done",
}

# Per entry label, the elements of [l..r] outside [ml..mr] compared at
# entry: the holdover's but at _PRESCAN, and the cursor's at *_2, _R1_3.
_PRECOMPARED = (0,) + (1,) * 2 + (2,) * 4 + (1,) * 4 + (1, 2) * 4

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
    Exit2.  Each phase is entered at the label passed in or at the one
    the phase before it ends on.  Only state 1 loops over more than one
    scan's code: its prologue, cycle and equals detour.

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
    on an element not below the pivot, adds 1 there.  In states 3L/3R a
    run copy writes its length, added after the copy (``k - m`` or
    ``r - m`` in 3L, ``m - k`` or ``m - l`` in 3R).  Every buffered
    equal is pushed once and drained back once, so the drain adds
    ``ti`` to both the scratch and the array writes.  The other writes,
    a placement each, count one by one.
    """
    ct[CT_CMP] += r - l - (mr - ml) - _PRECOMPARED[label]
    nwa = 0
    nws = 0
    ti = 0
    last_exit = EXIT2

    # ----- pre-scan from the right, for the holdover -----
    if label == _PRESCAN:
        while True:
            if (lc := cmp3(ar[r], p)) <= 0:
                break
            r -= 1
            if r == mid:
                break
        if lc <= 0:
            temp = ar[r]
            nws += 1
            label = _L1
        else:
            # Collapsed onto mid: everything above mid exceeds the
            # pivot.  Scan from the left for the first element not
            # below the pivot; if none, the pivot drops straight into
            # the hole.  Otherwise hold that element out and continue
            # as a closed-right-side stage with an empty middle block.
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
    if _L1 <= label <= _MR1_2:
        # from here lc > 0 iff the right scan comes next, after the
        # pending placement into the hole at r if there is one
        if label == _L1:
            lc = -1
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
            if lc < 0:
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

    # ----- closing scan and state choice: one side closed -----
    if _MLEFT <= label <= _MRIGHT_NOSCAN:
        if label == _MLEFT:
            # Right side closed; absorb equals adjoining the block's
            # left edge.
            label = _MLEFT_NOSCAN
            while True:
                ml -= 1
                if ml == l:
                    label = _EXIT2
                    break
                if (lc := cmp3(ar[ml], p)) != 0:
                    break
        elif label == _MRIGHT:
            label = _MRIGHT_NOSCAN
            while True:
                mr += 1
                if mr == r:
                    label = _EXIT2
                    break
                if (lc := cmp3(ar[mr], p)) != 0:
                    break
        # ml (mr) sits on the first non-equal below (above) the block
        # with its lc set, by the scan above or by a fast-path handler
        if label == _MLEFT_NOSCAN:
            m = ml
            ml += 1
            if mr - ml <= (ml - l) // 4:
                ct[CT_S3L] += 1
                label = _M3L_2
            else:
                ct[CT_S2L] += 1
                label = _M2L_2
        elif label == _MRIGHT_NOSCAN:
            m = mr
            mr -= 1
            if mr - ml <= (r - mr) // 4:
                ct[CT_S3R] += 1
                label = _M3R_2
            else:
                ct[CT_S2R] += 1
                label = _M2R_2

    # ----- states 2L/2R/3L/3R: one side closed, m scanning -----
    # Each runs as its own loop.  _M* scans equals at m, _M*_2 acts on
    # the non-equal at m; every path that meets m == l (2L/3L) or
    # m == r (2R/3R) exits.
    if _M2L <= label <= _M3R_2:
        if label <= _M2L_2:
            # 2L: m moving left, equals left in place, the block rolled
            # one slot per element above the pivot
            while True:
                if label == _M2L:
                    while True:
                        if (lc := cmp3(ar[m], p)) != 0:
                            break
                        m -= 1
                        if m == l:
                            break
                    if lc == 0:
                        break
                if lc > 0:
                    ar[r] = ar[m]
                    nwa += 1
                    r -= 1
                    ar[m] = ar[r]
                    nwa += 1
                    m -= 1
                    if m == l:
                        break
                    label = _M2L
                    continue
                ar[l] = ar[m]
                nwa += 1
                l += 1
                if m == l:
                    break
                # scan from l for an element not below the pivot
                while True:
                    if (lc := cmp3(ar[l], p)) >= 0:
                        break
                    l += 1
                    if m == l:
                        break
                if lc < 0:
                    break
                if lc == 0:
                    ar[m] = ar[l]
                    nwa += 1
                else:
                    ar[r] = ar[l]
                    nwa += 1
                    r -= 1
                    ar[m] = ar[r]
                    nwa += 1
                m -= 1
                if m == l:
                    break
                label = _M2L
            label = _EXIT2

        elif label <= _M2R_2:
            # 2R: m moving right
            while True:
                if label == _M2R:
                    while True:
                        if (lc := cmp3(ar[m], p)) != 0:
                            break
                        m += 1
                        if m == r:
                            break
                    if lc == 0:
                        break
                if lc < 0:
                    ar[l] = ar[m]
                    nwa += 1
                    l += 1
                    ar[m] = ar[l]
                    nwa += 1
                    m += 1
                    if m == r:
                        break
                    label = _M2R
                    continue
                ar[r] = ar[m]
                nwa += 1
                r -= 1
                if m == r:
                    break
                while True:
                    if (lc := cmp3(ar[r], p)) <= 0:
                        break
                    r -= 1
                    if m == r:
                        break
                if lc > 0:
                    break
                if lc == 0:
                    ar[m] = ar[r]
                    nwa += 1
                else:
                    ar[l] = ar[r]
                    nwa += 1
                    l += 1
                    ar[m] = ar[l]
                    nwa += 1
                m += 1
                if m == r:
                    break
                label = _M2R
            label = _EXIT2

        elif label <= _M3L_2:
            # 3L: as 2L, but equals go to the buffer and a run of
            # elements above the pivot is block-copied into the gap
            # descending from r
            while True:
                if label == _M3L:
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
                if lc > 0:
                    # collect the run of > pivot elements below m
                    k = m
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
                        tar[ti] = ar[m]
                        ti += 1
                        m -= 1
                        if m == l:
                            break
                        label = _M3L
                        continue
                ar[l] = ar[m]
                nwa += 1
                l += 1
                if m == l:
                    break
                while True:
                    if (lc := cmp3(ar[l], p)) >= 0:
                        break
                    l += 1
                    if m == l:
                        break
                if lc < 0:
                    break
                if lc == 0:
                    tar[ti] = ar[l]
                    ti += 1
                else:
                    ar[r] = ar[l]
                    nwa += 1
                    r -= 1
                    if r >= ml:
                        tar[ti] = ar[r]
                        ti += 1
                m -= 1
                if m == l:
                    break
                label = _M3L
            label = _EXIT3L

        else:
            # 3R: m moving right, equals buffered
            while True:
                if label == _M3R:
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
                if lc < 0:
                    k = m
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
                        m += 1
                        if m == r:
                            break
                        label = _M3R
                        continue
                ar[r] = ar[m]
                nwa += 1
                r -= 1
                if m == r:
                    break
                while True:
                    if (lc := cmp3(ar[r], p)) <= 0:
                        break
                    r -= 1
                    if m == r:
                        break
                if lc > 0:
                    break
                if lc == 0:
                    tar[ti] = ar[r]
                    ti += 1
                else:
                    ar[l] = ar[r]
                    nwa += 1
                    l += 1
                    if l <= mr:
                        tar[ti] = ar[l]
                        ti += 1
                m += 1
                if m == r:
                    break
                label = _M3R
            label = _EXIT3R

    # ----- state-3 drain: buffered equals back beside the block -----
    if _EXIT3L <= label <= _EXIT3R:
        if ti > ct[CT_TI_HW]:
            ct[CT_TI_HW] = ti
        nws += ti
        nwa += ti
        if label == _EXIT3L:
            ct[CT_EXIT3L] += 1
            last_exit = EXIT3L
            while ti > 0:
                ti -= 1
                m += 1
                ar[m] = tar[ti]
        else:
            ct[CT_EXIT3R] += 1
            last_exit = EXIT3R
            while ti > 0:
                ti -= 1
                m -= 1
                ar[m] = tar[ti]
        label = _EXIT2

    # ----- Exit2: place the holdover and the pivot -----
    if label == _EXIT2:
        ct[CT_EXIT2] += 1
        ct[CT_CMP] += 1  # the holdover, compared a second time
        if (lc := cmp3(temp, p)) >= 0:
            ar[r] = temp
            nwa += 1
            ar[l] = p
            nwa += 1
            l -= 1
            if lc == 0:
                r += 1
        else:
            ar[l] = temp
            nwa += 1
            ar[r] = p
            nwa += 1
            r += 1

    ct[CT_WA] += nwa
    ct[CT_WS] += nws
    return l, r, last_exit


# ---------------------------------------------------------------------------
# Fast-path handlers for possibly-sorted / possibly-reversed stages.


@compare_inline()
def _sorted_handler(ar, cmp3, a, b, p, ct):
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

    The scans are index loops, long by design on ordered input, whose
    comparisons are counted once, from where they stopped.  Three of
    them directly follow the value their name keeps while they go on
    (``lc = -1``, ``rc = 1``, ``lc = 0``), so their compiled steps store
    nothing (see ``inline``).  The scan for equals above keeps its
    store: after a left scan that reached mid, lc is -1, and a ``lc =
    0`` before a scan that runs zero times would change the lc
    returned.  Returns
    ``(label, l, r, ml, mr, m, lc, holdover)``: the resume label and the
    machine's entry state, or _DONE with the stage's new bounds in l
    and r.
    """
    mid = (a + b) >> 1
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
        # equals bordering the block from below; lc is 0 already, and
        # saying so lets the compiled scan skip its store of 0
        lc = 0
        for ml in range(mid - 1, l, -1):
            if (lc := cmp3(ar[ml], p)) != 0:
                break
        else:
            ml = l
        ncmp += mid - 1 - ml + (ml != l)
    if rc == 0 and ml == l:
        # equals bordering the block from above
        for mr in range(mid + 1, r):
            if (lc := cmp3(ar[mr], p)) != 0:
                break
        else:
            mr = r
        ncmp += mr - mid - 1 + (mr != r)

    hold = None
    if ml == l and mr == r:
        # [l..r] holds only the pivot's equals
        ar[mid] = p
        nwa += 1
        l -= 1
        r += 1
        out = _DONE
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
            nwa += 1
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
    ct[CT_WA] += nwa
    return out, l, r, ml, mr, mid, lc, hold


@compare_inline()
def _reversed_handler(ar, cmp3, a, b, p, ct, tol):
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
    mid = (a + b) >> 1
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
        while True:
            ncmp += 1
            if (rc := cmp3(ar[r], p)) <= 0:
                break
            # right element already on its final side
            r -= 1
            if r == mid:
                break
            if cr > tol:
                hold = ar[l]
                nws += 1
                out = _R1
                break
            cr += 1
        if rc >= 0:
            break
        t2 = ar[l]
        nws += 1
        ar[l] = ar[r]
        nwa += 1
        ar[r] = t2
        nwa += 1
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
        changed the list's length: a shorter list shows as an IndexError
        in the middle of a stage, a longer one only at the end.
        """
        if self._active:
            raise RuntimeError("sorter instance is not reentrant")
        cmp3 = cmp if cmp is not None else _default_cmp3
        n = len(ar)
        stats = SortStats()
        if n > 1:
            if element_size is not None and \
                    element_size >= self.config.late_swap_byte_threshold:
                from .bigelem import sort_large_elements
                return sort_large_elements(ar, cmp3, self)
            self.temp.ensure((n + 1) // 2)
            self._active = True
            try:
                self.rng.next()
                ct = [0] * CT_LEN
                try:
                    self._range(ar, cmp3, 0, n - 1, 1, self.temp.buf, ct)
                except IndexError as exc:
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

        After a stage the loop goes on with the smaller side and pushes
        the larger one, ``(a, b, depth)``, on ``pending``; a side of at
        most one element is dropped, and a range of at most
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
        pending = []
        maxd = depth
        stages = nsort = nrev = nfall = ns1 = 0
        while True:
            if b - a < thr:
                insertion_sort(ar, a, b, cmp3, ct)
                if not pending:
                    break
                a, b, depth = pending.pop()
                continue
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
                        ar, cmp3, a, b, p, ct)
                else:
                    nrev += 1
                    label, l, r, ml, mr, m, lc, hold = _reversed_handler(
                        ar, cmp3, a, b, p, ct, tol)
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
                elif pending:
                    a, b, depth = pending.pop()
                    continue
                else:
                    break
            elif new_r < b:
                pending.append((a, new_l, depth))
                a = new_r
            elif new_l > a:
                b = new_l
            elif pending:
                a, b, depth = pending.pop()
                continue
            else:
                break
            if depth > maxd:
                maxd = depth
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
