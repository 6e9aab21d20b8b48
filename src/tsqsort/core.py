"""Triple-state quicksort: recursion driver and the partition machine.

One recursive stage keeps two elements outside the array (the pivot and
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
recursion never revisits pivot-equal elements.  Pivot selection returns
an order flag; flagged stages first try the possibly-sorted or
possibly-reversed fast paths, falling back into the machine mid-stage
with their scan progress kept.

The machine runs a stage as one forward pass of phases: the pre-scan,
the state-1 cycle, the closing scan and state choice, one of states
2L/2R/3L/3R, the state-3 drain and Exit2.  State 1 is a single loop of
alternating left and right scans that also stores equals and grows the
block over them; each of 2L/2R/3L/3R is a local loop over its scan
steps.  Labels remain only as entry points into the pass: the
fast-path handlers' resume points, where they fall back mid-stage, and
the contract entry points' starts and stops at phase boundaries.

``Sorter.stage_hook``, when set, is called once per partition stage,
after the partition and before the recursion, with an
``instrument.StageRecord``; unset, it costs one test per stage.

The machine, both fast-path handlers, the pivot medians and the
insertion sort are decorated with ``inline.compare_inline``: an ``ast``
transformer compiles them once more from their own source with every
``cmp3(x, y)`` call inlined, and that variant runs whenever the
comparator is the default one.
"""

from __future__ import annotations

import threading

from .config import DEFAULT_CONFIG, SortConfig
from .inline import _default_cmp3, compare_inline
from .instrument import StageRecord
from .pivot import MitigationRng, PivotDecision, select_pivot
from .smallsort import insertion_sort
from .stats import (EXIT2, EXIT3L, EXIT3R, S1, S2L, S2R, S3L, S3R, SortStats)

__all__ = [
    "PartitionFrame", "TempStore", "TempAllocationError", "Sorter",
    "sort", "sort_with_stats", "free_temp_storage", "default_sorter",
    "init_stage", "run_state1", "choose_next_state", "run_state2",
    "run_state3", "copy_back",
]


class TempAllocationError(MemoryError):
    """The ceil(n/2) temporary buffer could not be allocated."""


class PartitionFrame:
    """Index set and held-out elements for one recursive stage."""

    __slots__ = ("a", "b", "mid", "pi", "l", "r", "ml", "mr", "m", "lc",
                 "pivot", "holdover", "new_l", "new_r", "entry", "last_exit")

    def __init__(self, a=0, b=-1, pi=None, pivot=None):
        self.a = a
        self.b = b
        self.mid = (a + b) >> 1
        self.pi = self.mid if pi is None else pi
        self.l = a
        self.r = b
        self.ml = self.mr = self.m = self.mid
        self.lc = 0
        self.pivot = pivot
        self.holdover = None
        self.new_l = a - 1
        self.new_r = b + 1
        self.entry = None
        self.last_exit = None


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
# 2L/2R/3L/3R, the state-3 drains and Exit2.  Each is a point the
# machine can be entered at: a fast-path handler's resume point, a
# contract entry or stop, an exit, or _DONE.  The *_2 labels (and
# _R1_3) are post-comparison points: the element under the relevant
# cursor is compared already, above the pivot at _L1_2, below it at
# _R1_3, and with lc holding the result at the others.  _L1 and _R1
# come first among the state-1 labels: the cycle enters them with a
# scan, the others with a placement.
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

_STATE1_FAMILY = frozenset({_PRESCAN, _L1, _R1, _L1_2, _R1_3, _ML1_2,
                            _MR1_2})

# Counter vector indices (a plain list is the cheapest mutable record).
# The first three are the [comparisons, array writes, scratch writes]
# tally of select_pivot and insertion_sort, so ct is passed to them as is.
CT_CMP = 0
CT_WA = 1       # array element writes
CT_WS = 2       # scratch writes: holdover, pivot slot, swap temp, buffer
CT_TI = 3       # current equals-buffer fill
CT_TI_HW = 4    # buffer high water, updated when a state-3 run exits
CT_S1 = 5
CT_S2L = 6
CT_S2R = 7
CT_S3L = 8
CT_S3R = 9
CT_EXIT2 = 10
CT_EXIT3L = 11
CT_EXIT3R = 12
CT_HSORT = 13
CT_HREV = 14
CT_HFALL = 15
CT_STAGES = 16
CT_DEPTH = 17
CT_LEN = 18


def choose_next_state(frame: PartitionFrame, closed_side: str) -> str:
    """Pick the follow-up state when one side of the block closes.

    With the right side closed (mr == r), few equals so far route to the
    buffering state: S3L iff (mr - ml) <= (ml - l) // 4, else S2L.  With
    the left side closed, S3R iff (mr - ml) <= (r - mr) // 4, else S2R.
    """
    if closed_side == "Right":
        return S3L if frame.mr - frame.ml <= (frame.ml - frame.l) // 4 else S2L
    if closed_side == "Left":
        return S3R if frame.mr - frame.ml <= (frame.r - frame.mr) // 4 else S2R
    raise ValueError("closed_side must be 'Left' or 'Right'")


@compare_inline()
def _run_machine(ar, cmp3, fr: PartitionFrame, label: int, stop, tar, ct):
    """Run the partition machine from ``label`` until it finishes the
    stage (returns _DONE with fr.new_l/new_r set) or reaches a label in
    ``stop`` (frame state saved for resumption at fr.entry).

    The machine is one forward pass of phases: the pre-scan (with the
    case that collapses onto mid), the state-1 cycle, the closing scan
    and state choice, one of states 2L/2R/3L/3R, the state-3 drain and
    Exit2.  Each phase is entered at the label passed in or at the one
    the phase before it ends on, and ``stop`` is tested only there,
    between phases.  Only the state-1 cycle loops over more than one
    state's code.
    """
    mid = fr.mid
    l = fr.l
    r = fr.r
    ml = fr.ml
    mr = fr.mr
    m = fr.m
    lc = fr.lc
    p = fr.pivot
    temp = fr.holdover
    ncmp = 0
    nwa = 0
    nws = 0
    ti = ct[CT_TI]
    if stop is None:
        stop = ()

    # ----- pre-scan from the right, for the holdover -----
    if label == _PRESCAN:
        m = ml = mr = mid
        while True:
            lc = cmp3(ar[r], p)
            ncmp += 1
            if lc <= 0:
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
                lc = cmp3(ar[l], p)
                ncmp += 1
                if lc >= 0:
                    break
                l += 1
                if l == mid:
                    break
            if lc < 0:
                ar[mid] = p
                nwa += 1
                fr.new_l = mid - 1
                fr.new_r = mid + 1
                fr.last_exit = EXIT2
                label = _DONE
            else:
                temp = ar[l]
                nws += 1
                r = mid
                label = _MLEFT

    # ----- state 1: both sides open -----
    # Hoare-style scans alternate: from l for an element not below the
    # pivot, written into the hole at r (_L1), then from r for one not
    # above, written into the hole at l (_R1).  An equal found at k goes
    # into the middle hole at m, and the block grows toward the larger
    # facing gap over the equals beyond its edge; the first non-equal
    # there leaves a new middle hole and is placed like a scan's find
    # (_ML1_2, _MR1_2).  The cycle ends when a cursor meets the block.
    if _L1 <= label <= _MR1_2 and label not in stop:
        if label == _L1_2:
            k = l
            lc = 1
        elif label == _R1_3:
            k = r
            lc = -1
        elif label == _ML1_2:
            m = k = ml
        elif label == _MR1_2:
            m = k = mr
        while True:
            if label > _R1:
                # place the non-equal found at k into a side hole
                if lc > 0:
                    ar[r] = ar[k]
                    nwa += 1
                    r -= 1
                    if mr == r:
                        break
                    label = _R1
                else:
                    ar[l] = ar[k]
                    nwa += 1
                    l += 1
                    if ml == l:
                        break
                    label = _L1
            # the scans; they leave on an equal under cursor k
            # (lc == 0) or when a cursor meets the block: lc < 0 once
            # l == ml, lc > 0 once mr == r
            while True:
                if label == _L1:
                    while True:
                        lc = cmp3(ar[l], p)
                        ncmp += 1
                        if lc >= 0:
                            break
                        l += 1
                        if l == ml:
                            break
                    if lc <= 0:
                        k = l
                        break
                    ar[r] = ar[l]
                    nwa += 1
                    r -= 1
                    if mr == r:
                        break
                else:
                    label = _L1  # entered at the right scan
                while True:
                    lc = cmp3(ar[r], p)
                    ncmp += 1
                    if lc <= 0:
                        break
                    r -= 1
                    if mr == r:
                        break
                if lc >= 0:
                    k = r
                    break
                ar[l] = ar[r]
                nwa += 1
                l += 1
                if ml == l:
                    break
            if lc != 0:
                break
            # store the equal into the middle hole and grow the block
            # toward the larger facing gap, over the equals beyond it
            ar[m] = ar[k]
            nwa += 1
            if r - mr > ml - l:
                while True:
                    mr += 1
                    if mr == r:
                        break
                    lc = cmp3(ar[mr], p)
                    ncmp += 1
                    if lc != 0:
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
                    lc = cmp3(ar[ml], p)
                    ncmp += 1
                    if lc != 0:
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
    if _MLEFT <= label <= _MRIGHT_NOSCAN and label not in stop:
        if label == _MLEFT:
            # Right side closed; absorb equals adjoining the block's
            # left edge.
            label = _MLEFT_NOSCAN
            while True:
                ml -= 1
                if ml == l:
                    label = _EXIT2
                    break
                lc = cmp3(ar[ml], p)
                ncmp += 1
                if lc != 0:
                    break
        elif label == _MRIGHT:
            label = _MRIGHT_NOSCAN
            while True:
                mr += 1
                if mr == r:
                    label = _EXIT2
                    break
                lc = cmp3(ar[mr], p)
                ncmp += 1
                if lc != 0:
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
    if _M2L <= label <= _M3R_2 and label not in stop:
        if label <= _M2L_2:
            # 2L: m moving left, equals left in place, the block rolled
            # one slot per element above the pivot
            while True:
                if label == _M2L:
                    while True:
                        lc = cmp3(ar[m], p)
                        ncmp += 1
                        if lc != 0:
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
                    lc = cmp3(ar[l], p)
                    ncmp += 1
                    if lc >= 0:
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
                        lc = cmp3(ar[m], p)
                        ncmp += 1
                        if lc != 0:
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
                    lc = cmp3(ar[r], p)
                    ncmp += 1
                    if lc <= 0:
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
                        lc = cmp3(ar[m], p)
                        ncmp += 1
                        if lc != 0:
                            break
                        tar[ti] = ar[m]
                        nws += 1
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
                        lc = cmp3(ar[m], p)
                        ncmp += 1
                        if lc <= 0:
                            break
                    k2 = m + 1
                    # copy the run [k2..k] into the gap descending
                    # from r, buffering block elements it consumes
                    if k - m < r - k:
                        while True:
                            ar[r] = ar[k2]
                            nwa += 1
                            r -= 1
                            if r >= ml:
                                tar[ti] = ar[r]
                                nws += 1
                                ti += 1
                            k2 += 1
                            if k2 > k:
                                break
                    else:
                        while True:
                            ar[r] = ar[k2]
                            nwa += 1
                            r -= 1
                            if r >= ml:
                                tar[ti] = ar[r]
                                nws += 1
                                ti += 1
                            elif r <= k:
                                r = k2
                                break
                            k2 += 1
                    if m == l:
                        break
                    if lc == 0:
                        tar[ti] = ar[m]
                        nws += 1
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
                    lc = cmp3(ar[l], p)
                    ncmp += 1
                    if lc >= 0:
                        break
                    l += 1
                    if m == l:
                        break
                if lc < 0:
                    break
                if lc == 0:
                    tar[ti] = ar[l]
                    nws += 1
                    ti += 1
                else:
                    ar[r] = ar[l]
                    nwa += 1
                    r -= 1
                    if r >= ml:
                        tar[ti] = ar[r]
                        nws += 1
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
                        lc = cmp3(ar[m], p)
                        ncmp += 1
                        if lc != 0:
                            break
                        tar[ti] = ar[m]
                        nws += 1
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
                        lc = cmp3(ar[m], p)
                        ncmp += 1
                        if lc >= 0:
                            break
                    k2 = m - 1
                    if m - k < k - l:
                        while True:
                            ar[l] = ar[k2]
                            nwa += 1
                            l += 1
                            if l <= mr:
                                tar[ti] = ar[l]
                                nws += 1
                                ti += 1
                            k2 -= 1
                            if k2 < k:
                                break
                    else:
                        while True:
                            ar[l] = ar[k2]
                            nwa += 1
                            l += 1
                            if l <= mr:
                                tar[ti] = ar[l]
                                nws += 1
                                ti += 1
                            elif l >= k:
                                l = k2
                                break
                            k2 -= 1
                    if m == r:
                        break
                    if lc == 0:
                        tar[ti] = ar[m]
                        nws += 1
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
                    lc = cmp3(ar[r], p)
                    ncmp += 1
                    if lc <= 0:
                        break
                    r -= 1
                    if m == r:
                        break
                if lc > 0:
                    break
                if lc == 0:
                    tar[ti] = ar[r]
                    nws += 1
                    ti += 1
                else:
                    ar[l] = ar[r]
                    nwa += 1
                    l += 1
                    if l <= mr:
                        tar[ti] = ar[l]
                        nws += 1
                        ti += 1
                m += 1
                if m == r:
                    break
                label = _M3R
            label = _EXIT3R

    # ----- state-3 drain: buffered equals back beside the block -----
    if _EXIT3L <= label <= _EXIT3R and label not in stop:
        if ti > ct[CT_TI_HW]:
            ct[CT_TI_HW] = ti
        if label == _EXIT3L:
            ct[CT_EXIT3L] += 1
            fr.last_exit = EXIT3L
            while ti > 0:
                ti -= 1
                m += 1
                ar[m] = tar[ti]
                nwa += 1
        else:
            ct[CT_EXIT3R] += 1
            fr.last_exit = EXIT3R
            while ti > 0:
                ti -= 1
                m -= 1
                ar[m] = tar[ti]
                nwa += 1
        label = _EXIT2

    # ----- Exit2: place the holdover and the pivot -----
    if label == _EXIT2 and label not in stop:
        ct[CT_EXIT2] += 1
        lc = cmp3(temp, p)
        ncmp += 1
        if lc >= 0:
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
        fr.new_l = l
        fr.new_r = r
        if fr.last_exit is None:
            fr.last_exit = EXIT2
        label = _DONE

    fr.l = l
    fr.r = r
    fr.ml = ml
    fr.mr = mr
    fr.m = m
    fr.lc = lc
    fr.holdover = temp
    fr.entry = label
    ct[CT_CMP] += ncmp
    ct[CT_WA] += nwa
    ct[CT_WS] += nws
    ct[CT_TI] = ti
    return label


# ---------------------------------------------------------------------------
# Fast-path handlers for possibly-sorted / possibly-reversed stages.


@compare_inline()
def _sorted_handler(ar, cmp3, fr: PartitionFrame, ct) -> int:
    """Verify left-below/right-above around the extracted pivot.

    Equals around the center are absorbed into the middle block.  On
    full success the stage completes with no element migration (only
    the pivot restore).  Any mismatch drops into the main machine at
    the matching resume point with all scan progress kept.
    """
    a = fr.a
    b = fr.b
    mid = fr.mid
    p = fr.pivot
    ncmp = 0
    nwa = 0
    nws = 0
    l = a
    r = b
    out = -1
    while out < 0:
        lc2 = cmp3(ar[l], p)
        ncmp += 1
        if lc2 < 0:
            l += 1
            if l != mid:
                continue
            # Left half verified below the pivot; now verify the right.
            full = False
            while True:
                lc2 = cmp3(ar[r], p)
                ncmp += 1
                if lc2 <= 0:
                    break
                r -= 1
                if r == mid:
                    full = True
                    break
            if full:
                ar[mid] = p
                nwa += 1
                fr.new_l = mid - 1
                fr.new_r = mid + 1
                out = _DONE
                break
            if lc2 == 0:
                # equals bordering the block from above
                mr = mid + 1
                bypass = mr == r
                lc = 0
                while not bypass:
                    lc = cmp3(ar[mr], p)
                    ncmp += 1
                    if lc != 0:
                        break
                    mr += 1
                    if mr == r:
                        bypass = True
                if bypass:
                    ar[mid] = p
                    nwa += 1
                    fr.new_l = mid - 1
                    fr.new_r = r + 1
                    out = _DONE
                    break
                fr.holdover = ar[r]
                nws += 1
                fr.l = l
                fr.r = r
                fr.ml = mid
                fr.mr = mr
                fr.lc = lc
                out = _MRIGHT_NOSCAN
            else:
                fr.holdover = ar[r]
                nws += 1
                fr.l = l
                fr.r = r
                fr.ml = fr.mr = mid
                fr.lc = lc2
                out = _MRIGHT
            break
        if lc2 == 0:
            # Equal under the left cursor; check what the right holds.
            collapsed = False
            lc = 0
            while True:
                lc = cmp3(ar[r], p)
                ncmp += 1
                if lc <= 0:
                    break
                r -= 1
                if r == mid:
                    collapsed = True
                    break
            if collapsed:
                # right half all above; absorb equals below the center
                ml = mid - 1
                bypass = ml == l
                while not bypass:
                    lc = cmp3(ar[ml], p)
                    ncmp += 1
                    if lc != 0:
                        break
                    ml -= 1
                    if ml == l:
                        bypass = True
                if bypass:
                    ar[mid] = p
                    nwa += 1
                    fr.new_l = l - 1
                    fr.new_r = r + 1
                    out = _DONE
                    break
                fr.holdover = ar[l]
                nws += 1
                fr.l = l
                fr.r = mid
                fr.ml = ml
                fr.mr = mid
                fr.lc = lc
                out = _MLEFT_NOSCAN
                break
            if lc == 0:
                # equals at both cursors
                ml = mid
                inner = -1
                while True:
                    ml -= 1
                    if ml == l:
                        mr = mid + 1
                        bypass = mr == r
                        lc = 0
                        while not bypass:
                            lc = cmp3(ar[mr], p)
                            ncmp += 1
                            if lc != 0:
                                break
                            mr += 1
                            if mr == r:
                                bypass = True
                        if bypass:
                            ar[mid] = p
                            nwa += 1
                            fr.new_l = l - 1
                            fr.new_r = r + 1
                            inner = _DONE
                            break
                        fr.holdover = ar[l]
                        nws += 1
                        ar[mid] = ar[r]
                        nwa += 1
                        fr.l = l
                        fr.r = r
                        fr.ml = ml
                        fr.mr = mr
                        fr.lc = lc
                        inner = _MRIGHT_NOSCAN
                        break
                    lc = cmp3(ar[ml], p)
                    ncmp += 1
                    if lc != 0:
                        break
                if inner >= 0:
                    out = inner
                    break
                fr.holdover = ar[l]
                nws += 1
                ar[mid] = ar[r]
                nwa += 1
                fr.l = l
                fr.r = r
                fr.ml = ml
                fr.mr = mid
                fr.m = mid
                fr.lc = lc
                out = _ML1_2
            else:
                fr.holdover = ar[l]
                nws += 1
                fr.l = l
                fr.r = r
                fr.m = fr.ml = fr.mr = mid
                fr.lc = lc
                out = _R1_3
            break
        # ar[l] above the pivot: mismatch; find a right-side partner.
        collapsed = False
        while True:
            lc2 = cmp3(ar[r], p)
            ncmp += 1
            if lc2 <= 0:
                break
            r -= 1
            if r == mid:
                collapsed = True
                break
        if collapsed:
            # hole at mid, ar[l] known above the pivot: hold it out and
            # run as a closed-right-side stage
            fr.holdover = ar[l]
            nws += 1
            fr.l = l
            fr.r = mid
            fr.ml = fr.mr = mid
            out = _MLEFT
            break
        fr.holdover = ar[r]
        nws += 1
        fr.l = l
        fr.r = r
        fr.m = fr.ml = fr.mr = mid
        fr.lc = lc2
        out = _L1_2
        break

    ct[CT_CMP] += ncmp
    ct[CT_WA] += nwa
    ct[CT_WS] += nws
    return out


@compare_inline()
def _reversed_handler(ar, cmp3, fr: PartitionFrame, ct, tol: int) -> int:
    """Swap outermost pairs inward while both sides look reversed.

    Misplaced elements that already sit on their final side are skipped
    and counted against ``tol``; exceeding it falls back into the main
    machine with progress kept.  Equals route into the middle block.
    """
    a = fr.a
    b = fr.b
    mid = fr.mid
    p = fr.pivot
    ncmp = 0
    nwa = 0
    nws = 0
    l = a
    r = b
    cl = 1
    cr = 1
    out = -1

    def left_exhausted():
        # l reached mid: left half settled below the pivot.
        nonlocal ncmp, nwa, nws, r
        mr = mid + 1
        while True:
            if mr == r:
                # only equals between mid and r
                lc = cmp3(ar[r], p)
                ncmp += 1
                if lc < 0:
                    ar[l] = ar[r]
                    nwa += 1
                    ar[r] = p
                    nwa += 1
                    fr.new_l = l
                    fr.new_r = r + 1
                elif lc == 0:
                    ar[mid] = p
                    nwa += 1
                    fr.new_l = l - 1
                    fr.new_r = r + 1
                else:
                    ar[mid] = p
                    nwa += 1
                    fr.new_l = l - 1
                    fr.new_r = r
                return _DONE
            lc = cmp3(ar[mr], p)
            ncmp += 1
            if lc != 0:
                break
            mr += 1
        while True:
            lc2 = cmp3(ar[r], p)
            ncmp += 1
            if lc2 <= 0:
                break
            r -= 1
            if mr == r:
                if lc < 0:
                    ar[l] = ar[r]
                    nwa += 1
                    ar[r] = p
                    nwa += 1
                    fr.new_l = l
                    fr.new_r = r + 1
                else:
                    ar[mid] = p
                    nwa += 1
                    fr.new_l = l - 1
                    fr.new_r = r
                return _DONE
        fr.holdover = ar[r]
        nws += 1
        fr.l = l
        fr.r = r
        fr.ml = mid
        fr.mr = mr
        fr.lc = lc
        return _MRIGHT_NOSCAN

    def right_exhausted(l_tested: bool):
        # r reached mid: right half settled above the pivot.
        nonlocal ncmp, nwa, nws, l
        ml = mid
        while True:
            ml -= 1
            if ml == l:
                if l_tested:
                    # ar[l] known above the pivot
                    ar[mid] = ar[l]
                    nwa += 1
                    ar[l] = p
                    nwa += 1
                    fr.new_l = l - 1
                    fr.new_r = r
                    return _DONE
                lc = cmp3(ar[l], p)
                ncmp += 1
                if lc > 0:
                    ar[mid] = ar[l]
                    nwa += 1
                    ar[l] = p
                    nwa += 1
                    fr.new_l = l - 1
                    fr.new_r = r
                elif lc == 0:
                    ar[mid] = p
                    nwa += 1
                    fr.new_l = l - 1
                    fr.new_r = r + 1
                else:
                    ar[mid] = p
                    nwa += 1
                    fr.new_l = l
                    fr.new_r = r + 1
                return _DONE
            lc = cmp3(ar[ml], p)
            ncmp += 1
            if lc != 0:
                break
        fr.holdover = ar[l]
        nws += 1
        fr.l = l
        fr.r = mid
        fr.ml = ml
        fr.mr = mid
        fr.lc = lc
        return _MLEFT_NOSCAN

    while out < 0:
        lc2 = cmp3(ar[l], p)
        ncmp += 1
        if lc2 > 0:
            while True:
                lc = cmp3(ar[r], p)
                ncmp += 1
                if lc < 0:
                    t2 = ar[l]
                    nws += 1
                    ar[l] = ar[r]
                    nwa += 1
                    ar[r] = t2
                    nwa += 1
                    if l + 2 == r:
                        ar[mid] = p
                        nwa += 1
                        fr.new_l = l
                        fr.new_r = r
                        out = _DONE
                        break
                    l += 1
                    r -= 1
                    if l == mid:
                        out = left_exhausted()
                        break
                    if r == mid:
                        out = right_exhausted(False)
                        break
                    break
                if lc > 0:
                    # right element already on its final side
                    r -= 1
                    if r == mid:
                        out = right_exhausted(True)
                        break
                    if cr > tol:
                        fr.holdover = ar[l]
                        nws += 1
                        fr.l = l
                        fr.r = r
                        fr.m = fr.ml = fr.mr = mid
                        out = _R1
                        break
                    cr += 1
                    continue
                # ar[r] equals the pivot: absorb equals above the center
                mr = mid
                inner = -1
                while True:
                    mr += 1
                    if mr == r:
                        ml = mid
                        while True:
                            ml -= 1
                            if ml == l:
                                t2 = ar[l]
                                nws += 1
                                ar[l] = ar[r]
                                nwa += 1
                                ar[r] = t2
                                nwa += 1
                                ar[mid] = p
                                nwa += 1
                                fr.new_l = l - 1
                                fr.new_r = r
                                inner = _DONE
                                break
                            lc = cmp3(ar[ml], p)
                            ncmp += 1
                            if lc != 0:
                                break
                        if inner >= 0:
                            break
                        ar[mid] = ar[r]
                        nwa += 1
                        fr.holdover = ar[l]
                        nws += 1
                        fr.l = l
                        fr.r = r
                        fr.ml = ml
                        fr.mr = r
                        fr.lc = lc
                        inner = _MLEFT_NOSCAN
                        break
                    lc = cmp3(ar[mr], p)
                    ncmp += 1
                    if lc != 0:
                        break
                if inner >= 0:
                    out = inner
                    break
                fr.holdover = ar[l]
                nws += 1
                ar[mid] = ar[r]
                nwa += 1
                fr.l = l
                fr.r = r
                fr.ml = mid
                fr.mr = mr
                fr.m = mid
                fr.lc = lc
                out = _MR1_2
                break
            continue
        if lc2 < 0:
            # left element already on its final side
            l += 1
            if l == mid:
                out = left_exhausted()
                break
            if cl > tol:
                # back to the standard initialization, progress kept
                fr.l = l
                fr.r = r
                out = _PRESCAN
                break
            cl += 1
            continue
        # ar[l] equals the pivot: absorb equals below the center
        ml = mid
        inner = -1
        while True:
            ml -= 1
            if ml == l:
                mr = mid
                while True:
                    mr += 1
                    if mr == r:
                        lc = cmp3(ar[r], p)
                        ncmp += 1
                        if lc < 0:
                            t2 = ar[r]
                            nws += 1
                            ar[r] = ar[l]
                            nwa += 1
                            ar[l] = t2
                            nwa += 1
                            ar[mid] = p
                            nwa += 1
                            fr.new_l = l
                            fr.new_r = r + 1
                        else:
                            ar[mid] = p
                            nwa += 1
                            fr.new_l = l - 1
                            fr.new_r = r + 1 if lc == 0 else r
                        inner = _DONE
                        break
                    lc = cmp3(ar[mr], p)
                    ncmp += 1
                    if lc != 0:
                        break
                if inner >= 0:
                    break
                while True:
                    lc2 = cmp3(ar[r], p)
                    ncmp += 1
                    if lc2 <= 0:
                        break
                    r -= 1
                    if mr == r:
                        if lc < 0:
                            t2 = ar[mr]
                            nws += 1
                            ar[mr] = ar[l]
                            nwa += 1
                            ar[l] = t2
                            nwa += 1
                            ar[mid] = p
                            nwa += 1
                            fr.new_l = l
                            fr.new_r = r + 1
                        else:
                            ar[mid] = p
                            nwa += 1
                            fr.new_l = l - 1
                            fr.new_r = r
                        inner = _DONE
                        break
                if inner >= 0:
                    break
                fr.holdover = ar[r]
                nws += 1
                ar[mid] = ar[ml]
                nwa += 1
                fr.l = l
                fr.r = r
                fr.ml = ml
                fr.mr = mr
                fr.lc = lc
                inner = _MRIGHT_NOSCAN
                break
            lc2 = cmp3(ar[ml], p)
            ncmp += 1
            if lc2 != 0:
                break
        if inner >= 0:
            out = inner
            break
        ar[mid] = ar[l]
        nwa += 1
        fr.holdover = ar[ml]
        nws += 1
        fr.l = l
        fr.r = r
        fr.m = ml
        fr.ml = ml
        fr.mr = mid
        out = _R1
        break

    ct[CT_CMP] += ncmp
    ct[CT_WA] += nwa
    ct[CT_WS] += nws
    return out


# ---------------------------------------------------------------------------
# Driver.


class Sorter:
    """A sorter instance: config, mitigation generator, retained buffer.

    One instance must not be used from two threads at once (the equals
    buffer is per-instance state); distinct instances are independent.
    The buffer is kept after a sort so later calls reuse it; call
    :meth:`free_temp_storage` to release it explicitly.
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
        """Sort ``ar`` in place; returns the run's counters."""
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
                fr = PartitionFrame()
                self._range(ar, cmp3, 0, n - 1, 1, fr, self.temp.buf, ct)
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
        stats.comparisons = ct[CT_CMP]
        stats.array_writes = ct[CT_WA]
        stats.scratch_writes = ct[CT_WS]
        stats.element_writes = ct[CT_WA] + ct[CT_WS]
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

    def _range(self, ar, cmp3, a, b, depth, fr, tar, ct) -> None:
        cfg = self.config
        thr = cfg.insertion_threshold
        rng = self.rng
        hook = self.stage_hook
        while True:
            if depth > ct[CT_DEPTH]:
                ct[CT_DEPTH] = depth
            n = b - a + 1
            if n <= thr:
                insertion_sort(ar, a, b, cmp3, ct)
                return
            ct[CT_STAGES] += 1
            if hook is not None:
                cmp0 = ct[CT_CMP]
                writes0 = ct[CT_WA] + ct[CT_WS]
            dec = select_pivot(ar, a, b, cfg, rng, cmp3, ct)
            mid = (a + b) >> 1
            fr.a = a
            fr.b = b
            fr.mid = mid
            fr.pi = dec.pi
            fr.pivot = dec.pivot
            ct[CT_WS] += 1  # pivot extraction into the held-out slot
            fr.l = a
            fr.r = b
            fr.ml = fr.mr = fr.m = mid
            fr.holdover = None
            fr.last_exit = None
            label = _PRESCAN
            if dec.order_flag > 0:
                ct[CT_HSORT] += 1
                label = _sorted_handler(ar, cmp3, fr, ct)
                if label != _DONE:
                    ct[CT_HFALL] += 1
            elif dec.order_flag < 0:
                ct[CT_HREV] += 1
                label = _reversed_handler(ar, cmp3, fr, ct,
                                          cfg.reverse_tolerance)
                if label != _DONE:
                    ct[CT_HFALL] += 1
            if label != _DONE:
                if label in _STATE1_FAMILY:
                    ct[CT_S1] += 1
                _run_machine(ar, cmp3, fr, label, None, tar, ct)
            new_l = fr.new_l
            new_r = fr.new_r
            if hook is not None:
                hook(StageRecord(
                    a, b, fr.pivot, dec.order_flag,
                    None if label == _DONE else _LABEL_NAMES[label],
                    fr.last_exit, new_l, new_r, ct[CT_CMP] - cmp0,
                    ct[CT_WA] + ct[CT_WS] - writes0))
            left_n = new_l - a + 1
            right_n = b - new_r + 1
            # recurse into the smaller side, loop on the larger
            if left_n <= right_n:
                if left_n > 1:
                    self._range(ar, cmp3, a, new_l, depth + 1, fr, tar, ct)
                if right_n <= 1:
                    return
                a = new_r
            else:
                if right_n > 1:
                    self._range(ar, cmp3, new_r, b, depth + 1, fr, tar, ct)
                if left_n <= 1:
                    return
                b = new_l
            depth += 1


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


# ---------------------------------------------------------------------------
# Contract-level entry points into the stage machine (test surface).

_STATE_STOPS = frozenset({_M2L_2, _M2R_2, _M3L_2, _M3R_2, _EXIT2})
# every label run_state1 resumes at: all that come before states 2/3
_STATE1_RESUME = frozenset(range(_PRESCAN, _M2L))
_LABEL_TO_STATE = {_L1: S1, _M2L_2: S2L, _M2R_2: S2R, _M3L_2: S3L,
                   _M3R_2: S3R, _EXIT2: EXIT2, _EXIT3L: EXIT3L,
                   _EXIT3R: EXIT3R}
_STATE_ENTRY = {S2L: _M2L_2, S2R: _M2R_2, S3L: _M3L_2, S3R: _M3R_2}
_STATE_FAMILY = {S2L: {_M2L, _M2L_2}, S2R: {_M2R, _M2R_2},
                 S3L: {_M3L, _M3L_2}, S3R: {_M3R, _M3R_2}}
_EXIT_ENTRY = {EXIT2: _EXIT2, EXIT3L: _EXIT3L, EXIT3R: _EXIT3R}


def _stage_buffer(frame: PartitionFrame, temp: TempStore | None = None):
    """An equals buffer of ceil(n/2) slots for the frame's n-element
    range: ``temp``'s, grown to that size if smaller, or a fresh one."""
    cap = (frame.b - frame.a + 2) // 2
    if temp is None:
        return [None] * cap
    temp.ensure(cap)
    return temp.buf


def _state_after(frame: PartitionFrame, label: int) -> str:
    """The StateId the machine stopped before, or the stage's exit once
    the machine has finished it."""
    return frame.last_exit if label == _DONE else _LABEL_TO_STATE[label]


def _state_entry(frame: PartitionFrame, direction: str, left: str,
                 right: str) -> int:
    """The label run_state2/3 enter the ``direction`` state at: the
    frame's saved entry if it lies in that state, else its start."""
    if direction == "L":
        state = left
    elif direction == "R":
        state = right
    else:
        raise ValueError("direction must be 'L' or 'R'")
    if frame.entry in _STATE_FAMILY[state]:
        return frame.entry
    return _STATE_ENTRY[state]


def init_stage(ar, frame: PartitionFrame, decision: PivotDecision,
               cmp=None, ct=None) -> str:
    """Extract the pivot, pre-scan from the right, fill the holdover.

    Returns S1 normally.  When the pre-scan collapses onto the center
    the degenerate stage is resolved immediately and the reached exit
    is returned, with frame.new_l/new_r set.
    """
    cmp3 = cmp if cmp is not None else _default_cmp3
    if ct is None:
        ct = [0] * CT_LEN
    frame.pivot = decision.pivot
    frame.pi = decision.pi
    ct[CT_WS] += 1
    if frame.pi != frame.mid:
        ar[frame.pi] = ar[frame.mid]
        ct[CT_WA] += 1
    frame.l = frame.a
    frame.r = frame.b
    frame.ml = frame.mr = frame.m = frame.mid
    frame.holdover = None
    frame.last_exit = None
    # a pre-scan that collapses onto the center runs the stage to its end
    label = _run_machine(ar, cmp3, frame, _PRESCAN, frozenset({_L1}),
                         _stage_buffer(frame), ct)
    return _state_after(frame, label)


def run_state1(ar, frame: PartitionFrame, cmp=None, ct=None,
               temp: TempStore | None = None) -> str:
    """Run state 1 from the frame's current point until a side closes.

    The frame resumes at its saved entry when that is a state-1 label,
    a closing scan or the pre-scan (as a fast-path fallback leaves it),
    else at the left scan.  Returns the follow-up StateId chosen by the
    gap test, or Exit2 when everything between the cursors turned out
    pivot-equal, or the stage's exit when the machine finished it.
    """
    cmp3 = cmp if cmp is not None else _default_cmp3
    if ct is None:
        ct = [0] * CT_LEN
    tar = temp.buf if temp is not None else []
    entry = frame.entry if frame.entry in _STATE1_RESUME else _L1
    label = _run_machine(ar, cmp3, frame, entry, _STATE_STOPS, tar, ct)
    return _state_after(frame, label)


def run_state2(ar, frame: PartitionFrame, direction: str, cmp=None,
               ct=None) -> str:
    """Run state 2L or 2R (``direction`` "L" or "R") to completion;
    returns Exit2."""
    cmp3 = cmp if cmp is not None else _default_cmp3
    if ct is None:
        ct = [0] * CT_LEN
    entry = _state_entry(frame, direction, S2L, S2R)
    label = _run_machine(ar, cmp3, frame, entry, frozenset({_EXIT2}), [], ct)
    return _LABEL_TO_STATE[label]


def run_state3(ar, frame: PartitionFrame, direction: str,
               temp: TempStore, cmp=None, ct=None) -> str:
    """Run state 3L or 3R (``direction`` "L" or "R") to completion;
    returns Exit3L or Exit3R."""
    cmp3 = cmp if cmp is not None else _default_cmp3
    if ct is None:
        ct = [0] * CT_LEN
    entry = _state_entry(frame, direction, S3L, S3R)
    stop = frozenset({_EXIT3L, _EXIT3R})
    label = _run_machine(ar, cmp3, frame, entry, stop,
                         _stage_buffer(frame, temp), ct)
    return _LABEL_TO_STATE[label]


def copy_back(ar, frame: PartitionFrame, exit_id: str,
              temp: TempStore | None = None, cmp=None, ct=None):
    """Drain the equals buffer (state-3 exits), restore holdover and
    pivot, and return the retracted (new_l, new_r) bounds.  A stage the
    machine has already finished only returns its bounds."""
    if frame.entry != _DONE:
        cmp3 = cmp if cmp is not None else _default_cmp3
        if ct is None:
            ct = [0] * CT_LEN
        _run_machine(ar, cmp3, frame, _EXIT_ENTRY[exit_id], None,
                     _stage_buffer(frame, temp), ct)
    return frame.new_l, frame.new_r
