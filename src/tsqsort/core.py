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

Each state runs as one structured loop: state 1 as a single alternating
left-scan/right-scan cycle, states 2L/2R/3L/3R each as a local loop over
their scan steps.  Labels remain only as state-boundary and resume
points: a small dispatch chain moves between states and exits, and the
machine can be entered at any label, which the fast-path handlers use to
fall back mid-stage and the contract entry points use to stop and resume
at state boundaries.

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


# Machine labels: state boundaries and resume points.  The *_2 labels
# (and _R1_3) are post-comparison points: lc already holds the
# comparison of the element under the relevant cursor.
_PRESCAN = 0
_COLLAPSED = 1
_L1 = 2
_L1_2 = 3
_R1 = 4
_R1_3 = 5
_ML1 = 6
_ML1_2 = 7
_MR1 = 8
_MR1_2 = 9
_MLEFT = 10
_MRIGHT = 11
_MLEFT_CHECKM = 12
_MRIGHT_CHECKM = 13
_MLEFT_NOSCAN = 14
_MRIGHT_NOSCAN = 15
_M2L = 16
_M2L_2 = 17
_L2L = 18
_M2R = 19
_M2R_2 = 20
_R2R = 21
_M3L = 22
_M3L_2 = 23
_L3L = 24
_M3R = 25
_M3R_2 = 26
_R3R = 27
_EXIT2 = 28
_EXIT3L = 29
_EXIT3R = 30
_DONE = 31

_LABEL_NAMES = {
    _PRESCAN: "prescan", _COLLAPSED: "collapsed",
    _L1: "l_scan1", _L1_2: "l_scan1_2", _R1: "r_scan1", _R1_3: "r_scan1_3",
    _ML1: "ml_scan1", _ML1_2: "ml_scan1_2", _MR1: "mr_scan1",
    _MR1_2: "mr_scan1_2", _MLEFT: "mleft", _MRIGHT: "mright",
    _MLEFT_CHECKM: "mleft_checkm", _MRIGHT_CHECKM: "mright_checkm",
    _MLEFT_NOSCAN: "mleft_noscan", _MRIGHT_NOSCAN: "mright_noscan",
    _M2L: "m_scan2L", _M2L_2: "m_scan2L_2", _L2L: "l_scan2L",
    _M2R: "m_scan2R", _M2R_2: "m_scan2R_2", _R2R: "r_scan2R",
    _M3L: "m_scan3L", _M3L_2: "m_scan3L_2", _L3L: "l_scan3L",
    _M3R: "m_scan3R", _M3R_2: "m_scan3R_2", _R3R: "r_scan3R",
    _EXIT2: "exit2", _EXIT3L: "exit3L", _EXIT3R: "exit3R", _DONE: "done",
}

_STATE1_FAMILY = frozenset({_PRESCAN, _COLLAPSED, _L1, _L1_2, _R1, _R1_3,
                            _ML1, _ML1_2, _MR1, _MR1_2})

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

    Each state runs as its own loop: state 1 as one alternating scan
    cycle, states 2L/2R/3L/3R each as a local loop over their scan and
    dispatch steps.  Control returns to the label chain only when the
    state changes or the stage exits, so ``stop`` is checked there and
    may name only such state-boundary labels.  Every label remains a
    resume point, which the fast-path handlers and ``run_state*`` use to
    enter a state mid-way.
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

    while True:
        if stop is not None and label in stop:
            break

        # ----- state 1: both sides open -----
        if _L1 <= label <= _R1_3:
            # One Hoare-style cycle: scan from l for an element not below
            # the pivot and write it into the hole at r (_L1, _L1_2), then
            # scan from r for one not above and write it into the hole at
            # l (_R1, _R1_3).  It leaves on an equal under cursor k
            # (lc == 0) or when a cursor meets the block: lc < 0 once
            # l == ml, lc > 0 once mr == r.
            if label == _L1_2:
                ar[r] = ar[l]
                nwa += 1
                r -= 1
                if mr == r:
                    label = _MLEFT_CHECKM
                    continue
                label = _R1
            elif label == _R1_3:
                ar[l] = ar[r]
                nwa += 1
                l += 1
                if ml == l:
                    label = _MRIGHT_CHECKM
                    continue
                label = _L1
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
            if lc < 0:
                label = _MRIGHT_CHECKM
            elif lc > 0:
                label = _MLEFT_CHECKM
            else:
                # store the equal into the middle hole and grow the
                # block toward the larger facing gap
                ar[m] = ar[k]
                nwa += 1
                if r - mr > ml - l:
                    mr += 1
                    label = _MR1
                else:
                    ml -= 1
                    label = _MRIGHT if ml == l else _ML1
            continue

        if label == _ML1:
            while True:
                lc = cmp3(ar[ml], p)
                ncmp += 1
                if lc != 0:
                    break
                ml -= 1
                if ml == l:
                    break
            label = _MRIGHT if lc == 0 else _ML1_2
            continue

        if label == _ML1_2:
            if lc < 0:
                ar[l] = ar[ml]
                nwa += 1
                l += 1
                if l == ml:
                    label = _MRIGHT
                else:
                    m = ml
                    label = _L1
            else:
                ar[r] = ar[ml]
                nwa += 1
                r -= 1
                if mr == r:
                    ar[ml] = ar[mr]
                    nwa += 1
                    label = _MLEFT
                else:
                    m = ml
                    label = _R1
            continue

        if label == _MR1:
            while True:
                lc = cmp3(ar[mr], p)
                ncmp += 1
                if lc != 0:
                    break
                mr += 1
                if mr == r:
                    break
            label = _MLEFT if lc == 0 else _MR1_2
            continue

        if label == _MR1_2:
            if lc < 0:
                ar[l] = ar[mr]
                nwa += 1
                l += 1
                if ml == l:
                    ar[mr] = ar[ml]
                    nwa += 1
                    label = _MRIGHT
                else:
                    m = mr
                    label = _L1
            else:
                ar[r] = ar[mr]
                nwa += 1
                r -= 1
                if mr == r:
                    label = _MLEFT
                else:
                    m = mr
                    label = _R1
            continue

        if label == _MLEFT:
            # Right side closed; absorb equals adjoining the block's
            # left edge, then pick the follow-up state.
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
            continue

        if label == _MRIGHT:
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
            continue

        if label == _MLEFT_CHECKM:
            # The middle hole may sit at the block's left edge; move the
            # block top into it so the hole lands at r where states
            # 2L/3L expect it.
            if m == ml and ml != mr:
                ar[ml] = ar[mr]
                nwa += 1
            label = _MLEFT
            continue

        if label == _MRIGHT_CHECKM:
            if m == mr and ml != mr:
                ar[mr] = ar[ml]
                nwa += 1
            label = _MRIGHT
            continue

        if label == _MLEFT_NOSCAN:
            # ml sits on the first non-equal below the block with its lc
            # set, by _MLEFT or by a fast-path handler; pick the state.
            m = ml
            ml += 1
            if mr - ml <= (ml - l) // 4:
                ct[CT_S3L] += 1
                label = _M3L_2
            else:
                ct[CT_S2L] += 1
                label = _M2L_2
            continue

        if label == _MRIGHT_NOSCAN:
            m = mr
            mr -= 1
            if mr - ml <= (r - mr) // 4:
                ct[CT_S3R] += 1
                label = _M3R_2
            else:
                ct[CT_S2R] += 1
                label = _M2R_2
            continue

        # ----- state 2L: m moving left, right side closed -----
        # _M2L scans equals (left in place), _M2L_2 acts on the
        # non-equal at m, _L2L scans from l for an element not below
        # the pivot.  Every path that meets m == l exits.
        if _M2L <= label <= _L2L:
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
                if label != _L2L:
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
            continue

        # ----- state 2R: m moving right, left side closed -----
        if _M2R <= label <= _R2R:
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
                if label != _R2R:
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
            continue

        # ----- state 3L: m moving left, equals buffered -----
        # As 2L, but equals go to the buffer and a run of elements above
        # the pivot is block-copied into the gap descending from r.
        if _M3L <= label <= _L3L:
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
                if label != _L3L:
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
            continue

        # ----- state 3R: m moving right, equals buffered -----
        if _M3R <= label <= _R3R:
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
                if label != _R3R:
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
            continue

        # ----- initialization paths -----
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
            if lc > 0:
                label = _COLLAPSED
                continue
            temp = ar[r]
            nws += 1
            label = _L1
            continue

        if label == _COLLAPSED:
            # Pre-scan collapsed onto mid: everything above mid exceeds
            # the pivot.  Scan from the left for the first element not
            # below the pivot; if none, the pivot drops straight into
            # the hole.  Otherwise hold that element out and continue as
            # a closed-right-side stage with an empty middle block.
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
                break
            temp = ar[l]
            nws += 1
            r = mid
            ml = mr = mid
            label = _MLEFT
            continue

        # ----- exits -----
        if label == _EXIT3L:
            ct[CT_EXIT3L] += 1
            if ti > ct[CT_TI_HW]:
                ct[CT_TI_HW] = ti
            while ti > 0:
                ti -= 1
                m += 1
                ar[m] = tar[ti]
                nwa += 1
            fr.last_exit = EXIT3L
            label = _EXIT2
            continue

        if label == _EXIT3R:
            ct[CT_EXIT3R] += 1
            if ti > ct[CT_TI_HW]:
                ct[CT_TI_HW] = ti
            while ti > 0:
                ti -= 1
                m -= 1
                ar[m] = tar[ti]
                nwa += 1
            fr.last_exit = EXIT3R
            label = _EXIT2
            continue

        if label == _EXIT2:
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
            break

        raise AssertionError(f"bad machine label {label}")

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
_LABEL_TO_STATE = {_M2L_2: S2L, _M2R_2: S2R, _M3L_2: S3L, _M3R_2: S3R,
                   _EXIT2: EXIT2, _EXIT3L: EXIT3L, _EXIT3R: EXIT3R}
_STATE_ENTRY = {S2L: _M2L_2, S2R: _M2R_2, S3L: _M3L_2, S3R: _M3R_2}
_STATE_FAMILY = {S2L: {_M2L, _M2L_2, _L2L}, S2R: {_M2R, _M2R_2, _R2R},
                 S3L: {_M3L, _M3L_2, _L3L}, S3R: {_M3R, _M3R_2, _R3R}}
_EXIT_ENTRY = {EXIT2: _EXIT2, EXIT3L: _EXIT3L, EXIT3R: _EXIT3R}


def _stage_buffer(frame: PartitionFrame, temp: TempStore | None = None):
    """An equals buffer of ceil(n/2) slots for the frame's n-element
    range: ``temp``'s, grown to that size if smaller, or a fresh one."""
    cap = (frame.b - frame.a + 2) // 2
    if temp is None:
        return [None] * cap
    temp.ensure(cap)
    return temp.buf


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
    if label == _L1:
        return S1
    return frame.last_exit if frame.last_exit is not None else EXIT2


def run_state1(ar, frame: PartitionFrame, cmp=None, ct=None,
               temp: TempStore | None = None) -> str:
    """Run state 1 from the frame's current point until a side closes.

    Returns the follow-up StateId chosen by the gap test, or Exit2 when
    everything between the cursors turned out pivot-equal.
    """
    cmp3 = cmp if cmp is not None else _default_cmp3
    if ct is None:
        ct = [0] * CT_LEN
    tar = temp.buf if temp is not None else []
    entry = frame.entry if frame.entry in _STATE1_FAMILY else _L1
    label = _run_machine(ar, cmp3, frame, entry, _STATE_STOPS, tar, ct)
    return _LABEL_TO_STATE[label]


def run_state2(ar, frame: PartitionFrame, direction: str, cmp=None,
               ct=None) -> str:
    """Run state 2L or 2R to completion; returns Exit2."""
    cmp3 = cmp if cmp is not None else _default_cmp3
    if ct is None:
        ct = [0] * CT_LEN
    state = S2L if direction == "L" else S2R
    entry = frame.entry if frame.entry in _STATE_FAMILY[state] \
        else _STATE_ENTRY[state]
    label = _run_machine(ar, cmp3, frame, entry, frozenset({_EXIT2}), [], ct)
    return _LABEL_TO_STATE[label]


def run_state3(ar, frame: PartitionFrame, direction: str,
               temp: TempStore, cmp=None, ct=None) -> str:
    """Run state 3L or 3R to completion; returns Exit3L or Exit3R."""
    cmp3 = cmp if cmp is not None else _default_cmp3
    if ct is None:
        ct = [0] * CT_LEN
    state = S3L if direction == "L" else S3R
    entry = frame.entry if frame.entry in _STATE_FAMILY[state] \
        else _STATE_ENTRY[state]
    stop = frozenset({_EXIT3L, _EXIT3R})
    label = _run_machine(ar, cmp3, frame, entry, stop,
                         _stage_buffer(frame, temp), ct)
    return _LABEL_TO_STATE[label]


def copy_back(ar, frame: PartitionFrame, exit_id: str,
              temp: TempStore | None = None, cmp=None, ct=None):
    """Drain the equals buffer (state-3 exits), restore holdover and
    pivot, and return the retracted (new_l, new_r) bounds."""
    cmp3 = cmp if cmp is not None else _default_cmp3
    if ct is None:
        ct = [0] * CT_LEN
    _run_machine(ar, cmp3, frame, _EXIT_ENTRY[exit_id], None,
                 _stage_buffer(frame, temp), ct)
    return frame.new_l, frame.new_r
