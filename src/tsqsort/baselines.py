"""Instrumented reference quicksorts for differential count experiments.

All baselines report the same counters as the main sorter: comparisons,
element writes (a full swap costs three: two array stores plus the
scratch temporary) and the derived virtual swaps.  They are clean-room
implementations of the classic schemes, not ports of any C library.

* ``classic_qsort``: value-based Hoare partition, random pivot drawn
  from a seeded multiplicative generator, recursion to the bottom.
  This is the textbook algorithm behind the classical average-case
  formulas, so its measured counts double as an instrumentation check.
* ``three_way_qsort``: split-end fat-pivot partition (equal keys swapped
  to the ends and vector-swapped back to the middle), median-of-3 /
  pseudo-median-of-9 pivot ladder, small-range insertion sort.
* ``dual_pivot_qsort``: two pivots taken as the 2nd and 4th of five
  spread samples ordered by a fixed 9-comparator network, three-region
  partition with a center dedup pass.
* ``fixed_pivot_qsort``: first-element pivot, no sampling, no fallback;
  deliberately vulnerable, used as the quadratic target in adversary
  experiments.
"""

from __future__ import annotations

import sys

from .core import Sorter, _default_cmp3
from .datagen import ParkMillerGen
from .inline import compare_inline
from .smallsort import insertion_sort
from .stats import SortStats


def _finish(st: SortStats, nc: int, nwa: int, nws: int, depth: int,
            stages: int) -> SortStats:
    st.comparisons = nc
    st.array_writes = nwa
    st.scratch_writes = nws
    st.element_writes = nwa + nws
    st.max_depth = depth
    st.stages = stages
    return st


_CLASSIC_INSERTION = 16


@compare_inline("cmp")
def classic_qsort(ar, cmp=None, seed: int = 1,
                  cutoff: int = _CLASSIC_INSERTION) -> SortStats:
    """Median-of-3 Hoare-scheme quicksort with full 3-write swaps.

    The pivot stays at its sample slot while the scans skip over it; a
    final swap settles it on the partition boundary so neither subrange
    revisits it.  Subranges at or below ``cutoff`` go to a shift-based
    insertion sort.  ``seed`` is accepted for registry uniformity; the
    algorithm itself is deterministic.
    """
    cmp3 = cmp if cmp is not None else _default_cmp3
    nc = 0
    nwa = 0
    nws = 0
    stages = 0
    maxdepth = 0
    # insertion_sort's [comparisons, array writes, scratch writes]
    small = [0, 0, 0]

    def qs(a, b, depth):
        nonlocal nc, nwa, nws, stages, maxdepth
        while b - a + 1 > cutoff:
            if depth > maxdepth:
                maxdepth = depth
            stages += 1
            mid = (a + b) >> 1
            # median-of-3: order the three samples in place
            nc += 1
            if cmp3(ar[mid], ar[a]) < 0:
                ar[a], ar[mid] = ar[mid], ar[a]
                nwa += 2
                nws += 1
            nc += 1
            if cmp3(ar[b], ar[mid]) < 0:
                ar[mid], ar[b] = ar[b], ar[mid]
                nwa += 2
                nws += 1
                nc += 1
                if cmp3(ar[mid], ar[a]) < 0:
                    ar[a], ar[mid] = ar[mid], ar[a]
                    nwa += 2
                    nws += 1
            pp = mid
            p = ar[pp]
            i = a
            j = b
            while True:
                while i <= b:
                    if i == pp:
                        i += 1
                        continue
                    nc += 1
                    if cmp3(ar[i], p) >= 0:
                        break
                    i += 1
                while j >= a:
                    if j == pp:
                        j -= 1
                        continue
                    nc += 1
                    if cmp3(ar[j], p) <= 0:
                        break
                    j -= 1
                if i >= j:
                    if i == j:
                        # scans met on a pivot-equal element; settle it
                        i += 1
                        j -= 1
                    break
                t = ar[i]
                ar[i] = ar[j]
                ar[j] = t
                nwa += 2
                nws += 1
                i += 1
                j -= 1
                if i > j:
                    break
            # settle the pivot on the boundary so recursion excludes it
            if pp <= j:
                if pp != j:
                    t = ar[pp]
                    ar[pp] = ar[j]
                    ar[j] = t
                    nwa += 2
                    nws += 1
                j -= 1
            elif pp >= i:
                if pp != i:
                    t = ar[pp]
                    ar[pp] = ar[i]
                    ar[i] = t
                    nwa += 2
                    nws += 1
                i += 1
            depth += 1
            if j - a < b - i:
                qs(a, j, depth)
                a = i
            else:
                qs(i, b, depth)
                b = j
        if b > a:
            insertion_sort(ar, a, b, cmp3, small)

    if len(ar) > 1:
        qs(0, len(ar) - 1, 1)
    return _finish(SortStats(), nc + small[0], nwa + small[1],
                   nws + small[2], maxdepth, stages)


@compare_inline("cmp")
def fixed_pivot_qsort(ar, cmp=None, comparison_budget: int | None = None
                      ) -> SortStats:
    """First-element-pivot quicksort; quadratic on cooked inputs.

    ``comparison_budget`` aborts the run once exceeded so adversary
    demonstrations do not have to wait for the full blowup.
    """
    cmp3 = cmp if cmp is not None else _default_cmp3
    nc = 0
    nwa = 0
    nws = 0
    stages = 0
    maxdepth = 0

    class _Budget(Exception):
        pass

    def qs(a, b, depth):
        nonlocal nc, nwa, nws, stages, maxdepth
        while a < b:
            if depth > maxdepth:
                maxdepth = depth
            stages += 1
            p = ar[a]
            i = a
            j = b
            while True:
                while True:
                    nc += 1
                    if cmp3(ar[i], p) >= 0:
                        break
                    i += 1
                while True:
                    nc += 1
                    if cmp3(ar[j], p) <= 0:
                        break
                    j -= 1
                if comparison_budget is not None and nc > comparison_budget:
                    raise _Budget
                if i >= j:
                    if i == j:
                        i += 1
                        j -= 1
                    break
                t = ar[i]
                ar[i] = ar[j]
                ar[j] = t
                nwa += 2
                nws += 1
                i += 1
                j -= 1
                if i > j:
                    break
            depth += 1
            if j - a < b - i:
                qs(a, j, depth)
                a = i
            else:
                qs(i, b, depth)
                b = j

    try:
        if len(ar) > 1:
            qs(0, len(ar) - 1, 1)
    except _Budget:
        pass
    return _finish(SortStats(), nc, nwa, nws, maxdepth, stages)


# ---------------------------------------------------------------------------
# Split-end three-way quicksort.

_BM_INSERTION = 7


@compare_inline("cmp")
def three_way_qsort(ar, cmp=None, seed: int = 1) -> SortStats:
    """Split-end fat-pivot quicksort with the classic pivot ladder."""
    cmp3 = cmp if cmp is not None else _default_cmp3
    nc = 0
    nwa = 0
    nws = 0
    stages = 0
    maxdepth = 0

    def swap(i, j):
        nonlocal nwa, nws
        t = ar[i]
        ar[i] = ar[j]
        ar[j] = t
        nwa += 2
        nws += 1

    def med3(i, j, k):
        nonlocal nc
        nc += 2
        if cmp3(ar[i], ar[j]) < 0:
            if cmp3(ar[j], ar[k]) < 0:
                return j
            nc += 1
            return k if cmp3(ar[i], ar[k]) < 0 else i
        if cmp3(ar[j], ar[k]) > 0:
            return j
        nc += 1
        return k if cmp3(ar[i], ar[k]) > 0 else i

    def insertion(a, b):
        nonlocal nc
        for k in range(a + 1, b + 1):
            j = k
            while j > a:
                nc += 1
                if cmp3(ar[j - 1], ar[j]) <= 0:
                    break
                swap(j, j - 1)
                j -= 1

    def qs(lo, hi, depth):
        nonlocal nc, stages, maxdepth
        while hi - lo + 1 > _BM_INSERTION:
            if depth > maxdepth:
                maxdepth = depth
            stages += 1
            n = hi - lo + 1
            mid = (lo + hi) >> 1
            if n > 40:
                s = n >> 3
                p1 = med3(lo, lo + s, lo + 2 * s)
                p2 = med3(mid - s, mid, mid + s)
                p3 = med3(hi - 2 * s, hi - s, hi)
                pm = med3(p1, p2, p3)
            else:
                pm = med3(lo, mid, hi)
            swap(lo, pm)
            pv = ar[lo]
            a = b = lo + 1
            c = d = hi
            while True:
                while b <= c:
                    nc += 1
                    lc = cmp3(ar[b], pv)
                    if lc > 0:
                        break
                    if lc == 0:
                        swap(a, b)
                        a += 1
                    b += 1
                while c >= b:
                    nc += 1
                    lc = cmp3(ar[c], pv)
                    if lc < 0:
                        break
                    if lc == 0:
                        swap(c, d)
                        d -= 1
                    c -= 1
                if b > c:
                    break
                swap(b, c)
                b += 1
                c -= 1
            # vector-swap the equal runs back to the middle
            span = min(a - lo, b - a)
            i, j = lo, b - span
            for _ in range(span):
                swap(i, j)
                i += 1
                j += 1
            span = min(d - c, hi - d)
            i, j = b, hi - span + 1
            for _ in range(span):
                swap(i, j)
                i += 1
                j += 1
            left_hi = lo + (b - a) - 1
            right_lo = hi - (d - c) + 1
            depth += 1
            if left_hi - lo < hi - right_lo:
                qs(lo, left_hi, depth)
                lo = right_lo
            else:
                qs(right_lo, hi, depth)
                hi = left_hi
        insertion(lo, hi)

    if len(ar) > 1:
        qs(0, len(ar) - 1, 1)
    return _finish(SortStats(), nc, nwa, nws, maxdepth, stages)


# ---------------------------------------------------------------------------
# Dual-pivot quicksort.

_DP_INSERTION = 17
# 9-comparator network ordering 5 elements.
_NETWORK5 = ((0, 1), (3, 4), (2, 4), (2, 3), (0, 3), (0, 2), (1, 4),
             (1, 3), (1, 2))


@compare_inline("cmp")
def dual_pivot_qsort(ar, cmp=None, seed: int = 1) -> SortStats:
    """Two-pivot three-region quicksort (the 2009 scheme)."""
    cmp3 = cmp if cmp is not None else _default_cmp3
    nc = 0
    nwa = 0
    nws = 0
    stages = 0
    maxdepth = 0
    # insertion_sort's [comparisons, array writes, scratch writes]
    small = [0, 0, 0]

    def swap(i, j):
        nonlocal nwa, nws
        t = ar[i]
        ar[i] = ar[j]
        ar[j] = t
        nwa += 2
        nws += 1

    def qs(left, right, depth):
        nonlocal nc, nwa, nws, stages, maxdepth
        while right - left + 1 > _DP_INSERTION:
            if depth > maxdepth:
                maxdepth = depth
            stages += 1
            n = right - left + 1
            sixth = n // 6
            m1 = left + sixth
            m2 = m1 + sixth
            m3 = m2 + sixth
            m4 = m3 + sixth
            m5 = m4 + sixth
            pos = (m1, m2, m3, m4, m5)
            for x, y in _NETWORK5:
                nc += 1
                if cmp3(ar[pos[x]], ar[pos[y]]) > 0:
                    swap(pos[x], pos[y])
            pivot1 = ar[m2]
            pivot2 = ar[m4]
            nc += 1
            diff = cmp3(pivot1, pivot2) != 0
            nws += 2  # both pivots held out
            ar[m2] = ar[left]
            ar[m4] = ar[right]
            nwa += 2
            less = left + 1
            great = right - 1
            if diff:
                k = less
                while k <= great:
                    x = ar[k]
                    nc += 1
                    if cmp3(x, pivot1) < 0:
                        ar[k] = ar[less]
                        ar[less] = x
                        nwa += 2
                        nws += 1
                        less += 1
                    else:
                        nc += 1
                        if cmp3(x, pivot2) > 0:
                            while k < great:
                                nc += 1
                                if cmp3(ar[great], pivot2) <= 0:
                                    break
                                great -= 1
                            swap(k, great)
                            great -= 1
                            x = ar[k]
                            nc += 1
                            if cmp3(x, pivot1) < 0:
                                ar[k] = ar[less]
                                ar[less] = x
                                nwa += 2
                                nws += 1
                                less += 1
                    k += 1
            else:
                k = less
                while k <= great:
                    x = ar[k]
                    nc += 1
                    if cmp3(x, pivot1) == 0:
                        k += 1
                        continue
                    nc += 1
                    if cmp3(x, pivot1) < 0:
                        ar[k] = ar[less]
                        ar[less] = x
                        nwa += 2
                        nws += 1
                        less += 1
                    else:
                        while k < great:
                            nc += 1
                            if cmp3(ar[great], pivot2) <= 0:
                                break
                            great -= 1
                        swap(k, great)
                        great -= 1
                        x = ar[k]
                        nc += 1
                        if cmp3(x, pivot1) < 0:
                            ar[k] = ar[less]
                            ar[less] = x
                            nwa += 2
                            nws += 1
                            less += 1
                    k += 1
            # restore pivots next to their regions
            ar[left] = ar[less - 1]
            ar[less - 1] = pivot1
            ar[right] = ar[great + 1]
            ar[great + 1] = pivot2
            nwa += 4
            dist = great - less
            if diff and dist > n - 13:
                # many center elements: dedup pivot-equal values
                k = less
                while k <= great:
                    x = ar[k]
                    nc += 1
                    if cmp3(x, pivot1) == 0:
                        ar[k] = ar[less]
                        ar[less] = x
                        nwa += 2
                        nws += 1
                        less += 1
                    else:
                        nc += 1
                        if cmp3(x, pivot2) == 0:
                            swap(k, great)
                            great -= 1
                            x = ar[k]
                            nc += 1
                            if cmp3(x, pivot1) == 0:
                                ar[k] = ar[less]
                                ar[less] = x
                                nwa += 2
                                nws += 1
                                less += 1
                    k += 1
            depth += 1
            qs(left, less - 2, depth)
            if diff:
                qs(less, great, depth)
            left = great + 2
        insertion_sort(ar, left, right, cmp3, small)

    if len(ar) > 1:
        qs(0, len(ar) - 1, 1)
    return _finish(SortStats(), nc + small[0], nwa + small[1],
                   nws + small[2], maxdepth, stages)


# ---------------------------------------------------------------------------
# Registry.


def _tristate_entry(ar, cmp=None, seed: int = 1, config=None) -> SortStats:
    return Sorter(config, seed=seed).sort_with_stats(ar, cmp)


def _classic_entry(ar, cmp=None, seed: int = 1, config=None) -> SortStats:
    return classic_qsort(ar, cmp, seed)


def _threeway_entry(ar, cmp=None, seed: int = 1, config=None) -> SortStats:
    return three_way_qsort(ar, cmp, seed)


def _dualpivot_entry(ar, cmp=None, seed: int = 1, config=None) -> SortStats:
    return dual_pivot_qsort(ar, cmp, seed)


REGISTRY = {
    "tristate": _tristate_entry,
    "classic": _classic_entry,
    "threeway": _threeway_entry,
    "dualpivot": _dualpivot_entry,
}


def get_algorithm(name: str):
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; valid: {', '.join(sorted(REGISTRY))}"
        ) from None
