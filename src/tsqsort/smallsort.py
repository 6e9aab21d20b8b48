"""Reduced-copy insertion sort for tiny subranges.

A displaced element is held out once, the gap is shifted over it, and
it is stored once at its target: (shift distance + 2) writes instead of
three writes per adjacent exchange.  Elements already in place cost one
comparison and no writes.

The counts are kept per displaced element, not per shift: its shift
distance, and whether a comparison (rather than reaching ``lo``)
stopped its scan.
"""

from __future__ import annotations

from .inline import compare_inline


@compare_inline()
def insertion_sort(ar, lo: int, hi: int, cmp3, tally) -> None:
    """Sort ar[lo..hi] inclusive.

    ``tally`` is [comparisons, array writes, scratch writes]; holding a
    displaced element out is the one scratch write per displacement.
    ``y`` is the largest element of the sorted prefix ar[lo..k-1], the
    one ar[k] is compared with first: a displaced element leaves it in
    place at ar[k], so it changes only when ar[k] stays.
    """
    if hi <= lo:
        return
    # the outer pass compares each ar[k] with ar[k - 1] once
    ncmp = hi - lo
    nws = 0
    shifts = 0
    y = ar[lo]
    for k in range(lo + 1, hi + 1):
        x = ar[k]
        if cmp3(x, y) < 0:
            ar[k] = y
            j = k - 1
            while j > lo:
                z = ar[j - 1]
                if cmp3(x, z) >= 0:
                    break
                ar[j] = z
                j -= 1
            ar[j] = x
            shifts += k - j
            nws += 1
            if j > lo:
                # a comparison, not lo, stopped the scan
                ncmp += 1
        else:
            y = x
    # each displaced element wrote its k - j shifts and itself once, and
    # compared once per shift after the first
    tally[0] += ncmp + shifts - nws
    tally[1] += shifts + nws
    tally[2] += nws
