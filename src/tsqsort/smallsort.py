"""Reduced-copy insertion sort for tiny subranges.

A displaced element is held out once, the gap is shifted over it, and
it is stored once at its target: (shift distance + 2) writes instead of
three writes per adjacent exchange.  Elements already in place cost one
comparison and no writes.
"""

from __future__ import annotations

from .inline import compare_inline


@compare_inline()
def insertion_sort(ar, lo: int, hi: int, cmp3, tally) -> None:
    """Sort ar[lo..hi] inclusive.

    ``tally`` is [comparisons, array writes, scratch writes]; holding a
    displaced element out is the one scratch write per displacement.
    """
    if hi <= lo:
        return
    # the outer pass compares each ar[k] with ar[k - 1] once
    ncmp = hi - lo
    nwa = 0
    nws = 0
    for k in range(lo + 1, hi + 1):
        if cmp3(ar[k], ar[k - 1]) < 0:
            j = k
            temp = ar[j]
            nws += 1
            ar[j] = ar[j - 1]
            nwa += 1
            j -= 1
            if j > lo:
                while True:
                    ncmp += 1
                    if cmp3(temp, ar[j - 1]) < 0:
                        ar[j] = ar[j - 1]
                        nwa += 1
                        j -= 1
                        if j == lo:
                            break
                    else:
                        break
            ar[j] = temp
            nwa += 1
    tally[0] += ncmp
    tally[1] += nwa
    tally[2] += nws
