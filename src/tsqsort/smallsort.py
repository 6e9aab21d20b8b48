"""Reduced-copy insertion sort for tiny subranges.

A displaced element is held out once, the gap is shifted over it, and
it is stored once at its target: (shift distance + 2) writes instead of
three writes per adjacent exchange.  Elements already in place cost one
comparison and no writes.

The counts are kept per displaced element, not per shift: its shift
distance, and whether a comparison (rather than reaching ``lo``)
stopped its scan.

A leaf of the tristate driver other than its leftmost has a left
neighbour ``ar[lo - 1]`` that is at most every element of the leaf, as
in pdqsort's ``unguarded_insertion_sort`` and JDK 7's dual-pivot
quicksort.  The driver says so with ``unguarded``, and the total-order
body (see ``inline``) then lets that neighbour stop the scan of a
displaced element instead of testing for ``lo`` at every step.  A scan
that reaches ``lo`` makes one comparison more there, with no Python code
of any element or comparator to see it, and the count law above counts
none for it, so every count is the one the guarded scan gives.
"""

from __future__ import annotations

from .inline import TOTAL_BODY, compare_inline


@compare_inline()
def insertion_sort(ar, lo: int, hi: int, cmp3, tally,
                   unguarded: bool = False) -> None:
    """Sort ar[lo..hi] inclusive.

    ``tally`` is [comparisons, array writes, scratch writes]; holding a
    displaced element out is the one scratch write per displacement.
    ``unguarded`` promises ar[lo - 1] <= every element of ar[lo..hi];
    only the total-order body uses it.
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
            if TOTAL_BODY and unguarded:
                # ar[lo - 1] <= x stops the scan; on a total order of
                # exact ints or strs, x < z is the outcome cmp3 shifts on
                z = ar[j - 1]
                while x < z:
                    ar[j] = z
                    j -= 1
                    z = ar[j - 1]
            else:
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
    if nws:
        # each displaced element wrote its k - j shifts and itself once,
        # and compared once per shift after the first
        ncmp += shifts - nws
        tally[1] += shifts + nws
        tally[2] += nws
    tally[0] += ncmp
