"""Pivot selection ladder with order-flag detection and sample jitter.

Every selector leaves its chosen pivot value at the center index of the
range and reports an order flag: +1 when the samples were found
nondecreasing, -1 when nonincreasing, 0 otherwise.  The flag feeds the
possibly-sorted / possibly-reversed fast paths.

Worst-case mitigation shifts the interior sample positions by a factor
drawn from a private multiplicative congruential generator once per
sort call; the first, middle and last samples stay fixed so the
estimator keeps its anchor points.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .config import SortConfig
from .inline import compare_inline

R_A = 16807
R_M = 2147483648
# the state a seed whose residue mod R_M is 0 starts from, since state 0
# is absorbing; datagen.ParkMillerGen maps a zero seed to the same state
_ZERO_SEED_STATE = 123456789


class MitigationRng:
    """Park-Miller-style generator driving sample-position jitter.

    ``dran`` is uniform in [0.5, 1.5) and scales interior sample
    offsets; ``dran2 = 1 + dran``.  Only ``seed=None`` reads the wall
    clock, so every given seed is reproducible.  A zero state would be
    absorbing, so a seed whose residue mod 2**31 is 0 (0, 2**31, ...)
    starts from a fixed nonzero state instead.
    """

    __slots__ = ("zgen", "dran", "dran2")

    def __init__(self, seed: int | None = None):
        if seed is None:
            seed = time.time_ns()
        self.zgen = int(seed) % R_M or _ZERO_SEED_STATE
        self.dran = 1.0
        self.dran2 = 2.0

    def next(self) -> "MitigationRng":
        self.zgen = (R_A * self.zgen) % R_M
        self.dran = 0.5 + self.zgen / R_M
        self.dran2 = 1.0 + self.dran
        return self


def rng_next(rng: MitigationRng) -> MitigationRng:
    """Advance the generator one step (done once per sort call)."""
    return rng.next()


class PivotDecision(NamedTuple):
    """Chosen pivot value, the index it sits at, and the order flag.

    A named tuple: built once per stage, it costs about half what a
    frozen dataclass costs to construct.  The selectors build it with
    ``tuple.__new__(PivotDecision, (pivot, pi, flag))``, which skips the
    generated ``__new__``'s argument parsing and takes under half as long
    again.
    """

    pivot: object
    pi: int
    order_flag: int


@compare_inline()
def median_of_3(ar, i0: int, i1: int, i2: int, cmp3, tally) -> PivotDecision:
    """Median of three elements, sorting them in place as a side effect.

    Returns flag +1 when the samples were already nondecreasing, -1 when
    nonincreasing.  At most 3 comparisons; 0, 3 or 4 element writes.
    Each outcome adds its comparisons once, after its last one.
    """
    if cmp3(ar[i1], ar[i0]) >= 0:
        if cmp3(ar[i2], ar[i0]) >= 0:
            if cmp3(ar[i2], ar[i1]) >= 0:
                # already 0 1 2
                tally[0] += 3
                return tuple.__new__(PivotDecision, (ar[i1], i1, 1))
            # 0 2 1: swap the upper pair
            temp = ar[i1]
            ar[i1] = ar[i2]
            ar[i2] = temp
            tally[0] += 3
            tally[1] += 2
        else:
            # 2 0 1: rotate right
            temp = ar[i0]
            ar[i0] = ar[i2]
            ar[i2] = ar[i1]
            ar[i1] = temp
            tally[0] += 2
            tally[1] += 3
    elif cmp3(ar[i2], ar[i1]) >= 0:
        if cmp3(ar[i2], ar[i0]) >= 0:
            # 1 0 2: swap the lower pair
            temp = ar[i0]
            ar[i0] = ar[i1]
            ar[i1] = temp
            tally[1] += 2
        else:
            # 1 2 0: rotate left
            temp = ar[i0]
            ar[i0] = ar[i1]
            ar[i1] = ar[i2]
            ar[i2] = temp
            tally[1] += 3
        tally[0] += 3
    else:
        # 2 1 0: reversed; swap the ends
        temp = ar[i0]
        ar[i0] = ar[i2]
        ar[i2] = temp
        tally[0] += 2
        tally[1] += 2
        tally[2] += 1
        return tuple.__new__(PivotDecision, (ar[i1], i1, -1))
    tally[2] += 1
    return tuple.__new__(PivotDecision, (ar[i1], i1, 0))


@compare_inline()
def median_of_5(ar, i0: int, i1: int, i2: int, i3: int, i4: int,
                cmp3, tally) -> PivotDecision:
    """Median of five elements, placed at the center index.

    The full sample order is identified by binary insertion (at most 8
    comparisons, ties folded toward the stable order); the median is
    then moved to ``i2`` with a single three-write swap when it is not
    already there.  Fully ascending samples report +1, fully descending
    -1; both of those need zero writes.

    The insertion is unrolled into fixed compare steps: s0..s3 hold the
    sample values in the order found so far and o0..o3 the sample
    numbers (0 for ``i0`` .. 4 for ``i4``) at those places.
    """
    v0 = ar[i0]
    v1 = ar[i1]
    v2 = ar[i2]
    v3 = ar[i3]
    v4 = ar[i4]
    if cmp3(v1, v0) >= 0:
        s0, s1, o0, o1 = v0, v1, 0, 1
    else:
        s0, s1, o0, o1 = v1, v0, 1, 0
    # comparisons: one for sample 1, one or two for sample 2, two for
    # sample 3, and two for sample 4 or three when it goes below s1
    if cmp3(v2, s1) >= 0:
        s2, o2 = v2, 2
        ncmp = 6
    elif cmp3(v2, s0) >= 0:
        s1, s2, o1, o2 = v2, s1, 2, o1
        ncmp = 7
    else:
        s0, s1, s2, o0, o1, o2 = v2, s0, s1, 2, o0, o1
        ncmp = 7
    if cmp3(v3, s1) >= 0:
        if cmp3(v3, s2) >= 0:
            s3, o3 = v3, 3
        else:
            s2, s3, o2, o3 = v3, s2, 3, o2
    elif cmp3(v3, s0) >= 0:
        s1, s2, s3, o1, o2, o3 = v3, s1, s2, 3, o1, o2
    else:
        s0, s1, s2, s3, o0, o1, o2, o3 = v3, s0, s1, s2, 3, o0, o1, o2
    # the last insert moves only sample numbers, and only o0..o3: they
    # fix the whole order, so o4 is never needed
    if cmp3(v4, s2) >= 0:
        if cmp3(v4, s3) < 0:
            o3 = 4
    elif cmp3(v4, s1) >= 0:
        o2, o3 = 4, o2
    else:
        ncmp += 1
        if cmp3(v4, s0) >= 0:
            o1, o2, o3 = 4, o1, o2
        else:
            o0, o1, o2, o3 = 4, o0, o1, o2
    tally[0] += ncmp

    if o0 == 0 and o1 == 1 and o2 == 2 and o3 == 3:
        flag = 1
    elif o0 == 4 and o1 == 3 and o2 == 2 and o3 == 1:
        flag = -1
    else:
        flag = 0

    if o2 != 2:
        j = i0 if o2 == 0 else i1 if o2 == 1 else i3 if o2 == 3 else i4
        temp = ar[i2]
        ar[i2] = ar[j]
        ar[j] = temp
        tally[1] += 2
        tally[2] += 1
    return tuple.__new__(PivotDecision, (ar[i2], i2, flag))


def ninther(ar, idx9, cmp3, tally) -> PivotDecision:
    """Median of the medians of three spread 3-samples."""
    g0 = median_of_3(ar, idx9[0], idx9[1], idx9[2], cmp3, tally)
    g1 = median_of_3(ar, idx9[3], idx9[4], idx9[5], cmp3, tally)
    g2 = median_of_3(ar, idx9[6], idx9[7], idx9[8], cmp3, tally)
    outer = median_of_3(ar, idx9[1], idx9[4], idx9[7], cmp3, tally)
    flag = _combine_flags((g0.order_flag, g1.order_flag, g2.order_flag),
                          outer.order_flag)
    return tuple.__new__(PivotDecision, (outer.pivot, idx9[4], flag))


def fifteenth(ar, idx15, cmp3, tally) -> PivotDecision:
    """Median of five of the medians of 3; for very large ranges."""
    groups = [
        median_of_3(ar, idx15[3 * g], idx15[3 * g + 1], idx15[3 * g + 2],
                    cmp3, tally)
        for g in range(5)
    ]
    centers = [idx15[1], idx15[4], idx15[7], idx15[10], idx15[13]]
    outer = median_of_5(ar, centers[0], centers[1], centers[2],
                        centers[3], centers[4], cmp3, tally)
    flag = _combine_flags([g.order_flag for g in groups], outer.order_flag)
    return tuple.__new__(PivotDecision, (outer.pivot, centers[2], flag))


def _combine_flags(group_flags, outer_flag) -> int:
    """The flag every group and the outer median agree on, else 0."""
    first = group_flags[0]
    if outer_flag == first and \
            group_flags.count(first) == len(group_flags):
        return first
    return 0


def select_pivot(ar, a: int, b: int, config: SortConfig,
                 rng: MitigationRng, cmp3, tally) -> PivotDecision:
    """Pick the pivot for [a..b] using the size ladder.

    ``rng`` must have been advanced once for the current sort call; its
    ``dran`` scales the interior sample offsets when mitigation is on.
    All sample positions stay strictly increasing inside [a, b], with
    the first, middle and last anchors untouched.
    """
    n = b - a + 1
    mid = (a + b) >> 1
    if n <= config.medof3_max_n and (config.medof3_small_enabled or n < 5):
        return median_of_3(ar, a, mid, b, cmp3, tally)

    mitigate = config.mitigation_enabled
    dran = rng.dran if mitigate else 1.0

    if n <= config.medof5_max_n:
        gap = int((n >> 2) * dran) if mitigate else (n >> 2)
        gap = max(1, min(gap, mid - a - 1, b - mid - 1))
        return median_of_5(ar, a, a + gap, mid, b - gap, b, cmp3, tally)

    if n <= config.ninther_max_n:
        u = int((n >> 3) * dran) if mitigate else (n >> 3)
        u = max(1, min(u, (mid - a - 1) // 3, (b - mid - 1) // 3))
        idx9 = (a, a + u, a + 2 * u,
                mid - u, mid, mid + u,
                b - 2 * u, b - u, b)
        return ninther(ar, idx9, cmp3, tally)

    d = int((n >> 4) * dran) if mitigate else (n >> 4)
    q = int((n >> 2) * dran) if mitigate else (n >> 2)
    q = max(7, min(q, mid - a - 2 * d - 1, b - mid - 2 * d - 1))
    d = max(1, min(d, (q - 1) // 3))
    q1 = a + q
    q3 = b - q
    idx15 = (a, a + d, a + 2 * d,
             q1 - d, q1, q1 + d,
             mid - d, mid, mid + d,
             q3 - d, q3, q3 + d,
             b - 2 * d, b - d, b)
    if __debug__:
        assert all(x < y for x, y in zip(idx15, idx15[1:])), idx15
    return fifteenth(ar, idx15, cmp3, tally)
