import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsqsort.config import SortConfig
from tsqsort.core import Sorter
from tsqsort.inline import _default_cmp3
from tsqsort.pivot import (MEDOF3_MAX_N, MEDOF5_MAX_N, NINTHER_MAX_N,
                           MitigationRng, fifteenth, median_of_3,
                           median_of_5, ninther, rng_next, select_pivot)

from conftest import cmp3


def _med3(values):
    ar = list(values)
    tally = [0, 0, 0]
    dec = median_of_3(ar, 0, 1, 2, cmp3, tally)
    return ar, dec, tally


def test_med3_listing_branches():
    # (input pattern, flag, median, writes)
    cases = [
        ((0, 1, 2), 1, 1, 0),
        ((2, 1, 0), -1, 1, 3),
        ((1, 0, 2), 0, 1, 3),
        ((0, 2, 1), 0, 1, 3),
        ((2, 0, 1), 0, 1, 4),
        ((1, 2, 0), 0, 1, 4),
    ]
    for vals, flag, med, writes in cases:
        ar, dec, tally = _med3(vals)
        assert dec.order_flag == flag, vals
        assert dec.pivot == med, vals
        assert tally[1] + tally[2] == writes, vals
        assert tally[0] <= 3
        assert ar == [0, 1, 2]  # side effect: samples sorted


def test_med3_reversed_sorts_samples():
    ar, dec, _ = _med3((9, 5, 1))
    assert dec.order_flag == -1
    assert ar == [1, 5, 9]


def test_med3_all_equal_reports_sorted():
    ar, dec, tally = _med3((7, 7, 7))
    assert dec.order_flag == 1
    assert dec.pivot == 7
    assert tally[1] + tally[2] == 0


def test_med5_exhaustive_certificates():
    worst_cmp = 0
    worst_writes = 0
    for perm in itertools.permutations((1, 2, 3, 4, 5)):
        ar = list(perm)
        tally = [0, 0, 0]
        dec = median_of_5(ar, 0, 1, 2, 3, 4, cmp3, tally)
        # oracle: copy samples, sort, take the middle
        assert dec.pivot == sorted(perm)[2]
        assert ar[2] == dec.pivot  # median placed at the center index
        assert sorted(ar) == [1, 2, 3, 4, 5]
        worst_cmp = max(worst_cmp, tally[0])
        worst_writes = max(worst_writes, tally[1] + tally[2])
    assert worst_cmp <= 8
    assert worst_writes <= 6


def test_med5_flags():
    tally = [0, 0, 0]
    dec = median_of_5([1, 2, 3, 4, 5], 0, 1, 2, 3, 4, cmp3, tally)
    assert dec.order_flag == 1 and dec.pivot == 3
    assert tally[1] + tally[2] == 0
    tally = [0, 0, 0]
    dec = median_of_5([5, 4, 3, 2, 1], 0, 1, 2, 3, 4, cmp3, tally)
    assert dec.order_flag == -1 and dec.pivot == 3
    assert tally[1] + tally[2] == 0


def test_med5_all_equal():
    tally = [0, 0, 0]
    dec = median_of_5([2] * 5, 0, 1, 2, 3, 4, cmp3, tally)
    assert dec.pivot == 2
    assert dec.order_flag in (-1, 0, 1)


def test_med5_flag_soundness_random():
    rnd = random.Random(42)
    for _ in range(500):
        vals = [rnd.randint(0, 9) for _ in range(5)]
        ar = list(vals)
        dec = median_of_5(ar, 0, 1, 2, 3, 4, cmp3, [0, 0, 0])
        if dec.order_flag == 1:
            assert all(x <= y for x, y in zip(vals, vals[1:]))
        elif dec.order_flag == -1:
            assert all(x >= y for x, y in zip(vals, vals[1:]))
        assert dec.pivot == sorted(vals)[2]


# SHA-256 of (array, tally, decision, comparator calls) over every
# input of four values, captured before median_of_5 was unrolled; with
# the default comparator the inline variant runs and no call is seen
MEDIAN_DIGESTS = {
    (median_of_3, False):
        "f2868de6aec2083b322114f29bd6f834eaa7f30a4fff16ee9d22c93c489b62de",
    (median_of_3, True):
        "776c27634866f612ea06c00f380234b1d779e3adeea25c9730111d0cbcb79739",
    (median_of_5, False):
        "6a1fb263bcf124843155a1aeb88755163e9e174822df87891a2794a727803e43",
    (median_of_5, True):
        "3d1c144cc034ffc8154924aa7de39c1ad0ca31a6d1eee6488d9483d9145fcd13",
}


@pytest.mark.parametrize("fn,logged", sorted(MEDIAN_DIGESTS,
                                             key=lambda k: (k[0].__name__,
                                                            k[1])),
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_medians_exhaustive_digest(fn, logged):
    k = 3 if fn is median_of_3 else 5
    h = hashlib.sha256()
    for vals in itertools.product(range(4), repeat=k):
        ar = list(vals)
        tally = [0, 0, 0]
        log = []

        def logging_cmp3(x, y):
            log.append((x, y))
            return _default_cmp3(x, y)

        dec = fn(ar, *range(k), logging_cmp3 if logged else _default_cmp3,
                 tally)
        h.update(repr((ar, tally, dec, log)).encode())
    assert h.hexdigest() == MEDIAN_DIGESTS[fn, logged]


def test_ninther_group_medians():
    # group medians 1, 5, 9 -> pivot 5
    ar = [0, 1, 2, 4, 5, 6, 8, 9, 10]
    dec = ninther(ar, tuple(range(9)), cmp3, [0, 0, 0])
    assert dec.pivot == 5
    dec = ninther(list(range(9)), tuple(range(9)), cmp3, [0, 0, 0])
    assert dec.order_flag == 1
    rnd = random.Random(7)
    for _ in range(300):
        vals = [rnd.randint(0, 99) for _ in range(9)]
        ar = list(vals)
        dec = ninther(ar, tuple(range(9)), cmp3, [0, 0, 0])
        meds = [sorted(vals[g:g + 3])[1] for g in (0, 3, 6)]
        assert dec.pivot == sorted(meds)[1]


def test_fifteenth_group_medians():
    rnd = random.Random(11)
    dec = fifteenth(list(range(15, 0, -1)), tuple(range(15)), cmp3,
                    [0, 0, 0])
    assert dec.order_flag == -1
    for _ in range(300):
        vals = [rnd.randint(0, 99) for _ in range(15)]
        ar = list(vals)
        dec = fifteenth(ar, tuple(range(15)), cmp3, [0, 0, 0])
        meds = [sorted(vals[g:g + 3])[1] for g in (0, 3, 6, 9, 12)]
        assert dec.pivot == sorted(meds)[2]


def test_fifteenth_group_median_trivial():
    # group medians 1..5 -> pivot 3
    ar = [0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5, 4, 5, 6]
    vals = [sorted(ar[g:g + 3])[1] for g in (0, 3, 6, 9, 12)]
    assert vals == [1, 2, 3, 4, 5]
    dec = fifteenth(ar, tuple(range(15)), cmp3, [0, 0, 0])
    assert dec.pivot == 3


def test_rng_next_arithmetic():
    rng = MitigationRng(1)
    rng_next(rng)
    assert rng.zgen == 16807
    rng_next(rng)
    assert rng.zgen == 282475249
    for _ in range(100):
        rng_next(rng)
        assert 0.5 <= rng.dran < 1.5


def test_rng_zero_seed_redrawn():
    rng = MitigationRng(0)
    assert rng.zgen != 0


def test_seeds_of_zero_residue_are_reproducible():
    # a seed of 0 or 2**31 starts from a fixed state, not from the
    # clock: two sorts of one input with such a seed agree in every
    # count and every stage record
    data = random.Random(665).sample(range(10**6), 665)
    for seed in (0, 2**31):
        runs = []
        for _ in range(2):
            sorter = Sorter(seed=seed)
            records = []
            sorter.stage_hook = records.append
            ar = list(data)
            runs.append((sorter.sort_with_stats(ar), records))
            assert ar == sorted(data)
        assert runs[0] == runs[1], seed


def test_select_pivot_ladder_med3():
    cfg = SortConfig(mitigation_enabled=False)
    ar = list(range(50))
    dec = select_pivot(ar, 0, 49, cfg, MitigationRng(1), cmp3, [0, 0, 0])
    assert dec.pi == 24  # median-of-3 of (a, mid, b)
    assert dec.pivot == 24


def test_select_pivot_med5_positions():
    cfg = SortConfig(mitigation_enabled=False)
    n = 400
    ar = list(range(n))
    dec = select_pivot(ar, 0, n - 1, cfg, MitigationRng(1), cmp3, [0, 0, 0])
    # without mitigation the interior samples sit at gap = n // 4
    assert dec.pivot == sorted([ar[0], ar[100], ar[199], ar[n - 1 - 100],
                                ar[n - 1]])[2]


def test_select_pivot_med5_gap_scales_with_dran():
    cfg = SortConfig(mitigation_enabled=True)
    rng = MitigationRng(1)
    rng_next(rng)
    rng.dran = 1.4
    marks = []

    def spy(x, y):
        marks.append((x, y))
        return cmp3(x, y)

    ar = list(range(400))
    select_pivot(ar, 0, 399, cfg, rng, spy, [0, 0, 0])
    touched = {v for pair in marks for v in pair}
    assert 140 in touched and 399 - 140 in touched  # a+gap and b-gap


def _ladder_samples(n):
    """Distinct sample positions the ladder's rung for ``n`` reads."""
    if n <= MEDOF3_MAX_N:
        return 3
    if n <= MEDOF5_MAX_N:
        return 5
    if n <= NINTHER_MAX_N:
        return 9
    return 15


def _at_ladder_boundaries(test):
    """Also run ``test`` at both sides of every rung, mitigation on and off."""
    for n in (MEDOF3_MAX_N, MEDOF3_MAX_N + 1, MEDOF5_MAX_N, MEDOF5_MAX_N + 1,
              NINTHER_MAX_N, NINTHER_MAX_N + 1):
        for mitigate in (False, True):
            test = example(n, 1, mitigate)(test)
    return test


@settings(max_examples=200, deadline=None)
@_at_ladder_boundaries
@given(st.integers(5, 200000), st.integers(1, 2**31 - 1), st.booleans())
def test_sample_positions_strictly_increasing(n, seed, mitigate):
    cfg = SortConfig(mitigation_enabled=mitigate)
    rng = MitigationRng(seed)
    rng_next(rng)
    a, b = 3, 3 + n - 1
    positions = []

    class Probe:
        def __getitem__(self, i):
            positions.append(i)
            return 0

        def __setitem__(self, i, v):
            positions.append(i)

    select_pivot(Probe(), a, b, cfg, rng, lambda x, y: 0, [0, 0, 0])
    assert all(a <= i <= b for i in positions)
    assert len(set(positions)) == _ladder_samples(n), (n, seed, mitigate)
