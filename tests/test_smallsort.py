import itertools
import random

from tsqsort.inline import _default_cmp3
from tsqsort.instrument import counting_comparator
from tsqsort.smallsort import insertion_sort

from conftest import cmp3


def _run(values):
    ar = list(values)
    tally = [0, 0, 0]
    insertion_sort(ar, 0, len(ar) - 1, cmp3, tally)
    return ar, tally[0], tally[1] + tally[2]


def test_sorted_input_costs_nothing():
    ar, ncmp, writes = _run([1, 2, 3, 4])
    assert ar == [1, 2, 3, 4]
    assert ncmp == 3
    assert writes == 0


def test_reversed_three():
    ar, ncmp, writes = _run([3, 2, 1])
    assert ar == [1, 2, 3]
    assert writes == 7  # k=1: 3 writes; k=2: 4 writes


def test_pair():
    ar, ncmp, writes = _run([2, 1])
    assert ar == [1, 2]
    assert ncmp == 1
    assert writes == 3


def test_exhaustive_equivalence():
    for n in range(0, 6):
        for tup in itertools.product(range(3), repeat=n):
            ar, _, _ = _run(tup)
            assert ar == sorted(tup), tup


def _inversions(values):
    return sum(1 for i in range(len(values)) for j in range(i)
               if values[j] > values[i])


def test_write_economy_vs_swap_based():
    rnd = random.Random(5)
    for _ in range(300):
        vals = [rnd.randint(0, 9) for _ in range(rnd.randint(2, 24))]
        inv = _inversions(vals)
        _, _, writes = _run(vals)
        assert writes <= 3 * inv
        if inv and all(d == 1 for d in _displacements(vals)):
            assert writes == 3 * inv


def _displacements(values):
    # shift distance of each displaced element under insertion sort
    out = []
    ar = []
    for v in values:
        pos = len(ar)
        while pos > 0 and ar[pos - 1] > v:
            pos -= 1
        if pos != len(ar):
            out.append(len(ar) - pos)
        ar.insert(pos, v)
    return out


def test_subrange_only():
    ar = [9, 3, 1, 2, 0]
    insertion_sort(ar, 1, 3, cmp3, [0, 0, 0])
    assert ar == [9, 1, 2, 3, 0]


def per_step_insertion_sort(ar, lo, hi, cmp3, tally):
    """The reference: the same sort counting every comparison and write
    as it makes it, re-reading each operand from the array."""
    if hi <= lo:
        return
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


def small_inputs():
    """Every permutation of n <= 7 and every word over {0, 1, 2} of
    length <= 7."""
    for n in range(8):
        yield from itertools.permutations(range(n))
        yield from itertools.product(range(3), repeat=n)


def recording():
    """A comparator that logs its operands, and the log."""
    calls = []

    def cmp(x, y):
        calls.append((x, y))
        return cmp3(x, y)
    return cmp, calls


def test_counts_match_the_per_step_reference():
    # each input at lo 0 and 3, between sentinels the sort must not
    # touch; the compiled variant (default comparator) and the original
    # (a counting comparator) both match the reference's array and
    # tally, the original makes the reference's comparisons in the same
    # order, and the tally's comparisons are the comparator's calls
    for values in small_inputs():
        for lo in (0, 3):
            data = [-1] * lo + list(values) + [9, 9]
            hi = lo + len(values) - 1
            want = list(data)
            want_tally = [0, 0, 0]
            ref_cmp, want_calls = recording()
            per_step_insertion_sort(want, lo, hi, ref_cmp, want_tally)
            ar = list(data)
            tally = [0, 0, 0]
            insertion_sort(ar, lo, hi, _default_cmp3, tally)
            assert (ar, tally) == (want, want_tally), (values, lo)
            rec_cmp, calls = recording()
            cc = counting_comparator(rec_cmp)
            ar = list(data)
            tally = [0, 0, 0]
            insertion_sort(ar, lo, hi, cc, tally)
            assert (ar, tally) == (want, want_tally), (values, lo)
            assert calls == want_calls, (values, lo)
            assert tally[0] == cc.count, (values, lo)
