import dataclasses
import itertools
import random

from tsqsort import SortConfig, Sorter, handlers
from tsqsort.core import CT_CMP, CT_LEN, CT_WA, CT_WS
from tsqsort.handlers import handle_possibly_reversed, handle_possibly_sorted

from conftest import assert_stage_law, cmp3

# Each handler runs on the whole array, ar[0..len(ar) - 1], with the
# pivot extracted and the center slot logically empty.


def test_sorted_bypass_zero_migration_writes():
    ar = [1, 2, 3, 4, 5, 6, 7]
    ct = [0] * CT_LEN
    out = handle_possibly_sorted(ar, 0, 6, 4, ct=ct)
    assert out.bypassed
    assert (out.new_l, out.new_r) == (2, 4)
    # the only write is the pivot restore into the center slot
    assert ct[CT_WA] + ct[CT_WS] == 1
    assert ar == [1, 2, 3, 4, 5, 6, 7]


def test_sorted_all_equal_absorption():
    ar = [1, 1, 1, 1, 1]
    out = handle_possibly_sorted(ar, 0, 4, 1)
    assert out.bypassed
    assert out.new_l < 0 and out.new_r > 4


def test_sorted_mismatch_falls_back_and_stage_completes():
    ar = [1, 2, 7, 4, 5]
    # wrong-looking pivot 7 from "sorted" samples
    out = handle_possibly_sorted(ar, 0, 4, 7, finish=True)
    if not out.bypassed:
        assert out.resume_point
    assert_stage_law(ar, 0, 4, out.new_l, out.new_r, 7)


def test_sorted_handler_random_inputs_transparent():
    rnd = random.Random(6)
    for trial in range(200):
        n = rnd.randint(5, 80)
        ar = [rnd.randint(0, rnd.choice([4, 50])) for _ in range(n)]
        mid = (n - 1) >> 1
        pivot = ar[mid]
        snapshot = list(ar)
        out = handle_possibly_sorted(ar, 0, n - 1, pivot, finish=True)
        assert sorted(ar) == sorted(snapshot)
        assert_stage_law(ar, 0, n - 1, out.new_l, out.new_r, pivot)
        assert out.kind in ("bypass", "fallback")


def test_equal_fallbacks_compare_equal():
    # two runs of the same fallback give equal outcomes: the resume
    # state they carry is a tuple, compared by value
    def attempt():
        ar = [1, 6, 3, 4, 2]
        return handle_possibly_sorted(ar, 0, 4, 3)

    first, second = attempt(), attempt()
    assert first.kind == "fallback" and first.resume_point == "l_scan1_2"
    assert first == second
    assert first != dataclasses.replace(first, resume=None)


def test_reversed_full_bypass_swap_count():
    ar = [9, 8, 7, 6, 5, 4, 3, 2, 1]
    ct = [0] * CT_LEN
    out = handle_possibly_reversed(ar, 0, 8, 5, tolerance=3, ct=ct)
    assert out.bypassed
    # floor(9/2) = 4 pairwise swaps plus the pivot restore
    assert ct[CT_WA] + ct[CT_WS] == 3 * 4 + 1
    assert ar == [1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_reversed_even_length():
    ar = [8, 7, 6, 5, 4, 3, 2, 1]
    # pivot 5 extracted from the center slot
    out = handle_possibly_reversed(ar, 0, 7, ar[3], finish=True)
    assert sorted(ar) == list(range(1, 9))
    assert_stage_law(ar, 0, 7, out.new_l, out.new_r, 5)


def test_reversed_with_few_misplaced_within_tolerance():
    ar = [9, 8, 7, 6, 5, 4, 3, 2, 1]
    ar[1], ar[7] = ar[7], ar[1]  # two misplaced elements
    out = handle_possibly_reversed(ar, 0, 8, 5, tolerance=3, finish=True)
    assert_stage_law(ar, 0, 8, out.new_l, out.new_r, 5)
    assert sorted(ar) == list(range(1, 10))


def test_reversed_random_mislabel_falls_back():
    rnd = random.Random(13)
    for trial in range(200):
        n = rnd.randint(5, 80)
        ar = [rnd.randint(0, rnd.choice([4, 60])) for _ in range(n)]
        mid = (n - 1) >> 1
        pivot = ar[mid]
        snapshot = list(ar)
        out = handle_possibly_reversed(ar, 0, n - 1, pivot, tolerance=3,
                                       finish=True)
        assert sorted(ar) == sorted(snapshot)
        assert_stage_law(ar, 0, n - 1, out.new_l, out.new_r, pivot)


def test_handler_transparency_full_sort():
    # handlers change counts, never results
    rnd = random.Random(3)
    for trial in range(60):
        n = rnd.randint(4, 300)
        kind = trial % 3
        if kind == 0:
            ar = sorted(rnd.randint(0, 40) for _ in range(n))
        elif kind == 1:
            ar = sorted((rnd.randint(0, 40) for _ in range(n)),
                        reverse=True)
        else:
            ar = [rnd.randint(0, 40) for _ in range(n)]
        got = list(ar)
        Sorter(seed=trial + 1).sort(got)
        assert got == sorted(ar)


def test_sorted_fast_path_write_law():
    n = 4096
    st = Sorter(seed=2).sort_with_stats(list(range(n)))
    assert st.handler_activations["fallbacks"] == 0
    assert st.element_writes == 2 * st.handler_activations["sorted"]


def test_reversed_fast_path_write_law():
    n = 4097
    st = Sorter(seed=2).sort_with_stats(list(range(n))[::-1])
    assert st.element_writes <= 3 * (n // 2) + 4 * st.stages


def test_fallback_comparison_budget():
    # on fallback no slot is compared against the pivot more than twice
    # within the stage: handler + machine comparisons stay under 2n + O(1)
    rnd = random.Random(8)
    for trial in range(100):
        n = rnd.randint(8, 200)
        ar = [rnd.randint(0, 30) for _ in range(n)]
        pivot = ar[(n - 1) >> 1]
        ct = [0] * CT_LEN
        arr = list(ar)
        handle_possibly_sorted(arr, 0, n - 1, pivot, ct=ct, finish=True)
        assert ct[CT_CMP] <= 2 * n + 4
        ct = [0] * CT_LEN
        arr = list(ar)
        handle_possibly_reversed(arr, 0, n - 1, pivot, tolerance=3, ct=ct,
                                 finish=True)
        assert ct[CT_CMP] <= 2 * n + 4


def test_reversed_default_tolerance_is_the_config_default(monkeypatch):
    ar = [9, 8, 7, 6, 5, 4, 3, 2, 1]
    ar[1], ar[7] = ar[7], ar[1]  # two misplaced elements

    def attempt(**kw):
        arr = list(ar)
        out = handle_possibly_reversed(arr, 0, 8, 5, **kw)
        return out.kind, out.resume_point, arr

    assert attempt() == attempt(tolerance=3) != attempt(tolerance=0)
    monkeypatch.setattr(handlers, "DEFAULT_CONFIG",
                        SortConfig(reverse_tolerance=0))
    assert attempt() == attempt(tolerance=0)


def test_handlers_end_tiny_stages_by_the_stage_law():
    # ranges of one to three elements, every array over three values
    # and every pivot taken from the center slot, on both comparator
    # paths: each handler ends the stage with a permutation of its input
    # and bounds that satisfy the stage law
    for n in (1, 2, 3):
        for data in itertools.product(range(3), repeat=n):
            pivot = data[(n - 1) >> 1]
            for handle in (handle_possibly_sorted, handle_possibly_reversed):
                for cmp in (None, cmp3):
                    ar = list(data)
                    out = handle(ar, 0, n - 1, pivot, cmp, finish=True)
                    case = (n, data, handle.__name__, cmp)
                    assert sorted(ar) == sorted(data), case
                    assert -1 <= out.new_l < out.new_r <= n, case
                    assert_stage_law(ar, 0, n - 1, out.new_l, out.new_r,
                                     pivot)
