import itertools
import random

from tsqsort import SortConfig, Sorter, handlers
from tsqsort.core import CT_CMP, CT_LEN, CT_WA, CT_WS, PartitionFrame
from tsqsort.handlers import handle_possibly_reversed, handle_possibly_sorted

from conftest import assert_stage_law, cmp3
from test_reversed_fast_path_sweep import REVERSED_RESUME_LABELS
from test_sorted_fast_path_sweep import SORTED_RESUME_LABELS


def _frame_for(ar, pivot):
    fr = PartitionFrame(0, len(ar) - 1)
    fr.pivot = pivot  # extracted; center slot logically empty
    return fr


def test_sorted_bypass_zero_migration_writes():
    ar = [1, 2, 3, 4, 5, 6, 7]
    fr = _frame_for(ar, 4)
    ct = [0] * CT_LEN
    out = handle_possibly_sorted(ar, fr, ct=ct)
    assert out.bypassed
    assert (out.new_l, out.new_r) == (2, 4)
    # the only write is the pivot restore into the center slot
    assert ct[CT_WA] + ct[CT_WS] == 1
    assert ar == [1, 2, 3, 4, 5, 6, 7]


def test_sorted_all_equal_absorption():
    ar = [1, 1, 1, 1, 1]
    fr = _frame_for(ar, 1)
    out = handle_possibly_sorted(ar, fr)
    assert out.bypassed
    assert out.new_l < 0 and out.new_r > 4


def test_sorted_mismatch_falls_back_and_stage_completes():
    ar = [1, 2, 7, 4, 5]
    fr = _frame_for(ar, ar[2])
    fr.pivot = 7  # wrong-looking pivot from "sorted" samples
    out = handle_possibly_sorted(ar, fr, finish=True)
    if not out.bypassed:
        assert out.resume_point
    assert_stage_law(ar, 0, 4, fr.new_l, fr.new_r, 7)


def test_sorted_handler_random_inputs_transparent():
    rnd = random.Random(6)
    for trial in range(200):
        n = rnd.randint(5, 80)
        ar = [rnd.randint(0, rnd.choice([4, 50])) for _ in range(n)]
        mid = (n - 1) >> 1
        pivot = ar[mid]
        snapshot = list(ar)
        fr = _frame_for(ar, pivot)
        out = handle_possibly_sorted(ar, fr, finish=True)
        assert sorted(ar) == sorted(snapshot)
        assert_stage_law(ar, 0, n - 1, fr.new_l, fr.new_r, pivot)
        assert out.kind in ("bypass", "fallback")


def test_equal_fallbacks_compare_equal():
    # the frame is left out of equality: two runs of the same fallback
    # give equal outcomes although each carries its own frame
    def attempt():
        ar = [1, 6, 3, 4, 2]
        return handle_possibly_sorted(ar, _frame_for(ar, 3))

    first, second = attempt(), attempt()
    assert first.kind == "fallback" and first.resume_point == "l_scan1_2"
    assert first.frame is not second.frame
    assert first == second


def test_reversed_full_bypass_swap_count():
    ar = [9, 8, 7, 6, 5, 4, 3, 2, 1]
    fr = _frame_for(ar, 5)
    ct = [0] * CT_LEN
    out = handle_possibly_reversed(ar, fr, tolerance=3, ct=ct)
    assert out.bypassed
    # floor(9/2) = 4 pairwise swaps plus the pivot restore
    assert ct[CT_WA] + ct[CT_WS] == 3 * 4 + 1
    assert ar == [1, 2, 3, 4, 5, 6, 7, 8, 9]


def test_reversed_even_length():
    ar = [8, 7, 6, 5, 4, 3, 2, 1]
    fr = _frame_for(ar, ar[3])  # pivot 5 extracted from the center slot
    handle_possibly_reversed(ar, fr, finish=True)
    assert sorted(ar) == list(range(1, 9))
    assert_stage_law(ar, 0, 7, fr.new_l, fr.new_r, 5)


def test_reversed_with_few_misplaced_within_tolerance():
    ar = [9, 8, 7, 6, 5, 4, 3, 2, 1]
    ar[1], ar[7] = ar[7], ar[1]  # two misplaced elements
    fr = _frame_for(ar, 5)
    out = handle_possibly_reversed(ar, fr, tolerance=3, finish=True)
    assert_stage_law(ar, 0, 8, fr.new_l, fr.new_r, 5)
    assert sorted(ar) == list(range(1, 10))


def test_reversed_random_mislabel_falls_back():
    rnd = random.Random(13)
    for trial in range(200):
        n = rnd.randint(5, 80)
        ar = [rnd.randint(0, rnd.choice([4, 60])) for _ in range(n)]
        mid = (n - 1) >> 1
        pivot = ar[mid]
        snapshot = list(ar)
        fr = _frame_for(ar, pivot)
        out = handle_possibly_reversed(ar, fr, tolerance=3, finish=True)
        assert sorted(ar) == sorted(snapshot)
        assert_stage_law(ar, 0, n - 1, fr.new_l, fr.new_r, pivot)


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
        fr = _frame_for(list(ar), pivot)
        ct = [0] * CT_LEN
        arr = list(ar)
        handle_possibly_sorted(arr, fr, ct=ct, finish=True)
        assert ct[CT_CMP] <= 2 * n + 4
        fr = _frame_for(list(ar), pivot)
        ct = [0] * CT_LEN
        arr = list(ar)
        handle_possibly_reversed(arr, fr, tolerance=3, ct=ct, finish=True)
        assert ct[CT_CMP] <= 2 * n + 4


def _fallback_frame(data, pivot, handle, lc):
    """A handler's fallback, entered with ``fr.lc = lc``: its resume
    point, array, counters and every frame slot."""
    ar = list(data)
    fr = _frame_for(ar, pivot)
    fr.lc = lc
    ct = [0] * CT_LEN
    out = handle(ar, fr, ct=ct)
    return (out.resume_point, ar, ct,
            [getattr(fr, name) for name in PartitionFrame.__slots__])


def test_fallback_frame_does_not_depend_on_the_stage_before():
    # a sort hands each stage the frame the stage before left, so a
    # fallback must store every slot the machine reads: entered with two
    # different lc values, each handler leaves equal frames at every
    # resume point it has
    rnd = random.Random(20)
    seen = {handle_possibly_sorted: set(), handle_possibly_reversed: set()}
    for trial in range(3000):
        n = rnd.randint(5, 60)
        data = [rnd.randint(0, rnd.choice([3, 20, 1000])) for _ in range(n)]
        if trial % 3:
            data.sort(reverse=trial % 3 == 2)
        pivot = data[(n - 1) >> 1]
        if trial % 4 == 0:
            data[rnd.randrange(n)] = pivot
        for handle, labels in seen.items():
            first = _fallback_frame(data, pivot, handle, -7)
            if first[0]:
                assert _fallback_frame(data, pivot, handle, 7) == first, \
                    (trial, handle.__name__, first[0])
                labels.add(first[0])
    assert seen[handle_possibly_sorted] == SORTED_RESUME_LABELS
    assert seen[handle_possibly_reversed] == REVERSED_RESUME_LABELS


def test_reversed_default_tolerance_is_the_config_default(monkeypatch):
    ar = [9, 8, 7, 6, 5, 4, 3, 2, 1]
    ar[1], ar[7] = ar[7], ar[1]  # two misplaced elements

    def attempt(**kw):
        arr = list(ar)
        out = handle_possibly_reversed(arr, _frame_for(arr, 5), **kw)
        return out.kind, out.resume_point, arr

    assert attempt() == attempt(tolerance=3) != attempt(tolerance=0)
    monkeypatch.setattr(handlers, "DEFAULT_CONFIG",
                        SortConfig(reverse_tolerance=0))
    assert attempt() == attempt(tolerance=0)


def test_handlers_end_tiny_stages_by_the_stage_law():
    # frames of one to three elements, every array over three values
    # and every pivot taken from the center slot, on both comparator
    # paths: each handler ends the stage with a permutation of its input
    # and bounds that satisfy the stage law
    for n in (1, 2, 3):
        for data in itertools.product(range(3), repeat=n):
            pivot = data[(n - 1) >> 1]
            for handle in (handle_possibly_sorted, handle_possibly_reversed):
                for cmp in (None, cmp3):
                    ar = list(data)
                    fr = _frame_for(ar, pivot)
                    out = handle(ar, fr, cmp, finish=True)
                    case = (n, data, handle.__name__, cmp)
                    assert sorted(ar) == sorted(data), case
                    assert -1 <= out.new_l < out.new_r <= n, case
                    assert (out.new_l, out.new_r) == (fr.new_l, fr.new_r)
                    assert_stage_law(ar, 0, n - 1, fr.new_l, fr.new_r,
                                     pivot)
