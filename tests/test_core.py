import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsqsort
from tsqsort import SortConfig, Sorter, TempAllocationError
from tsqsort.core import (PartitionFrame, TempStore, choose_next_state,
                          copy_back, init_stage, run_state1, run_state2,
                          run_state3)
from tsqsort.handlers import handle_possibly_sorted
from tsqsort.pivot import PivotDecision
from tsqsort.stats import (EXIT2, EXIT3L, EXIT3R, S1, S2L, S2R, S3L, S3R)

from conftest import assert_stage_law, cmp3, reference_sort


def test_empty_and_singleton():
    for ar in ([], [7]):
        got = list(ar)
        st_ = Sorter().sort_with_stats(got)
        assert got == ar
        assert st_.comparisons == 0
        assert st_.element_writes == 0


def test_small_multiset_example():
    ar = [5, 3, 5, 1, 5]
    tsqsort.sort(ar)
    assert ar == [1, 3, 5, 5, 5]


def test_pair_costs():
    s = Sorter()
    ar = [2, 1]
    st_ = s.sort_with_stats(ar)
    assert ar == [1, 2]
    assert st_.comparisons == 1
    assert st_.element_writes <= 3


def test_exhaustive_permutations_machine(low_cut_config):
    s = Sorter(low_cut_config, seed=17)
    target = list(range(1, 9))
    for perm in itertools.permutations(target):
        ar = list(perm)
        s.sort(ar)
        assert ar == target, perm


def test_exhaustive_multisets_machine(low_cut_config):
    # every 3-symbol tuple up to n = 10; the equals buffer never needs
    # more than the ceil(n/2) slots allocated up front
    for n in range(2, 11):
        for tup in itertools.product(range(3), repeat=n):
            s = Sorter(low_cut_config, seed=23)
            ar = list(tup)
            st_ = s.sort_with_stats(ar)
            assert ar == sorted(tup), tup
            assert st_.temp_high_water <= (n + 1) // 2, tup
            assert len(s.temp.buf) == (n + 1) // 2, tup


def test_stage_three_way_law_random(low_cut_config):
    rnd = random.Random(31)
    for trial in range(150):
        n = rnd.randint(4, 200)
        ar = [rnd.randint(0, rnd.choice([3, 30, 10**6])) for _ in range(n)]
        s = Sorter(low_cut_config, seed=trial + 1)
        s.stage_hook = lambda r: assert_stage_law(
            ar, r.a, r.b, r.new_l, r.new_r, r.pivot)
        s.sort(ar)
        assert ar == sorted(ar)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=64),
       st.sampled_from([3, 4, 8, 16]), st.integers(1, 2**30))
def test_sorts_and_permutes(values, threshold, seed):
    cfg = SortConfig(insertion_threshold=threshold)
    ar = list(values)
    stats = Sorter(cfg, seed=seed).sort_with_stats(ar)
    assert ar == sorted(values)
    assert stats.element_writes == stats.array_writes + stats.scratch_writes
    assert stats.virtual_swaps * 3 == pytest.approx(stats.element_writes)
    assert stats.temp_high_water <= (len(values) + 1) // 2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10**9), min_size=30, max_size=400))
def test_wide_range_values(values):
    ar = list(values)
    Sorter(seed=5).sort(ar)
    assert ar == sorted(values)


def test_comparator_objects():
    rnd = random.Random(2)
    items = [(rnd.randint(0, 5), i) for i in range(200)]

    def by_first(x, y):
        return cmp3(x[0], y[0])

    ar = list(items)
    Sorter(seed=9).sort(ar, by_first)
    assert [x[0] for x in ar] == sorted(x[0] for x in items)
    assert sorted(ar) == sorted(items)  # a permutation


def test_determinism_same_seed():
    base = list(range(2000))
    random.Random(4).shuffle(base)
    a1, a2 = list(base), list(base)
    s1 = Sorter(seed=77).sort_with_stats(a1)
    s2 = Sorter(seed=77).sort_with_stats(a2)
    assert a1 == a2
    assert s1.as_dict() == s2.as_dict()
    cfg = SortConfig(mitigation_enabled=False)
    s3 = Sorter(cfg, seed=1).sort_with_stats(list(base))
    s4 = Sorter(cfg, seed=999).sort_with_stats(list(base))
    assert s3.as_dict() == s4.as_dict()  # mitigation off: seed-independent


def test_state_transitions_observed(low_cut_config):
    rnd = random.Random(12)
    seen = set()
    s = Sorter(low_cut_config, seed=3)
    for _ in range(200):
        n = rnd.randint(4, 120)
        ar = [rnd.randint(0, rnd.choice([2, 5, 1000])) for _ in range(n)]
        stats = s.sort_with_stats(ar)
        for k, v in stats.state_activations.items():
            if v:
                seen.add(k)
    assert {S1, S2L, S2R, S3L, S3R, EXIT2}.issubset(seen)
    assert EXIT3L in seen or EXIT3R in seen


# --- temp storage management ---


def test_temp_storage_retained_and_freed():
    s = Sorter(seed=1)
    rnd = random.Random(1)
    ar = [rnd.randint(0, 9) for _ in range(100)]
    s.sort(ar)
    assert s.temp.capacity == 50
    assert s.temp.alloc_count == 1
    s.sort([rnd.randint(0, 9) for _ in range(50)])
    assert s.temp.capacity == 50  # retained, no reallocation
    assert s.temp.alloc_count == 1
    s.free_temp_storage()
    assert s.temp.capacity == 0
    s.sort([rnd.randint(0, 9) for _ in range(10)])
    assert s.temp.capacity == 5  # ceil(10/2)
    assert s.temp.alloc_count == 2


def test_free_on_fresh_sorter_is_noop():
    s = Sorter()
    s.free_temp_storage()
    assert s.temp.capacity == 0


def test_allocation_failure_leaves_array_untouched():
    s = Sorter(seed=1)

    class Boom:
        capacity = 0
        buf = []

        def ensure(self, cap):
            raise TempAllocationError("no memory")

        def release(self):
            pass

    s.temp = Boom()
    ar = [3, 1, 2] * 20
    snapshot = list(ar)
    with pytest.raises(TempAllocationError):
        s.sort(ar)
    assert ar == snapshot


def test_module_level_api_retains_buffer():
    tsqsort.free_temp_storage()
    ar = [random.Random(3).randint(0, 99) for _ in range(60)]
    tsqsort.sort(ar)
    from tsqsort.core import default_sorter
    assert default_sorter.temp.capacity >= 30
    tsqsort.free_temp_storage()
    assert default_sorter.temp.capacity == 0


def test_module_level_config_override_is_per_call():
    ar = list(range(50, 0, -1))
    st_ = tsqsort.sort(list(ar), config=SortConfig(insertion_threshold=60))
    assert st_.stages == 0  # one insertion sort under the override
    st_ = tsqsort.sort(list(ar))
    assert st_.stages > 0  # the default config again
    from tsqsort.core import default_sorter
    assert default_sorter.config == tsqsort.DEFAULT_CONFIG


def test_module_level_sort_is_thread_safe():
    import sys
    import threading

    errors = []
    bad = []

    def worker(seed):
        rnd = random.Random(seed)
        try:
            for _ in range(30):
                ar = [rnd.randint(0, 999) for _ in range(rnd.randint(2, 400))]
                want = sorted(ar)
                tsqsort.sort(ar)
                if ar != want:
                    bad.append(seed)
        except Exception as exc:
            errors.append(repr(exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert bad == []


def test_sorter_not_reentrant():
    s = Sorter(seed=1)
    err = {}

    def evil(x, y):
        try:
            s.sort([3, 1, 2] * 10)
        except RuntimeError as exc:
            err["raised"] = str(exc)
        return cmp3(x, y)

    s.sort(list(range(40, 0, -1)), evil)
    assert "raised" in err


# --- contract-level machine entry points ---


def test_choose_next_state_boundaries():
    fr = PartitionFrame(0, 100)
    fr.l, fr.ml, fr.mr, fr.r = 0, 40, 50, 50
    assert fr.mr - fr.ml == 10 and fr.ml - fr.l == 40
    assert choose_next_state(fr, "Right") == S3L  # 10 <= 40 // 4
    fr.ml = 39
    assert choose_next_state(fr, "Right") == S2L  # 11 > 39 // 4
    fr2 = PartitionFrame(0, 100)
    fr2.l, fr2.ml, fr2.mr, fr2.r = 10, 10, 10, 18
    assert choose_next_state(fr2, "Left") == S3R  # 0 <= 8 // 4
    with pytest.raises(ValueError):
        choose_next_state(fr, "Up")


def test_init_stage_prescan_normal():
    ar = [2, 1, 3, 0, 8]
    fr = PartitionFrame(0, 4)
    res = init_stage(ar, fr, PivotDecision(3, 2, 0))
    assert res == S1
    assert fr.r == 3  # pre-scan stopped at the first element <= pivot
    assert fr.holdover == 0
    assert fr.l == 0 and fr.m == fr.ml == fr.mr == fr.mid == 2


def test_init_stage_special_case_collapses():
    # everything right of mid exceeds the pivot; the special case must
    # still produce a lawful stage
    ar = [1, 9, 9, 9]
    fr = PartitionFrame(0, 3)
    res = init_stage(ar, fr, PivotDecision(1, 1, 0))
    assert res in (EXIT2, EXIT3L, EXIT3R)
    assert_stage_law(ar, 0, 3, fr.new_l, fr.new_r, 1)
    assert sorted(ar) == [1, 1, 9, 9]

    ar = [2, 1, 3]
    fr = PartitionFrame(0, 2)
    res = init_stage(ar, fr, PivotDecision(2, 0, 0))
    assert res in (EXIT2, EXIT3L, EXIT3R)
    assert ar == [1, 2, 3]
    assert_stage_law(ar, 0, 2, fr.new_l, fr.new_r, 2)


def test_full_stage_pipeline_matches_oracle():
    rnd = random.Random(8)
    for trial in range(300):
        n = rnd.randint(6, 60)
        ar = [rnd.randint(0, rnd.choice([4, 1000]))
              for _ in range(n)]
        snapshot = list(ar)
        mid = (n - 1) >> 1
        pivot = ar[mid]
        fr = PartitionFrame(0, n - 1)
        temp = TempStore()
        temp.ensure((n + 1) // 2)
        ct = [0] * 32
        state = init_stage(ar, fr, PivotDecision(pivot, mid, 0), ct=ct)
        if state == S1:
            state = run_state1(ar, fr, ct=ct, temp=temp)
            if state in (S2L, S2R):
                exit_id = run_state2(ar, fr, state[-1], ct=ct)
            elif state in (S3L, S3R):
                exit_id = run_state3(ar, fr, state[-1], temp, ct=ct)
            else:
                exit_id = state
            new_l, new_r = copy_back(ar, fr, exit_id, temp, ct=ct)
        else:
            new_l, new_r = fr.new_l, fr.new_r
        assert sorted(ar) == sorted(snapshot), trial
        assert_stage_law(ar, 0, n - 1, new_l, new_r, pivot)


def test_run_state2_roll_write_count():
    # One above-pivot element amid equals: the roll costs exactly two
    # extra writes (export to r, backfill from r).  The frame is built
    # directly in the state-2L entry geometry: left part settled, holes
    # at l and r, the in-array equals block bordering r.
    ar = [0, 0, 9, 5, 5, 5, 0, 8]
    fr = PartitionFrame(0, 7)
    fr.pivot = 5
    fr.holdover = 3
    fr.l, fr.r = 1, 6          # both holes
    fr.ml, fr.mr = 3, 6        # block [3..5], right side closed
    fr.m = 2                   # scan cursor on the lone > pivot element
    fr.lc = 1                  # its comparison is already known
    ct = [0] * 32
    from tsqsort.core import CT_WA, CT_WS
    exit_id = run_state2(ar, fr, "L", ct=ct)
    assert exit_id == EXIT2
    assert ct[CT_WA] + ct[CT_WS] == 2
    copy_back(ar, fr, exit_id, ct=ct)
    assert ar == [0, 3, 5, 5, 5, 5, 9, 8]
    assert_stage_law(ar, 0, 7, fr.new_l, fr.new_r, 5)


def test_run_state2_all_equal_span_scans_only():
    # a span that is entirely pivot-equal costs comparisons but no writes
    ar = [0, 0, 5, 5, 5, 5, 0, 8]
    fr = PartitionFrame(0, 7)
    fr.pivot = 5
    fr.holdover = 7
    fr.l, fr.r = 1, 6
    fr.ml, fr.mr = 4, 6
    fr.m = 3
    fr.lc = 0
    ct = [0] * 32
    from tsqsort.core import CT_WA, CT_WS, _M2L

    fr.entry = _M2L
    exit_id = run_state2(ar, fr, "L", ct=ct)
    assert exit_id == EXIT2
    assert ct[CT_WA] + ct[CT_WS] == 0
    copy_back(ar, fr, exit_id, ct=ct)
    assert_stage_law(ar, 0, 7, fr.new_l, fr.new_r, 5)


def test_run_state3_buffers_equals():
    # few equals, far from mid: they travel through the buffer
    ar = [0, 1, 2, 3, 5, 4, 9, 8, 7, 6, 5, 9]
    n = len(ar)
    fr = PartitionFrame(0, n - 1)
    temp = TempStore()
    temp.ensure(n)
    ct = [0] * 32
    state = init_stage(ar, fr, PivotDecision(5, (n - 1) >> 1, 0), ct=ct)
    if state == S1:
        state = run_state1(ar, fr, ct=ct, temp=temp)
        if state in (S3L, S3R):
            exit_id = run_state3(ar, fr, state[-1], temp, ct=ct)
            assert exit_id in (EXIT3L, EXIT3R)
            copy_back(ar, fr, exit_id, temp, ct=ct)
        elif state in (S2L, S2R):
            copy_back(ar, fr, run_state2(ar, fr, state[-1], ct=ct), ct=ct)
        else:
            copy_back(ar, fr, state, temp, ct=ct)
    assert_stage_law(ar, 0, n - 1, fr.new_l, fr.new_r, 5)


def test_run_state2_3_reject_unknown_direction():
    fr = PartitionFrame(0, 7)
    with pytest.raises(ValueError):
        run_state2([0] * 8, fr, "Left")
    with pytest.raises(ValueError):
        run_state3([0] * 8, fr, "", TempStore())


def test_copy_back_after_finished_stage_returns_bounds():
    # a pre-scan that collapses onto the center, or a fast-path bypass,
    # finishes the stage, so copy_back must not run the exit again
    ar = [1, 9, 9, 9]
    fr = PartitionFrame(0, 3)
    exit_id = init_stage(ar, fr, PivotDecision(1, 1, 0))
    done = list(ar)
    ct = [0] * 32
    assert copy_back(ar, fr, exit_id, ct=ct) == (fr.new_l, fr.new_r)
    assert ar == done and not any(ct)

    ar = [1, 2, 3, 4, 5]
    fr = PartitionFrame(0, 4)
    fr.pivot = 3
    out = handle_possibly_sorted(ar, fr)
    assert out.bypassed
    assert copy_back(ar, fr, EXIT2, ct=ct) == (out.new_l, out.new_r)
    assert ar == [1, 2, 3, 4, 5] and not any(ct)


def test_all_equal_single_stage():
    s = Sorter(seed=1)
    ar = [4] * 5000
    stats = s.sort_with_stats(ar)
    assert stats.comparisons <= 3 * 5000
    assert stats.stages == 1
    assert stats.element_writes == 2  # pivot extraction and restore


def test_two_empty_slot_law():
    # during states 1 and 2 at most two array slots hold stale values;
    # buffered equals raise the bound by the buffer fill
    from tsqsort.core import CT_TI

    class Shadow:
        def __init__(self, data, sorter, multiset):
            self.data = data
            self.sorter = sorter
            self.multiset = multiset
            self.worst = 0

        def __len__(self):
            return len(self.data)

        def __getitem__(self, i):
            return self.data[i]

        def __setitem__(self, i, v):
            self.data[i] = v
            live = {}
            for x in self.data:
                live[x] = live.get(x, 0) + 1
            missing = 0
            for x, cnt in self.multiset.items():
                missing += max(0, cnt - live.get(x, 0))
            self.worst = max(self.worst, missing)

    rnd = random.Random(77)
    for trial in range(40):
        n = rnd.randint(8, 64)
        vals = [rnd.randint(0, 6) for _ in range(n)]
        counts = {}
        for v in vals:
            counts[v] = counts.get(v, 0) + 1
        s = Sorter(SortConfig(insertion_threshold=3), seed=trial + 1)
        sh = Shadow(list(vals), s, counts)
        stats = s.sort_with_stats(sh)
        assert sh.data == sorted(vals)
        assert sh.worst <= 2 + stats.temp_high_water


def test_stats_depth_bounded():
    rnd = random.Random(5)
    ar = [rnd.randint(0, 10**6) for _ in range(20000)]
    stats = Sorter(seed=2).sort_with_stats(ar)
    import math
    assert stats.max_depth <= 3 * math.log2(20000)
