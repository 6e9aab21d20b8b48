import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsqsort
from tsqsort import GenSpec, SortConfig, Sorter, TempAllocationError, generate
from tsqsort.bench import BATTERY_REORDERS
from tsqsort.core import (CT_CMP, CT_LEN, CT_S2L, CT_S2R, CT_S3L, CT_S3R,
                          CT_TI_HW, CT_WA, CT_WS, _MLEFT_NOSCAN,
                          _MRIGHT_NOSCAN, _PRESCAN, _run_machine)
from tsqsort.datagen import DISTRIBUTIONS
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


# --- a comparator that changes the list's length ---

# each changes the length at the 300th comparison of a 500-element sort
MUTATIONS = {
    "append": lambda ar: ar.append(-1),
    "extend": lambda ar: ar.extend([-1, -2, -3]),
    "pop": lambda ar: ar.pop(),
    "clear": lambda ar: ar.clear(),
}
MUTATE_AT = 300


def _shuffled(n=500, seed=5):
    ar = list(range(n))
    random.Random(seed).shuffle(ar)
    return ar


def _mutating_cmp(ar, how):
    calls = 0

    def cmp(x, y):
        nonlocal calls
        calls += 1
        if calls == MUTATE_AT:
            MUTATIONS[how](ar)
        return cmp3(x, y)
    return cmp


class _Mutating:
    """An int whose rich comparisons change ``target`` at the
    ``MUTATE_AT``-th call, as a comparator would."""

    __slots__ = ("v",)
    target = []
    how = "append"
    calls = 0

    def __init__(self, v):
        self.v = v

    def _tick(self):
        _Mutating.calls += 1
        if _Mutating.calls == MUTATE_AT:
            MUTATIONS[_Mutating.how](_Mutating.target)

    def __lt__(self, other):
        self._tick()
        return self.v < other.v

    def __gt__(self, other):
        self._tick()
        return self.v > other.v


@pytest.mark.parametrize("how", sorted(MUTATIONS))
def test_sorter_raises_when_the_comparator_changes_the_length(how):
    s = Sorter(seed=1)
    ar = _shuffled()
    with pytest.raises(ValueError, match="list modified during sort"):
        s.sort(ar, _mutating_cmp(ar, how))
    # the instance is free for the next sort
    ar = _shuffled()
    s.sort(ar)
    assert ar == sorted(ar)


@pytest.mark.parametrize("how", sorted(MUTATIONS))
def test_module_sort_raises_when_the_comparator_changes_the_length(how):
    ar = _shuffled()
    with pytest.raises(ValueError, match="list modified during sort"):
        tsqsort.sort(ar, _mutating_cmp(ar, how))
    ar = _shuffled()
    tsqsort.sort(ar)
    assert ar == sorted(ar)


@pytest.mark.parametrize("how", sorted(MUTATIONS))
def test_elements_that_change_the_length_raise(how):
    ar = [_Mutating(v) for v in _shuffled()]
    _Mutating.target, _Mutating.how, _Mutating.calls = ar, how, 0
    try:
        with pytest.raises(ValueError, match="list modified during sort"):
            Sorter(seed=1).sort(ar)
    finally:
        _Mutating.target = []


# the late-swapping path sorts position handles, then moves elements
LATE_SWAP = 1000


@pytest.mark.parametrize("how", sorted(MUTATIONS))
def test_late_swap_sort_raises_when_the_comparator_changes_the_length(how):
    s = Sorter(seed=1)
    ar = _shuffled()
    with pytest.raises(ValueError, match="list modified during sort"):
        s.sort(ar, _mutating_cmp(ar, how), element_size=LATE_SWAP)
    ar = _shuffled()
    s.sort(ar, element_size=LATE_SWAP)
    assert ar == sorted(ar)


@pytest.mark.parametrize("how", sorted(MUTATIONS))
def test_late_swap_module_sort_raises_when_the_length_changes(how):
    ar = _shuffled()
    with pytest.raises(ValueError, match="list modified during sort"):
        tsqsort.sort(ar, _mutating_cmp(ar, how), element_size=LATE_SWAP)
    ar = _shuffled()
    tsqsort.sort(ar, element_size=LATE_SWAP)
    assert ar == sorted(ar)


# --- single stages through the partition machine ---


def _stage(ar, pivot, label=_PRESCAN, *entry, cmp=cmp3):
    """Run the machine on the stage over all of ``ar`` from ``label`` to
    the end of the stage.  ``entry`` is the machine's entry state
    (l, r, ml, mr, m, lc, holdover), by default the pre-scan's; returns
    (new_l, new_r, last_exit, counter vector)."""
    n = len(ar)
    mid = (n - 1) >> 1
    ct = [0] * CT_LEN
    new_l, new_r, last_exit = _run_machine(
        ar, cmp, mid, pivot, label,
        *(entry or (0, n - 1, mid, mid, mid, 0, None)),
        [None] * ((n + 1) // 2), ct)
    return new_l, new_r, last_exit, ct


def _closed_right(l, ml, n=41, pivot=50):
    """A stage at _MLEFT_NOSCAN: [a..l) below the pivot, a hole at l
    whose element is the holdover, [l+1..ml) unscanned, ar[ml] above the
    pivot, equals on [ml+1..mid) and the right side closed at the hole
    r = mr = mid (still holding the extracted pivot), with everything
    right of it above the pivot."""
    mid = (n - 1) >> 1
    ar = ([10 + i for i in range(l)]
          + [(20, 90, pivot)[i % 3] for i in range(l, ml)]
          + [95] + [pivot] * (mid - ml) + [100 + i for i in range(mid + 1, n)])
    return ar, (l, mid, ml, mid, mid, 1, ar[l])


def _closed_left(r, mr, n=41, pivot=50):
    """The mirror stage at _MRIGHT_NOSCAN: the left side closed at the
    hole l = ml = mid, ar[mr] below the pivot, (mr..r] unscanned with a
    hole at r, and (r..b] above the pivot."""
    mid = (n - 1) >> 1
    ar = (list(range(mid)) + [pivot] * (mr - mid) + [5]
          + [(20, 90, pivot)[i % 3] for i in range(mr + 1, r + 1)]
          + [100 + i for i in range(r + 1, n)])
    return ar, (mid, r, mid, mr, mid, -1, ar[r])


def test_choose_next_state_boundaries():
    # With the right side closed the machine moves ml onto the block,
    # ml' = ml + 1, and picks 3L iff (mr - ml') <= (ml' - l) // 4, else
    # 2L; with the left side closed, mr' = mr - 1 and 3R iff
    # (mr' - ml) <= (r - mr') // 4, else 2R.  Each pair of stages sits
    # on the two sides of that limit.
    for l, s3_s2 in ((0, (1, 0)), (1, (0, 1))):
        ar, entry = _closed_right(l, 15)
        want = sorted(ar)
        # mr - ml' = 20 - 16 = 4 against (16 - l) // 4 = 4 or 3
        new_l, new_r, _, ct = _stage(ar, 50, _MLEFT_NOSCAN, *entry)
        assert (ct[CT_S3L], ct[CT_S2L], ct[CT_S3R], ct[CT_S2R]) == \
            s3_s2 + (0, 0), l
        assert sorted(ar) == want
        assert_stage_law(ar, 0, 40, new_l, new_r, 50)
    for r, s3_s2 in ((40, (1, 0)), (39, (0, 1))):
        ar, entry = _closed_left(r, 25)
        want = sorted(ar)
        # mr' - ml = 24 - 20 = 4 against (r - 24) // 4 = 4 or 3
        new_l, new_r, _, ct = _stage(ar, 50, _MRIGHT_NOSCAN, *entry)
        assert (ct[CT_S3R], ct[CT_S2R], ct[CT_S3L], ct[CT_S2L]) == \
            s3_s2 + (0, 0), r
        assert sorted(ar) == want
        assert_stage_law(ar, 0, 40, new_l, new_r, 50)


def test_init_stage_prescan_normal():
    # the pre-scan runs from b down to the first element not above the
    # pivot and holds it out; the holdover 0 found at index 3 ends up
    # below the pivot
    log = []

    def logged(x, y):
        log.append((x, y))
        return cmp3(x, y)

    ar = [2, 1, 3, 0, 8]
    # pivot 3 extracted from mid
    new_l, new_r, last_exit, ct = _stage(ar, 3, cmp=logged)
    assert log[:2] == [(8, 3), (0, 3)]
    assert ar == [2, 1, 0, 3, 8]
    assert (new_l, new_r, last_exit) == (2, 4, EXIT2)
    assert ct[:3] == [5, 2, 1]


def test_init_stage_special_case_collapses():
    # everything right of mid exceeds the pivot; the special case must
    # still produce a lawful stage
    ar = [1, 9, 9, 9]
    new_l, new_r, last_exit, _ = _stage(ar, 1)
    assert last_exit == EXIT2
    assert_stage_law(ar, 0, 3, new_l, new_r, 1)
    assert sorted(ar) == [1, 1, 9, 9]

    # the pivot 2 taken from index 0, the mid element 1 moved there
    ar = [1, 1, 3]
    new_l, new_r, last_exit, _ = _stage(ar, 2)
    assert last_exit == EXIT2
    assert ar == [1, 2, 3]
    assert_stage_law(ar, 0, 2, new_l, new_r, 2)


def test_full_stage_pipeline_matches_oracle():
    rnd = random.Random(8)
    for trial in range(300):
        n = rnd.randint(6, 60)
        ar = [rnd.randint(0, rnd.choice([4, 1000]))
              for _ in range(n)]
        snapshot = list(ar)
        pivot = ar[(n - 1) >> 1]
        new_l, new_r, _, _ = _stage(ar, pivot)
        assert sorted(ar) == sorted(snapshot), trial
        assert_stage_law(ar, 0, n - 1, new_l, new_r, pivot)


def test_run_state2_roll_write_count():
    # One above-pivot element amid equals: the roll costs exactly two
    # writes (export to r, backfill from r), and Exit2 one comparison
    # and two more (holdover and pivot).  The stage is entered directly
    # after the closing scan, with the right side closed and the block
    # wide enough for state 2L: left part settled, holes at l and r,
    # the in-array equals block bordering r.
    ar = [0, 0, 9, 5, 5, 5, 0, 8]
    new_l, new_r, _, ct = _stage(
        ar, 5, _MLEFT_NOSCAN,
        1, 6,     # l, r: both holes
        2, 6,     # ml, mr: ml on the lone > pivot element below the
                  # block [3..5], right side closed
        2,        # m: set from ml on entry
        1,        # lc: ar[ml]'s comparison is already known
        3)        # the holdover
    assert ct[CT_S2L] == 1
    assert ct[CT_CMP] == 1
    assert ct[CT_WA] + ct[CT_WS] == 2 + 2
    assert ar == [0, 3, 5, 5, 5, 5, 9, 8]
    assert_stage_law(ar, 0, 7, new_l, new_r, 5)


def test_run_state2_all_equal_span_scans_only():
    # a span that is entirely pivot-equal costs comparisons but no
    # writes: as in the test above, state 2L rolls the block over the
    # element above the pivot at ml and Exit2 places the holdover and
    # the pivot, two writes each, and the equals [2..3] beyond it cost
    # their two comparisons alone
    ar = [0, 0, 5, 5, 9, 5, 5, 5, 0, 8]
    # l, r, ml, mr, m, lc and the holdover
    new_l, new_r, _, ct = _stage(ar, 5, _MLEFT_NOSCAN, 1, 8, 4, 8, 4, 1, 3)
    assert ct[CT_S2L] == 1
    assert ct[CT_CMP] == 2 + 1
    assert ct[CT_WA] + ct[CT_WS] == 2 + 2
    assert ar == [0, 3, 5, 5, 5, 5, 5, 5, 9, 8]
    assert_stage_law(ar, 0, 9, new_l, new_r, 5)


def test_run_state3_buffers_equals():
    # few equals, far from mid: they travel through the buffer, two at
    # a time, and the stage ends at the state-3 exit
    for ar, state, exit_id in (
            ([9, 8, 5, 5, 7, 5, 6, 7, 7, 7, 6, 9], CT_S3L, EXIT3L),
            ([7, 1, 2, 4, 5, 4, 3, 5, 5, 4], CT_S3R, EXIT3R)):
        n = len(ar)
        want = sorted(ar)
        # the pivot 5 extracted from mid
        new_l, new_r, last_exit, ct = _stage(ar, 5)
        assert ct[state] == 1 and ct[CT_TI_HW] == 2
        assert last_exit == exit_id
        assert sorted(ar) == want
        assert_stage_law(ar, 0, n - 1, new_l, new_r, 5)


def test_sorts_reach_every_machine_line():
    # Sorter sorts alone, through the Python-comparator path, execute
    # every line of the machine: the 7x6 battery at n = 600 and 300
    # random, sorted, reversed and near-sorted inputs, at insertion
    # thresholds 16 and 3
    code = _run_machine.__wrapped__.__code__
    want = {line for _, _, line in code.co_lines() if line is not None}
    inputs = [generate(GenSpec(distribution=dist, reorder=kind, n=600,
                               arange=arange, seed=3))
              for dist in DISTRIBUTIONS for kind in BATTERY_REORDERS
              for arange in (600, 7)]
    rnd = random.Random(41)
    for trial in range(300):
        n = rnd.randint(2, 300)
        data = [rnd.randint(0, rnd.choice([3, 30, 10**6])) for _ in range(n)]
        shape = trial % 4
        if shape:
            data.sort(reverse=shape == 2)
        if shape == 3:
            for _ in range(rnd.randint(1, 3)):
                i, j = rnd.randrange(n), rnd.randrange(n)
                data[i], data[j] = data[j], data[i]
        inputs.append(data)
    reached = set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        reached.add(frame.f_lineno)
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        for threshold in (16, 3):
            sorter = Sorter(SortConfig(insertion_threshold=threshold), seed=5)
            for data in inputs:
                sorter.sort(list(data), cmp3)
    finally:
        sys.settrace(old)
    assert sorted(want - reached) == []


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
