import random

import pytest

import tsqsort
from tsqsort import SortConfig, Sorter, generate
from tsqsort.baselines import classic_qsort
from tsqsort.instrument import (ShadowWriteMonitor, StageRecord,
                                counting_comparator)
from tsqsort.stats import EXIT3L, EXIT3R

from conftest import cmp3
from test_golden_counts import CASES


def test_counting_comparator_basics():
    cc = counting_comparator()
    assert cc(1, 2) == -1
    assert cc.count == 1
    assert cc(2, 1) == 1 and cc(2, 2) == 0
    assert cc.count == 3


def test_counting_comparator_matches_stats():
    cc = counting_comparator()
    ar = [2, 1]
    st = Sorter(seed=1).sort_with_stats(ar, cc)
    assert cc.count == st.comparisons
    cc2 = counting_comparator()
    st2 = Sorter(seed=1).sort_with_stats([], cc2)
    assert cc2.count == st2.comparisons == 0


def test_counting_comparator_large_random():
    rnd = random.Random(3)
    ar = [rnd.randint(0, 99) for _ in range(2000)]
    cc = counting_comparator()
    st = Sorter(seed=9).sort_with_stats(ar, cc)
    assert cc.count == st.comparisons
    assert ar == sorted(ar)


def test_shadow_monitor_accounts_for_all_writes():
    rnd = random.Random(7)
    for trial in range(30):
        vals = [rnd.randint(0, 30) for _ in range(rnd.randint(0, 300))]
        mon = ShadowWriteMonitor(list(vals))
        st = Sorter(seed=trial + 1).sort_with_stats(mon)
        assert mon.data == sorted(vals)
        assert mon.writes == st.array_writes
        assert mon.writes + st.scratch_writes == st.element_writes


def test_shadow_monitor_classic_pair():
    mon = ShadowWriteMonitor([2, 1])
    st = classic_qsort(mon)
    assert mon.data == [1, 2]
    # one full swap: two array stores seen by the monitor plus the
    # scratch temporary gives the conventional three writes
    assert mon.writes + st.scratch_writes == st.element_writes == 3


def test_monitor_neutrality():
    rnd = random.Random(11)
    vals = [rnd.randint(0, 50) for _ in range(500)]
    plain = list(vals)
    st1 = Sorter(seed=5).sort_with_stats(plain)
    mon = ShadowWriteMonitor(list(vals))
    st2 = Sorter(seed=5).sort_with_stats(mon)
    assert plain == mon.data
    assert st1.as_dict() == st2.as_dict()


def test_fast_path_write_crosschecks():
    n = 999
    st = Sorter(seed=3).sort_with_stats(list(range(n)))
    assert st.element_writes == 2 * st.handler_activations["sorted"]
    st = Sorter(seed=3).sort_with_stats(list(range(n))[::-1])
    assert st.element_writes <= 3 * (n // 2) + 4 * st.stages


def test_trace_stream_shape():
    records = []
    s = Sorter(seed=2)
    s.stage_hook = records.append
    rnd = random.Random(1)
    ar = [rnd.randint(0, 20) for _ in range(200)]
    s.sort(ar)
    assert ar == sorted(ar)
    assert records, "the stage stream must not be empty"
    assert all(isinstance(r, StageRecord) for r in records)
    # the root stage is reported before the recursion below it
    assert (records[0].a, records[0].b) == (0, len(ar) - 1)


def test_trace_off_by_default():
    s = Sorter(seed=2)
    assert s.stage_hook is None
    assert not hasattr(s, "trace")


def _fuzzed_inputs(rnd, count):
    for _ in range(count):
        n = rnd.randint(2, 400)
        shape = rnd.choice(["random", "dups", "sorted", "reversed",
                            "nearsorted"])
        top = 4 if shape == "dups" else 10**6
        vals = [rnd.randint(0, top) for _ in range(n)]
        if shape in ("sorted", "reversed", "nearsorted"):
            vals.sort(reverse=shape == "reversed")
        if shape == "nearsorted":
            for _ in range(rnd.randint(1, 4)):
                i, j = rnd.randrange(n), rnd.randrange(n)
                vals[i], vals[j] = vals[j], vals[i]
        yield vals


@pytest.mark.parametrize("threshold", [3, 7, 16])
def test_stage_records_match_stats(threshold):
    rnd = random.Random(threshold)
    cfg = SortConfig(insertion_threshold=threshold)
    for trial, vals in enumerate(_fuzzed_inputs(rnd, 140)):
        records = []
        s = Sorter(cfg, seed=trial + 1)
        s.stage_hook = records.append
        ar = list(vals)
        st = s.sort_with_stats(ar)
        assert ar == sorted(vals)
        assert len(records) == st.stages
        flagged = [r for r in records if r.order_flag]
        ha = st.handler_activations
        assert sum(r.order_flag > 0 for r in records) == ha["sorted"]
        assert sum(r.order_flag < 0 for r in records) == ha["reversed"]
        assert sum(r.entry is not None for r in flagged) == ha["fallbacks"]
        for exit_id in (EXIT3L, EXIT3R):
            assert sum(r.exit == exit_id for r in records) == \
                st.state_activations[exit_id]
        for r in records:
            # the machine ran iff the stage names where it entered it
            assert (r.entry is None) == (r.exit is None)
            if not r.order_flag:
                assert r.entry == "prescan"
        # insertion sorts of small subranges belong to no record
        assert sum(r.comparisons for r in records) <= st.comparisons
        assert sum(r.writes for r in records) <= st.element_writes


def test_stage_hook_changes_no_count():
    for spec in CASES.values():
        plain = generate(spec)
        hooked = list(plain)
        st_plain = Sorter(seed=7).sort_with_stats(plain)
        s = Sorter(seed=7)
        s.stage_hook = [].append
        st_hooked = s.sort_with_stats(hooked)
        assert hooked == plain
        assert vars(st_hooked) == vars(st_plain)


def test_public_api_exports():
    for name in tsqsort.__all__:
        assert hasattr(tsqsort, name), name
    assert tsqsort.StageRecord is StageRecord
    assert "StageRecord" in tsqsort.__all__
    assert "TraceSink" not in tsqsort.__all__
    assert not hasattr(tsqsort, "TraceSink")
