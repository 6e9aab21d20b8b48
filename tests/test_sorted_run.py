"""Strictly increasing sides counted by law in the sorted fast path.

On a strictly increasing range the driver's whole stage tree is fixed by
the range's length and ``insertion_threshold``: every sample set is in
order, the pivot is the center, the sorted fast path ends each stage
with one write, and each leaf compares n - 1 times.  The total-order
body of ``core._sorted_handler`` tests each side of a stage it ends for
strict increase and, for one that is, adds ``core._sorted_run``'s
closed form to the counters and drops the side.  A hook sees every
stage, so with one set the driver never drops a side, and a ``cmp``
sort runs the generic path, which has no such test: both must give the
``SortStats`` of the sort that drops sides.  The ladder edges of
``pivot`` (70/71, 600/601, 60000/60001, and sides of 60001) are
covered, at several thresholds, on sorted input and on sorted input
with k adjacent pairs swapped.
"""

import random

import pytest

from tsqsort import SortConfig, Sorter, core
from tsqsort.pivot import MEDOF3_MAX_N, MEDOF5_MAX_N, NINTHER_MAX_N


def cmp(x, y):
    return (x > y) - (x < y)


def swapped(n, k, seed=7):
    """sorted(range(n)) with k adjacent pairs, drawn at random, swapped."""
    rnd = random.Random(seed)
    ar = list(range(n))
    for _ in range(k):
        i = rnd.randrange(n - 1)
        ar[i], ar[i + 1] = ar[i + 1], ar[i]
    return ar


def sort_three_ways(data, config):
    """The SortStats of a hook-free sort, of one with a hook (which must
    see every stage) and of one under an outside ``cmp``; each output is
    checked."""
    out = []
    for mode in ("plain", "hook", "cmp"):
        sorter = Sorter(config, seed=11)
        records = []
        if mode == "hook":
            sorter.stage_hook = records.append
        ar = list(data)
        stats = sorter.sort_with_stats(ar, cmp if mode == "cmp" else None)
        assert ar == sorted(data), mode
        if mode == "hook":
            assert len(records) == stats.stages
        out.append(stats)
    return out


EDGES = (MEDOF3_MAX_N, MEDOF3_MAX_N + 1, MEDOF5_MAX_N, MEDOF5_MAX_N + 1)


@pytest.mark.parametrize("k", (0, 1, 16, 256))
@pytest.mark.parametrize("threshold", (3, 7, 16, 39))
@pytest.mark.parametrize("n", EDGES)
def test_ladder_edges_count_as_the_full_tree(n, threshold, k):
    for mitigation in (True, False):
        config = SortConfig(insertion_threshold=threshold,
                            mitigation_enabled=mitigation)
        plain, hooked, outside = sort_three_ways(swapped(n, k), config)
        assert plain == hooked == outside, (n, threshold, k, mitigation)


@pytest.mark.parametrize("k", (0, 1, 16, 256))
@pytest.mark.parametrize("n", (NINTHER_MAX_N, NINTHER_MAX_N + 1,
                               2 * NINTHER_MAX_N + 3))
def test_fifteenth_edge_counts_as_the_full_tree(n, k):
    # the last n gives sides of NINTHER_MAX_N + 1, sampled by the
    # fifteenth
    config = SortConfig(insertion_threshold=16)
    plain, hooked, outside = sort_three_ways(swapped(n, k), config)
    assert plain == hooked == outside


def test_strs_count_as_the_full_tree():
    data = sorted(f"{v:08x}" for v in random.Random(3).sample(range(10**8),
                                                               5000))
    data[100], data[101] = data[101], data[100]
    plain, hooked, outside = sort_three_ways(data, SortConfig())
    assert plain == hooked == outside


@pytest.mark.parametrize("threshold", (3, 16))
def test_closed_form_is_the_hooked_sort(threshold):
    # _sorted_run of a whole sorted input, root stage included, is
    # what the driver counts when it runs every stage
    for n in (threshold + 1, 100, 601, 4097, NINTHER_MAX_N + 1):
        sorter = Sorter(SortConfig(insertion_threshold=threshold), seed=1)
        sorter.stage_hook = lambda record: None
        stats = sorter.sort_with_stats(list(range(n)))
        stages, ncmp, nwa, height = core._sorted_run(n, threshold)
        assert stages == stats.stages == stats.handler_activations["sorted"]
        assert ncmp == stats.comparisons
        assert nwa == stats.array_writes
        assert 1 + height == stats.max_depth


def handler_calls(monkeypatch, data, cmp3=None, hook=None):
    calls = []
    handler = core._sorted_handler

    def spy(*args):
        calls.append(args[2:4])
        return handler(*args)

    monkeypatch.setattr(core, "_sorted_handler", spy)
    sorter = Sorter(seed=1)
    sorter.stage_hook = hook
    sorter.sort_with_stats(data, cmp3)
    return calls


def test_a_sorted_int_sort_runs_the_sorted_handler_once(monkeypatch):
    n = 10**4
    assert handler_calls(monkeypatch, list(range(n))) == [(0, n - 1)]
    # with a hook or an outside comparator, every stage runs
    stages = core._sorted_run(n, 16)[0]
    assert len(handler_calls(monkeypatch, list(range(n)), cmp)) == stages
    assert len(handler_calls(monkeypatch, list(range(n)),
                             hook=lambda record: None)) == stages


def test_one_swap_drops_every_side_off_its_path(monkeypatch):
    # the side that holds the swapped pair fails the test and every
    # other side is dropped, so one stage a level runs
    n = 2**14
    calls = handler_calls(monkeypatch, swapped(n, 1))
    assert len(calls) <= n.bit_length()
    assert all(a <= b0 and b1 <= b for (a, b), (b0, b1)
               in zip(calls, calls[1:]))
