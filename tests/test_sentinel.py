"""The sentinels of the total-order body.

On lists of exact ints or exact strs, ``Sorter.sort_with_stats`` runs
the compiled layers' total-order bodies, whose scans stop on a sentinel
instead of testing a bound at every step:

* state 1 of ``core._run_machine`` stores the pivot's value into the
  middle hole, so both edges of the equals block compare equal and stop
  the left and right scans;
* ``Sorter._range`` tells ``insertion_sort`` that a leaf other than the
  leftmost has a left neighbour at most every element of the leaf, and
  the scan of a displaced element may stop on it.

Over the 7x6 battery and the inputs of both fast-path sweeps, as ints
and as strs, at insertion thresholds 3, 7 and 16, a stage hook checks
that the array is a permutation of the input after every stage and is
the array a Python comparator's sort (the generic path, which has no
sentinel) holds after the same stage; a wrapper on the driver's
``insertion_sort`` checks each leaf's promise before it runs.
"""

from collections import Counter

import pytest

from tsqsort import SortConfig, Sorter, core
from tsqsort.inline import _total_cmp3

import conftest
from test_reversed_fast_path_sweep import N_RANGE as REVERSED_N
from test_reversed_fast_path_sweep import variants as reversed_variants
from test_sorted_fast_path_sweep import N_RANGE as SORTED_N
from test_sorted_fast_path_sweep import variants as sorted_variants
from test_write_law import battery

THRESHOLDS = (3, 7, 16)


def as_str(v):
    """An order-keeping map of the test's ints onto strs."""
    return f"{v + 10**9:012d}"


def sweeps():
    # every third n of the sorted sweep: all of them take three times as
    # long and add no new shape
    for n in SORTED_N[::3]:
        for k in range(n):
            for _, data in sorted_variants(n, k):
                yield data
    for n in REVERSED_N:
        for _, _, _, data in reversed_variants(n):
            yield data


@pytest.fixture
def leaves(monkeypatch):
    """Wrap the driver's insertion sort; each call checks its leaf's
    promise and is logged as (lo, unguarded, comparator)."""
    log = []
    leaf = core.insertion_sort

    def checked(ar, lo, hi, cmp3, tally, unguarded=False):
        if unguarded:
            assert lo > 0 and ar[lo - 1] <= min(ar[lo:hi + 1]), (lo, hi)
        log.append((lo, unguarded, cmp3))
        return leaf(ar, lo, hi, cmp3, tally, unguarded)

    monkeypatch.setattr(core, "insertion_sort", checked)
    return log


def staged(data, threshold, cmp):
    """(output, stats, array after each stage) of one sort, with every
    stage's array checked to be a permutation of ``data``."""
    ar = list(data)
    want = Counter(data)
    arrays = []

    def hook(record):
        assert Counter(ar) == want, record
        arrays.append(list(ar))

    sorter = Sorter(SortConfig(insertion_threshold=threshold), seed=7)
    sorter.stage_hook = hook
    stats = sorter.sort_with_stats(ar, cmp)
    return ar, vars(stats), arrays


@pytest.mark.parametrize("kind", ("int", "str"))
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("inputs", ("battery", "sweeps"))
def test_sentinels_keep_every_stage_and_leaf(leaves, kind, threshold,
                                             inputs):
    datasets = battery() if inputs == "battery" else sweeps()
    for data in datasets:
        if kind == "str":
            data = [as_str(v) for v in data]
        del leaves[:]
        got = staged(data, threshold, None)
        assert {cmp3 for _, _, cmp3 in leaves} <= {_total_cmp3}
        # only the leftmost leaf is guarded
        assert all(lo == 0 for lo, unguarded, _ in leaves if not unguarded)
        assert sum(not unguarded for _, unguarded, _ in leaves) <= 1
        assert got[0] == sorted(data)
        # the generic path has no sentinel, and its arrays are the same
        # after every stage: each sentinel store went into a hole that
        # the stage filled again
        assert got == staged(data, threshold, conftest.cmp3)
