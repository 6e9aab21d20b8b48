"""The sorter's array-write counter equals the stores into the array.

``core._run_machine`` counts some writes by law rather than one by one:
a state-1 turn adds its two placements once, a state-3 run copy adds
its length after the copy, and the drain adds the buffered equals once,
both as buffer pushes and as array writes.  These tests check the
counters against the stores themselves.  A list subclass counts every
``__setitem__`` on the array, and a recording equals buffer every store
into it.

Sorter sorts are checked whole: ``stats.array_writes`` must equal the
array's stores, over random, few-distinct, sorted, reversed and
near-sorted inputs and the 7x6 battery, at insertion thresholds 3, 7
and 16, with the default comparator (the inline path) and a coin-flip
counting comparator (the generic path).  Direct machine entries are
checked per call, at the pre-scan, at the state-1 scan labels and at
every state-2/3 label: the ``ct[CT_WA]`` delta must equal the array's
stores, and the ``ct[CT_WS]`` delta the buffer's stores plus the
holdover the pre-scan takes.
"""

import random

import pytest

from tsqsort import GenSpec, SortConfig, Sorter, core, generate
from tsqsort.bench import BATTERY_REORDERS
from tsqsort.core import (CT_EXIT2, CT_LEN, CT_WA, CT_WS, _L1, _LABEL_NAMES,
                          _M2L, _M2L_2, _M2R, _M2R_2, _M3L, _M3L_2, _M3R,
                          _M3R_2, _PRESCAN, _R1)
from tsqsort.datagen import DISTRIBUTIONS
from tsqsort.inline import _default_cmp3
from tsqsort.instrument import counting_comparator

from test_machine_law import direct_entry

THRESHOLDS = (3, 7, 16)


class CountedList(list):
    """A list that counts the element stores made into it."""

    def __init__(self, data):
        super().__init__(data)
        self.stores = 0

    def __setitem__(self, i, v):
        assert i.__class__ is int, "a slice store"
        self.stores += 1
        super().__setitem__(i, v)


def coin_flip(seed):
    rnd = random.Random(seed)
    return counting_comparator(lambda x, y: rnd.choice((-1, 1)))


def shaped_inputs(rnd):
    """Random, few-distinct, sorted, reversed and near-sorted inputs."""
    for trial in range(60):
        n = rnd.randint(2, 400)
        top = (10**6, 3, 30)[trial % 3]
        data = [rnd.randint(0, top) for _ in range(n)]
        shape = trial % 4
        if shape:
            data.sort(reverse=shape == 2)
        if shape == 3:
            for _ in range(rnd.randint(1, 3)):
                i, j = rnd.randrange(n), rnd.randrange(n)
                data[i], data[j] = data[j], data[i]
        yield data


def battery():
    return [generate(GenSpec(distribution=dist, reorder=kind, n=600,
                             arange=arange, seed=5))
            for dist in DISTRIBUTIONS for kind in BATTERY_REORDERS
            for arange in (600, 7)]


@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_sorts_count_every_array_store(threshold):
    inputs = list(shaped_inputs(random.Random(1601 + threshold))) + battery()
    config = SortConfig(insertion_threshold=threshold)
    for i, data in enumerate(inputs):
        for cmp in (None, coin_flip(i)):
            ar = CountedList(data)
            stats = Sorter(config, seed=i + 1).sort_with_stats(ar, cmp)
            assert stats.array_writes == ar.stores, (i, threshold, cmp)
            assert sorted(ar) == sorted(data)


def test_direct_entries_count_every_store():
    rnd = random.Random(1602)
    labels = (_PRESCAN, _L1, _R1, _M2L, _M2L_2, _M2R, _M2R_2, _M3L, _M3L_2,
              _M3R, _M3R_2)
    seen = set()
    for trial in range(440):
        n = rnd.randint(5, 60)
        mid = (n - 1) >> 1
        label = labels[trial % len(labels)]
        for cmp3 in (_default_cmp3, counting_comparator(),
                     coin_flip(trial)):
            ar = CountedList(rnd.randint(0, 9) for _ in range(n))
            tar = CountedList([None] * ((n + 1) // 2))
            if label == _PRESCAN:
                entry = 0, n - 1, mid, mid, mid, 0
            else:
                entry = direct_entry(rnd, n, label)
            ct = [0] * CT_LEN
            core._run_machine(ar, cmp3, mid, 5, label, *entry,
                              rnd.randint(0, 9), tar, ct)
            # the pre-scan takes the holdover that Exit2 places
            holdover = ct[CT_EXIT2] if label == _PRESCAN else 0
            where = (_LABEL_NAMES[label], entry, n)
            assert ct[CT_WA] == ar.stores, where
            assert ct[CT_WS] == tar.stores + holdover, where
            seen.add(label)
    assert seen == set(labels)
