"""The explicit-stack driver against the recursive driver it replaced.

``Recursive`` keeps the earlier ``Sorter._range``, which recursed into
the smaller side of each stage and looped on the larger, and the
``_fill_stats`` that went with it, where the driver added the pivot
extraction's write to ``ct`` once per stage.  The explicit-stack driver
must give the same output, ``SortStats`` and ``StageRecord`` stream over
the 7x6 battery at n = 100 and 2000, at insertion thresholds 3, 7 and
16, with the default comparator (the inline path) and a coin-flip
comparator (the generic path).  Its stack of pending ranges must never
hold more than floor(log2 n) of them, also under the live killer
adversary, whose stages nest about 0.2 n deep.
"""

import math
import random
import sys

import pytest

from tsqsort import GenSpec, SortConfig, Sorter, core, generate
from tsqsort.bench import BATTERY_REORDERS
from tsqsort.core import (CT_CMP, CT_DEPTH, CT_EXIT2, CT_EXIT3L, CT_EXIT3R,
                          CT_HFALL, CT_HREV, CT_HSORT, CT_S1, CT_S2L,
                          CT_S2R, CT_S3L, CT_S3R, CT_STAGES, CT_TI_HW, CT_WA,
                          CT_WS, _DONE, _LABEL_NAMES, _MR1_2, _PRESCAN)
from tsqsort.datagen import DISTRIBUTIONS, KillerAdversary
from tsqsort.instrument import StageRecord, counting_comparator
from tsqsort.stats import (EXIT2, EXIT3L, EXIT3R, S1, S2L, S2R, S3L, S3R)

THRESHOLDS = (3, 7, 16)


class Recursive(Sorter):
    """A sorter with the recursive driver, as it was before the stack."""

    def _fill_stats(self, stats, ct):
        stats.comparisons = ct[CT_CMP]
        stats.array_writes = ct[CT_WA]
        stats.scratch_writes = ct[CT_WS]
        stats.element_writes = ct[CT_WA] + ct[CT_WS]
        stats.temp_high_water = ct[CT_TI_HW]
        stats.max_depth = ct[CT_DEPTH]
        stats.stages = ct[CT_STAGES]
        stats.state_activations = {
            S1: ct[CT_S1], S2L: ct[CT_S2L], S2R: ct[CT_S2R],
            S3L: ct[CT_S3L], S3R: ct[CT_S3R], EXIT2: ct[CT_EXIT2],
            EXIT3L: ct[CT_EXIT3L], EXIT3R: ct[CT_EXIT3R],
        }
        stats.handler_activations = {
            "sorted": ct[CT_HSORT],
            "reversed": ct[CT_HREV],
            "fallbacks": ct[CT_HFALL],
        }

    def _range(self, ar, cmp3, a, b, depth, tar, ct):
        cfg = self.config
        thr = cfg.insertion_threshold
        rng = self.rng
        hook = self.stage_hook
        while True:
            if depth > ct[CT_DEPTH]:
                ct[CT_DEPTH] = depth
            n = b - a + 1
            if n <= thr:
                core.insertion_sort(ar, a, b, cmp3, ct)
                return
            ct[CT_STAGES] += 1
            if hook is not None:
                cmp0 = ct[CT_CMP]
                writes0 = ct[CT_WA] + ct[CT_WS]
            p, _, flag = core.select_pivot(ar, a, b, cfg, rng, cmp3, ct)
            mid = (a + b) >> 1
            ct[CT_WS] += 1  # pivot extraction into the held-out slot
            if flag == 0:
                label, l, r, ml, mr, m, lc, hold = (
                    _PRESCAN, a, b, mid, mid, mid, 0, None)
            elif flag > 0:
                ct[CT_HSORT] += 1
                label, l, r, ml, mr, m, lc, hold = core._sorted_handler(
                    ar, cmp3, a, b, mid, p, ct, depth, 0)
            else:
                ct[CT_HREV] += 1
                label, l, r, ml, mr, m, lc, hold = core._reversed_handler(
                    ar, cmp3, a, b, mid, p, ct, cfg.reverse_tolerance)
            if label == _DONE:
                new_l, new_r, last_exit = l, r, None
            else:
                if flag:
                    ct[CT_HFALL] += 1
                if label <= _MR1_2:
                    ct[CT_S1] += 1
                new_l, new_r, last_exit = core._run_machine(
                    ar, cmp3, mid, p, label, l, r, ml, mr, m, lc, hold, tar,
                    ct)
            if hook is not None:
                hook(StageRecord(
                    a, b, p, flag,
                    None if label == _DONE else _LABEL_NAMES[label],
                    last_exit, new_l, new_r, ct[CT_CMP] - cmp0,
                    ct[CT_WA] + ct[CT_WS] - writes0))
            left_n = new_l - a + 1
            right_n = b - new_r + 1
            # recurse into the smaller side, loop on the larger
            if left_n <= right_n:
                if left_n > 1:
                    self._range(ar, cmp3, a, new_l, depth + 1, tar, ct)
                if right_n <= 1:
                    return
                a = new_r
            else:
                if right_n > 1:
                    self._range(ar, cmp3, new_r, b, depth + 1, tar, ct)
                if left_n <= 1:
                    return
                b = new_l
            depth += 1


def coin_flip(seed):
    rnd = random.Random(seed)
    return counting_comparator(lambda x, y: rnd.choice((-1, 1)))


def battery(n):
    return [generate(GenSpec(distribution=dist, reorder=kind, n=n,
                             arange=arange, seed=17))
            for dist in DISTRIBUTIONS for kind in BATTERY_REORDERS
            for arange in (n, 7)]


def run(cls, data, config, seed, cmp):
    """(output, vars of SortStats, StageRecord stream) of one sort."""
    sorter = cls(config, seed=seed)
    records = []
    sorter.stage_hook = records.append
    ar = list(data)
    stats = sorter.sort_with_stats(ar, cmp)
    return ar, vars(stats), records


@pytest.mark.parametrize("n", (100, 2000))
@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_stack_driver_matches_the_recursive_driver(n, threshold):
    config = SortConfig(insertion_threshold=threshold)
    # the battery, plus one range that is a leaf and one stage that
    # leaves no side to sort
    inputs = battery(n) + [list(range(threshold, 0, -1)), [5] * n]
    for i, data in enumerate(inputs):
        for coin in (False, True):
            got, want = (run(cls, data, config, i + 1,
                             coin_flip(i) if coin else None)
                         for cls in (Sorter, Recursive))
            assert got == want, (n, threshold, i, coin)
            if not coin:
                assert got[0] == sorted(data)


def test_stack_driver_without_a_hook_matches_its_counts():
    data = battery(2000)[9]
    ar = list(data)
    stats = Sorter(seed=3).sort_with_stats(ar)
    assert (ar, vars(stats)) == run(Sorter, data, None, 3, None)[:2]


def pending_sizes(monkeypatch):
    """Record the driver's stack size at every stage and every leaf."""
    sizes = []
    leaf = core.insertion_sort

    def insertion_sort(*args):
        sizes.append(len(sys._getframe(1).f_locals["pending"]))
        return leaf(*args)

    def hook(record):
        sizes.append(len(sys._getframe(1).f_locals["pending"]))

    monkeypatch.setattr(core, "insertion_sort", insertion_sort)
    return sizes, hook


def test_pending_stack_stays_within_log2_n_under_the_killer(monkeypatch):
    n = 4096
    sizes, hook = pending_sizes(monkeypatch)
    adv = KillerAdversary(n)
    sorter = Sorter(seed=1)
    sorter.stage_hook = hook
    ar = adv.handles()
    stats = sorter.sort_with_stats(ar, adv.compare)
    assert stats.max_depth > 600  # the adversary nests the stages deep
    assert 0 < max(sizes) <= math.floor(math.log2(n))


@pytest.mark.parametrize("kind", ("random", "sorted", "reversed"))
def test_pending_stack_stays_within_log2_n(monkeypatch, kind):
    n = 5000
    sizes, hook = pending_sizes(monkeypatch)
    data = generate(GenSpec(distribution="random",
                            reorder="identity" if kind == "random" else kind,
                            n=n, arange=n, seed=2))
    sorter = Sorter(SortConfig(insertion_threshold=3), seed=1)
    sorter.stage_hook = hook
    sorter.sort(data)
    assert data == sorted(data)
    assert 0 < max(sizes) <= math.floor(math.log2(n))
