"""The partition machine counts its comparisons by law.

``_run_machine`` adds ``(r - l) - (mr - ml) - _PRECOMPARED[label]``,
taken from its entry cursors, to the comparison counter, and 1 more
when it runs Exit2; no scan step counts.  These tests check that law
against the comparator itself: every machine call's counter delta must
equal the number of times the machine called its comparator, and every
sort's ``SortStats.comparisons`` the calls of the whole sort.

The comparators are counting wrappers around a consistent three-way
comparator, a coin flip between -1 and +1, and a random draw of -1, 0
or +1.  The inconsistent ones drive the machine down paths an ordered
input never takes.  The machine is entered from Sorter sorts, from both
fast-path handlers over the inputs of their golden sweeps, and directly
at the state-1 scan labels and at the one-side-closed labels, before and
after the closing scan.
"""

import random

import pytest

from tsqsort import Sorter, SortConfig, core
from tsqsort.core import (CT_CMP, CT_LEN, CT_S2L, CT_S2R, CT_S3L, CT_S3R,
                          _L1, _LABEL_NAMES, _MLEFT, _MLEFT_NOSCAN, _MRIGHT,
                          _MRIGHT_NOSCAN, _R1)
from tsqsort.handlers import handle_possibly_reversed, handle_possibly_sorted
from tsqsort.instrument import counting_comparator

import test_reversed_fast_path_sweep as reversed_sweep
import test_sorted_fast_path_sweep as sorted_sweep
from conftest import cmp3

THRESHOLDS = (3, 7, 16)
TOLERANCES = (0, 1, 3, 8)


def comparators(seed):
    """Counting comparators by name: consistent, coin flip, three-way."""
    rnd = random.Random(seed)
    return {
        "consistent": counting_comparator(cmp3),
        "coin_flip": counting_comparator(lambda x, y: rnd.choice((-1, 1))),
        "three_way": counting_comparator(lambda x, y: rnd.randint(-1, 1)),
    }


@pytest.fixture
def law(monkeypatch):
    """Wrap ``core._run_machine`` in a check of the law; returns the
    set of entry label names seen.  The comparator passed in must be a
    counting comparator.

    It also checks the precondition states 2L/2R/3L/3R rely on: a stage
    entered after the closing scan, at _MLEFT_NOSCAN or _MRIGHT_NOSCAN,
    has its cursor on a non-equal, lc != 0."""
    seen = set()
    run_machine = core._run_machine

    def checked(ar, cc, mid, p, label, l, r, ml, mr, m, lc, temp, tar, ct):
        if label in (_MLEFT_NOSCAN, _MRIGHT_NOSCAN):
            assert lc != 0, (_LABEL_NAMES[label], (l, r, ml, mr, m), len(ar))
        calls0 = cc.count
        cmp0 = ct[CT_CMP]
        out = run_machine(ar, cc, mid, p, label, l, r, ml, mr, m, lc, temp,
                          tar, ct)
        assert ct[CT_CMP] - cmp0 == cc.count - calls0, (
            _LABEL_NAMES[label], (l, r, ml, mr, m, lc), len(ar))
        seen.add(_LABEL_NAMES[label])
        return out

    monkeypatch.setattr(core, "_run_machine", checked)
    return seen


def inputs(rnd):
    """Random, dups, sorted, reversed, near-sorted and half-reversed
    inputs of n from 2 to 3000, most of them short."""
    for n in [2, 3, 5, 17, 40, 100, 333, 3000] + [
            rnd.randint(2, 200) for _ in range(6)]:
        top = rnd.choice((3, 30, 10**6))
        data = [rnd.randint(0, top) for _ in range(n)]
        yield data
        yield sorted(data)
        yield sorted(data, reverse=True)
        near = sorted(data)
        for _ in range(rnd.randint(1, 3)):
            i, j = rnd.randrange(n), rnd.randrange(n)
            near[i], near[j] = near[j], near[i]
        yield near
        half = sorted(data)
        half[:n // 2] = half[n // 2 - 1::-1] if n > 1 else half[:0]
        yield half


def test_sorts_count_every_comparison(law):
    rnd = random.Random(1501)
    cases = list(inputs(rnd))
    for i, data in enumerate(cases):
        thr = THRESHOLDS[i % len(THRESHOLDS)]
        tol = TOLERANCES[i // len(THRESHOLDS) % len(TOLERANCES)]
        config = SortConfig(insertion_threshold=thr, reverse_tolerance=tol)
        for name, cc in comparators(i).items():
            ar = list(data)
            stats = Sorter(config, seed=i + 1).sort_with_stats(ar, cc)
            assert stats.comparisons == cc.count, (i, name, thr, tol)
            assert sorted(ar) == sorted(data)
    assert {"prescan", "r_scan1", "mleft", "mright", "mleft_noscan",
            "mright_noscan", "l_scan1_2", "r_scan1_3", "ml_scan1_2",
            "mr_scan1_2"} <= law


def test_sorted_sweep_fallbacks_follow_the_law(law):
    for n in sorted_sweep.N_RANGE[::4]:
        ccs = comparators(n)
        for k in range(n):
            for _, data in sorted_sweep.variants(n, k):
                for cc in ccs.values():
                    ar = list(data)
                    b = n - 1
                    handle_possibly_sorted(ar, 0, b, ar[b >> 1], cmp=cc,
                                           ct=[0] * CT_LEN, finish=True)
    assert sorted_sweep.SORTED_RESUME_LABELS <= law


def test_reversed_sweep_fallbacks_follow_the_law(law):
    for n in reversed_sweep.N_RANGE[::3]:
        ccs = comparators(n)
        for tol in TOLERANCES:
            for _, _, pivot, data in reversed_sweep.variants(n):
                for cc in ccs.values():
                    handle_possibly_reversed(list(data), 0, n - 1, pivot,
                                             cmp=cc, tolerance=tol,
                                             ct=[0] * CT_LEN, finish=True)
    assert reversed_sweep.REVERSED_RESUME_LABELS <= law


# the one-side-closed entry labels, and the states each can reach
CLOSED_SIDE_STATES = {
    _MLEFT: (CT_S2L, CT_S3L), _MLEFT_NOSCAN: (CT_S2L, CT_S3L),
    _MRIGHT: (CT_S2R, CT_S3R), _MRIGHT_NOSCAN: (CT_S2R, CT_S3R),
}


def direct_entry(rnd, n, label):
    """A random entry at a state-1 scan label or a one-side-closed
    label.  At _L1 and _R1 both sides are open around a one-slot block
    at the center, with the hole at r (l) as the pre-scan (a left scan)
    leaves it.  At _MLEFT the right side is closed at the center hole,
    r = mr = mid, with an unscanned run between the hole at l and the
    block's edge ml; at _MLEFT_NOSCAN ml is the cursor the closing scan
    stopped on, and lc its comparison.  The block's width is drawn from
    the whole range, so the state choice takes both 2L and 3L.  _MRIGHT
    and _MRIGHT_NOSCAN mirror this."""
    mid = (n - 1) >> 1
    lc = rnd.choice((-1, 1))
    if label in (_L1, _R1):
        return rnd.randint(0, mid - 1), rnd.randint(mid + 1, n - 1), \
            mid, mid, mid, lc
    scanned = label in (_MLEFT_NOSCAN, _MRIGHT_NOSCAN)
    if label in (_MLEFT, _MLEFT_NOSCAN):
        l = rnd.randint(0, mid - 2)
        ml = rnd.randint(l + 1, mid - scanned)
        return l, mid, ml, mid, mid, lc
    r = rnd.randint(mid + 2, n - 1)
    mr = rnd.randint(mid + scanned, r - 1)
    return mid, r, mid, mr, mid, lc


def test_direct_entries_follow_the_law(law):
    rnd = random.Random(1502)
    labels = (_L1, _R1) + tuple(CLOSED_SIDE_STATES)
    cts = {label: [0] * CT_LEN for label in labels}
    for trial in range(400):
        n = rnd.randint(5, 60)
        label = labels[trial % len(labels)]
        for cc in comparators(trial).values():
            ar = [rnd.randint(0, 9) for _ in range(n)]
            entry = direct_entry(rnd, n, label)
            core._run_machine(ar, cc, (n - 1) >> 1, 5, label, *entry,
                              rnd.randint(0, 9), [None] * ((n + 1) // 2),
                              cts[label])
    assert {_LABEL_NAMES[label] for label in labels} <= law
    for label, states in CLOSED_SIDE_STATES.items():
        assert all(cts[label][state] for state in states), \
            _LABEL_NAMES[label]
