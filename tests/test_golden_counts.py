"""Golden counts: the sorter's counters for fixed inputs and seeds.

The counts are the paper's product: a change that does not mean to
alter them must leave them bit-identical.  Each entry pins comparisons,
array writes, scratch writes, buffer high water, stages, recursion
depth and the state and handler activation counters of one sort.
"""

import pytest

from tsqsort import GenSpec, Sorter, core, generate
from tsqsort.bench import BATTERY_REORDERS
from tsqsort.datagen import DISTRIBUTIONS
from tsqsort.stats import STATE_IDS

DISTINCT = 2**31 - 1

CASES = {f"{dist}/{kind}": GenSpec(distribution=dist, reorder=kind, n=600,
                                    arange=40, seed=3)
         for dist in DISTRIBUTIONS for kind in BATTERY_REORDERS}
CASES.update({
    "random/1e4": GenSpec(n=10_000, arange=DISTINCT, seed=5),
    "presorted/1e4": GenSpec(reorder="sorted", n=10_000, arange=DISTINCT,
                             seed=5),
    "dups/1e4": GenSpec(n=10_000, arange=100, seed=5),
    # the only cases whose handlers fall back at mleft_noscan (sorted)
    # and mr_scan1_2 (reversed)
    "organpipes/reversed/seed1": GenSpec(distribution="organpipes",
                                         reorder="reversed", n=600,
                                         arange=40, seed=1),
    "stagger/fort/distinct": GenSpec(distribution="stagger", reorder="fort",
                                     n=600, arange=DISTINCT, seed=1),
})

# Every label _sorted_handler and _reversed_handler can fall back to.
HANDLER_RESUME_LABELS = {
    "prescan", "l_scan1_2", "r_scan1", "r_scan1_3", "ml_scan1_2",
    "mr_scan1_2", "mleft", "mright", "mleft_noscan", "mright_noscan",
}


def counts(spec):
    ar = generate(spec)
    st = Sorter(seed=7).sort_with_stats(ar)
    assert ar == sorted(ar)
    return (st.comparisons, st.array_writes, st.scratch_writes,
            st.temp_high_water, st.stages, st.max_depth,
            tuple(st.state_activations[k] for k in STATE_IDS),
            tuple(st.handler_activations[k]
                  for k in ("sorted", "reversed", "fallbacks")))


# (comparisons, array writes, scratch writes, temp high water, stages,
#  max depth, state activations in STATE_IDS order,
#  handler activations: sorted, reversed, fallbacks)
GOLDEN = {
    "dups/1e4":
        (62073, 34914, 766, 118, 100, 10,
         (61, 25, 23, 3, 2, 61, 3, 2), (44, 0, 5)),
    "hill/backhalfreversed":
        (908, 8, 8, 0, 8, 5,
         (0, 0, 0, 0, 0, 0, 0, 0), (8, 0, 0)),
    "hill/dither":
        (1840, 1051, 52, 0, 12, 7,
         (10, 4, 1, 3, 1, 10, 3, 1), (3, 0, 1)),
    "hill/fort":
        (1077, 507, 66, 1, 7, 6,
         (7, 1, 0, 3, 2, 7, 3, 2), (2, 0, 2)),
    "hill/fronthalfreversed":
        (984, 250, 28, 0, 8, 6,
         (8, 1, 0, 4, 3, 8, 4, 3), (3, 0, 3)),
    "hill/reversed":
        (912, 246, 49, 0, 8, 5,
         (1, 0, 1, 0, 0, 1, 0, 0), (6, 1, 0)),
    "hill/sorted":
        (908, 8, 8, 0, 8, 5,
         (0, 0, 0, 0, 0, 0, 0, 0), (8, 0, 0)),
    "organpipes/backhalfreversed":
        (2898, 435, 62, 18, 26, 7,
         (6, 1, 1, 1, 1, 6, 1, 1), (21, 0, 1)),
    "organpipes/dither":
        (3098, 1734, 148, 21, 28, 9,
         (24, 11, 6, 2, 3, 24, 2, 3), (8, 1, 5)),
    "organpipes/fort":
        (2978, 1837, 99, 30, 27, 8,
         (22, 5, 14, 1, 0, 22, 1, 0), (9, 0, 4)),
    "organpipes/fronthalfreversed":
        (2886, 781, 66, 16, 26, 8,
         (12, 5, 3, 2, 0, 13, 2, 0), (16, 0, 3)),
    "organpipes/reversed":
        (2669, 620, 314, 0, 26, 6,
         (0, 0, 1, 0, 0, 1, 0, 0), (25, 1, 1)),
    "organpipes/reversed/seed1":
        (2661, 620, 320, 0, 26, 6,
         (0, 1, 0, 0, 0, 1, 0, 0), (25, 1, 1)),
    "organpipes/sorted":
        (2666, 26, 26, 0, 26, 6,
         (0, 0, 0, 0, 0, 0, 0, 0), (26, 0, 0)),
    "plateau/backhalfreversed":
        (723, 4, 4, 0, 4, 4,
         (0, 0, 0, 0, 0, 0, 0, 0), (4, 0, 0)),
    "plateau/dither":
        (1733, 946, 27, 0, 8, 6,
         (3, 1, 2, 0, 3, 6, 0, 3), (6, 0, 4)),
    "plateau/fort":
        (815, 268, 32, 0, 3, 4,
         (2, 0, 1, 0, 1, 3, 0, 1), (1, 0, 1)),
    "plateau/fronthalfreversed":
        (804, 138, 20, 0, 6, 6,
         (6, 1, 0, 3, 0, 4, 3, 0), (0, 0, 0)),
    "plateau/reversed":
        (724, 125, 25, 0, 4, 4,
         (1, 0, 1, 0, 0, 1, 0, 0), (2, 1, 0)),
    "plateau/sorted":
        (723, 4, 4, 0, 4, 4,
         (0, 0, 0, 0, 0, 0, 0, 0), (4, 0, 0)),
    "presorted/1e4":
        (109937, 1023, 1023, 0, 1023, 11,
         (0, 0, 0, 0, 0, 0, 0, 0), (1023, 0, 0)),
    "random/1e4":
        (141543, 81933, 9293, 0, 936, 17,
         (927, 0, 0, 461, 419, 936, 461, 419), (128, 114, 242)),
    "random/backhalfreversed":
        (2992, 520, 84, 20, 28, 8,
         (8, 0, 2, 1, 2, 8, 1, 2), (21, 0, 1)),
    "random/dither":
        (3595, 1982, 157, 23, 30, 10,
         (26, 5, 11, 4, 3, 26, 4, 3), (11, 1, 8)),
    "random/fort":
        (2953, 1723, 94, 14, 29, 8,
         (24, 4, 13, 0, 2, 24, 0, 2), (12, 0, 7)),
    "random/fronthalfreversed":
        (2966, 819, 77, 16, 30, 8,
         (10, 2, 8, 1, 0, 13, 1, 0), (20, 1, 4)),
    "random/reversed":
        (2759, 625, 322, 0, 29, 6,
         (0, 0, 1, 0, 0, 1, 0, 0), (28, 1, 1)),
    "random/sorted":
        (2756, 29, 29, 0, 29, 6,
         (0, 0, 0, 0, 0, 0, 0, 0), (29, 0, 0)),
    "sawtooth/backhalfreversed":
        (2805, 325, 161, 0, 24, 6,
         (1, 0, 1, 0, 0, 2, 0, 0), (22, 1, 1)),
    "sawtooth/dither":
        (3090, 1762, 82, 13, 26, 8,
         (26, 10, 10, 0, 1, 26, 0, 1), (7, 0, 7)),
    "sawtooth/fort":
        (3171, 1880, 118, 14, 26, 9,
         (26, 10, 9, 3, 1, 26, 3, 1), (12, 0, 12)),
    "sawtooth/fronthalfreversed":
        (2949, 498, 83, 14, 23, 8,
         (6, 0, 4, 2, 1, 7, 2, 1), (17, 1, 2)),
    "sawtooth/reversed":
        (2804, 624, 310, 0, 24, 6,
         (0, 0, 1, 0, 0, 1, 0, 0), (23, 1, 1)),
    "sawtooth/sorted":
        (2801, 24, 24, 0, 24, 6,
         (0, 0, 0, 0, 0, 0, 0, 0), (24, 0, 0)),
    "shuffle/backhalfreversed":
        (4189, 362, 212, 0, 63, 7,
         (1, 0, 0, 0, 0, 0, 0, 0), (61, 1, 0)),
    "shuffle/dither":
        (4263, 277, 180, 0, 61, 7,
         (0, 0, 0, 0, 0, 22, 0, 0), (61, 0, 22)),
    "shuffle/fort":
        (5510, 3808, 548, 0, 59, 9,
         (54, 0, 0, 28, 31, 59, 28, 31), (15, 4, 19)),
    "shuffle/fronthalfreversed":
        (4821, 787, 165, 0, 60, 11,
         (25, 0, 0, 20, 2, 23, 20, 2), (35, 0, 1)),
    "shuffle/reversed":
        (4189, 662, 362, 0, 63, 7,
         (0, 0, 0, 0, 0, 0, 0, 0), (62, 1, 0)),
    "shuffle/sorted":
        (4187, 63, 63, 0, 63, 7,
         (0, 0, 0, 0, 0, 0, 0, 0), (63, 0, 0)),
    "stagger/backhalfreversed":
        (4189, 362, 212, 0, 63, 7,
         (1, 0, 0, 0, 0, 0, 0, 0), (61, 1, 0)),
    "stagger/dither":
        (5711, 3609, 545, 0, 54, 9,
         (53, 0, 0, 26, 27, 54, 26, 27), (10, 5, 15)),
    "stagger/fort":
        (5738, 3530, 555, 0, 58, 10,
         (57, 0, 0, 34, 19, 58, 34, 19), (3, 6, 9)),
    "stagger/fort/distinct":
        (3853, 2365, 204, 7, 35, 9,
         (35, 12, 12, 3, 4, 35, 3, 4), (7, 3, 10)),
    "stagger/fronthalfreversed":
        (4821, 787, 165, 0, 60, 11,
         (25, 0, 0, 20, 2, 23, 20, 2), (35, 0, 1)),
    "stagger/reversed":
        (4189, 662, 362, 0, 63, 7,
         (0, 0, 0, 0, 0, 0, 0, 0), (62, 1, 0)),
    "stagger/sorted":
        (4187, 63, 63, 0, 63, 7,
         (0, 0, 0, 0, 0, 0, 0, 0), (63, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_counts(name):
    assert counts(CASES[name]) == GOLDEN[name]


def test_golden_cases_enter_every_handler_resume_label(monkeypatch):
    seen = set()
    run_machine = core._run_machine

    def spy(ar, cmp3, mid, p, label, *entry):
        seen.add(core._LABEL_NAMES[label])
        return run_machine(ar, cmp3, mid, p, label, *entry)

    monkeypatch.setattr(core, "_run_machine", spy)
    for spec in CASES.values():
        counts(spec)
    assert HANDLER_RESUME_LABELS <= seen
