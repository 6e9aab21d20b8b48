"""Self-verification battery: correctness, certificates, predictors,
adversary bounds.  Returns structured results; the CLI prints one line
per check and exits non-zero on any failure.
"""

from __future__ import annotations

import itertools
import math
import random

from .analysis import predict_swaps_tsq_exact, recurrence_oracle
from .baselines import REGISTRY, fixed_pivot_qsort
from .config import SortConfig
from .core import Sorter, _default_cmp3
from .datagen import KillerAdversary, cook_input
from .pivot import median_of_5


def _check_exhaustive_small():
    cfg = SortConfig(insertion_threshold=3)
    s = Sorter(cfg, seed=11)
    for perm in itertools.permutations(range(1, 8)):
        ar = list(perm)
        s.sort(ar)
        if ar != sorted(perm):
            return False, f"triple-state failed on {perm}"
    for name, fn in REGISTRY.items():
        for perm in itertools.permutations(range(1, 7)):
            ar = list(perm)
            fn(ar)
            if ar != sorted(perm):
                return False, f"{name} failed on {perm}"
    return True, "7!/6! permutations"


def _check_multisets():
    s = Sorter(SortConfig(insertion_threshold=3), seed=5)
    for tup in itertools.product(range(3), repeat=7):
        ar = list(tup)
        s.sort(ar)
        if ar != sorted(tup):
            return False, f"failed on {tup}"
    return True, "3^7 multisets"


def _check_median5_certificates():
    worst_c = worst_w = 0
    for perm in itertools.permutations((1, 2, 3, 4, 5)):
        ar = list(perm)
        tally = [0, 0, 0]
        dec = median_of_5(ar, 0, 1, 2, 3, 4, _default_cmp3, tally)
        if dec.pivot != 3:
            return False, f"wrong median for {perm}"
        writes = tally[1] + tally[2]
        worst_c = max(worst_c, tally[0])
        worst_w = max(worst_w, writes)
        if tally[0] > 8 or writes > 6:
            return False, f"certificate broken on {perm}"
    return True, f"120 permutations, <= {worst_c} comparisons, <= {worst_w} writes"


def _check_predictors():
    for n in list(range(2, 300)) + [1000, 9999, 10000]:
        a = recurrence_oracle(n)
        b = predict_swaps_tsq_exact(n)
        if abs(a - b) > 1e-9 * max(abs(b), 1.0):
            return False, f"recurrence/closed-form disagree at n={n}"
    return True, "closed form matches the recurrence"


def _check_config_validation():
    try:
        SortConfig(insertion_threshold=0)
    except ValueError:
        return True, "invalid thresholds rejected"
    return False, "insertion_threshold=0 accepted"


def _check_killer(n: int = 1024, budget_factor: float = 64.0):
    cooked = cook_input(lambda ar, cmp: fixed_pivot_qsort(ar, cmp), n)
    st = fixed_pivot_qsort(list(cooked))
    quad_ok = st.comparisons >= n * n / 8
    lg = math.log2(n)
    cap = budget_factor * n * lg
    for seed in (101, 202, 303):
        adv = KillerAdversary(n)
        s = Sorter(seed=seed)
        s.sort(adv.handles(), adv.compare)
        if adv.ncmp > cap:
            return False, f"mitigated sort exceeded {cap:.0f} comparisons"
    if not quad_ok:
        return False, (f"fixed-pivot replay did only {st.comparisons} "
                       f"comparisons (< n^2/8)")
    return True, f"fixed-pivot blowup {st.comparisons}, mitigated within cap"


def _check_unmitigated_blowup(n: int = 1024):
    # with mitigation off and a fixed seed the adversary cooks the
    # deterministic fixed-pivot variant to quadratic comparisons
    cooked = cook_input(lambda ar, cmp: fixed_pivot_qsort(ar, cmp), n)
    st = fixed_pivot_qsort(list(cooked))
    ratio = st.comparisons / (n * n / 8)
    return ratio >= 1.0, f"replayed blowup at {ratio:.1f} x n^2/8"


def _check_random_roundtrip():
    rnd = random.Random(7)
    s = Sorter(seed=13)
    for _ in range(60):
        n = rnd.randint(0, 400)
        ar = [rnd.randint(0, 50) for _ in range(n)]
        ref = sorted(ar)
        s.sort(ar)
        if ar != ref:
            return False, f"mismatch at n={n}"
    return True, "random spot checks"


CHECKS = (
    ("exhaustive-small", _check_exhaustive_small),
    ("multisets", _check_multisets),
    ("median5-certificates", _check_median5_certificates),
    ("predictor-agreement", _check_predictors),
    ("config-validation", _check_config_validation),
    ("killer-mitigation", _check_killer),
    ("killer-unmitigated-blowup", _check_unmitigated_blowup),
    ("random-roundtrip", _check_random_roundtrip),
)


def run_verify(out=None) -> bool:
    """Run every check; print one PASS/FAIL line each; True if all pass."""
    import sys
    if out is None:
        out = sys.stdout
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn()
        all_ok &= ok
        out.write(f"{'PASS' if ok else 'FAIL'}  {name:28s} {detail}\n")
    return all_ok
