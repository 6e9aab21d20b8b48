"""Golden sweep of the reversed fast path over near-reversed inputs.

For every n in 3..24, every tolerance in 0, 1 and 3 and two bases of
distinct values, one descending and one ascending, with the center
value ``base[mid]`` as pivot, the sweep builds these variants:

* the base unchanged;
* each single edit at a position k other than mid: a pivot-equal
  value at k, or a value already on its final side at k (below the
  pivot left of mid, above it right of mid);
* each pair of such edits at two distinct positions;
* each pivot-equal run over [k..j];
* 1 to 4 final-side values at the left end or at the right end.

Each variant runs through ``handle_possibly_reversed(finish=True)``
once with the default comparator and once with a distinct Python
comparator, which must agree.  The outcome, resume point, bounds,
array and ``ct[:3]`` are folded, per n, into a SHA-256 digest.  The
digests were captured before the handler was rewritten as settled-side
phases; a change that does not mean to alter a count must leave every
one of them as it is.  ``python tests/test_reversed_fast_path_sweep.py``
prints the table for the code on the path.

The Python-comparator pass runs the handler's original function, and
under ``sys.settrace`` it must execute every one of its lines.
"""

import hashlib
import sys
from itertools import combinations

from tsqsort import core
from tsqsort.core import CT_LEN, PartitionFrame
from tsqsort.handlers import handle_possibly_reversed

from conftest import assert_stage_law, cmp3

N_RANGE = range(3, 25)
TOLERANCES = (0, 1, 3)

# every label _reversed_handler can fall back to
REVERSED_RESUME_LABELS = {
    "prescan", "r_scan1", "mr_scan1_2", "mleft_noscan", "mright_noscan",
}


def final_side(n, k):
    """A value that belongs on position k's side of the center: below
    every base value left of mid, above every one right of it."""
    return -1 - k if k < (n - 1) >> 1 else 2 * n + k


def variants(n):
    mid = (n - 1) >> 1
    spots = [k for k in range(n) if k != mid]
    for base_name, base in (("desc", list(range(2 * n - 2, -1, -2))),
                            ("asc", list(range(0, 2 * n, 2)))):
        pivot = base[mid]
        edits = [(k, v) for k in spots for v in (pivot, final_side(n, k))]
        yield base_name, (), pivot, base
        for edit in edits:
            data = list(base)
            data[edit[0]] = edit[1]
            yield base_name, (edit,), pivot, data
        for e1, e2 in combinations(edits, 2):
            if e1[0] != e2[0]:
                data = list(base)
                data[e1[0]] = e1[1]
                data[e2[0]] = e2[1]
                yield base_name, (e1, e2), pivot, data
        for k in range(n):
            for j in range(k, n):
                data = list(base)
                data[k:j + 1] = [pivot] * (j - k + 1)
                yield base_name, ("run", k, j), pivot, data
        for c in range(1, 5):
            if c < mid:
                data = list(base)
                data[:c] = [final_side(n, k) for k in range(c)]
                yield base_name, ("left", c), pivot, data
            if c < n - 1 - mid:
                data = list(base)
                data[n - c:] = [final_side(n, k) for k in range(n - c, n)]
                yield base_name, ("right", c), pivot, data


def run_handler(data, pivot, tol, cmp):
    ar = list(data)
    fr = PartitionFrame(0, len(ar) - 1)
    fr.pivot = pivot  # extracted; center slot logically empty
    ct = [0] * CT_LEN
    out = handle_possibly_reversed(ar, fr, cmp=cmp, tolerance=tol, ct=ct,
                                   finish=True)
    return out.kind, out.resume_point, out.new_l, out.new_r, ct[:3], ar


def sweep(n, seen=None):
    """Digest of every handler result for inputs of length n."""
    h = hashlib.sha256()
    for tol in TOLERANCES:
        for base_name, edit, pivot, data in variants(n):
            handled = run_handler(data, pivot, tol, None)
            assert run_handler(data, pivot, tol, cmp3) == handled, \
                (n, tol, base_name, edit)
            assert_stage_law(handled[-1], 0, n - 1, handled[2], handled[3],
                             pivot)
            if seen is not None:
                seen.add(handled[1] or handled[0])
            h.update(repr((tol, base_name, edit, handled)).encode())
    return h.hexdigest()[:16]


# captured with the closure-based handler; see the module docstring
GOLDEN_DIGESTS = {
    3: "ec9e44d1e512a91f",
    4: "5c358ac44b16e0e9",
    5: "50993d3db66c8807",
    6: "c54684fea799949f",
    7: "23cae634b2b7f2df",
    8: "128aa5f202160677",
    9: "20a6c6df8075f3ae",
    10: "266adc0881378f1e",
    11: "9e2936295b893a75",
    12: "cceb4e5ebf956642",
    13: "68b75481a7424448",
    14: "f46bcc33afd74f56",
    15: "4bf24c4dcd0cd2dc",
    16: "adb4345521736a1a",
    17: "ce5a0e32e01ac077",
    18: "f2d4f2f574e7a3c9",
    19: "b093ec97f40e33df",
    20: "bb01e9a64e4aebcf",
    21: "9cbef86f37d101f7",
    22: "0c623925b872822e",
    23: "0a5c8a3a2a9de815",
    24: "22ba44daf8d42d6d",
}


def test_reversed_fast_path_sweep_matches_the_captured_counts():
    seen = set()
    got = {n: sweep(n, seen) for n in N_RANGE}
    assert [n for n in N_RANGE if got[n] != GOLDEN_DIGESTS[n]] == []
    assert seen == {"bypass"} | REVERSED_RESUME_LABELS


def test_reversed_sweep_reaches_every_handler_line():
    code = core._reversed_handler.__wrapped__.__code__
    want = {line for _, _, line in code.co_lines() if line is not None}
    reached = set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        reached.add(frame.f_lineno)
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        for n in N_RANGE:
            for tol in TOLERANCES:
                for _, _, pivot, data in variants(n):
                    run_handler(data, pivot, tol, cmp3)
    finally:
        sys.settrace(old)
    assert sorted(want - reached) == []


if __name__ == "__main__":
    for n in N_RANGE:
        print(f"    {n}: \"{sweep(n)}\",")
