"""Golden sweep of the sorted fast path over near-sorted inputs.

For every n in 17..80 and every position k of a sorted distinct input,
the sweep builds five variants: the element at k moved to its mirror
slot, the element at k set equal to the pivot (the center value), and
three with the right half collapsed onto one value (the moved and the
equal variant onto the pivot, the equal variant onto the value k held).
Each variant is run through ``handle_possibly_sorted(finish=True)``
with the center value as pivot and through ``Sorter.sort_with_stats``.

The handler's outcome, bounds, array and ``ct[:3]`` and the sort's
output and ``vars(SortStats)`` are folded, per n, into a SHA-256
digest.  The digests were captured before the verify scans became
index loops; a change that does not mean to alter a count must leave
every one of them as it is.  ``python tests/test_sorted_fast_path_sweep.py``
prints the table for the code on the path.

The Python-comparator pass runs the handler's original function, and
under ``sys.settrace`` it must execute every one of its lines.  Runs of
several pivot-equals are not among the digested variants, so that pass
also takes, for the smaller n, every pivot-equal run [k..j] of a sorted
input, alone and with one more pivot-equal right of it.
"""

import hashlib
import sys

from tsqsort import Sorter, core
from tsqsort.core import CT_LEN, PartitionFrame
from tsqsort.handlers import handle_possibly_sorted

from conftest import assert_stage_law, cmp3

N_RANGE = range(17, 81)

# every label _sorted_handler can fall back to
SORTED_RESUME_LABELS = {
    "l_scan1_2", "r_scan1_3", "ml_scan1_2", "mleft", "mright",
    "mleft_noscan", "mright_noscan",
}


def variants(n, k):
    base = list(range(0, 2 * n, 2))
    mid = (n - 1) >> 1
    pivot = base[mid]
    moved = list(base)
    moved.insert(n - 1 - k, moved.pop(k))
    equal = list(base)
    equal[k] = pivot
    yield "moved", moved
    yield "equal", equal
    for name, data, value in (("moved", moved, moved[mid]),
                              ("equal", equal, pivot),
                              ("equal", equal, base[k])):
        collapsed = list(data)
        collapsed[mid + 1:] = [value] * (n - mid - 1)
        yield name + "+collapsed", collapsed


def equal_runs(n):
    """Sorted inputs with a pivot-equal run [k..j], alone and with one
    more pivot-equal at some i > j + 1."""
    base = list(range(0, 2 * n, 2))
    pivot = base[(n - 1) >> 1]
    for k in range(n):
        for j in range(k, n):
            data = list(base)
            data[k:j + 1] = [pivot] * (j - k + 1)
            yield data
            for i in range(j + 2, n):
                extra = list(data)
                extra[i] = pivot
                yield extra


def run_handler(data, cmp):
    ar = list(data)
    fr = PartitionFrame(0, len(ar) - 1)
    fr.pivot = ar[fr.mid]  # extracted; center slot logically empty
    ct = [0] * CT_LEN
    out = handle_possibly_sorted(ar, fr, cmp=cmp, ct=ct, finish=True)
    return out.kind, out.resume_point, out.new_l, out.new_r, ct[:3], ar


def sweep(n, seen=None):
    """Digest of every handler and sort result for inputs of length n."""
    h = hashlib.sha256()
    for k in range(n):
        for name, data in variants(n, k):
            handled = run_handler(data, None)
            assert run_handler(data, cmp3) == handled, (n, k, name)
            ar = list(data)
            st = Sorter(seed=7).sort_with_stats(ar)
            assert ar == sorted(data), (n, k, name)
            if seen is not None:
                seen.add(handled[1] or handled[0])
            h.update(repr((k, name, handled, ar, vars(st))).encode())
    return h.hexdigest()[:16]


# captured with the per-step scans of the parent; see the module docstring
GOLDEN_DIGESTS = {
    17: "8e5fb3a0a05a6ef3",
    18: "43d6d121c7e9a866",
    19: "e089dd3e4396c9dc",
    20: "cf2fbacc9fb19566",
    21: "9c4e0e7ff6b69222",
    22: "e7d552524860e1a3",
    23: "87419381e5dcc6a5",
    24: "08257a5c59bb67ac",
    25: "fa8d31c42cb25225",
    26: "72e9de0338f383a9",
    27: "64f61467674dff37",
    28: "119a2f504660fef6",
    29: "69f7f165df6df6eb",
    30: "23c9c247ebc1cff7",
    31: "7480c4d9a2df7634",
    32: "22a0ef9c5e9b5133",
    33: "2c5e0edf7aacc058",
    34: "d2fe58e7793ddf70",
    35: "0aaddf9d14392952",
    36: "30c180c57f316faf",
    37: "89e160d362880c7d",
    38: "61675b2b8f7d2ec9",
    39: "d8fcd70c7bf03d1c",
    40: "6b01db3c083fb2a6",
    41: "19f29bfdd72435d8",
    42: "935201e295983e91",
    43: "75e3f6dbe90dd0dc",
    44: "4a217e265237991b",
    45: "6275b2d1b045e74b",
    46: "77a3c958dd223aa7",
    47: "1dd9e0fec66907be",
    48: "98ed9df083b295bc",
    49: "54241f237fc22ef0",
    50: "073d113dad22ad84",
    51: "07442f4fd16e53e3",
    52: "ef5569e1c021ba07",
    53: "97b19b42fcd81795",
    54: "eb225a11425e96ab",
    55: "f66643382944050c",
    56: "8858796d37118c7b",
    57: "0e0f7a707af2f39e",
    58: "d1131ae66b9c65ad",
    59: "9fa438231e633474",
    60: "a536a06525e43519",
    61: "47bb08c49d6381cc",
    62: "8dac0a8dfc39f4ea",
    63: "b2ae0b8b505ac1c5",
    64: "792c5a1243964e91",
    65: "5330ed55cea7e5af",
    66: "4a859a71292443b6",
    67: "f09d823c8be86941",
    68: "5f95e4cb8925d32c",
    69: "121a7526b830eca7",
    70: "859b9dcff32de1aa",
    71: "1139191ff029b781",
    72: "b1c3afe2e382f29e",
    73: "30bc4961a98538ec",
    74: "520d6c291035e90a",
    75: "49c3bd8b39b45bd5",
    76: "de520118d0c88f2f",
    77: "7e11af5c5ec8ff6d",
    78: "1a66f10fd8e65dfa",
    79: "750da557269e8bb0",
    80: "8e4e22992a07e04b",
}


def test_sorted_fast_path_sweep_matches_the_captured_counts():
    seen = set()
    got = {n: sweep(n, seen) for n in N_RANGE}
    assert [n for n in N_RANGE if got[n] != GOLDEN_DIGESTS[n]] == []
    assert seen == {"bypass"} | SORTED_RESUME_LABELS


def test_sorted_sweep_reaches_every_handler_line():
    code = core._sorted_handler.__wrapped__.__code__
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
            for k in range(n):
                for _, data in variants(n, k):
                    run_handler(data, cmp3)
        finished = [(data, run_handler(data, cmp3))
                    for n in N_RANGE[:8] for data in equal_runs(n)]
    finally:
        sys.settrace(old)
    assert sorted(want - reached) == []
    for data, (_, _, new_l, new_r, _, ar) in finished:
        assert_stage_law(ar, 0, len(ar) - 1, new_l, new_r,
                         data[(len(data) - 1) >> 1])


if __name__ == "__main__":
    for n in N_RANGE:
        print(f"    {n}: \"{sweep(n)}\",")
