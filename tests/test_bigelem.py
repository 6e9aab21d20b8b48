import random

import pytest

from tsqsort import SortConfig, Sorter
from tsqsort.bigelem import Permutation, apply_permutation, sort_indirect

from conftest import cmp3, reference_sort


def test_sort_indirect_example():
    perm = sort_indirect([30, 10, 20])
    assert perm.map == (1, 2, 0)


def test_sort_indirect_identity_on_sorted():
    perm = sort_indirect(list(range(10)))
    assert perm.is_identity()


def test_sort_indirect_all_equal_is_bijection():
    ar = [5] * 8
    perm = sort_indirect(ar)
    assert sorted(perm.map) == list(range(8))
    apply_permutation(ar, perm)
    assert ar == [5] * 8


@pytest.mark.parametrize("change", (lambda ar: ar.append(0),
                                    lambda ar: ar.pop()),
                         ids=("append", "pop"))
def test_sort_indirect_raises_when_the_length_changes(change):
    ar = list(range(200, 0, -1))
    calls = 0

    def cmp(x, y):
        nonlocal calls
        calls += 1
        if calls == 100:
            change(ar)
        return cmp3(x, y)

    with pytest.raises(ValueError, match="list modified during sort"):
        sort_indirect(ar, cmp)


def test_apply_identity_zero_moves():
    ar = list(range(5))
    assert apply_permutation(ar, Permutation((0, 1, 2, 3, 4))) == 0
    assert ar == [0, 1, 2, 3, 4]


def test_apply_single_two_cycle():
    ar = [1, 0, 2]
    moves = apply_permutation(ar, Permutation((1, 0, 2)))
    assert moves == 3
    assert ar == [0, 1, 2]


def test_apply_full_reversal_n6():
    ar = [5, 4, 3, 2, 1, 0]
    moves = apply_permutation(ar, Permutation((5, 4, 3, 2, 1, 0)))
    assert moves == 9  # three 2-cycles at 3 moves each = 3 * (n/2)
    assert ar == [0, 1, 2, 3, 4, 5]


def test_move_bound_and_composition_law():
    rnd = random.Random(4)
    for _ in range(200):
        n = rnd.randint(0, 60)
        ar = [rnd.randint(0, 20) for _ in range(n)]
        ref = reference_sort(ar)
        perm = sort_indirect(ar)
        work = list(ar)
        moves = apply_permutation(work, perm)
        assert work == ref
        ncycles = _nontrivial_cycles(perm.map)
        assert moves == sum(c + 1 for c in ncycles)
        assert moves <= 3 * (n // 2) if _all_two_cycles(ncycles) else True
        assert moves <= n + len(ncycles)
        if not ncycles:
            assert moves == 0


def _nontrivial_cycles(mapping):
    seen = [False] * len(mapping)
    out = []
    for i in range(len(mapping)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = mapping[j]
            length += 1
        if length > 1:
            out.append(length)
    return out


def _all_two_cycles(cycles):
    return all(c == 2 for c in cycles)


def test_permutation_length_mismatch():
    with pytest.raises(ValueError):
        apply_permutation([1, 2], Permutation((0, 1, 2)))


def test_late_swap_path_in_sorter():
    # large elements go through the indirection sort transparently
    rnd = random.Random(9)
    payload = bytes(400)
    items = [(rnd.randint(0, 50), payload, i) for i in range(300)]

    def by_key(x, y):
        return cmp3(x[0], y[0])

    ar = list(items)
    stats = Sorter(seed=3).sort_with_stats(ar, by_key, element_size=400)
    assert [x[0] for x in ar] == sorted(x[0] for x in items)
    assert sorted(x[2] for x in ar) == list(range(300))
    assert stats.element_writes > 0


def test_small_elements_skip_late_path():
    ar = [3, 1, 2]
    stats = Sorter(seed=3).sort_with_stats(ar, element_size=8)
    assert ar == [1, 2, 3]


def test_reversal_moves_via_late_path():
    n = 100
    ar = list(range(n))[::-1]
    perm = sort_indirect(ar)
    moves = apply_permutation(ar, perm)
    assert ar == sorted(range(n))
    assert moves <= 3 * (n // 2)
