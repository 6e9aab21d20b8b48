"""Late swapping for large elements.

Sorting bulky records moves a lot of bytes; sorting a sequence of
position handles first and then applying the resulting permutation to
the real elements caps the heavy moves at one pass: each nontrivial
cycle of length c costs c + 1 element moves, at most 3*floor(n/2)
total (all 2-cycles).  The handles stay internal -- the array itself
always ends up sorted.  The sorter takes this path for elements of
``LATE_SWAP_BYTES`` or more.
"""

from __future__ import annotations

from dataclasses import dataclass

from .stats import SortStats

LATE_SWAP_BYTES = 320


@dataclass(frozen=True)
class Permutation:
    """map[i] = origin position of the element that must end up at i."""

    map: tuple

    def __len__(self):
        return len(self.map)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.map))


def _indirect(ar, cmp3, sorter):
    """(permutation, stats) of a sort of handles over ``ar``.

    Raises ValueError, as a direct sort does, when the comparator
    changed the list's length: a shorter list shows as an IndexError
    from the handle comparator, a longer one only after the sort.
    """
    n = len(ar)
    handles = list(range(n))
    try:
        stats = sorter.sort_with_stats(handles,
                                       lambda x, y: cmp3(ar[x], ar[y]))
    except IndexError as exc:
        if len(ar) != n:
            raise ValueError("list modified during sort") from exc
        raise
    if len(ar) != n:
        raise ValueError("list modified during sort")
    return Permutation(tuple(handles)), stats


def sort_indirect(ar, cmp=None, sorter=None) -> Permutation:
    """Sort position handles over ``ar`` and return the permutation.

    The handle sequence is sorted by the triple-state core; elements are
    only read through one level of indirection, never moved.
    """
    from .core import Sorter, _default_cmp3
    cmp3 = cmp if cmp is not None else _default_cmp3
    if sorter is None:
        sorter = Sorter()
    perm, _ = _indirect(ar, cmp3, sorter)
    return perm


def _apply(ar, perm: Permutation):
    if len(perm) != len(ar):
        raise ValueError("permutation length does not match the array")
    work = list(perm.map)
    moves = 0
    cycles = 0
    for i in range(len(work)):
        j = work[i]
        if j is None or j == i:
            if j == i:
                work[i] = None
            continue
        # Rotate the cycle starting at i: hold ar[i] out, pull each
        # element from its origin, drop the held element at the end.
        cycles += 1
        temp = ar[i]
        moves += 1
        dst = i
        while True:
            src = work[dst]
            work[dst] = None
            if src == i:
                ar[dst] = temp
                moves += 1
                break
            ar[dst] = ar[src]
            moves += 1
            dst = src
    return moves, cycles


def apply_permutation(ar, perm: Permutation) -> int:
    """Rearrange ``ar`` by cycle-walking ``perm``; returns element moves.

    Fixed points cost nothing.  Permutation slots are consumed as their
    cycles complete, so each cycle is applied exactly once.
    """
    moves, _ = _apply(ar, perm)
    return moves


def sort_large_elements(ar, cmp3, sorter) -> SortStats:
    """Late-swapping sort used by the core for oversized elements.

    A comparator that changes the list's length makes the handle sort
    raise ValueError, so no permutation is applied.
    """
    perm, stats = _indirect(ar, cmp3, sorter)
    moves, cycles = _apply(ar, perm)
    stats.element_writes += moves
    stats.array_writes += moves - cycles
    stats.scratch_writes += cycles
    return stats
