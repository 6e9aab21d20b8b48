"""Counting wrappers for invariant tests, and the per-stage record.

These helpers stay out of the hot path unless explicitly attached: the
sorters keep their own counters (those are the product), while the
wrappers here let tests cross-check them from the outside and
``StageRecord`` is what ``Sorter.stage_hook`` receives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .inline import _default_cmp3


class CountingComparator:
    """Wrap a three-way comparator, counting every invocation."""

    __slots__ = ("inner", "count")

    def __init__(self, inner=None):
        self.inner = inner if inner is not None else _default_cmp3
        self.count = 0

    def __call__(self, x, y) -> int:
        self.count += 1
        return self.inner(x, y)


def counting_comparator(inner=None) -> CountingComparator:
    return CountingComparator(inner)


class ShadowWriteMonitor:
    """List proxy that counts element stores.

    Counts writes into the underlying array.  Sorters additionally do
    scratch stores (holdover, pivot and swap temporaries) that no array
    proxy can see; those are reported in ``SortStats.scratch_writes``,
    so ``monitor.writes + stats.scratch_writes == stats.element_writes``
    after a monitored sort.
    """

    __slots__ = ("data", "writes")

    def __init__(self, data):
        self.data = data
        self.writes = 0

    def __len__(self):
        return len(self.data)

    def __getitem__(self, i):
        return self.data[i]

    def __setitem__(self, i, v):
        self.writes += 1
        self.data[i] = v

    def __iter__(self):
        return iter(self.data)


@dataclass(slots=True)
class StageRecord:
    """One partition stage, as ``Sorter.stage_hook`` receives it.

    ``a``..``b`` is the stage's subrange and ``new_l``/``new_r`` the
    bounds of the two sides it leaves to sort: ``ar[a..new_l]`` and
    ``ar[new_r..b]``.  ``pivot`` and ``order_flag`` come from pivot
    selection (> 0 tried the possibly-sorted fast path, < 0 the
    possibly-reversed one).  ``entry`` names the machine label the
    stage entered the partition machine at, or is None when a fast path
    finished the stage; ``exit`` is the machine's last exit state
    (``stats.EXIT2``/``EXIT3L``/``EXIT3R``), None when it never ran.
    ``comparisons`` and ``writes`` are the stage's own counts, pivot
    selection included; insertion sorts of small subranges belong to
    no stage.
    """

    a: int
    b: int
    pivot: object
    order_flag: int
    entry: str | None
    exit: str | None
    new_l: int
    new_r: int
    comparisons: int
    writes: int
