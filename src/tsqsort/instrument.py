"""Counting wrappers and tracing hooks for invariant tests.

These helpers stay out of the hot path unless explicitly attached: the
sorters keep their own counters (those are the product), while the
wrappers here let tests cross-check them from the outside.
"""

from __future__ import annotations

from dataclasses import dataclass


class CountingComparator:
    """Wrap a three-way comparator, counting every invocation."""

    __slots__ = ("inner", "count")

    def __init__(self, inner=None):
        if inner is None:
            # imported here: core imports this module for the event kinds
            from .core import _default_cmp3 as inner
        self.inner = inner
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


# ---------------------------------------------------------------------------
# Event tracing (configuration gated; off by default).

WRITE = "Write"
STATE_ENTER = "StateEnter"
STAGE_END = "StageEnd"
HANDLER_ENTER = "HandlerEnter"
HANDLER_FALLBACK = "HandlerFallback"


@dataclass(frozen=True)
class TraceEvent:
    kind: str
    payload: tuple

    def line(self) -> str:
        return f"{self.kind}\t" + "\t".join(str(p) for p in self.payload)


class TraceSink:
    """Collects stage-level trace events; dump as line-oriented text."""

    def __init__(self):
        self.events: list[TraceEvent] = []

    def emit(self, kind: str, *payload) -> None:
        self.events.append(TraceEvent(kind, payload))

    def dump(self) -> str:
        return "\n".join(e.line() for e in self.events)

    def kinds(self):
        return [e.kind for e in self.events]
