"""Per-layer tracing of one sort, from outside the package.

``Sorter._range`` calls its per-stage layers through the
``tsqsort.core`` module namespace, so replacing those names with timing
wrappers gives a span around every layer call without touching the
package.  Each layer call also reads its own counter list (``ct`` or
``tally``) before and after the call; both lists start with
``[comparisons, array writes, scratch writes]``, so the same reads give
the layer's comparisons and element writes.

The root span is ``core.driver``: the wall time of ``sort_with_stats``
minus the time of the wrapped child layers, i.e. the recursion driver,
per-stage bookkeeping and the wrappers' own overhead.  A layer whose
entry point is absent from ``tsqsort.core`` (or has no counter
argument) is reported as missing and its time and counts fall into
``core.driver``.
"""

from __future__ import annotations

import inspect
import time

DRIVER = "core.driver"

#: layer name -> the ``tsqsort.core`` global that ``Sorter._range`` calls
LAYERS = (
    ("core.machine", "_run_machine"),
    ("handlers.sorted", "_sorted_handler"),
    ("handlers.reversed", "_reversed_handler"),
    ("pivot", "select_pivot"),
    ("smallsort", "insertion_sort"),
)

_TALLY_PARAMS = ("ct", "tally")

# accumulator slots
CALLS, SELF_NS, CMP, WRITES = range(4)


def _tally_param(fn):
    """(position, name) of fn's counter-list parameter, or None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    for name in _TALLY_PARAMS:
        if name in params:
            return params.index(name), name
    return None


class LayerTracer:
    """Context manager that wraps the layer entry points of one module.

    ``acc`` maps each layer to its [calls, self ns, comparisons, writes]
    totals over every :meth:`sort` run inside the ``with`` block.
    """

    def __init__(self, core):
        self.core = core
        self.missing = {}
        self._originals = {}
        self._stack = []
        self.acc = {DRIVER: [0, 0, 0, 0]}
        self.acc.update((layer, [0, 0, 0, 0]) for layer, _ in LAYERS)

    @property
    def present(self):
        return [layer for layer, _ in LAYERS if layer not in self.missing]

    def __enter__(self):
        for layer, attr in LAYERS:
            fn = getattr(self.core, attr, None)
            where = _tally_param(fn) if callable(fn) else None
            if where is None:
                self.missing[layer] = (
                    f"tsqsort.core.{attr} is absent" if fn is None else
                    f"tsqsort.core.{attr} takes no ct/tally counter list")
                self.acc.pop(layer, None)
                continue
            self._originals[attr] = fn
            setattr(self.core, attr, self._wrap(self.acc[layer], fn, *where))
        return self

    def __exit__(self, *exc):
        for attr, fn in self._originals.items():
            setattr(self.core, attr, fn)
        self._originals.clear()
        return False

    def _wrap(self, acc, fn, pos, name):
        stack = self._stack
        clock = time.perf_counter_ns

        def layer_call(*args, **kwargs):
            tally = args[pos] if pos < len(args) else kwargs[name]
            c0 = tally[0]
            w0 = tally[1] + tally[2]
            child = [0, 0, 0]  # time, comparisons, writes of nested spans
            stack.append(child)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                dc = tally[0] - c0
                dw = tally[1] + tally[2] - w0
                parent = stack[-1]
                parent[0] += dt
                parent[1] += dc
                parent[2] += dw
                acc[CALLS] += 1
                acc[SELF_NS] += dt - child[0]
                acc[CMP] += dc - child[1]
                acc[WRITES] += dw - child[2]

        return layer_call

    def sort(self, sorter, ar):
        """Run ``sorter.sort_with_stats(ar)`` as the traced root span.

        Returns ``(stats, wall_ns)``.
        """
        child = [0, 0, 0]
        self._stack.append(child)
        t0 = time.perf_counter_ns()
        try:
            stats = sorter.sort_with_stats(ar)
        finally:
            dt = time.perf_counter_ns() - t0
            self._stack.pop()
        acc = self.acc[DRIVER]
        acc[CALLS] += 1
        acc[SELF_NS] += dt - child[0]
        acc[CMP] += stats.comparisons - child[1]
        acc[WRITES] += stats.element_writes - child[2]
        return stats, dt
