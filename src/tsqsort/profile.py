"""Exact opcode counts of a call, with ``sys.settrace``.

Unlike wall time, the number of bytecode instructions a call executes
is the same on every run, so a change that adds or saves per-step work
shows in it even where the host's timing noise would hide it.
:func:`count_opcodes` runs one call under a tracer with
``f_trace_opcodes`` set and returns its total; with ``by_line`` it also
returns a census per source line and a census of the ``NOP``
instructions executed, each keyed by ``(file name, line number)``.
Bytecode differs between interpreter versions, so compare counts taken
on the same one.

Nothing on a sort's path imports this module; ``tests/test_opcode_budget.py``
pins its totals, and :func:`top_lines` prints a census::

    from tsqsort import Sorter
    from tsqsort.profile import count_opcodes, top_lines
    census = count_opcodes(Sorter(seed=1).sort_with_stats, data,
                           by_line=True)
    print(census.total, census.nop_total)
    print(top_lines(census.lines, 20))
"""

from __future__ import annotations

import dis
import os
import sys
from collections import Counter
from dataclasses import dataclass, field

__all__ = ["OpcodeCensus", "count_opcodes", "top_lines"]

_NOP = dis.opmap["NOP"]


@dataclass
class OpcodeCensus:
    """Opcodes one call executed: ``total``, and with ``by_line`` the
    per-line ``lines`` and ``nops`` censuses (empty otherwise)."""

    total: int = 0
    lines: Counter = field(default_factory=Counter)
    nops: Counter = field(default_factory=Counter)

    @property
    def nop_total(self) -> int:
        return sum(self.nops.values())


def count_opcodes(fn, *args, by_line: bool = False, **kwargs) -> OpcodeCensus:
    """Run ``fn(*args, **kwargs)`` under an opcode tracer and return its
    census; the call's own result is dropped.  The tracer in place before
    the call is restored after it, also when the call raises."""
    census = OpcodeCensus()
    lines = census.lines
    nops = census.nops
    total = 0

    def count(frame, event, arg):
        nonlocal total
        frame.f_trace_opcodes = True
        if event == "opcode":
            total += 1
        return count

    def census_of(frame, event, arg):
        nonlocal total
        frame.f_trace_opcodes = True
        if event == "opcode":
            total += 1
            code = frame.f_code
            where = (code.co_filename, frame.f_lineno)
            lines[where] += 1
            if code.co_code[frame.f_lasti] == _NOP:
                nops[where] += 1
        return census_of

    old = sys.gettrace()
    sys.settrace(census_of if by_line else count)
    try:
        fn(*args, **kwargs)
    finally:
        sys.settrace(old)
        census.total = total
    return census


def top_lines(census: Counter, n: int = 20) -> list:
    """The ``n`` heaviest lines of a census, as ``(file:line, count)``
    with the file's base name, heaviest first."""
    return [(f"{os.path.basename(path)}:{line}", count)
            for (path, line), count in census.most_common(n)]
