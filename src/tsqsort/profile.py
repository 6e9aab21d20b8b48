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

:func:`profile_sort` runs one sort of a named input shape
(:data:`SHAPES`) as ``tests/test_opcode_budget.py`` does, and
:func:`report` prints its census; ``tsqsort profile`` is the two from
the command line::

    tsqsort profile --shape random --n 20000 --by line --top 20
"""

from __future__ import annotations

import dis
import gc
import linecache
import os
import sys
from collections import Counter
from dataclasses import dataclass, field

__all__ = ["OpcodeCensus", "SHAPES", "cheap_cmp", "count_opcodes",
           "profile_sort", "report", "shape_input", "top_lines"]

_NOP = dis.opmap["NOP"]


@dataclass
class OpcodeCensus:
    """Opcodes one call executed: ``total``, and with ``by_line`` the
    per-line ``lines`` and ``nops`` censuses and the per-function
    ``functions`` census, keyed by ``(file name, first line, qualified
    name)`` (empty otherwise); ``result`` is what the call returned."""

    total: int = 0
    lines: Counter = field(default_factory=Counter)
    nops: Counter = field(default_factory=Counter)
    functions: Counter = field(default_factory=Counter)
    result: object = None

    @property
    def nop_total(self) -> int:
        return sum(self.nops.values())


def count_opcodes(fn, *args, by_line: bool = False, **kwargs) -> OpcodeCensus:
    """Run ``fn(*args, **kwargs)`` under an opcode tracer and return its
    census.  The tracer in place before the call is restored after it,
    also when the call raises.  The garbage collector is paused during
    the call, so no callback in ``gc.callbacks`` runs inside it and
    counts its own opcodes."""
    census = OpcodeCensus()
    lines = census.lines
    nops = census.nops
    functions = census.functions
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
            functions[code.co_filename, code.co_firstlineno,
                      getattr(code, "co_qualname", code.co_name)] += 1
            if code.co_code[frame.f_lasti] == _NOP:
                nops[where] += 1
        return census_of

    old = sys.gettrace()
    collecting = gc.isenabled()
    gc.disable()
    sys.settrace(census_of if by_line else count)
    try:
        census.result = fn(*args, **kwargs)
    finally:
        sys.settrace(old)
        if collecting:
            gc.enable()
        census.total = total
    return census


def top_lines(census: Counter, n: int = 20) -> list:
    """The ``n`` heaviest lines of a census, as ``(file:line, count)``
    with the file's base name, heaviest first."""
    return [(f"{os.path.basename(path)}:{line}", count)
            for (path, line), count in census.most_common(n)]


def cheap_cmp(x, y) -> int:
    """The cheap Python comparator of ``--cmp cheap``."""
    return (x > y) - (x < y)


def _hex8(v) -> str:
    return f"{v:08x}"


def _half_up(v) -> float:
    return v + 0.5


#: shape -> (reorder, arange, element map) of the ``random`` GenSpec
#: distribution; the shapes of ``tests/test_opcode_budget.py`` and
#: ``arange1000``.  Ints and strs run the compiled functions'
#: total-order body, floats their inline body.
SHAPES = {
    "sorted": ("sorted", 2**31 - 1, int),
    "reversed": ("reversed", 2**31 - 1, int),
    "fronthalfreversed": ("fronthalfreversed", 2**31 - 1, int),
    "backhalfreversed": ("backhalfreversed", 2**31 - 1, int),
    "random": ("identity", 2**31 - 1, int),
    "arange100": ("identity", 100, int),
    "arange1000": ("identity", 1000, int),
    "strings": ("identity", 2**31 - 1, _hex8),
    "floats": ("identity", 2**31 - 1, _half_up),
}


def shape_input(shape: str, n: int, seed: int) -> list:
    """The ``n`` elements of ``shape`` drawn with GenSpec seed ``seed``."""
    from .datagen import GenSpec, generate
    reorder, arange, element = SHAPES[shape]
    return [element(v) for v in generate(GenSpec(
        distribution="random", reorder=reorder, n=n, arange=arange,
        seed=seed))]


def profile_sort(shape: str, n: int = 2000, seed: int = 31, cmp=None,
                 algo: str = "tristate", by_line: bool = False):
    """(census, input) of one sort of ``shape`` by ``algo`` with the
    comparator ``cmp``; the census's ``result`` is the sort's
    ``SortStats``.  Tristate runs ``Sorter(seed=1).sort_with_stats``, as
    ``tests/test_opcode_budget.py`` does, and a baseline its function
    with seed 1, so no wrapper's opcodes are counted."""
    from .baselines import classic_qsort, dual_pivot_qsort, three_way_qsort
    from .core import Sorter
    ar = shape_input(shape, n, seed)
    if algo == "tristate":
        census = count_opcodes(Sorter(seed=1).sort_with_stats, ar, cmp,
                               by_line=by_line)
    else:
        fn = {"classic": classic_qsort, "threeway": three_way_qsort,
              "dualpivot": dual_pivot_qsort}[algo]
        census = count_opcodes(fn, ar, cmp, 1, by_line=by_line)
    return census, ar


def _source(path: str, line) -> str:
    return linecache.getline(path, line).strip() if line else ""


def report(census: OpcodeCensus, by: str = "line", top: int = 20) -> list:
    """The lines that print ``census``: its total, the sort's
    comparisons and writes, the ``NOP`` census and the ``top`` heaviest
    lines (with their source text) or functions."""
    stats = census.result
    out = [f"opcodes {census.total}"]
    if stats is not None:
        out += [f"comparisons {stats.comparisons}",
                f"element_writes {stats.element_writes}"]
    out.append(f"nops {census.nop_total}")
    for (path, line), count in census.nops.most_common():
        out.append(f"  {os.path.basename(path)}:{line}  {count}  "
                   f"{_source(path, line)}")
    if by == "function":
        # a compiled function's code is made inside inline's _make
        rows = [(count, f"{os.path.basename(path)}:{first}",
                 name.removeprefix("_make.<locals>."))
                for (path, first, name), count
                in census.functions.most_common(top)]
        size = len(census.functions)
    else:
        rows = [(count, f"{os.path.basename(path)}:{line}",
                 _source(path, line))
                for (path, line), count in census.lines.most_common(top)]
        size = len(census.lines)
    out.append(f"by {by}, top {len(rows)} of {size}:")
    width = max([len(where) for _, where, _ in rows], default=0)
    for count, where, text in rows:
        out.append(f"  {count:>9}  {count / census.total:6.1%}  "
                   f"{where:<{width}}  {text}")
    return out
