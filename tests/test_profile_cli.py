"""``tsqsort profile``: the opcode census of one sort from the command line.

Its shapes and comparator are those ``tests/test_opcode_budget.py``
counts, so its totals are the counts that test pins; the total it prints is the
count of the sort alone; it prints the sort's comparisons and writes,
the ``NOP`` census and the heaviest lines or functions; and nothing on
a sort's path imports ``tsqsort.profile``.
"""

import subprocess
import sys
from pathlib import Path

import pytest
from test_opcode_budget import BUDGETS
from test_opcode_budget import shape_input as budget_input

from tsqsort import Sorter, dual_pivot_qsort
from tsqsort.cli import PROFILE_SHAPES, main
from tsqsort.profile import (SHAPES, cheap_cmp, costly_cmp, count_opcodes,
                             shape_input)


def run(capsys, *argv):
    assert main(["profile", *argv]) == 0
    return capsys.readouterr().out.splitlines()


def value(lines, key):
    return int(next(line.split()[1] for line in lines
                    if line.startswith(key + " ")))


def test_shapes_are_the_opcode_budget_shapes():
    assert set(PROFILE_SHAPES) == set(SHAPES)
    assert {shape for shape, _, _ in BUDGETS.values()} <= set(SHAPES)
    assert [c for _, c, _ in BUDGETS.values() if c] == [cheap_cmp]


@pytest.mark.parametrize("shape, cmp", [("random", "none"),
                                        ("cmp", "cheap")])
def test_total_is_the_opcode_budget_count(capsys, shape, cmp):
    ar, comparator = budget_input(shape)
    want = count_opcodes(Sorter(seed=1).sort_with_stats, ar,
                         comparator).total
    lines = run(capsys, "--shape", "random", "--cmp", cmp, "--top", "5")
    assert value(lines, "opcodes") == want
    stats = Sorter(seed=1).sort_with_stats(budget_input(shape)[0],
                                           comparator)
    assert value(lines, "comparisons") == stats.comparisons
    assert value(lines, "element_writes") == stats.element_writes


def test_census_by_line_and_by_function(capsys):
    lines = run(capsys, "--shape", "sorted", "--n", "300", "--top", "4")
    assert lines[0].startswith("# profile: algo tristate, shape sorted, "
                               "n 300, seed 31, cmp none")
    total = value(lines, "opcodes")
    at = lines.index(next(x for x in lines if x.startswith("by line, ")))
    assert lines[at].startswith("by line, top 4 of ")
    rows = lines[at + 1:]
    assert len(rows) == 4
    counts = [int(row.split()[0]) for row in rows]
    assert counts == sorted(counts, reverse=True) and counts[0] < total
    # each row names a file:line and its source text
    assert all(".py:" in row.split()[2] and len(row.split()) > 3
               for row in rows)
    nops = value(lines, "nops")
    assert nops == sum(int(x.split()[1]) for x in lines[:at]
                       if x.startswith("  ") and ".py:" in x)

    lines = run(capsys, "--shape", "sorted", "--n", "300", "--by",
                "function", "--top", "3")
    assert value(lines, "opcodes") == total
    rows = lines[lines.index(next(x for x in lines
                                  if x.startswith("by function, "))) + 1:]
    assert len(rows) == 3
    # a compiled function goes by its own qualified name
    assert "_sorted_handler" in [row.split()[-1] for row in rows]


def test_baseline_total(capsys):
    lines = run(capsys, "--algo", "dualpivot", "--shape", "random", "--n",
                "500", "--top", "1")
    ar = shape_input("random", 500, 31)
    census = count_opcodes(dual_pivot_qsort, ar, None, 1)
    assert value(lines, "opcodes") == census.total
    assert value(lines, "comparisons") == census.result.comparisons


def test_costly_comparator_sorts_strings_case_folded(capsys):
    lines = run(capsys, "--shape", "strings", "--cmp", "costly", "--n",
                "500", "--top", "3")
    assert lines[0].startswith("# profile: algo tristate, shape strings, "
                               "n 500, seed 31, cmp costly")
    ar = shape_input("strings", 500, 31)
    census = count_opcodes(Sorter(seed=1).sort_with_stats, list(ar),
                           costly_cmp)
    assert value(lines, "opcodes") == census.total
    assert value(lines, "comparisons") == census.result.comparisons
    # the hex strings hold no capitals, so the folded order is theirs and
    # the comparisons are those of the cheap comparator, at a higher cost
    cheap = count_opcodes(Sorter(seed=1).sort_with_stats, list(ar),
                          cheap_cmp)
    assert census.result.comparisons == cheap.result.comparisons
    assert census.total > cheap.total
    assert costly_cmp("B", "a") == 1 and costly_cmp("A", "a") == 0


def test_costly_comparator_needs_the_strings_shape(capsys):
    assert main(["profile", "--shape", "random", "--cmp", "costly"]) == 2
    assert "use --shape strings" in capsys.readouterr().err


def test_sorting_does_not_import_the_profiler():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, tsqsort, tsqsort.cli\n"
            "tsqsort.sort([3, 1, 2])\n"
            "tsqsort.Sorter().sort([2.5, 1.5, 2.5], lambda x, y: "
            "(x > y) - (x < y))\n"
            "print('tsqsort.profile' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={"PYTHONPATH": str(src)}).stdout
    assert out.strip() == "False"
