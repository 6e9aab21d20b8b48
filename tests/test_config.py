"""``SortConfig`` accepts exactly its documented values, and every field
it has is read by the sorter.

The read check walks the modules under ``src/tsqsort/`` other than
``config.py`` and looks for an attribute load of each field name, so a
setting that nothing reads fails here instead of lingering as a dead
option.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from tsqsort import SortConfig
from tsqsort.pivot import MEDOF3_MAX_N

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tsqsort"
REMOVED = ("medof3_max_n", "medof5_max_n", "ninther_max_n",
           "late_swap_byte_threshold", "medof3_small_enabled")


def attributes_read(source: str) -> set:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_config_has_three_fields():
    assert [f.name for f in dataclasses.fields(SortConfig)] == [
        "insertion_threshold", "reverse_tolerance", "mitigation_enabled"]


@pytest.mark.parametrize("threshold", [3, MEDOF3_MAX_N - 1])
def test_insertion_threshold_accepted(threshold):
    assert SortConfig(insertion_threshold=threshold).insertion_threshold \
        == threshold


def test_insertion_threshold_below_three_rejected():
    with pytest.raises(ValueError, match=">= 3"):
        SortConfig(insertion_threshold=2)


def test_insertion_threshold_must_stay_below_the_first_rung():
    with pytest.raises(ValueError,
                       match=f"insertion_threshold must be < {MEDOF3_MAX_N}"):
        SortConfig(insertion_threshold=MEDOF3_MAX_N)


def test_negative_reverse_tolerance_rejected():
    assert SortConfig(reverse_tolerance=0).reverse_tolerance == 0
    with pytest.raises(ValueError, match="reverse_tolerance"):
        SortConfig(reverse_tolerance=-1)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_field_is_not_accepted(name):
    with pytest.raises(TypeError):
        SortConfig(**{name: 1})


def test_every_field_is_read_outside_config():
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "config.py":
            read |= attributes_read(path.read_text())
    unread = [f.name for f in dataclasses.fields(SortConfig)
              if f.name not in read]
    assert unread == []


def test_checker_sees_loads_only():
    source = "x = cfg.insertion_threshold\ncfg.reverse_tolerance = 1\n"
    assert attributes_read(source) == {"insertion_threshold"}
