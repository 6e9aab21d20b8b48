"""The R halves of the partition machine mirror its L halves exactly.

States 2L/2R and 3L/3R, the two closing scans, the two state choices
and the two state-3 drains of ``core._run_machine`` are written twice,
once per side.  States 3L and 2L are the two arms of the left state
choice's ratio test, 3R and 2R those of the right one's, and the drain
is the test of ``last_exit is EXIT3L`` and its ``else``.  This test
parses the machine from its source, maps each L block through the
L -> R mirror below and asserts that it unparses to exactly the R
block, so a change made to one half only fails here.

The mirror map:

* names: l <-> r, ml <-> mr, and each L/R label, counter and exit id;
* ``+= 1`` / ``-= 1`` on a position, and ``pos + c`` / ``pos - c`` with
  a constant c, flip their sign (positions: l r ml mr m k k2);
* ``pos - pos``, a length, swaps its operands;
* a ``<``/``<=``/``>``/``>=`` comparison of two positions flips;
* a test of ``lc`` (or of ``(lc := ...)``) against 0 flips.
"""

import ast
import copy

import pytest

from tsqsort import core
from tsqsort.inline import _source_def

POSITIONS = {"l", "r", "ml", "mr", "m", "k", "k2"}

_PAIRS = [("l", "r"), ("ml", "mr"),
          ("_MLEFT", "_MRIGHT"), ("_MLEFT_NOSCAN", "_MRIGHT_NOSCAN"),
          ("EXIT3L", "EXIT3R"),
          ("CT_S2L", "CT_S2R"), ("CT_S3L", "CT_S3R"),
          ("CT_EXIT3L", "CT_EXIT3R")]
NAME_MAP = dict(_PAIRS + [(b, a) for a, b in _PAIRS])

FLIP_SIGN = {ast.Add: ast.Sub, ast.Sub: ast.Add}
FLIP_ORDER = {ast.Lt: ast.Gt, ast.Gt: ast.Lt, ast.LtE: ast.GtE,
              ast.GtE: ast.LtE, ast.Eq: ast.Eq, ast.NotEq: ast.NotEq}


def is_pos(node):
    return isinstance(node, ast.Name) and node.id in POSITIONS


def is_const(node):
    return isinstance(node, ast.Constant)


def is_place(node):
    """A position, or a position offset by a constant."""
    return is_pos(node) or (isinstance(node, ast.BinOp)
                            and type(node.op) in FLIP_SIGN
                            and is_pos(node.left) and is_const(node.right))


def is_lc(node):
    if isinstance(node, ast.NamedExpr):
        node = node.target
    return isinstance(node, ast.Name) and node.id == "lc"


class Mirror(ast.NodeTransformer):
    """The L -> R map; it is its own inverse."""

    def visit_Name(self, node):
        node.id = NAME_MAP.get(node.id, node.id)
        return node

    def visit_AugAssign(self, node):
        # decided on the operands before they are renamed
        flip = is_pos(node.target) and is_const(node.value)
        self.generic_visit(node)
        if flip and type(node.op) in FLIP_SIGN:
            node.op = FLIP_SIGN[type(node.op)]()
        return node

    def visit_BinOp(self, node):
        offset = is_pos(node.left) and is_const(node.right)
        length = (isinstance(node.op, ast.Sub) and is_pos(node.left)
                  and is_pos(node.right))
        self.generic_visit(node)
        if length:
            node.left, node.right = node.right, node.left
        elif offset and type(node.op) in FLIP_SIGN:
            node.op = FLIP_SIGN[type(node.op)]()
        return node

    def visit_Compare(self, node):
        assert len(node.ops) == 1, ast.unparse(node)
        left, right = node.left, node.comparators[0]
        flip = ((is_place(left) and is_place(right))
                or (is_lc(left) and is_const(right) and right.value == 0))
        self.generic_visit(node)
        if flip:
            node.ops = [FLIP_ORDER[type(node.ops[0])]()]
        return node


def mirrored(stmts):
    module = ast.Module(body=copy.deepcopy(stmts), type_ignores=[])
    return ast.unparse(Mirror().visit(module))


def unparsed(stmts):
    return ast.unparse(ast.Module(body=stmts, type_ignores=[]))


def machine_if(test_src):
    """The ``if``/``elif`` of ``_run_machine`` whose test is test_src."""
    _, fdef, _ = _source_def(core._run_machine.__wrapped__)
    found = [node for node in ast.walk(fdef) if isinstance(node, ast.If)
             and ast.unparse(node.test) == test_src]
    assert len(found) == 1, test_src
    return found[0]


def branch_pair(left_test, right_test, arm="body"):
    """(L block, R block): the ``arm`` (``body`` or ``orelse``) of each
    of the two tests, or the L test's body and its ``else`` when
    right_test is None."""
    left = machine_if(left_test)
    if right_test is None:
        return left.body, left.orelse
    return getattr(left, arm), getattr(machine_if(right_test), arm)


RATIO_L = "mr - ml <= (ml - l) // 4"
RATIO_R = "mr - ml <= (r - mr) // 4"

BLOCKS = {
    "state2": (RATIO_L, RATIO_R, "orelse"),
    "state3": (RATIO_L, RATIO_R),
    "closing_scan": ("label == _MLEFT", "label == _MRIGHT"),
    "state_choice": ("label == _MLEFT_NOSCAN", "label == _MRIGHT_NOSCAN"),
    "state3_drain": ("last_exit is EXIT3L", None),
}


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_r_half_mirrors_l_half(block):
    left, right = branch_pair(*BLOCKS[block])
    assert mirrored(left) == unparsed(right)
    # the map is its own inverse
    assert mirrored(right) == unparsed(left)


def test_mirror_flips_what_it_names():
    src = ("ml += 1\nk2 = m + 1\nif r >= ml:\n    x = mr - ml <= (ml - l) // 4"
           "\nif (lc := cmp3(ar[l], p)) >= 0:\n    ct[CT_S3L] += 1"
           "\nif k - m < r - k:\n    label = _MLEFT_NOSCAN\nnwa += 1")
    want = ("mr -= 1\nk2 = m - 1\nif l <= mr:\n    x = mr - ml <= (r - mr) // 4"
            "\nif (lc := cmp3(ar[r], p)) <= 0:\n    ct[CT_S3R] += 1"
            "\nif m - k < k - l:\n    label = _MRIGHT_NOSCAN\nnwa += 1")
    assert mirrored(ast.parse(src).body) == want
