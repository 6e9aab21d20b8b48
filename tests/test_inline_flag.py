"""The compile-time flag ``TOTAL_BODY`` and the loop lines of the
compiled bodies.

``compare_inline`` folds each ``if`` test that is ``TOTAL_BODY``, alone
or first in an ``and``, to True in the total-order body and to False in
the inline body, and runs a flagged function's generic path on its own
source compiled with the flag folded to False, so no body ever loads
the flag.  A sourceless install keeps the function as written, which
reads the module global of False.  Every compiled body, and the generic
path of every decorated function, puts a ``while True:`` on its first
statement's line, so it runs no ``NOP`` at each entry into the loop.
"""

import ast
import dis
import linecache
from types import CodeType, FunctionType

import pytest

from tsqsort import core, smallsort
from tsqsort.inline import (TOTAL_BODY, _def_code, _default_cmp3,
                            _fold_flag, _source_def, _total_cmp3,
                            compare_inline)

import conftest
from test_inline_fuse import PINNED

FLAGGED = (core._run_machine, core._sorted_handler, smallsort.insertion_sort)


def flagged(cmp3, xs, y):
    """Tag each x with the body that ran and its comparison with y."""
    out = []
    for x in xs:
        if TOTAL_BODY:
            body = "total"
        else:
            body = "other"
            if x == y:
                body += "="
        if TOTAL_BODY and x == y and y == x:
            body += "=="
        out.append((body, cmp3(x, y)))
    return out


# the function as written, before a compile replaces its code
AS_WRITTEN = flagged.__code__


def misused(cmp3, x, y):
    return TOTAL_BODY or cmp3(x, y)


def negated(cmp3, x, y):
    if not TOTAL_BODY:
        return cmp3(x, y)
    return 0


XS = [1, 2, 3]


def tags(body):
    return [(body + ("=" if x == 2 else ""), (x > 2) - (x < 2)) for x in XS]


def codes(code):
    """``code`` and every code object nested in it."""
    stack = [code]
    while stack:
        c = stack.pop()
        yield c
        stack.extend(k for k in c.co_consts if isinstance(k, CodeType))


def loads_flag(code) -> bool:
    return any(i.argval == "TOTAL_BODY" for c in codes(code)
               for i in dis.get_instructions(c))


def test_each_body_folds_the_flag():
    compiled = compare_inline()(flagged)
    total = [(b.replace("total=", "total=="), c)
             for b, c in tags("total")]
    assert compiled(_total_cmp3, XS, 2) == total
    assert compiled(_default_cmp3, XS, 2) == tags("other")
    # the generic path runs the function with the flag folded to False
    assert compiled(conftest.cmp3, XS, 2) == tags("other")
    assert compiled.__wrapped__ is flagged
    assert not loads_flag(compiled.__code__)
    assert not loads_flag(flagged.__code__)
    assert loads_flag(AS_WRITTEN)


def test_a_sourceless_install_reads_the_global_flag(monkeypatch):
    fn = FunctionType(AS_WRITTEN, globals(), "flagged")
    monkeypatch.setattr(linecache, "getlines", lambda *args: [])
    assert compare_inline()(fn) is fn
    for cmp3 in (_total_cmp3, _default_cmp3, conftest.cmp3):
        assert fn(cmp3, XS, 2) == tags("other")


def test_the_flag_outside_an_if_test_is_refused():
    # only the parse shows how the flag is used, so the first call, which
    # compiles a body, refuses it
    compiled = compare_inline()(misused)
    with pytest.raises(ValueError, match="TOTAL_BODY is used outside"):
        compiled(_default_cmp3, 1, 2)


def test_a_negated_flag_is_refused():
    # `if TOTAL_BODY: ... else: ...` says the same, so only the flag
    # itself, alone or first in an `and`, is folded
    compiled = compare_inline()(negated)
    with pytest.raises(ValueError, match="TOTAL_BODY is used outside"):
        compiled(_total_cmp3, 1, 2)


@pytest.mark.parametrize("fn", FLAGGED, ids=lambda fn: fn.__name__)
def test_no_body_of_the_sort_loads_the_flag(fn):
    assert not loads_flag(fn.__code__)
    assert not loads_flag(fn.__wrapped__.__code__)


def while_true_lines(fn):
    _, fdef, _ = _source_def(fn.__wrapped__)
    return {n.lineno for n in ast.walk(fdef) if isinstance(n, ast.While)
            and isinstance(n.test, ast.Constant) and n.test.value is True}


@pytest.mark.parametrize("fn", [f for f in PINNED
                                if not while_true_lines(f)],
                         ids=lambda fn: fn.__name__)
def test_a_def_compiled_again_is_the_original(fn):
    # with no while True: loop, the compile of the def that a flagged
    # function's generic path runs, with the flag folded to False, is,
    # bytecode and line for line, the function as written, or for a
    # flagged function its generic path: the def with no call inlined
    original = fn.__wrapped__
    tree, fdef, _ = _source_def(original)
    fdef.decorator_list = []
    assert bool(_fold_flag(fdef, False)) == (fn in FLAGGED)
    code = _def_code(tree, fdef, original)
    want = original.__code__
    assert (code.co_firstlineno, code.co_code, list(code.co_lines())) == \
        (want.co_firstlineno, want.co_code, list(want.co_lines()))


def nop_lines(code):
    return {i.positions.lineno for c in codes(code)
            for i in dis.get_instructions(c) if i.opname == "NOP"}


@pytest.mark.parametrize("fn", sorted(PINNED, key=lambda f: f.__name__),
                         ids=lambda fn: fn.__name__)
def test_compiled_bodies_run_no_nop_for_while_true(fn):
    # the compiled bodies and the generic path alike
    lines = while_true_lines(fn)
    assert nop_lines(fn.__code__) & lines == set()
    assert nop_lines(fn.__wrapped__.__code__) & lines == set()


def test_a_function_as_written_keeps_its_while_true_nops():
    # what the compile leaves out: the reversed handler's def compiled
    # as written, with no flag to fold, runs a NOP on every while True:
    # line, which its generic path does not
    fn = core._reversed_handler.__wrapped__
    tree, fdef, _ = _source_def(fn)
    fdef.decorator_list = []
    lines = while_true_lines(core._reversed_handler)
    assert lines and nop_lines(_def_code(tree, fdef, fn)) & lines == lines
    assert nop_lines(fn.__code__) & lines == set()
