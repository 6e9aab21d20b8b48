"""Scan loops keep the fused test in every body; branches with no
``pass``.

A ``while True:`` led by a fused test on ``[(name :=)] cmp3(E, Y)``
compiles to that fused ``if`` in the inline body and in the total-order
body alike, and a ``while`` test keeps the value form.  The machine's
state-1 scans that test one comparison a step and store nothing but the
cursor, ``while ar[l] < p: l += 1``, are written as such in
``core._run_machine``'s source, under ``if TOTAL_BODY:``.  These tests
check the compiled text of small scan loops, that all three bodies of
each function return the same values and stores on random inputs, that
a fused test's store of its name stays wherever the arm may read it,
that the state-1 scans of the machine's total-order body store neither
``lc`` nor an operand temporary, and that the inline body's branches on
``x > y`` run no ``pass`` and truth-test as the comparator does.
"""

import ast
import dis
import linecache
import random
import textwrap

import pytest

from tsqsort import core
from tsqsort.profile import count_opcodes
from tsqsort.inline import (_call_lines, _default_cmp3, _inline_calls,
                            _total_cmp3, compare_inline)


def compiled(src: str, total: bool = True) -> str:
    """The text of the one def in ``src`` with its calls inlined, as the
    total-order (or the inline) body compiles it."""
    src = textwrap.dedent(src)
    fdef = ast.parse(src).body[0]
    _inline_calls(fdef, _call_lines(src, 1), total=total)
    return ast.unparse(fdef)


# Scan loops on plain operands, with and without a rest of the body or a
# test of the name after the loop, a `while` test, and a store of the
# name before an arm that assigns it again: every body keeps the fused
# `if` (a `while` test the value form) and the store.
SCANS = {
    "left": """
        def f(cmp3, ar, p, l):
            while True:
                if (lc := cmp3(ar[l], p)) < 0:
                    l += 1
                else:
                    break
            return l, lc
        """,
    "right_with_rest": """
        def f(cmp3, ar, p, r):
            while True:
                if (lc := cmp3(ar[r - 1], p)) <= 0:
                    break
                r -= 1
            return r, lc
        """,
    "three_arms": """
        def f(cmp3, ar, p, i):
            n = 0
            while True:
                if (c := cmp3(ar[i + 1], p)) < 0:
                    n += ar[i + 1]
                    i += 1
                elif c > 0:
                    return i, n, c
                else:
                    n = -n
                    i += 1
        """,
    "no_name": """
        def f(cmp3, ar, p, i):
            while True:
                if cmp3(p, ar[i]) > 0:
                    i += 1
                else:
                    return i
        """,
    "while_test": """
        def f(cmp3, ar, p, i):
            while (c := cmp3(ar[i], p)) < 0:
                i += 1
            return i, c
        """,
    "exit_fold": """
        def f(cmp3, ar, p, r):
            n = 0
            while True:
                if (lc := cmp3(ar[r - 1], p)) <= 0:
                    break
                r -= 1
            if lc < 0:
                n = ar[r - 1]
            return r, lc, n
        """,
    "no_fold_of_another_name": """
        def f(cmp3, ar, p, r):
            n = 0
            while True:
                if (lc := cmp3(ar[r - 1], p)) <= 0:
                    break
                r -= 1
            if n < 0:
                n = lc
            return r, lc, n
        """,
    "dead_store": """
        def f(cmp3, ar, p, i):
            if (c := cmp3(ar[i], p)) > 0:
                i += 1
                if i < 3:
                    c = i
                else:
                    c = -i
            elif c < 0:
                i -= c
            return i, c
        """,
}


def assert_keeps_the_fused_test(case, body):
    if case == "dead_store":
        assert "c = 1\n" in body
    elif case == "while_test":
        assert "while (c := (-1 if " in body
    else:
        assert "while True:\n        if " in body


@pytest.mark.parametrize("case", sorted(SCANS))
def test_inline_body_keeps_the_fused_test(case):
    assert_keeps_the_fused_test(case, compiled(SCANS[case], total=False))


@pytest.mark.parametrize("case", sorted(SCANS))
def test_total_order_body_keeps_the_fused_test(case):
    assert_keeps_the_fused_test(case, compiled(SCANS[case]))


# Scan loops whose step or rest reads, binds or leaves by the name, or
# whose operand is not a plain name or subscript: the loop body still
# opens with the fused `if`.
KEPT = {
    "step_reads_name": """
        def f(cmp3, ar, p, l):
            while True:
                if (lc := cmp3(ar[l], p)) < 0:
                    l -= lc
                else:
                    break
            return l
        """,
    "rest_reads_name": """
        def f(cmp3, ar, p, l):
            n = 0
            while True:
                if (lc := cmp3(ar[l], p)) < 0:
                    l += 1
                else:
                    break
                n += lc
            return l, n
        """,
    "step_binds_name": """
        def f(cmp3, ar, p, l):
            while True:
                if (lc := cmp3(ar[l], p)) < 0:
                    for lc in range(1):
                        l += 1
                else:
                    break
            return l
        """,
    "step_breaks": """
        def f(cmp3, ar, p, l):
            hi = len(ar) - 1
            while True:
                if (lc := cmp3(ar[l], p)) < 0:
                    l += 1
                    if l == hi:
                        break
                else:
                    break
            return l, lc
        """,
    "step_continues": """
        def f(cmp3, ar, p, l):
            hi = len(ar) - 1
            while True:
                if (lc := cmp3(ar[l], p)) < 0:
                    l += 1
                    if l < hi:
                        continue
                    return l
                else:
                    break
            return l, lc
        """,
    "rest_after_falling_through": """
        def f(cmp3, ar, p, i):
            n = m = 0
            while True:
                if (c := cmp3(ar[i], p)) < 0:
                    n += 1
                elif c > 0:
                    return n, m
                else:
                    m += 1
                i += 1
        """,
    "rest_breaks": """
        def f(cmp3, ar, p, i):
            hi = len(ar) - 1
            while True:
                if (c := cmp3(ar[i], p)) < 0:
                    i += 1
                else:
                    return i, c
                if i == hi:
                    break
            return i, 0
        """,
    "call_operand": """
        def f(cmp3, ar, p, l):
            key = ar.__getitem__
            while True:
                if (lc := cmp3(key(l), p)) < 0:
                    l += 1
                else:
                    break
            return l, lc
        """,
    "attribute_operand": """
        def f(cmp3, ar, p, l):
            while True:
                if (lc := cmp3(ar[l].real, p)) < 0:
                    l += 1
                else:
                    break
            return l, lc
        """,
    "operand_reads_name": """
        def f(cmp3, ar, p, l):
            lc = 0
            while True:
                if (lc := cmp3(ar[l + 1], ar[lc])) < 0:
                    l += 1
                else:
                    break
            return l, lc
        """,
    "subscript_of_a_product": """
        def f(cmp3, ar, p, l):
            while True:
                if (lc := cmp3(ar[2 * l], p)) < 0:
                    l += 1
                else:
                    break
            return l, lc
        """,
}


@pytest.mark.parametrize("case", sorted(KEPT))
def test_loops_outside_the_rule_keep_the_fused_test(case):
    body = ast.parse(compiled(KEPT[case])).body[0]
    loops = [n for n in ast.walk(body) if n.__class__ is ast.While]
    assert loops
    for loop in loops:
        assert loop.body[0].__class__ is ast.If, case


# Arms whose store of the name must stay: the arm reads the value, may
# leave before it assigns the name, or assigns it on one path only.
LIVE_STORES = {
    "read": """
        def f(cmp3, ar, p, i):
            if (c := cmp3(ar[i], p)) > 0:
                i += c
                c = i
            return i, c
        """,
    "leaves": """
        def f(cmp3, ar, p, i):
            for _ in range(2):
                if (c := cmp3(ar[i], p)) > 0:
                    if i > 3:
                        break
                    c = i
                i += 1
            return i, c
        """,
    "one_path": """
        def f(cmp3, ar, p, i):
            if (c := cmp3(ar[i], p)) > 0:
                if i > 3:
                    c = i
            return i, c
        """,
}


@pytest.mark.parametrize("case", sorted(LIVE_STORES))
def test_a_store_that_may_be_read_stays(case):
    assert "c = 1\n" in compiled(LIVE_STORES[case])


FILENAME = "<scan loops>"


def _build():
    """Each SCANS, KEPT and LIVE_STORES function, as written and compiled
    with ``compare_inline``, from one generated module whose source
    linecache serves, as a source file would."""
    src = []
    cases = (list(SCANS.items()) + list(KEPT.items())
             + [("live_" + c, s) for c, s in LIVE_STORES.items()])
    for case, code in cases:
        src.append(textwrap.dedent(code).replace("def f(", f"def {case}("))
    source = "\n".join(src)
    linecache.cache[FILENAME] = (len(source), None,
                                 source.splitlines(keepends=True), FILENAME)
    ns = {}
    exec(compile(source, FILENAME, "exec"), ns)
    return {case: (ns[case], compare_inline()(ns[case]))
            for case, _ in cases}


FUNCS = _build()


def generic(x, y):
    return _default_cmp3(x, y)


@pytest.mark.parametrize("case", sorted(FUNCS))
def test_all_three_bodies_return_the_same(case):
    # ar[0] = -1 stops every scan down and the tail of 10s every scan
    # up, whatever the pivot and the start
    original, fn = FUNCS[case]
    rnd = random.Random(case)
    for _ in range(300):
        n = rnd.randint(1, 12)
        ar = [-1] + [rnd.randint(0, 9) for _ in range(n)] + [10] * (n + 4)
        args = (ar, rnd.randint(0, 9), rnd.randint(1, n))
        want = original(generic, *args)
        assert fn(generic, *args) == want
        assert fn(_default_cmp3, *args) == want
        assert fn(_total_cmp3, *args) == want


def _lines(*texts):
    """The line of each of ``texts``, in turn, in ``core._run_machine``'s
    source: the first at or after the line of the one before."""
    fn = core._run_machine.__wrapped__
    k = fn.__code__.co_firstlineno
    lines = linecache.getlines(fn.__code__.co_filename)
    found = []
    for want in texts:
        while lines[k - 1].strip() != want:
            k += 1
        found.append(k)
    return found


def _loops(code, line):
    """The stores of each loop that a backward jump on ``line`` closes,
    in code order, with the jump's name."""
    ins = list(dis.get_instructions(code))
    at = {i.offset: k for k, i in enumerate(ins)}
    out = []
    for k, i in enumerate(ins):
        if "BACKWARD" in i.opname and i.positions.lineno == line:
            body = ins[at[i.argval]:k + 1]
            out.append((i.opname, [b.argval for b in body
                                   if b.opname == "STORE_FAST"]))
    return out


def test_machine_state1_scans_store_neither_lc_nor_a_temporary():
    code = core._run_machine.__code__
    bare = _lines("while ar[l] < p:", "while ar[r] > p:")
    # the total-order body's scans, bottom-tested loops that store only
    # their cursor; the cycle's while True: shares the left scan's line
    for line, cursor in zip(bare, ("l", "r")):
        loops = _loops(code, line)
        assert loops[0] == ("POP_JUMP_BACKWARD_IF_TRUE", [cursor]), loops
    # the inline body's guarded scans keep the operand temporary
    guarded = _lines("if (lc := cmp3(ar[l], p)) < 0:",
                     "if (lc := cmp3(ar[r], p)) <= 0:")
    assert guarded[0] > bare[1]
    for line in guarded:
        loops = _loops(code, line)
        assert any("_cmp3_x" in stores for _, stores in loops), loops


# A test with no name whose outcomes 1 and 0 share an arm branches on
# `x > y` with the arm copied into both branches, or, for an empty arm,
# with `not x > y` dropped: `if x > y: pass` runs a NOP, which CPython
# keeps for the pass's line event.  These OPs are the two whose
# outcomes 1 and 0 share an arm.
NO_PASS = {
    "shared_arm": """
        def {name}(cmp3, x, y, out):
            if cmp3(x, y) {op} 0:
                out.append("a")
            else:
                out.append("b")
            return out
        """,
    "empty_arm": """
        def {name}(cmp3, x, y, out):
            if cmp3(x, y) {op} 0:
                out.append("a")
            return out
        """,
    "empty_body": """
        def {name}(cmp3, x, y, out):
            for _ in range(1):
                if cmp3(x, y) {op} 0:
                    break
                out.append("b")
            return out
        """,
}
OPS = ("<", ">=")
NO_PASS_FILE = "<no pass>"


def _build_no_pass():
    src = []
    names = []
    for form, template in NO_PASS.items():
        for k, op in enumerate(OPS):
            names.append(f"{form}_{k}")
            src.append(textwrap.dedent(template.format(name=names[-1],
                                                       op=op)))
    source = "\n".join(src)
    linecache.cache[NO_PASS_FILE] = (len(source), None,
                                     source.splitlines(keepends=True),
                                     NO_PASS_FILE)
    ns = {}
    exec(compile(source, NO_PASS_FILE, "exec"), ns)
    return source, {name: (ns[name], compare_inline()(ns[name]))
                    for name in names}


NO_PASS_SRC, NO_PASS_FUNCS = _build_no_pass()


def test_inline_body_runs_no_nop_for_a_shared_arm():
    tree = ast.parse(NO_PASS_SRC)
    for fdef in tree.body:
        _inline_calls(fdef, _call_lines(NO_PASS_SRC, 1))
        for node in ast.walk(fdef):
            # no `pass` in a branch on x > y
            if node.__class__ is ast.If and node.test.ops[0].__class__ \
                    is ast.Gt:
                assert node.body[0].__class__ is not ast.Pass, \
                    ast.unparse(fdef)
    for name, (_, fn) in NO_PASS_FUNCS.items():
        for x in (1, 2, 3):
            census = count_opcodes(fn, _default_cmp3, x, 2, [], by_line=True)
            assert census.nop_total == 0, (name, x, census.nops)


class Truth:
    """A comparison result whose truth tests are logged."""

    def __init__(self, value, log):
        self.value = value
        self.log = log

    def __bool__(self):
        self.log.append(("bool", self.value))
        return self.value


class Logged:
    """An element whose `<` and `>` log their calls and return a Truth."""

    def __init__(self, v, log):
        self.v = v
        self.log = log

    def __lt__(self, other):
        self.log.append(("<", self.v, other.v))
        return Truth(self.v < other.v, self.log)

    def __gt__(self, other):
        self.log.append((">", self.v, other.v))
        return Truth(self.v > other.v, self.log)


@pytest.mark.parametrize("name", sorted(NO_PASS_FUNCS))
def test_pass_free_branches_truth_test_as_the_comparator(name):
    original, fn = NO_PASS_FUNCS[name]
    for x in (1, 2, 3):
        want_log, log = [], []
        want = original(generic, Logged(x, want_log), Logged(2, want_log),
                        [])
        assert fn(_default_cmp3, Logged(x, log), Logged(2, log), []) == want
        assert log == want_log, name
