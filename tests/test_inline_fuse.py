"""Fused tests: an ``if`` on ``cmp3(x, y) OP 0`` branches on the rich
comparisons themselves.

``compare_inline`` compiles such a test into ``if x < y:`` and, only
when that is false, a branch on ``x > y``, assigning a walrus name -1,
1 or 0 in the matching branch.  These tests check, for every OP, with
and without the walrus, in an ``if``, an ``elif`` and an ``if`` that
leads a ``while True:`` loop, that the compiled function returns what
the original does and makes the same ``<``, ``>`` and truth-test calls
in the same order, and that a comparison raising at any point is
reported at the ``cmp3(`` line on both paths.  The same checks run on
arms that open with tests of the walrus name, which the compiled
variant folds into its branches; separate tests check that the folded
tests are gone and that tests of another name, against another
constant or further into an arm are left, and that a ``while`` test
keeps the value form.  The number of fused tests in each decorated
function of the package is pinned, so that a source edit which falls
back to the value form fails here.
"""

import ast
import dis
import linecache
import sys
import traceback

import pytest

from tsqsort import baselines, core, pivot, smallsort
from tsqsort.inline import (_call_lines, _default_cmp3, _fold, _inline_calls,
                            _source_def, compare_inline)

OPS = ("<", "<=", ">", ">=", "==", "!=")
FORMS = ("if", "elif", "while")


def generic(x, y):
    return _default_cmp3(x, y)


# Template bodies; TEST is the fused test, VALUE what the arms record
# of it.  The `if` test starts below the `if` line, so a node given the
# statement's line instead of the call's shows in a traceback.  In the
# `while` form the test leads a `while True:` loop, as a scan is
# written: its `else` arm ends the loop, and its other arm also leaves
# it by a `break` and now and then `continue`s, so both reach the test.
TEMPLATES = {
    "if": """
def {name}(cmp3, xs, y):
    out = []
    for x in xs:
        if (
            {test}
        ):
            out.append(("body", {value}))
        else:
            out.append(("else", {value}))
    return out
""",
    "elif": """
def {name}(cmp3, xs, y):
    out = []
    for x in xs:
        if x is None:
            out.append("none")
        elif {test}:
            out.append(("body", {value}))
        else:
            out.append(("else", {value}))
    return out
""",
    "while": """
def {name}(cmp3, xs, y):
    out = []
    i = 0
    x = xs[0]
    while True:
        if {test}:
            out.append(("body", i, {value}))
            i += 1
            if i == len(xs):
                break
            x = xs[i]
            if i % 3 == 1:
                continue
            out.append("step")
        else:
            out.append(("else", i, {value}))
            break
    return out
""",
}

# Arms that open with tests of the walrus name, which the compiled
# variant folds into the fused branches: OP2 opens both arms, and OP3
# opens the branches OP2 selects, so a fold repeats on what a folded
# test leaves first.
FOLD_TEMPLATES = {
    "if_fold": """
def {name}(cmp3, xs, y):
    out = []
    for x in xs:
        if (r := cmp3(x, y)) {op} 0:
            if r {op2} 0:
                if r {op3} 0:
                    out.append(("body", 1, r))
                    continue
                out.append(("body", 2, r))
            elif r {op3} 0:
                out.append(("body", 3, r))
            out.append(("body", r))
        else:
            if r {op2} 0:
                out.append(("else", 1, r))
                continue
            out.append(("else", r))
    return out
""",
    "while_fold": """
def {name}(cmp3, xs, y):
    out = []
    i = 0
    x = xs[0]
    while True:
        if (r := cmp3(x, y)) {op} 0:
            if r {op2} 0:
                out.append(("body", 1, i, r))
            out.append(("body", i, r))
            i += 1
            if i == len(xs):
                break
            x = xs[i]
        else:
            if r {op2} 0:
                if r {op3} 0:
                    out.append(("else", 1, i, r))
                else:
                    out.append(("else", 2, i, r))
            out.append(("else", i, r))
            break
    return out
""",
}

FILENAME = "<fused tests>"


def _build():
    """Compile every (form, OP, walrus) function, and every (form, OP,
    OP2) function with folded arms, from one generated module whose
    source linecache serves, as a source file would."""
    src = []
    names = {}
    for form in FORMS:
        for k, op in enumerate(OPS):
            for named in (False, True):
                name = f"{form}_{k}_{'named' if named else 'plain'}"
                call = "cmp3(x, y)"
                test = f"(r := {call}) {op} 0" if named else f"{call} {op} 0"
                src.append(TEMPLATES[form].format(
                    name=name, test=test, value="r" if named else "None"))
                names[name] = (form, op, named)
    for form, template in FOLD_TEMPLATES.items():
        for k, op in enumerate(OPS):
            for j, op2 in enumerate(OPS):
                name = f"{form}_{k}_{j}"
                src.append(template.format(name=name, op=op, op2=op2,
                                           op3=OPS[(j + 2) % len(OPS)]))
                names[name] = (form, op, True)
    text = "".join(src)
    lines = text.splitlines(keepends=True)
    linecache.cache[FILENAME] = (len(text), None, lines, FILENAME)
    ns = {}
    exec(compile(text, FILENAME, "exec"), ns)
    return {name: (ns[name], compare_inline()(ns[name]), names[name])
            for name in names}


FUNCS = _build()


class Truth:
    """A non-bool truthy result whose truth test is logged."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __bool__(self):
        Logged.log.append(("bool", self.value))
        return self.value


class Logged:
    """An element whose ``<`` and ``>`` log their calls and return a
    ``Truth``; the k-th rich comparison raises when ``raise_at`` is k."""

    __slots__ = ("v",)
    log = []
    calls = 0
    raise_at = 0

    def __init__(self, v):
        self.v = v

    def _compare(self, op, other, result):
        Logged.log.append((op, self.v, other.v))
        Logged.calls += 1
        if Logged.calls == Logged.raise_at:
            raise ValueError("comparison refused")
        return Truth(result)

    def __lt__(self, other):
        return self._compare("<", other, self.v < other.v)

    def __gt__(self, other):
        return self._compare(">", other, self.v > other.v)

    __hash__ = None


def inputs(form):
    """Element lists that reach every outcome of every arm."""
    values = [[0, 1, 2, 1, 0, 2, 2, 1], [1, 1, 1, 1], [0, 0, 2], [2, 1, 0],
              [1], [2, 2, 0, 1, 1]]
    for vs in values:
        xs = [Logged(v) for v in vs]
        if form == "elif":
            xs.insert(1, None)
        yield xs, Logged(1)


def logged_run(fn, cmp, xs, y):
    Logged.log = []
    Logged.calls = 0
    return fn(cmp, xs, y), Logged.log


@pytest.mark.parametrize("name", sorted(FUNCS))
def test_fused_test_matches_the_value_form(name):
    original, compiled, (form, op, named) = FUNCS[name]
    assert compiled is not original
    ran = set()
    for xs, y in inputs(form):
        want = logged_run(original, generic, xs, y)
        assert logged_run(compiled, _default_cmp3, xs, y) == want
        assert logged_run(compiled, generic, xs, y) == want
        # the value form made every truth test the log holds
        assert {entry[0] for entry in want[1]} <= {"<", ">", "bool"}
        ran.update(str(entry[0]) for entry in want[0])
    # both arms ran on these inputs
    assert {"body", "else"} <= ran, (name, ran)


def innermost_frame(fn, cmp, xs, y, k, filename=FILENAME):
    Logged.raise_at = k
    try:
        with pytest.raises(ValueError, match="comparison refused") as info:
            logged_run(fn, cmp, xs, y)
    finally:
        Logged.raise_at = 0
    frames = [f for f in traceback.extract_tb(info.value.__traceback__)
              if f.filename == filename]
    return frames[-1]


@pytest.mark.parametrize("name", sorted(FUNCS))
def test_raise_at_every_comparison_points_at_the_cmp3_line(name):
    original, compiled, (form, _, _) = FUNCS[name]
    for xs, y in inputs(form):
        _, log = logged_run(original, generic, xs, y)
        n_compares = sum(1 for entry in log if entry[0] in ("<", ">"))
        for k in range(1, n_compares + 1):
            fused = innermost_frame(compiled, _default_cmp3, xs, y, k)
            plain = innermost_frame(compiled, generic, xs, y, k)
            assert "cmp3(" in fused.line, (k, fused)
            assert (fused.lineno, fused.name) == (plain.lineno, plain.name)


def fuse_counts(fn):
    """(calls inlined as values, tests fused) when ``fn``'s source is
    compiled again."""
    _, fdef, src = _source_def(fn)
    return _inline_calls(fdef, _call_lines(src, fn.__code__.co_firstlineno))


@pytest.mark.parametrize("name", sorted(FUNCS))
def test_each_generated_test_is_fused(name):
    assert fuse_counts(FUNCS[name][0]) == (0, 1)


def compiled_def(fn):
    """``fn``'s def as ``compare_inline`` compiles it."""
    _, fdef, src = _source_def(fn)
    _inline_calls(fdef, _call_lines(src, fn.__code__.co_firstlineno))
    return fdef


def zero_tests(tree, name):
    """The tests ``<name> OP 0`` under ``tree``."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Name) and node.left.id == name
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value == 0]


@pytest.mark.parametrize("form", sorted(FOLD_TEMPLATES))
def test_folded_arms_no_longer_test_the_name(form):
    for name, (original, _, _) in FUNCS.items():
        if name.startswith(form):
            _, fdef, _ = _source_def(original)
            assert len(zero_tests(fdef, "r")) == 4 - (form == "while_fold")
            assert zero_tests(compiled_def(original), "r") == [], name


def assigned_then_tested(tree):
    """Statements ``if <name> OP 0:`` that directly follow an
    assignment to ``name`` in the same block."""
    found = []
    for node in ast.walk(tree):
        for field in ("body", "orelse"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for prev, stmt in zip(block, block[1:]):
                if (isinstance(prev, ast.Assign) and isinstance(stmt, ast.If)
                        and isinstance(prev.targets[0], ast.Name)
                        and zero_tests(stmt.test, prev.targets[0].id)):
                    found.append(ast.unparse(stmt.test))
    return found


def arms_opening_with_a_test(tree, name):
    """Arms of ``if (<name> := ...) OP 0:`` that open with a test of
    ``name`` against 0."""
    return [arm for node in ast.walk(tree) if isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.NamedExpr)
            and node.test.left.target.id == name
            for arm in (node.body, node.orelse)
            if arm and isinstance(arm[0], ast.If)
            and zero_tests(arm[0].test, name)]


@pytest.mark.parametrize("fn", [core._run_machine, core._reversed_handler],
                         ids=lambda fn: fn.__name__)
def test_package_arms_fold_their_test(fn):
    # the state-1 left scan and the reversed swap loop open an arm with
    # `if lc == 0:`; compiled, every branch that assigns lc goes on
    # without testing it
    original = fn.__wrapped__
    _, fdef, _ = _source_def(original)
    assert len(arms_opening_with_a_test(fdef, "lc")) == 1
    assert assigned_then_tested(compiled_def(original)) == []


def _not_folded(cmp3, xs, y):
    out = []
    s = 0
    for x in xs:
        if (c := cmp3(x, y)) <= 0:
            # a test of another name
            if s == 0:
                out.append(("s", c))
            # a test of the name that does not open the arm
            if c == 0:
                out.append(("eq", c))
        # a test against a non-zero constant
        elif c > 1:
            out.append(("big", c))
        s += 1
    return out


@pytest.mark.parametrize("src", [
    "if s == 0:\n    a()",
    "if c > 1:\n    a()",
    "if c == 0.0:\n    a()",
    "if 0 == c:\n    a()",
    "if c == 0 == s:\n    a()",
    "a()\nif c == 0:\n    b()",
])
def test_other_tests_are_not_folded(src):
    arm = ast.parse(src).body
    for k in range(3):
        assert _fold(arm, "c", k) == (arm, [])


def test_fold_takes_the_branch_and_drops_what_follows_a_break():
    arm = ast.parse("if c == 0:\n    a()\n    break\nb()").body
    for k, (want, choice) in enumerate((("b()", False), ("b()", False),
                                        ("a()\nbreak", True))):
        folded, choices = _fold(arm, "c", k)
        assert (ast.unparse(folded), choices) == (want, [choice])


def test_tests_left_unfolded_keep_their_result():
    compiled = compare_inline()(_not_folded)
    _, fdef, _ = _source_def(_not_folded)
    # the `<=` body is copied for -1 and 0, with its test of c
    assert len(zero_tests(fdef, "c")) == 1
    assert len(zero_tests(compiled_def(_not_folded), "c")) == 2
    for vs in ([0, 1, 2], [1, 1], [2, 0], [1]):
        want = _not_folded(generic, vs, 1)
        assert compiled(_default_cmp3, vs, 1) == want


# (calls inlined as values, tests fused) in each decorated function
PINNED = {
    core._run_machine: (0, 23),
    core._sorted_handler: (0, 4),
    core._reversed_handler: (0, 8),
    pivot.median_of_3: (0, 5),
    pivot.median_of_5: (0, 10),
    smallsort.insertion_sort: (0, 2),
    baselines.classic_qsort: (0, 5),
    baselines.fixed_pivot_qsort: (0, 2),
    baselines.three_way_qsort: (0, 8),
    baselines.dual_pivot_qsort: (0, 13),
}


@pytest.mark.parametrize("fn", sorted(PINNED, key=lambda f: f.__name__),
                         ids=lambda fn: fn.__name__)
def test_fused_test_counts_are_pinned(fn):
    assert fuse_counts(fn.__wrapped__) == PINNED[fn]


@pytest.mark.parametrize("fn", sorted(PINNED, key=lambda f: f.__name__),
                         ids=lambda fn: fn.__name__)
def test_compiled_bodies_run_nothing_for_the_docstring(fn):
    # the variant keeps __doc__, and no body of it runs a NOP on the
    # docstring's lines
    _, fdef, _ = _source_def(fn.__wrapped__)
    doc = fdef.body[0]
    assert fn.__doc__ == ast.get_docstring(fdef, clean=False)
    assert [i.offset for i in dis.get_instructions(fn)
            if i.positions.lineno is not None
            and doc.lineno <= i.positions.lineno <= doc.end_lineno] == []


def _not_fused(cmp3, xs, y):
    out = []
    for x in xs:
        # a test that is not `cmp3(x, y) OP 0` keeps the value form
        if cmp3(x, y) + 1 > 0:
            out.append(cmp3(x, y))
        if cmp3(x, y) < False:
            out.append(x)
    # a `while` test is not fused
    while cmp3(xs[0], y) == 0:
        out.append(y)
        break
    else:
        for x in xs:
            while cmp3(x, y) > 0:
                break
            else:
                continue
    return out


def test_other_tests_keep_the_value_form():
    # `cmp3(...) + 1 > 0`, the call in the body, `< False` and both
    # `while` tests stay values
    assert fuse_counts(_not_fused) == (5, 0)
    compiled = compare_inline()(_not_fused)
    for vs in ([0, 1, 2], [1, 1], [2, 0]):
        assert compiled(_default_cmp3, vs, 1) == _not_fused(generic, vs, 1)


# --- a store of the value the name holds already ---
#
# A loop right after ``r = C`` whose fused test is its only assignment
# to r, and whose other outcomes leave it, drops the test's store of C.
# Each case is built for C = -1, 1 and 0, with the OP under which C is
# the one outcome that stays in the loop; ``drops`` says whether the
# compiled loop still stores C.

# OP per C for an ``if`` whose C arm goes on past it and whose other
# arm leaves, and for one whose C arm holds the step and whose other
# arm (the ``else``) leaves
IF_OPS = {-1: ">=", 1: "<=", 0: "!="}
WHILE_OPS = {-1: "<", 1: ">", 0: "=="}

CONST_CASES = {
    # dropped: a `for` left by `break`
    "for": (True, IF_OPS, """
def {name}(cmp3, xs, y):
    out = []
    r = {c}
    for x in xs:
        if (r := cmp3(x, y)) {op} 0:
            out.append(("stop", r))
            break
        out.append(("step", r))
    else:
        out.append(("end", r))
    return out, r
"""),
    # dropped: a `while True` left by `return`
    "while_true": (True, IF_OPS, """
def {name}(cmp3, xs, y):
    out = []
    i = 0
    r = {c}
    while True:
        if i == len(xs):
            return out, r
        if (r := cmp3(xs[i], y)) {op} 0:
            out.append(("stop", i, r))
            return out, r
        out.append(("step", i, r))
        i += 1
"""),
    # dropped: a `while True` led by the test, whose else leaves it
    "while_test": (True, WHILE_OPS, """
def {name}(cmp3, xs, y):
    out = []
    i = 0
    x = xs[0] if xs else y
    r = {c}
    while True:
        if (r := cmp3(x, y)) {op} 0:
            out.append(("step", i, r))
            i += 1
            if i >= len(xs):
                break
            x = xs[i]
        else:
            out.append(("end", i, r))
            break
    return out, r
"""),
    # kept: another statement between the constant and the loop
    "not_preceded": (False, IF_OPS, """
def {name}(cmp3, xs, y):
    r = {c}
    out = []
    for x in xs:
        if (r := cmp3(x, y)) {op} 0:
            out.append(("stop", r))
            break
        out.append(("step", r))
    return out, r
"""),
    # kept: a second assignment of r in the loop
    "second_assignment": (False, IF_OPS, """
def {name}(cmp3, xs, y):
    out = []
    r = {c}
    for x in xs:
        if (r := cmp3(x, y)) {op} 0:
            out.append(("stop", r))
            break
        out.append(("step", r))
        r = 7
    return out, r
"""),
    # kept: the other outcomes fall through to the next step
    "falls_through": (False, IF_OPS, """
def {name}(cmp3, xs, y):
    out = []
    r = {c}
    for x in xs:
        if (r := cmp3(x, y)) {op} 0:
            out.append(("other", r))
        out.append(("step", r))
    return out, r
"""),
    # kept: the other outcomes' arm ends in `break` but may `continue`
    "continues": (False, IF_OPS, """
def {name}(cmp3, xs, y):
    out = []
    r = {c}
    for x in xs:
        if (r := cmp3(x, y)) {op} 0:
            if len(out) % 2 == 0:
                out.append(("skip", r))
                continue
            out.append(("stop", r))
            break
        out.append(("step", r))
    return out, r
"""),
}

CONST_FILENAME = "<constant-store tests>"


def _build_const_cases():
    src = []
    cases = {}
    for case, (drops, ops, template) in CONST_CASES.items():
        for k, c in enumerate((-1, 1, 0)):
            name = f"{case}_{k}"
            src.append(template.format(name=name, c=c, op=ops[c]))
            cases[name] = (drops, c)
    text = "".join(src)
    linecache.cache[CONST_FILENAME] = (
        len(text), None, text.splitlines(keepends=True), CONST_FILENAME)
    ns = {}
    exec(compile(text, CONST_FILENAME, "exec"), ns)
    return {name: (ns[name], compare_inline()(ns[name]), drops, c)
            for name, (drops, c) in cases.items()}


CONST_FUNCS = _build_const_cases()


def const_inputs():
    """Element lists that stop the loop at each outcome, run it to the
    end, and run it zero times."""
    for vs in ([0, 0, 2, 1], [2, 2, 0], [1, 1, 0, 2], [0, 1, 2, 1, 0],
               [1], [0], [2], []):
        yield [Logged(v) for v in vs], Logged(1)


def loop_stores(tree, name, c):
    """Stores of ``c`` into ``name`` inside the loops under ``tree``: an
    assignment of the constant, or of an ``IfExp`` choosing it."""
    found = 0
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == name
                    and any(isinstance(v, ast.Constant) and v.value == c
                            and v.value.__class__ is int
                            for v in ast.walk(node.value))):
                found += 1
    return found


@pytest.mark.parametrize("name", sorted(CONST_FUNCS))
def test_constant_store_matches_the_value_form(name):
    original, compiled, _, _ = CONST_FUNCS[name]
    for xs, y in const_inputs():
        want = logged_run(original, generic, xs, y)
        assert logged_run(compiled, _default_cmp3, xs, y) == want
        assert logged_run(compiled, generic, xs, y) == want


@pytest.mark.parametrize("name", sorted(CONST_FUNCS))
def test_constant_store_raises_at_the_cmp3_line(name):
    original, compiled, _, _ = CONST_FUNCS[name]
    for xs, y in const_inputs():
        _, log = logged_run(original, generic, xs, y)
        n_compares = sum(1 for entry in log if entry[0] in ("<", ">"))
        for k in range(1, n_compares + 1):
            fused = innermost_frame(compiled, _default_cmp3, xs, y, k,
                                    CONST_FILENAME)
            plain = innermost_frame(compiled, generic, xs, y, k,
                                    CONST_FILENAME)
            assert "cmp3(" in fused.line, (k, fused)
            assert (fused.lineno, fused.name) == (plain.lineno, plain.name)


@pytest.mark.parametrize("name", sorted(CONST_FUNCS))
def test_store_of_the_held_constant_is_dropped_only_where_it_may_be(name):
    original, _, drops, c = CONST_FUNCS[name]
    assert fuse_counts(original) == (0, 1)
    compiled = compiled_def(original)
    assert (loop_stores(compiled, "r", c) == 0) == drops, ast.unparse(compiled)
    # the stores of the other values stay, and so does the constant
    # before the loop
    _, fdef, _ = _source_def(original)
    before = [ast.unparse(s) for s in fdef.body]
    after = [ast.unparse(s) for s in compiled.body]
    assert f"r = {c}" in before and f"r = {c}" in after


def executed_stores(fn, args, names):
    """How many ``STORE_FAST`` of ``names`` one call of ``fn`` runs."""
    code = fn.__code__
    ops = {i.offset: i for i in dis.get_instructions(code)}
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code is not code:
            return None
        frame.f_trace_opcodes = True
        if event == "opcode":
            op = ops[frame.f_lasti]
            count += op.opname == "STORE_FAST" and op.argval in names
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(old)
    return count


@pytest.mark.parametrize("shape", ("sorted", "equals_below"))
def test_sorted_handler_scans_store_no_lc_or_rc_per_step(shape):
    # sorted, both verify scans go 500 steps; with equals below, the
    # right verify scan and the scan for equals below the block do.
    # The compiled handler stores lc and rc a fixed number of times,
    # the original once a step.  The scan for equals above keeps its
    # store of 0 (see core._sorted_handler).
    n = 1001
    mid = n >> 1
    ar = list(range(n))
    if shape == "equals_below":
        ar[1:mid] = [mid] * (mid - 1)
    args = (ar, _default_cmp3, 0, n - 1, mid, mid, [0] * core.CT_LEN, 0, 0)
    assert executed_stores(core._sorted_handler, args, ("lc", "rc")) <= 4
    assert executed_stores(core._sorted_handler.__wrapped__,
                           args[:1] + (generic,) + args[2:],
                           ("lc", "rc")) >= 500
