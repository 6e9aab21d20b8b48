"""The default comparator, and hot functions that compare inline with it.

``_default_cmp3`` is the three-way comparator every entry point uses
when none is given.  Calling it costs a Python call per comparison, so
the hot functions are decorated with :func:`compare_inline`, which
compiles, from the function's own source lines, a variant in which each
``cmp3(x, y)`` compares inline.  Both forms below run
``<`` and then, only when that is false, ``>`` on the same operands,
each result truth-tested once, as ``_default_cmp3`` does, so every rich
comparison, count and result is the same on either path:

* The test of an ``if`` that is ``cmp3(x, y) OP 0`` or ``(name :=
  cmp3(x, y)) OP 0``, with OP one of ``< <= > >= == !=``, is fused into
  branches on the comparisons themselves: ``if x < y:`` takes the arm
  that -1 selects with no further test, and otherwise ``x > y`` picks
  between the arms of 1 and 0.  ``name`` is assigned -1, 1 or 0 in the
  matching branch.  An arm that two outcomes share is copied into both
  branches, except that a shared arm of 1 and 0 follows ``name = 1 if
  x > y else 0``.  A ``while`` test is not fused, so a scan is written
  as a ``while True:`` led by such an ``if``.
* In such a fused test with a ``name``, an arm that opens with
  ``if name OP 0:`` (an int 0, any of the six OPs) is folded: each
  branch that assigned ``name`` goes on with the branch of that test
  its value selects, and the fold repeats on what the arm then opens
  with.  Statements after a selected branch that ends in ``break``,
  ``continue``, ``return`` or ``raise`` are dropped.  A shared arm of
  1 and 0 that folds differently for them is split into ``elif x > y:
  name = 1 ...`` and ``else: name = 0 ...``.  So
  ``if (lc := cmp3(ar[l], p)) < 0: ... else: if lc == 0: break ...``
  leaves the scan on ``x < y`` and then ``x > y`` alone.  The original
  function keeps the test.
* A fused test's store of a value its ``name`` provably holds already
  is dropped: the test is an ``if`` directly in a loop's body; the loop
  directly follows ``name = C`` (C an int literal) in its block; the
  test is the only assignment to ``name`` in the loop; and every arm of
  another value leaves the loop by ``break``, ``return`` or ``raise``,
  with no ``continue`` on the way.
  So ``lc = -1`` before ``for l in ...: if (lc := cmp3(ar[l], p)) >=
  0: break`` leaves a scan step with no store at all.
* Any other call is the expression ``-1 if x < y else (1 if x > y
  else 0)``.

With no ``name``, the shared arm of 1 and 0 is copied into ``elif x >
y:`` and ``else:``, and an empty one is ``not x > y`` with its result
dropped: ``if x > y: pass`` would run a ``NOP``, which CPython keeps
for the ``pass``'s line event, and the result is truth-tested once all
the same.

The variant keeps the source line numbers, and every node made from a
call carries the call's line, so a traceback from an element's
``__lt__`` points at the real ``cmp3(`` line.

The compiled function keeps the original's name, signature and
docstring, which its bodies leave out, so no call runs a statement for
it.  It runs the inline body when the comparator is the default one and
otherwise hands the call, unchanged, to the original function, which
calls the comparator as given.  Where the source lines cannot be had (a
sourceless install) or do not hold the function's def, the decorator
returns the original function, which is correct with any comparator.

Nothing is parsed or compiled at import.  The decorator reads the
function's source lines and returns a new function, which stays the
module global for good, whose code is a trampoline.  Its first call
compiles the dispatch with a stub in place of each body, and each stub,
on the first call that reaches it, compiles its body into the same
function's code and calls it again; so the code holds the bodies
called so far, and a later call runs the dispatch with no extra step.
A code object's free variables must match the function's closure, so
every code the function takes, trampoline included, closes over one
cell, the original function; the compile hook, the default and
total-order comparators and :func:`_total_order` are globals that the
decorator binds in the function's module under reserved names.  A
compile holds a lock, so threads that race a first call compile each
body once; the calls after it take no lock.
:func:`compile_all` compiles every body now, and :func:`compiled` tells
which each function holds.

The compiled function holds a second inline body, the total-order
body, compiled from a parse of its own.  It runs when the
comparator is ``_total_cmp3`` (or, under the ``cmp`` convention, when
the comparator is the default one and the sequence passes
:func:`_total_order`): every element is an exact ``int`` or every one
an exact ``str``, so ``<``, ``>`` and ``==`` form a total order and run
no Python code, and no element or comparator can see which of them run
or how often.  The total-order body makes the same three-way decisions,
with fewer rich comparisons in the loops that run long; two rules
differ from the inline body:

* A fused test with no ``name`` to assign makes one comparison, the
  one that tells the outcome with an arm of its own from the two that
  share the other: ``if cmp3(x, y) >= 0:`` is ``if x < y: ... else:
  ...`` with no ``x > y``, which the inline body truth-tests only to
  mirror ``_default_cmp3``, and ``if cmp3(x, y) > 0:`` is ``if x > y:``
  alone.
* A fused test whose store :func:`_held_constants` drops, or of whose
  three outcomes exactly one has a folded arm that does not leave the
  loop, tests that outcome first: ``x > y`` for a scan that goes on
  while ``cmp3(x, y) > 0``, ``x == y`` for one that goes on over
  equals.  The arms that leave the loop pay the second comparison,
  once per scan instead of once per step.  Every other test keeps the
  inline body's order.

Counts are kept by law or per outcome, never per rich comparison, so
every count is the same on all three bodies.  Floats are not in the
total-order set, since a NaN is neither below, above nor equal to
anything; nor are bools, subclasses of int or str, mixed lists and
sequences that are not lists.

The source may test the compile-time flag ``TOTAL_BODY`` in the test of
an ``if``, alone or first in an ``and``.  The total-order body is
compiled with each such test folded to True and the inline body with it
folded to False: a test found true leaves the rest of its ``and``, or
the ``if``'s body alone, and one found false leaves the ``if``'s
``else``, before any call is inlined.  Work that only a total order
allows, such as a scan that stops on a sentinel and makes a comparison
the guarded scan would not, goes behind the flag: ``core._run_machine``
writes its state-1 cycle and its state-3 run scans for a total order
as bare ``while ar[l] < p:`` scans under ``if TOTAL_BODY:``,
``core._sorted_handler`` its test of a stage's sides for strict
increase, and ``smallsort.insertion_sort`` its unguarded scan.  Any
other use of the name is refused.

A ``while True:`` has no test, so CPython keeps a ``NOP`` on its line
for the line event and runs it at each entry into the loop.  Every
compiled body puts such a loop on the line of its first statement
instead, so none runs that ``NOP``.  A function whose source tests the
flag or holds such a loop gets, as its own ``__code__``, its source
compiled once more the same way, with the flag folded to False, so the
generic path tests the flag no more and runs no more ``NOP``s than the
compiled bodies do; any other function runs as written on the generic
path.  That compile, too, waits for the first call of the generic path.
A sourceless install keeps the function as written, which reads the
module global ``TOTAL_BODY = False``, and so does a function whose
lines do not parse at its first call.
"""

from __future__ import annotations

import __future__
import ast
import copy
import gc
import linecache
import re
import threading
from bisect import bisect_left
from types import CellType, CodeType, FunctionType

# the comparator name the transformer inlines
CALLEE = "cmp3"
# operand temporaries and closure names of the compiled variant
_TMP_X = "_cmp3_x"
_TMP_Y = "_cmp3_y"
_GENERIC = "_cmp3_generic"
_DEFAULT = "_cmp3_default"
_TOTAL = "_cmp3_total"
_TOTAL_ORDER = "_cmp3_total_order"
_COMPILE = "_cmp3_compile"
_RESERVED = (_TMP_X, _TMP_Y, _GENERIC, _DEFAULT, _TOTAL, _TOTAL_ORDER,
             _COMPILE)
# the bodies a decorated function's code may hold
TOTAL, INLINE, GENERIC = "total", "inline", "generic"
BODIES = frozenset((TOTAL, INLINE, GENERIC))
# where a call of the comparator may start in the source text
_CALL_TEXT = re.compile(rf"\b{CALLEE}\s*\(")
# the compile-time flag: True in the total-order body, False elsewhere
_FLAG = "TOTAL_BODY"
# its value where no body is compiled: a sourceless install runs the
# function as written, which reads this global
TOTAL_BODY = False
# the statement blocks of a node
_BLOCKS = ("body", "orelse", "finalbody", "handlers", "cases")


def _default_cmp3(x, y) -> int:
    if x < y:
        return -1
    if x > y:
        return 1
    return 0


# The comparator a sort passes down to select the total-order body: the
# default comparator's own code under a second identity, so a call of it
# answers as _default_cmp3 does.
_total_cmp3 = FunctionType(_default_cmp3.__code__, _default_cmp3.__globals__,
                           "_total_cmp3")
_total_cmp3.__qualname__ = "_total_cmp3"


def _total_order(seq) -> bool:
    """Whether ``seq`` is a non-empty list whose elements are all exact
    ints or all exact strs; one pass over their types, in C."""
    if type(seq) is not list or not seq:
        return False
    t = type(seq[0])
    return (t is int or t is str) and \
        list(map(type, seq)).count(t) == len(seq)


def compare_inline(param: str = CALLEE):
    """Decorator: compile, on first use, variants of a top-level function
    in which every ``cmp3(x, y)`` call compares inline.

    ``param`` names the parameter that carries the comparator.  When it
    is ``cmp3`` itself, the inline body runs iff it is ``_default_cmp3``
    and the total-order body iff it is ``_total_cmp3``.  Any other
    parameter follows the public ``cmp`` convention, where ``None`` also
    means the default comparator, and the function's first parameter is
    the sequence it sorts: with the default comparator the total-order
    body runs when :func:`_total_order` accepts that sequence, with the
    parameter bound to ``_total_cmp3``, so what the body passes the
    comparator on to runs its own total-order body.

    The decorator parses and compiles nothing.  It refuses a function
    that is not top-level, takes ``*args``, keyword-only or ``**kwargs``
    parameters, uses a reserved name or has no ``cmp3(`` in its text;
    what only the parse shows is refused by the first call.  Decorating
    a function twice returns the same compiled function.
    """
    def decorate(fn):
        return _register(fn, param)
    return decorate


# co_flags of a code that takes *args or **kwargs
_CO_STAR_ARGS = 0x04 | 0x08
# how each line after a def's first one may start
_BODY_START = (" ", "\t", "\r", "\n", "#", ")", "]", "}")


class _Lazy:
    """A decorated function: its original ``fn``, the function ``new``
    that stands for it, fn's code and source lines as the decorator found
    them, and the bodies new's code holds.  ``failed`` is set once a
    compile of it raised or its lines did not parse."""

    __slots__ = ("fn", "param", "new", "code", "lines", "bodies", "failed")

    def __init__(self, fn, param, new, lines):
        self.fn = fn
        self.param = param
        self.new = new
        self.code = fn.__code__
        self.lines = lines
        self.bodies = frozenset()
        self.failed = False


# original function -> its record, in the order of decoration
_REGISTRY = {}
# held while a compile reads and sets a record's bodies
_COMPILING = threading.Lock()


def _trampoline(_cmp3_generic):
    def first_call(*args, **kwargs):
        return _cmp3_compile(_cmp3_generic, None)(*args, **kwargs)
    return first_call


# a decorated function's code until its first call
_TRAMPOLINE = _trampoline(None).__code__


def _register(fn, param: str):
    if fn.__qualname__ != fn.__name__:
        raise ValueError(f"{fn.__qualname__} is not a top-level def")
    code = fn.__code__
    if code.co_flags & _CO_STAR_ARGS or code.co_kwonlyargcount:
        raise ValueError(f"{fn.__name__} takes *args, keyword-only or "
                         "**kwargs parameters")
    lines = linecache.getlines(code.co_filename, fn.__globals__)
    src = _def_text(lines, code.co_firstlineno, _last_code_line(code),
                    fn.__name__)
    if src is None:
        return fn
    for name in _RESERVED:
        if name in src:
            raise ValueError(f"{fn.__qualname__} uses reserved name {name}")
    if _CALL_TEXT.search(src) is None:
        raise ValueError(f"{fn.__qualname__} has no {CALLEE}(x, y) call")
    rec = _REGISTRY.get(fn)
    if rec is not None:
        if rec.param != param:
            raise ValueError(f"{fn.__qualname__} is compiled already for "
                             f"{rec.param}")
        return rec.new
    fn.__globals__.update(_HOOKS)
    new = FunctionType(_TRAMPOLINE, fn.__globals__, fn.__name__,
                       fn.__defaults__, (CellType(fn),))
    new.__qualname__ = fn.__qualname__
    new.__doc__ = fn.__doc__
    new.__annotations__ = dict(fn.__annotations__)
    new.__wrapped__ = fn
    _REGISTRY[fn] = _Lazy(fn, param, new, lines)
    return new


def _def_text(lines: list, first: int, last: int, name: str):
    """Lines ``first..last`` (1-based) of the top-level def ``name`` as
    one text, or None when they do not look like its lines: past its
    decorators a line opens ``def name``, and every line after it is
    blank, indented, a comment or a closing bracket."""
    span = lines[first - 1:last]
    if len(span) != last - first + 1:
        return None
    i = 0
    while i < len(span) and span[i][:1] in ("@", " ", "\t"):
        i += 1
    if i == len(span) or not re.match(rf"(async\s+)?def\s+{name}\b",
                                      span[i]):
        return None
    if any(line[:1] not in _BODY_START for line in span[i + 1:]):
        return None
    return "".join(span)


def _cmp3_compile(fn, body):
    """Compile ``body``, one of :data:`BODIES`, into the code of the
    function decorated from ``fn``, and return that function; ``body``
    is None on its first call, which compiles the dispatch alone.  Its
    code calls this on the first call of each kind, and runs its
    dispatch with no extra step on every later one."""
    rec = _REGISTRY[fn]
    with _COMPILING:
        # a thread that waited here may find the work done
        if body in rec.bodies or (body is None
                                  and rec.new.__code__ is not _TRAMPOLINE):
            return rec.new
        _install(rec, rec.bodies | {body} if body else rec.bodies)
    return rec.new


# the names a compiled dispatch reads from its module's globals
_HOOKS = {_COMPILE: _cmp3_compile, _DEFAULT: _default_cmp3,
          _TOTAL: _total_cmp3, _TOTAL_ORDER: _total_order}


def compile_all() -> None:
    """Compile every body of every decorated function now, so that no
    later call compiles anything: before a count of executed opcodes,
    say, or a timed first call.  A function whose compile raised is left
    as it is."""
    with _COMPILING:
        for rec in list(_REGISTRY.values()):
            if rec.bodies != BODIES and not rec.failed:
                _install(rec, BODIES)


def compiled() -> dict:
    """``module.name`` of each decorated function -> the bodies its code
    holds so far, a frozenset of :data:`BODIES`."""
    return {f"{rec.fn.__module__}.{rec.fn.__qualname__}": rec.bodies
            for rec in list(_REGISTRY.values())}


def _last_code_line(code: CodeType) -> int:
    """Last source line that holds bytecode of ``code`` or of the code
    nested in it."""
    last = code.co_firstlineno
    stack = [code]
    while stack:
        c = stack.pop()
        for _, _, line in c.co_lines():
            if line is not None and line > last:
                last = line
        stack.extend(k for k in c.co_consts if isinstance(k, CodeType))
    return last


def _parse_def(lines: list, first: int, last: int):
    """Parse lines ``first..last`` (1-based) of a top-level def.  The
    lines that end its final statement (closing brackets, the rest of a
    string) hold no bytecode, so while the text does not parse the next
    line is taken in if it is blank, indented or a closing bracket.
    None if no such span parses."""
    while True:
        # blank lines in front keep every node on its real line number
        src = "".join(lines[first - 1:last])
        try:
            return ast.parse("\n" * (first - 1) + src), src
        except SyntaxError:
            if last >= len(lines) or lines[last][:1] not in " \t\r\n)]}":
                return None, src
            last += 1


def _source_def(fn):
    """(module tree, def node, def source) of the top-level function
    ``fn``, parsed from its source lines; the nodes are None when the
    lines cannot be had or do not hold its def."""
    if fn.__qualname__ != fn.__name__:
        raise ValueError(f"{fn.__qualname__} is not a top-level def")
    code = fn.__code__
    return _read_def(linecache.getlines(code.co_filename, fn.__globals__),
                     code, fn.__name__)


def _read_def(lines: list, code: CodeType, name: str):
    """:func:`_source_def` of the def ``name`` of ``code`` in ``lines``."""
    tree, src = _parse_def(lines, code.co_firstlineno, _last_code_line(code))
    if tree is None or len(tree.body) != 1:
        return None, None, src
    fdef = tree.body[0]
    if fdef.__class__ is not ast.FunctionDef or fdef.name != name:
        return None, None, src
    return tree, fdef, src


def _install(rec: _Lazy, bodies: frozenset) -> None:
    """Compile the dispatch of ``rec``'s function with ``bodies`` and a
    stub for each other body into its code, and record them as held.

    The inline body and the generic path come from one parse of the
    source lines, with the flag folded to False, and the total-order
    body from another, with it folded to True.  The generic path runs
    fn, whose own code is replaced by that def compiled alone when it
    tests the flag or holds a ``while True:``.  Where the lines do not
    parse into fn's def, the code only calls fn, as written."""
    fn = rec.fn
    code = rec.code
    first = code.co_firstlineno
    params = code.co_varnames[:code.co_argcount]
    loc = {"lineno": first, "col_offset": 0, "end_lineno": first,
           "end_col_offset": 0}
    # The parse and the compile make many short-lived objects, none in a
    # cycle; a collection they set off would only walk the caller's heap,
    # which at a first call may hold the data it sorts.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if not bodies:
            body = _dispatch(params, rec.param, None, None, False, loc)
        else:
            tree, fdef, src = _read_def(rec.lines, code, fn.__name__)
            if fdef is None:
                rec.failed = True
                bodies = frozenset()
                body = [ast.Return(_call(_GENERIC, params, loc), **loc)]
            else:
                body = _bodies(rec, bodies, tree, fdef, src, params, loc)
        # def _make(generic):
        #     def <name>(<parameters>): <body>
        #     return <name>
        posonly = code.co_posonlyargcount
        inner = ast.FunctionDef(
            name=fn.__name__,
            args=ast.arguments(
                posonlyargs=[ast.arg(n, **loc) for n in params[:posonly]],
                args=[ast.arg(n, **loc) for n in params[posonly:]],
                kwonlyargs=[], kw_defaults=[], defaults=[]),
            body=body, decorator_list=[], **loc)
        make = ast.FunctionDef(
            name="_make",
            args=ast.arguments(posonlyargs=[],
                               args=[ast.arg(_GENERIC, **loc)],
                               kwonlyargs=[], kw_defaults=[], defaults=[]),
            body=[inner, ast.Return(ast.Name(fn.__name__, ast.Load(),
                                             **loc), **loc)],
            decorator_list=[], **loc)
        rec.new.__code__ = _exec(ast.Module([make], []), fn)["_make"](
            fn).__code__
        rec.bodies = bodies
    except ValueError:
        rec.failed = True
        raise
    finally:
        if collecting:
            gc.enable()


def _bodies(rec, bodies, tree, fdef, src, params, loc) -> list:
    """The statements of a compiled function that holds ``bodies``,
    from ``fdef``, the def of ``rec``'s function parsed as module
    ``tree`` from the text ``src``."""
    fn = rec.fn
    first = rec.code.co_firstlineno
    call_lines = _call_lines(src, first)
    inline = total = None
    if bodies - {TOTAL}:
        fdef.decorator_list = []
        flagged = _FLAG in src and _fold_flag(fdef, False)
        if (_loop_lines(fdef) or flagged) and GENERIC in bodies \
                and fn.__code__ is rec.code:
            # the generic path runs fn compiled from this def, with the
            # flag folded to False and no NOP for a while True:, as the
            # bodies do
            fn.__code__ = _def_code(tree, fdef, fn)
        if INLINE in bodies:
            _inline_calls_of(fdef, call_lines, False)
            inline = _statements(fdef)
        if TOTAL in bodies:
            # the total-order body from a second parse of the same text,
            # which costs a quarter of a deep copy of the def
            fdef = ast.parse("\n" * (first - 1) + src).body[0]
    if TOTAL in bodies:
        if _FLAG in src:
            _fold_flag(fdef, True)
        _loop_lines(fdef)
        _inline_calls_of(fdef, call_lines, True)
        total = _statements(fdef)
    return _dispatch(params, rec.param, total, inline, GENERIC in bodies,
                     loc)


def _statements(fdef) -> list:
    """The statements of ``fdef`` but its docstring, which behind the
    dispatch would run as a ``NOP`` on every call; the compiled function
    takes fn.__doc__ instead."""
    if ast.get_docstring(fdef) is not None:
        return fdef.body[1:]
    return fdef.body


def _inline_calls_of(fdef, call_lines: list, total: bool) -> None:
    if _inline_calls(fdef, call_lines, total=total) == (0, 0):
        raise ValueError(f"{fdef.name} has no {CALLEE}(x, y) call")


def _loc(node) -> dict:
    return {"lineno": node.lineno, "col_offset": node.col_offset,
            "end_lineno": node.end_lineno,
            "end_col_offset": node.end_col_offset}


def _exec(tree, fn) -> dict:
    """The names ``tree`` defines, run as code of ``fn``'s file in fn's
    globals.  A use of the flag that :func:`_fold_flag` left is refused:
    the compiled code's names show one at once, and only then is the
    tree walked for its line."""
    code = compile(tree, fn.__code__.co_filename, "exec", dont_inherit=True,
                   flags=__future__.annotations.compiler_flag)
    stack = [code]
    while stack:
        c = stack.pop()
        if _FLAG in c.co_names or _FLAG in c.co_varnames:
            for node in ast.walk(tree):
                if node.__class__ is ast.Name and node.id == _FLAG:
                    raise ValueError(
                        f"{_FLAG} is used outside an if test, alone or "
                        f"first in an and, on line {node.lineno}")
        stack.extend(k for k in c.co_consts if isinstance(k, CodeType))
    ns = {}
    exec(code, fn.__globals__, ns)
    return ns


def _def_code(tree, fdef, fn) -> CodeType:
    """The code of ``fdef``, the only statement of ``tree``, compiled as
    ``fn``'s: on fn's first line, so that tracebacks, line events and
    :func:`_source_def` read it as fn's own."""
    line = fdef.lineno
    # a decorated def's code starts on its first decorator's line
    fdef.lineno = fn.__code__.co_firstlineno
    code = _exec(tree, fn)[fdef.name].__code__
    fdef.lineno = line
    return code


def _fold_flag(root, value: bool) -> int:
    """Fold every test of the flag under ``root`` to ``value``, in place,
    and return how many were folded.  The test of an ``if`` may be
    ``FLAG`` alone or first in an ``and``: a test found true is replaced
    by the rest of the ``and``, or with none left the ``if`` by its body,
    and a test found false by its ``else``.  Any other use of the flag
    stays, and :func:`_exec` refuses it, so no body loads it."""
    folded = 0

    def block(stmts):
        nonlocal folded
        out = []
        for stmt in stmts:
            if stmt.__class__ is ast.If:
                test = _flag_test(stmt.test, value)
                if test is not None:
                    folded += 1
                    if test is True or test is False:
                        out += block(stmt.body if test else stmt.orelse)
                        continue
                    stmt.test = test
            nested(stmt)
            out.append(stmt)
        return out

    def nested(node):
        for field in _BLOCKS:
            stmts = getattr(node, field, None)
            if not stmts:
                continue
            if isinstance(stmts[0], ast.stmt):
                new = block(stmts)
                if not new and field == "body":
                    new = [ast.Pass(**_loc(node))]
                setattr(node, field, new)
            else:
                # except handlers and match cases
                for sub in stmts:
                    nested(sub)

    nested(root)
    return folded


def _flag_test(test, value: bool):
    """What an ``if`` test that starts with the flag reduces to when the
    flag is ``value``: True, False or the rest of an ``and``; None when
    the test does not start with the flag."""
    rest = None
    if test.__class__ is ast.BoolOp and test.op.__class__ is ast.And:
        test, rest = test.values[0], test.values[1:]
    if test.__class__ is not ast.Name or test.id != _FLAG:
        return None
    if not value or rest is None:
        return value
    if len(rest) == 1:
        return rest[0]
    return ast.BoolOp(ast.And(), rest, **_loc(rest[0]))


def _loop_lines(root) -> int:
    """Put each ``while True:`` under ``root`` on the line of its first
    statement, and return how many there are.  The loop's header line
    holds no instruction of its own, so CPython would keep a ``NOP``
    there for its line event, run at each entry into the loop.  Inner
    loops go first, so an outer loop whose first statement is one takes
    that loop's new line."""
    loops = []
    stack = [root]
    while stack:
        node = stack.pop()
        for field in _BLOCKS:
            for sub in getattr(node, field, None) or ():
                stack.append(sub)
                if (sub.__class__ is ast.While
                        and sub.test.__class__ is ast.Constant
                        and sub.test.value):
                    loops.append(sub)
    for loop in reversed(loops):
        line = loop.body[0].lineno
        loop.lineno = loop.test.lineno = loop.test.end_lineno = line
    return len(loops)


def _dispatch(params, param: str, total, inline, generic: bool,
              loc: dict) -> list:
    """The statements of the compiled function.  For ``cmp3``::

        if cmp3 is not default:
            if cmp3 is total:
                <total>
            return generic(<all parameters>)
        <inline>

    and for the ``cmp`` convention, ``seq`` the first parameter::

        if cmp is not None and cmp is not default:
            return generic(<all parameters>)
        if total_order(seq):
            cmp = total
            <total>
        <inline>

    ``total`` and ``inline`` are the bodies' statements, the total-order
    body ended by a ``return`` so that it never runs on into the inline
    one.  A body that is None, and the generic call while ``generic`` is
    false, is a stub that compiles it and calls the function again::

        return compile(generic, "<body>")(<all parameters>)

    so the stub of the total-order body comes before ``cmp = total``."""
    def name(n):
        return ast.Name(n, ast.Load(), **loc)

    def stub(body):
        hook = ast.Call(name(_COMPILE),
                        [name(_GENERIC), ast.Constant(body, **loc)], [],
                        **loc)
        return [ast.Return(ast.Call(hook, [name(x) for x in params], [],
                                    **loc), **loc)]

    if total is None:
        total = stub(TOTAL)
    else:
        total = total + [ast.Return(None, **_loc(total[-1]))]
        if param != CALLEE:
            total = [ast.Assign([ast.Name(param, ast.Store(), **loc)],
                                name(_TOTAL), **loc)] + total
    inline = stub(INLINE) if inline is None else inline
    call = (ast.Return(_call(_GENERIC, params, loc), **loc) if generic else
            stub(GENERIC)[0])
    other = ast.Compare(name(param), [ast.IsNot()], [name(_DEFAULT)], **loc)
    if param == CALLEE:
        chosen = ast.Compare(name(param), [ast.Is()], [name(_TOTAL)], **loc)
        return [ast.If(other, [ast.If(chosen, total, [], **loc), call],
                       [], **loc)] + inline
    other = ast.BoolOp(ast.And(), [
        ast.Compare(name(param), [ast.IsNot()], [ast.Constant(None, **loc)],
                    **loc),
        other], **loc)
    chosen = ast.Call(name(_TOTAL_ORDER), [name(params[0])], [], **loc)
    return [ast.If(other, [call], [], **loc),
            ast.If(chosen, total, [], **loc)] + inline


def _call(fn: str, params, loc: dict) -> ast.Call:
    """``fn(<all parameters>)``."""
    return ast.Call(ast.Name(fn, ast.Load(), **loc),
                    [ast.Name(x, ast.Load(), **loc) for x in params], [],
                    **loc)


# nodes that hold no call: the walk does not descend into them
_LEAVES = (ast.Name, ast.Constant, ast.expr_context, ast.operator,
           ast.cmpop, ast.unaryop, ast.boolop)


def _is_cmp3_call(node) -> bool:
    return (node.__class__ is ast.Call and node.func.__class__ is ast.Name
            and node.func.id == CALLEE and len(node.args) == 2
            and not node.keywords
            and not any(x.__class__ is ast.Starred for x in node.args))


def _call_lines(src: str, first: int) -> list:
    """Sorted numbers of the lines on which a ``cmp3(`` starts in
    ``src``, whose first line is line ``first``."""
    lines = []
    line = first
    pos = 0
    for m in _CALL_TEXT.finditer(src):
        line += src.count("\n", pos, m.start())
        pos = m.start()
        lines.append(line)
    return lines


def _holds_call(stmt, call_lines: list) -> bool:
    i = bisect_left(call_lines, stmt.lineno)
    return i < len(call_lines) and call_lines[i] <= stmt.end_lineno


def _inline_calls(root, call_lines: list, held=None,
                  total: bool = False) -> tuple:
    """Compile every ``cmp3(x, y)`` call under ``root`` inline, in place;
    returns (calls made inline expressions, ``if``/``while`` tests
    fused).  ``call_lines`` lists the lines on which a ``cmp3(`` starts
    (:func:`_call_lines`); a statement spanning none of them is not
    walked.  ``held`` is :func:`_held_constants` of the whole def, which
    is taken as ``root`` when it is None.  ``total`` compiles the fused
    tests of the total-order body (:func:`_branches`).  An explicit-stack
    walk: ``ast.NodeTransformer`` costs about five times as much, which
    shows in a first call's compile."""
    if held is None:
        held = _held_constants(root)
    inlined = fused = 0
    stack = [root]
    while stack:
        node = stack.pop()
        for field in node._fields:
            v = getattr(node, field, None)
            if v.__class__ is list:
                for i, c in enumerate(v):
                    if isinstance(c, ast.stmt):
                        if not _holds_call(c, call_lines):
                            continue
                        test = _fusable_test(c)
                        if test is None:
                            stack.append(c)
                            continue
                        v[i], n_inl, n_fus = _fuse(c, test, call_lines, held,
                                                   total)
                        inlined += n_inl
                        fused += n_fus + 1
                    elif (isinstance(c, ast.AST)
                          and not isinstance(c, _LEAVES)):
                        if _is_cmp3_call(c):
                            c = v[i] = _inline_expr(c)
                            inlined += 1
                        stack.append(c)
            elif isinstance(v, ast.AST) and not isinstance(v, _LEAVES):
                if _is_cmp3_call(v):
                    v = _inline_expr(v)
                    setattr(node, field, v)
                    inlined += 1
                stack.append(v)
    return inlined, fused


# truth of ``cmp3(x, y) OP 0`` when x < y, when x > y, and otherwise
_OUTCOMES = {ast.Lt: (True, False, False), ast.LtE: (True, False, True),
             ast.Gt: (False, True, False), ast.GtE: (False, True, True),
             ast.Eq: (False, False, True), ast.NotEq: (True, True, False)}


def _fusable_test(stmt):
    """(name or None, call, outcomes) when ``stmt`` is an ``if`` whose
    test is ``[(name :=)] cmp3(x, y) OP 0``, else None."""
    if stmt.__class__ is not ast.If:
        return None
    left, op = _against_zero(stmt.test)
    if left is None:
        return None
    name = None
    if left.__class__ is ast.NamedExpr:
        name = left.target.id
        left = left.value
    if not _is_cmp3_call(left):
        return None
    return name, left, _OUTCOMES[op]


def _against_zero(test):
    """(left operand, OP class) when ``test`` is ``<left> OP 0`` with OP
    one of ``< <= > >= == !=`` and an int 0, else (None, None)."""
    if (test.__class__ is not ast.Compare or len(test.ops) != 1
            or test.ops[0].__class__ not in _OUTCOMES):
        return None, None
    zero = test.comparators[0]
    if (zero.__class__ is not ast.Constant or zero.value.__class__ is not int
            or zero.value != 0):
        return None, None
    return test.left, test.ops[0].__class__


def _fuse(stmt, test, call_lines: list, held: dict, total: bool):
    """(fused statement, calls inlined, tests fused) for an ``if`` that
    :func:`_fusable_test` accepted; its operands and arms are compiled
    first, so a copied arm needs no second walk."""
    name, call, outcomes = test
    inlined, fused = _inline_calls(call, call_lines, held, total)
    for arm in (stmt.body, stmt.orelse):
        n_inl, n_fus = _inline_calls(ast.Module(arm, []), call_lines, held,
                                     total)
        inlined += n_inl
        fused += n_fus
    return (_branches(name, call, outcomes, stmt.body, stmt.orelse,
                      _loc(call), held.get(id(stmt)), total),
            inlined, fused)


# the value a fused test's name takes on outcome k (x < y, x > y, else)
_VALUES = (-1, 1, 0)
# statements that leave the loop an ``if`` directly in its body is in
_LEAVE = (ast.Break, ast.Return, ast.Raise)


def _held_constants(root) -> dict:
    """{id of a fusable test: the int its walrus name holds whenever the
    test runs}.  The test is an ``if`` directly in a loop's body; the
    loop directly follows ``name = C`` in its block, with C an int
    literal of -1, 0 or 1; and nothing in the loop but the test binds or
    deletes ``name``, which no ``global`` or ``nonlocal`` under ``root``
    names.  The name then holds C at every
    test that one of the test's own arms did not leave the loop after.
    Only statement blocks are walked, and every node of a loop only when
    it is a candidate, which keeps the pass cheap at a compile.
    """
    shared = set()
    found = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.__class__ in (ast.Global, ast.Nonlocal):
            shared.update(node.names)
        for field in _BLOCKS:
            block = getattr(node, field, None)
            if block.__class__ is not list:
                continue
            stack.extend(block)
            for prev, loop in zip(block, block[1:]):
                if loop.__class__ is ast.For or loop.__class__ is ast.While:
                    name, value = _int_assign(prev)
                    if value in _VALUES:
                        found.append((loop, name, value))
    held = {}
    for loop, name, value in found:
        for stmt in loop.body:
            test = _fusable_test(stmt)
            if test is not None and test[0] == name:
                if name not in shared and _binds(loop, name) == 1:
                    held[id(stmt)] = value
                break
    return held


def _int_assign(stmt):
    """(name, C) when ``stmt`` is ``name = C`` with C an int literal,
    else (None, None)."""
    if stmt.__class__ is not ast.Assign or len(stmt.targets) != 1 or \
            stmt.targets[0].__class__ is not ast.Name:
        return None, None
    value = stmt.value
    sign = 1
    if value.__class__ is ast.UnaryOp and value.op.__class__ is ast.USub:
        value = value.operand
        sign = -1
    if value.__class__ is not ast.Constant or value.value.__class__ is not int:
        return None, None
    return stmt.targets[0].id, sign * value.value


def _binds(tree, name) -> int:
    """How many nodes under ``tree`` bind or delete ``name``."""
    n = 0
    for node in ast.walk(tree):
        k = node.__class__
        if k is ast.Name:
            n += node.id == name and node.ctx.__class__ is not ast.Load
        elif k in (ast.ExceptHandler, ast.MatchAs, ast.MatchStar):
            n += node.name == name
        elif k is ast.MatchMapping:
            n += node.rest == name
        elif k is ast.alias:
            n += (node.asname or node.name) == name
        elif k in (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef):
            n += node.name == name
    return n


def _held_outcome(held, folds):
    """The outcome whose store of the name can go: the one whose value
    ``held`` is, when every other outcome's folded arm leaves the loop;
    None if there is none."""
    if held is None:
        return None
    k = _VALUES.index(held)
    for j, (arm, _) in enumerate(folds):
        if j != k and not _leaves(arm):
            return None
    return k


def _leaves(arm) -> bool:
    """Whether every way through ``arm`` leaves the loop: it ends in a
    ``break``, ``return`` or ``raise`` and holds no ``continue``."""
    return (bool(arm) and arm[-1].__class__ in _LEAVE
            and not any(n.__class__ is ast.Continue
                        for stmt in arm for n in ast.walk(stmt)))


# the comparison that picks outcome k (x < y, x > y, x == y)
_PICKS = (ast.Lt, ast.Gt, ast.Eq)


def _first_outcome(name, outcomes, folds, skip) -> int:
    """The outcome the total-order body tests first.  With no ``name``,
    the outcome whose arm the other two do not share, so that one
    comparison decides the test; else ``skip``, the held outcome, when
    there is one; else the only outcome whose folded arm does not leave
    the loop; else -1's (0)."""
    if name is None:
        return next(k for k, t in enumerate(outcomes)
                    if outcomes.count(t) == 1)
    if skip is not None:
        return skip
    stays = [k for k, (arm, _) in enumerate(folds) if not _leaves(arm)]
    return stays[0] if len(stays) == 1 else 0


def _branches(name, call, outcomes, true_arm, false_arm, loc,
              held=None, total=False):
    """``if x < y: [name = -1] ARM(-1)`` followed by, when 1 and 0 share
    an arm, ``else: [name = 1 if x > y else 0] ARM(1)``, and otherwise
    ``elif x > y: [name = 1] ARM(1) else: [name = 0] ARM(0)``.  Each arm
    is folded (:func:`_fold`) on the value it assigns ``name``; a shared
    arm of 1 and 0 that folds differently for them is split.  An arm
    that an earlier branch takes too is deep-copied.  ``held`` is the
    value ``name`` holds when the test runs (:func:`_held_constants`),
    or None; the store of that value is dropped when
    :func:`_held_outcome` allows it.  With no ``name``, a shared arm of
    1 and 0 is copied into ``elif x > y:`` and ``else:``, and an empty
    one is ``not x > y`` with its result dropped, so no ``pass`` runs a
    ``NOP`` there.

    ``total`` compiles for operands in a total order: the first test
    picks the outcome :func:`_first_outcome` names, by ``x < y``, ``x >
    y`` or ``x == y``, and the other two follow in the order above, the
    first of them picked by its own comparison.  Two outcomes that share
    an arm and assign no name are not told apart, so a test with no
    name makes one comparison."""
    x, xs = _operand(call.args[0], _TMP_X, loc)
    y, ys = _operand(call.args[1], _TMP_Y, loc)
    arms = [true_arm if t else false_arm for t in outcomes]
    folds = [_fold(a, name, k) for k, a in enumerate(arms)]
    skip = _held_outcome(held, folds)
    first = _first_outcome(name, outcomes, folds, skip) if total else 0
    g, h = [k for k in range(3) if k != first]
    shared = arms[g] is arms[h] and folds[g][1] == folds[h][1]
    taken = []

    def arm(k):
        body = folds[k][0]
        if any(arms[k] is arms[j] for j in taken):
            body = copy.deepcopy(body)
        taken.append(k)
        return body

    def set_name(value, k):
        # k is the outcome that stores value; None for a shared arm,
        # whose store picks either value and so always stays
        if name is None or (k is not None and k == skip):
            return []
        return [ast.Assign([ast.Name(name, ast.Store(), **loc)], value,
                           **loc)]

    def const(k):
        return ast.Constant(_VALUES[k], **loc)

    head = set_name(const(first), first) + arm(first) or [ast.Pass(**loc)]
    pick = ast.Compare(x, [_PICKS[g]()], [y], **loc)
    if shared and name is not None:
        others = set_name(ast.IfExp(pick, const(g), const(h), **loc), None)
        others += arm(g)
    elif shared and total:
        others = arm(g)
    elif shared:
        # the > result is truth-tested as _default_cmp3 does: the arm is
        # copied into both branches, and an empty one is a not whose
        # result is dropped, since a pass would run a NOP
        body = arm(g)
        others = ([ast.If(pick, body, arm(h), **loc)] if body else
                  [ast.Expr(ast.UnaryOp(ast.Not(), pick, **loc), **loc)])
    else:
        others = [ast.If(pick, set_name(const(g), g) + arm(g) or
                         [ast.Pass(**loc)],
                         set_name(const(h), h) + arm(h), **loc)]
    return ast.If(ast.Compare(xs, [_PICKS[first]()], [ys], **loc), head,
                  others, **loc)


# statements after which the rest of their block never runs
_TERMINAL = (ast.Break, ast.Continue, ast.Return, ast.Raise)


def _fold(arm, name, k):
    """(arm, choices): ``arm`` with each test ``if <name> OP 0:`` that
    opens it replaced by the branch taken when ``name`` holds the value
    of outcome ``k`` (0: -1, 1: 1, 2: 0), and the truth of each test
    folded; nothing is folded when ``name`` is None.  The statements
    after a branch that ends in a ``break``, ``continue``, ``return``
    or ``raise`` are dropped."""
    choices = []
    while arm and arm[0].__class__ is ast.If:
        stmt = arm[0]
        left, op = _against_zero(stmt.test)
        if left.__class__ is not ast.Name or left.id != name:
            break
        truth = _OUTCOMES[op][k]
        choices.append(truth)
        taken = stmt.body if truth else stmt.orelse
        if taken and taken[-1].__class__ in _TERMINAL:
            arm = taken
        else:
            arm = taken + arm[1:]
    return arm, choices


def _inline_expr(call: ast.Call) -> ast.IfExp:
    """``-1 if (t := x) < (u := y) else (1 if t > u else 0)`` for
    ``cmp3(x, y)``; an operand that is a plain name is used as it is."""
    loc = _loc(call)
    x, xs = _operand(call.args[0], _TMP_X, loc)
    y, ys = _operand(call.args[1], _TMP_Y, loc)
    above = ast.IfExp(
        ast.Compare(x, [ast.Gt()], [y], **loc),
        ast.Constant(1, **loc), ast.Constant(0, **loc), **loc)
    return ast.IfExp(
        ast.Compare(xs, [ast.Lt()], [ys], **loc),
        ast.Constant(-1, **loc), above, **loc)


def _operand(node, tmp: str, loc: dict):
    """(later load, first evaluation) of one comparison operand."""
    if isinstance(node, ast.Name):
        return ast.Name(node.id, ast.Load(), **loc), node
    return (ast.Name(tmp, ast.Load(), **loc),
            ast.NamedExpr(ast.Name(tmp, ast.Store(), **loc), node, **loc))
