"""The default comparator, and hot functions that compare inline with it.

``_default_cmp3`` is the three-way comparator every entry point uses
when none is given.  Calling it costs a Python call per comparison, so
the hot functions are decorated with :func:`compare_inline`.  At import
the decorator compiles, from the function's own source lines, a variant
in which each ``cmp3(x, y)`` call is the expression
``-1 if x < y else (1 if x > y else 0)``: it runs ``<`` and then ``>``
on the same operands in the same order as ``_default_cmp3``, so every
rich comparison, count and result is the same on either path.  The
variant keeps the source line numbers, so a traceback from an element's
``__lt__`` points at the real ``cmp3(`` line.

The compiled function keeps the original's name and signature.  It runs
the inline body when the comparator is the default one and otherwise
hands the call, unchanged, to the original function, which calls the
comparator as given.  Where the source lines cannot be had (a
sourceless install) or do not hold the function's def, the decorator
returns the original function, which is correct with any comparator.
"""

from __future__ import annotations

import __future__
import ast
import linecache
import re
from bisect import bisect_left
from types import CodeType

# the comparator name the transformer inlines
CALLEE = "cmp3"
# operand temporaries and closure names of the compiled variant
_TMP_X = "_cmp3_x"
_TMP_Y = "_cmp3_y"
_GENERIC = "_cmp3_generic"
_DEFAULT = "_cmp3_default"
_RESERVED = (_TMP_X, _TMP_Y, _GENERIC, _DEFAULT)
# where a call of the comparator may start in the source text
_CALL_TEXT = re.compile(rf"\b{CALLEE}\s*\(")


def _default_cmp3(x, y) -> int:
    if x < y:
        return -1
    if x > y:
        return 1
    return 0


def compare_inline(param: str = CALLEE):
    """Decorator: compile a variant of a top-level function in which
    every ``cmp3(x, y)`` call compares inline.

    ``param`` names the parameter that carries the comparator.  When it
    is ``cmp3`` itself, the inline body runs iff it is ``_default_cmp3``;
    any other parameter follows the public ``cmp`` convention, where
    ``None`` also means the default comparator.
    """
    def decorate(fn):
        return _compile_variant(fn, param)
    return decorate


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


def _compile_variant(fn, param: str):
    if fn.__qualname__ != fn.__name__:
        raise ValueError(f"{fn.__qualname__} is not a top-level def")
    code = fn.__code__
    lines = linecache.getlines(code.co_filename, fn.__globals__)
    tree, src = _parse_def(lines, code.co_firstlineno, _last_code_line(code))
    if tree is None or len(tree.body) != 1:
        return fn
    fdef = tree.body[0]
    if not isinstance(fdef, ast.FunctionDef) or fdef.name != fn.__name__:
        return fn
    for name in _RESERVED:
        if name in src:
            raise ValueError(f"{fn.__qualname__} uses reserved name {name}")
    fdef.decorator_list = []
    if _inline_calls(fdef, _call_lines(src, code.co_firstlineno)) == 0:
        raise ValueError(f"{fn.__qualname__} has no {CALLEE}(x, y) call")
    fdef.body.insert(0, _dispatch(fdef, param))

    # def _make(generic, default): <fdef>; return <fdef.name>
    loc = _loc(fdef)
    make = ast.FunctionDef(
        name="_make",
        args=ast.arguments(
            posonlyargs=[], args=[ast.arg(_GENERIC, **loc),
                                  ast.arg(_DEFAULT, **loc)],
            kwonlyargs=[], kw_defaults=[], defaults=[]),
        body=[fdef, ast.Return(ast.Name(fdef.name, ast.Load(), **loc),
                               **loc)],
        decorator_list=[], **loc)
    tree.body = [make]
    ns = {}
    exec(compile(tree, code.co_filename, "exec", dont_inherit=True,
                 flags=__future__.annotations.compiler_flag),
         fn.__globals__, ns)
    new = ns["_make"](fn, _default_cmp3)
    new.__defaults__ = fn.__defaults__
    new.__qualname__ = fn.__qualname__
    new.__doc__ = fn.__doc__
    new.__wrapped__ = fn
    return new


def _loc(node) -> dict:
    return {"lineno": node.lineno, "col_offset": node.col_offset,
            "end_lineno": node.end_lineno,
            "end_col_offset": node.end_col_offset}


def _dispatch(fdef: ast.FunctionDef, param: str) -> ast.If:
    """``if <param> is not default: return generic(<all parameters>)``"""
    a = fdef.args
    if a.vararg or a.kwonlyargs or a.kwarg:
        raise ValueError(f"{fdef.name} takes *args, keyword-only or "
                         "**kwargs parameters")
    loc = _loc(fdef)

    def name(n):
        return ast.Name(n, ast.Load(), **loc)

    test = ast.Compare(name(param), [ast.IsNot()], [name(_DEFAULT)], **loc)
    if param != CALLEE:
        test = ast.BoolOp(ast.And(), [
            ast.Compare(name(param), [ast.IsNot()],
                        [ast.Constant(None, **loc)], **loc),
            test], **loc)
    call = ast.Call(name(_GENERIC),
                    [name(x.arg) for x in a.posonlyargs + a.args], [], **loc)
    return ast.If(test, [ast.Return(call, **loc)], [], **loc)


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


def _inline_calls(root, call_lines: list) -> int:
    """Replace every ``cmp3(x, y)`` call under ``root`` in place; returns
    how many.  ``call_lines`` lists the lines on which a ``cmp3(`` starts
    (:func:`_call_lines`); a statement spanning none of them is not
    walked.  An explicit-stack walk: ``ast.NodeTransformer`` costs
    about five times as much, which shows in the import time."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        for field in node._fields:
            v = getattr(node, field, None)
            if v.__class__ is list:
                for i, c in enumerate(v):
                    if isinstance(c, ast.stmt):
                        if _holds_call(c, call_lines):
                            stack.append(c)
                    elif (isinstance(c, ast.AST)
                          and not isinstance(c, _LEAVES)):
                        if _is_cmp3_call(c):
                            c = v[i] = _inline_expr(c)
                            count += 1
                        stack.append(c)
            elif isinstance(v, ast.AST) and not isinstance(v, _LEAVES):
                if _is_cmp3_call(v):
                    v = _inline_expr(v)
                    setattr(node, field, v)
                    count += 1
                stack.append(v)
    return count


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
