"""The default comparator compares inline; any other runs as given.

With ``cmp=None`` the hot functions run the variant that
``tsqsort.inline.compare_inline`` compiled from their source, in which
every ``cmp3(x, y)`` call is an inline rich comparison.  A comparator
that is any other object, even a lambda that only calls
``_default_cmp3``, runs the original code.  The two paths must make the
same rich comparisons in the same order, so outputs, counters and
tracebacks agree.
"""

import inspect
import linecache
import os
import random
import subprocess
import sys
import textwrap
import traceback
from pathlib import Path

import pytest

import tsqsort
from tsqsort import (SortConfig, Sorter, baselines, core, generate, pivot,
                     smallsort)
from tsqsort.baselines import REGISTRY, fixed_pivot_qsort
from tsqsort.core import CT_LEN
from tsqsort.handlers import handle_possibly_reversed, handle_possibly_sorted
from tsqsort.inline import _default_cmp3, compare_inline

import conftest
from test_golden_counts import CASES

PACKAGE_DIR = Path(tsqsort.__file__).resolve().parent


# a distinct comparator object: it forces the original code path
def generic(x, y):
    return _default_cmp3(x, y)


ALGORITHMS = dict(
    REGISTRY,
    # the budget keeps the quadratic target short on presorted inputs;
    # an aborted run must still agree between the paths
    fixedpivot=lambda ar, cmp=None, seed=1: fixed_pivot_qsort(
        ar, cmp, comparison_budget=300_000),
    lowcut=lambda ar, cmp=None, seed=1: Sorter(
        SortConfig(insertion_threshold=3), seed=seed).sort_with_stats(ar, cmp),
)

INLINED = (core._run_machine, core._sorted_handler, core._reversed_handler,
           pivot.median_of_3, pivot.median_of_5, smallsort.insertion_sort)
BASELINES = (baselines.classic_qsort, baselines.fixed_pivot_qsort,
             baselines.three_way_qsort, baselines.dual_pivot_qsort)


def run(algo, data, cmp):
    ar = list(data)
    st = algo(ar, cmp, seed=7)
    return ar, vars(st)


@pytest.mark.parametrize("case", sorted(CASES))
def test_default_and_generic_paths_agree(case):
    data = generate(CASES[case])
    for name, algo in ALGORITHMS.items():
        assert run(algo, data, None) == run(algo, data, generic), name


def handled(ar, pivot_value, cmp, reversed_):
    ct = [0] * CT_LEN
    handle = handle_possibly_reversed if reversed_ else handle_possibly_sorted
    out = handle(ar, 0, len(ar) - 1, pivot_value, cmp, ct=ct, finish=True)
    return (ar, out.kind, out.new_l, out.new_r, out.resume_point, ct,
            out.resume)


def test_contract_entry_points_agree():
    # both public handlers, each fallback run to the end of the stage
    rnd = random.Random(11)
    for trial in range(300):
        n = rnd.randint(5, 60)
        span = rnd.choice([3, 20, 1000])
        data = [rnd.randint(0, span) for _ in range(n)]
        shape = trial % 3
        if shape == 1:
            data.sort()
        elif shape == 2:
            data.sort(reverse=True)
        pv = data[(n - 1) >> 1]
        for reversed_ in (False, True):
            assert handled(list(data), pv, None, reversed_) == \
                handled(list(data), pv, generic, reversed_), trial


class Recorded:
    """An element whose rich comparisons append (op, a, b) to ``log``."""

    __slots__ = ("v",)
    log = []
    n_lt = 0
    raise_at = 0  # raise ValueError from the k-th __lt__ call; 0 = never

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        self.log.append(("<", self.v, other.v))
        Recorded.n_lt += 1
        if Recorded.n_lt == Recorded.raise_at:
            raise ValueError("comparison refused")
        return self.v < other.v

    def __gt__(self, other):
        self.log.append((">", self.v, other.v))
        return self.v > other.v

    def __le__(self, other):
        self.log.append(("<=", self.v, other.v))
        return self.v <= other.v

    def __ge__(self, other):
        self.log.append((">=", self.v, other.v))
        return self.v >= other.v

    def __eq__(self, other):
        self.log.append(("==", self.v, other.v))
        return self.v == other.v

    __hash__ = None


def recorded_run(algo, values, cmp):
    Recorded.log = []
    Recorded.n_lt = 0
    ar = [Recorded(v) for v in values]
    algo(ar, cmp)
    return [x.v for x in ar], Recorded.log


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_recorded_comparisons_are_identical(name):
    rnd = random.Random(2)
    values = [rnd.randrange(20) for _ in range(300)]
    out, log = recorded_run(ALGORITHMS[name], values, None)
    assert out == sorted(values)
    assert (out, log) == recorded_run(ALGORITHMS[name], values, generic)
    assert {op for op, _, _ in log} <= {"<", ">"}


def innermost_package_frame(algo, values, cmp, k):
    Recorded.raise_at = k
    try:
        with pytest.raises(ValueError, match="comparison refused") as info:
            recorded_run(algo, values, cmp)
    finally:
        Recorded.raise_at = 0
    frames = [f for f in traceback.extract_tb(info.value.__traceback__)
              if PACKAGE_DIR in Path(f.filename).resolve().parents]
    return frames[-1]


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_raising_element_points_at_the_cmp3_line(name):
    algo = ALGORITHMS[name]
    rnd = random.Random(3)
    seen = set()
    for span in (20, 1000):
        values = [rnd.randrange(span) for _ in range(300)]
        _, log = recorded_run(algo, values, None)
        n_lt = sum(1 for op, _, _ in log if op == "<")
        for k in range(1, n_lt + 1, max(1, n_lt // 80)):
            # conftest.cmp3 is a comparator outside the package, so on
            # the original path the innermost package frame is the call
            # site too
            inline_frame = innermost_package_frame(algo, values, None, k)
            generic_frame = innermost_package_frame(algo, values,
                                                    conftest.cmp3, k)
            assert "cmp3(" in inline_frame.line, (k, inline_frame)
            assert (inline_frame.filename, inline_frame.lineno,
                    inline_frame.name) == \
                (generic_frame.filename, generic_frame.lineno,
                 generic_frame.name), k
            seen.add(inline_frame.name)
    if name in ("tristate", "lowcut"):
        assert {"_run_machine", "_sorted_handler", "median_of_3",
                "median_of_5", "insertion_sort"} <= seen, seen


def count_default_calls(fn):
    """Run ``fn()`` and count the Python calls of ``_default_cmp3``."""
    code = _default_cmp3.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def coverage_inputs():
    rnd = random.Random(4)
    n = 20_000
    return {"random": [rnd.randrange(2**31) for _ in range(n)],
            "dups": [rnd.randrange(100) for _ in range(n)],
            "sorted": list(range(n)),
            "reversed": list(range(n, 0, -1))}


def test_default_comparator_is_never_called():
    inputs = coverage_inputs()

    def sorts():
        for data in inputs.values():
            for config in (None, SortConfig(insertion_threshold=3)):
                Sorter(config, seed=5).sort(list(data))
            for name, algo in ALGORITHMS.items():
                if name != "fixedpivot":
                    algo(list(data[:5000]))
        fixed_pivot_qsort(list(inputs["random"][:5000]))

    assert count_default_calls(sorts) == 0
    # the probe sees the calls the original path makes
    assert count_default_calls(
        lambda: Sorter(seed=5).sort(list(inputs["dups"][:500]), generic)) > 0


@pytest.mark.parametrize("fn", INLINED + BASELINES,
                         ids=lambda fn: fn.__name__)
def test_compiled_variant_keeps_name_and_signature(fn):
    original = fn.__wrapped__
    assert (fn.__name__, fn.__qualname__, fn.__module__, fn.__doc__) == \
        (original.__name__, original.__qualname__, original.__module__,
         original.__doc__)
    # the compiled variant carries the signature itself
    assert inspect.signature(fn, follow_wrapped=False) == \
        inspect.signature(original)
    assert getattr(inspect.getmodule(fn), fn.__name__) is fn


def no_compare(ar, cmp3):
    return ar


def star_args(cmp3, *pair):
    return cmp3(pair[0], pair[1])


def test_compare_inline_rejects_what_it_cannot_compile():
    def nested(ar, cmp3):
        return cmp3(ar[0], ar[1])

    with pytest.raises(ValueError, match="has no cmp3"):
        compare_inline()(no_compare)
    with pytest.raises(ValueError, match="is not a top-level def"):
        compare_inline()(nested)
    with pytest.raises(ValueError, match=r"takes \*args"):
        compare_inline()(star_args)


def tail_bracket(cmp3, x, y):
    return cmp3(
        x,
        y,
    )


def test_compare_inline_reads_the_bracket_lines_after_the_last_code():
    # the closing bracket holds no bytecode, so the source span has to
    # be completed from the parse
    from tsqsort.inline import _last_code_line
    code = tail_bracket.__code__
    assert _last_code_line(code) < code.co_firstlineno + 4
    compiled = compare_inline()(tail_bracket)
    assert compiled is not tail_bracket
    for x, y in ((1, 2), (2, 2), (3, 2)):
        assert compiled(_default_cmp3, x, y) == tail_bracket(generic, x, y)


@pytest.mark.parametrize("lines", [[], ["x = 1\n"] * 400,
                                   ["def tail_bracket(\n"] * 400],
                         ids=["no source", "other source", "broken source"])
def test_compare_inline_without_the_source_keeps_the_function(monkeypatch,
                                                               lines):
    monkeypatch.setattr(linecache, "getlines", lambda *args: lines)
    assert compare_inline()(tail_bracket) is tail_bracket


def test_sorts_compile_nothing():
    # after inline.compile_all() every body is compiled, so a timed
    # first call of any algorithm pays for no parse or compile
    script = textwrap.dedent("""
        import ast, builtins, random
        from tsqsort import inline
        from tsqsort.baselines import REGISTRY

        inline.compile_all()

        def refuse(*args, **kwargs):
            raise AssertionError("compiled during a sort")

        data = [random.Random(1).randrange(50) for _ in range(2000)]
        ast.parse = builtins.compile = builtins.exec = refuse
        for name, algo in REGISTRY.items():
            ar = list(data)
            algo(ar)
            assert ar == sorted(data), name
    """)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    subprocess.run([sys.executable, "-c", script], check=True, env=env)
