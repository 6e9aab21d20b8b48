"""Compile on first use.

``compare_inline`` compiles nothing at import: each decorated function
holds a trampoline until its first call, and each call of a kind not
seen before compiles its body, the total-order body, the inline body or
the generic path, into the function's code.  Each test runs a fresh
interpreter, since the test session's functions are compiled already.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Sorts in order, each reporting the bodies every decorated function
# holds after it, the decorated functions it called, its output and
# its SortStats; with "eager", inline.compile_all() runs first.  The
# second int sort's opcodes are counted with a local sys.settrace.
SORTS = textwrap.dedent("""
    import gc, json, random, sys
    import tsqsort
    from tsqsort import inline

    def bodies():
        return {k: sorted(v) for k, v in inline.compiled().items()}

    imported = bodies()
    trampolines = sorted(f"{r.fn.__module__}.{r.fn.__qualname__}"
                         for r in inline._REGISTRY.values()
                         if r.new.__code__ is inline._TRAMPOLINE)
    if sys.argv[1] == "eager":
        inline.compile_all()

    rnd = random.Random(5)
    ints = [rnd.randrange(10**6) for _ in range(3000)]
    floats = [x + 0.5 for x in ints]

    def cheap(x, y):
        return (x > y) - (x < y)

    def opcodes(fn):
        total = 0

        def count(frame, event, arg):
            nonlocal total
            frame.f_trace_opcodes = True
            if event == "opcode":
                total += 1
            return count

        gc.disable()
        sys.settrace(count)
        try:
            fn()
        finally:
            sys.settrace(None)
            gc.enable()
        return total

    def run(data, cmp=None):
        names = {k.rpartition(".")[2]: k for k in inline.compiled()}
        called = set()

        def seen(frame, event, arg):
            if event == "call":
                # a compiled body's code is made in inline's _make
                name = frame.f_code.co_qualname.rpartition(".")[2]
                if name in names:
                    called.add(names[name])

        ar = list(data)
        sys.setprofile(seen)
        try:
            stats = tsqsort.Sorter(seed=3).sort_with_stats(ar, cmp)
        finally:
            sys.setprofile(None)
        return {"bodies": bodies(), "called": sorted(called),
                "sorted": ar == sorted(data), "output": ar[:50],
                "stats": repr(stats)}

    def second(data):
        ar = list(data)
        sorter = tsqsort.Sorter(seed=3)
        return opcodes(lambda: sorter.sort_with_stats(ar))

    out = {"imported": imported, "trampolines": trampolines,
           "ints": run(ints), "second_ints": second(ints),
           "floats": run(floats), "cmp": run(ints, cheap)}
    print(json.dumps(out))
""")


def run_sorts(mode):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SORTS, mode], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return json.loads(proc.stdout)


def test_each_sort_compiles_only_the_bodies_it_runs():
    lazy = run_sorts("lazy")
    names = set(lazy["imported"])
    baselines = {k for k in names if k.startswith("tsqsort.baselines.")}
    assert len(names) == 10 and len(baselines) == 4
    # the import compiles nothing: every function holds the trampoline
    assert all(v == [] for v in lazy["imported"].values())
    assert set(lazy["trampolines"]) == names

    # a default int sort compiles the total-order body of each function
    # it calls and nothing else, no baseline included
    ints = lazy["ints"]
    assert ints["sorted"]
    assert {"tsqsort.core._run_machine",
            "tsqsort.smallsort.insertion_sort"} <= set(ints["called"])
    assert not baselines & set(ints["called"])
    for name, bodies in ints["bodies"].items():
        assert bodies == (["total"] if name in ints["called"] else []), name

    # a float sort adds the inline body of each function it calls
    floats = lazy["floats"]
    assert floats["sorted"]
    for name, bodies in floats["bodies"].items():
        added = set(bodies) - set(ints["bodies"][name])
        assert added == ({"inline"} if name in floats["called"] else set())

    # a sort with a Python cmp adds neither: only the generic path
    cmp = lazy["cmp"]
    assert cmp["sorted"]
    for name, bodies in cmp["bodies"].items():
        added = set(bodies) - set(floats["bodies"][name])
        assert added <= {"generic"}, name
        assert added or name not in cmp["called"], name

    # every output and SortStats is that of a run with every body
    # compiled first, and so is every opcode of the second int sort
    eager = run_sorts("eager")
    assert all(set(v) == {"generic", "inline", "total"}
               for v in eager["cmp"]["bodies"].values())
    for sort in ("ints", "floats", "cmp"):
        assert lazy[sort]["output"] == eager[sort]["output"], sort
        assert lazy[sort]["stats"] == eager[sort]["stats"], sort
    assert lazy["second_ints"] == eager["second_ints"]


def test_predict_compiles_nothing():
    code = ("import sys\n"
            "from tsqsort import inline\n"
            "from tsqsort.cli import main\n"
            "assert main(['predict', '100', '1000']) == 0\n"
            "print(sorted({b for v in inline.compiled().values() "
            "for b in v}))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout.splitlines()
    assert out[0].startswith("n,comparisons_classic")
    assert out[-1] == "[]"


def test_a_bench_grid_compiles_every_body_before_its_first_timed_call():
    code = ("from tsqsort import inline\n"
            "from tsqsort.bench import GridSpec, run_grid\n"
            "grid = GridSpec(algos=('tristate',), sizes=(50,))\n"
            "rows = run_grid(grid)\n"
            "before = sum(map(len, inline.compiled().values()))\n"
            "next(rows)\n"
            "print(before, all(v == inline.BODIES\n"
            "                  for v in inline.compiled().values()))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    assert out.split() == ["0", "True"]


# Four sorts, one of each kind of body, started at once on four threads
# with "race" or one after another otherwise; prints their outputs and
# SortStats in order.
RACE = textwrap.dedent("""
    import random, sys, threading
    import tsqsort

    rnd = random.Random(9)
    ints = [rnd.randrange(1000) for _ in range(4000)]
    jobs = [(ints, None), ([x + 0.5 for x in ints], None),
            ([f"{x:04d}" for x in ints], None),
            (ints, lambda x, y: (x > y) - (x < y))]
    results = [None] * len(jobs)

    def sort(i, start=None):
        data, cmp = jobs[i]
        ar = list(data)
        sorter = tsqsort.Sorter(seed=11)
        if start is not None:
            start.wait()
        stats = sorter.sort_with_stats(ar, cmp)
        results[i] = (ar == sorted(data), ar[:20], repr(stats))

    if sys.argv[1] == "race":
        sys.setswitchinterval(1e-5)
        start = threading.Barrier(len(jobs))
        threads = [threading.Thread(target=sort, args=(i, start))
                   for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
    else:
        for i in range(len(jobs)):
            sort(i)
    for r in results:
        print(r)
""")


def test_first_calls_racing_on_four_threads_sort_as_one_thread_does():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    race, alone = (subprocess.run([sys.executable, "-c", RACE, mode],
                                  env=env, capture_output=True, text=True,
                                  check=True, timeout=120).stdout
                   for mode in ("race", "alone"))
    assert race == alone
    assert race.count("(True, ") == 4
