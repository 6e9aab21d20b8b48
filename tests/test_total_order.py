"""The total-order body: selected by the input, invisible in every count.

``Sorter.sort_with_stats`` passes ``_total_cmp3`` down instead of the
default comparator when ``cmp`` is None (or the default comparator), the
sequence is a list, and its elements are all exact ints or all exact
strs; the compiled functions then run their total-order body, which
makes fewer rich comparisons.  These tests check which comparator
object each layer of ``tsqsort.core`` receives for each kind of input,
that outputs, ``SortStats`` and ``StageRecord`` streams equal those of a
comparator outside the package, and that the compiled rules (one
comparison for a test that assigns no name; the outcome that stays in
the loop tested first) make the same decisions as the value form, with
one comparison for each step of a loop that goes on.
"""

import array
import copy
import inspect
import random

import pytest

from tsqsort import GenSpec, SortConfig, Sorter, baselines, core, generate
from tsqsort.baselines import REGISTRY
from tsqsort.bench import BATTERY_REORDERS
from tsqsort.datagen import DISTRIBUTIONS
from tsqsort.inline import _default_cmp3, _total_cmp3, _total_order

import conftest
from test_inline_fuse import CONST_FUNCS, FUNCS, generic, inputs

#: the tsqsort.core globals Sorter._range calls, as perfbench wraps them
LAYERS = ("_run_machine", "_sorted_handler", "_reversed_handler",
          "select_pivot", "insertion_sort")


def seen_comparators(monkeypatch, module, names):
    """Wrap ``module``'s functions ``names``; returns the set the
    comparator argument of every call is added to."""
    seen = set()
    for attr in names:
        fn = getattr(module, attr)
        pos = list(inspect.signature(fn).parameters).index("cmp3")

        def wrapped(*args, fn=fn, pos=pos):
            seen.add(args[pos])
            return fn(*args)

        monkeypatch.setattr(module, attr, wrapped)
    return seen


class SubInt(int):
    pass


class SubList(list):
    pass


def values(n=300):
    rnd = random.Random(8)
    return [rnd.randrange(50) for _ in range(n)]


# name -> (input, comparator every layer must receive)
SELECTION = {
    "int": (values(), _total_cmp3),
    "str": ([f"{v:03d}" for v in values()], _total_cmp3),
    "big int": ([v << 70 for v in values()], _total_cmp3),
    "bool": ([bool(v % 2) for v in values()], _default_cmp3),
    "int subclass": ([SubInt(v) for v in values()], _default_cmp3),
    "float": ([v + 0.5 for v in values()], _default_cmp3),
    "int and float": (values()[:-1] + [1.5], _default_cmp3),
    "array": (array.array("q", values()), _default_cmp3),
    "list subclass": (SubList(values()), _default_cmp3),
}


@pytest.mark.parametrize("name", sorted(SELECTION))
def test_layers_receive_the_comparator_the_input_selects(monkeypatch, name):
    data, want = SELECTION[name]
    seen = seen_comparators(monkeypatch, core, LAYERS)
    ar = copy.copy(data)
    Sorter(SortConfig(insertion_threshold=3), seed=1).sort(ar)
    assert list(ar) == sorted(data)
    assert seen == {want}


def test_explicit_default_comparator_selects_the_total_order_body(
        monkeypatch):
    seen = seen_comparators(monkeypatch, core, LAYERS)
    Sorter(seed=1).sort(values(), _default_cmp3)
    assert seen == {_total_cmp3}


def test_other_comparators_reach_the_layers_as_given(monkeypatch):
    seen = seen_comparators(monkeypatch, core, LAYERS)
    Sorter(seed=1).sort(values(), conftest.cmp3)
    assert seen == {conftest.cmp3}


def test_mixed_int_and_str_takes_the_default_body(monkeypatch):
    seen = seen_comparators(monkeypatch, core, LAYERS)
    with pytest.raises(TypeError):
        Sorter(seed=1).sort([3, "a"] * 50)
    assert seen == {_default_cmp3}


@pytest.mark.parametrize("data", ([], [5], ["a"]), ids=repr)
def test_one_element_or_none_calls_no_layer(monkeypatch, data):
    seen = seen_comparators(monkeypatch, core, LAYERS)
    ar = list(data)
    stats = Sorter(seed=1).sort_with_stats(ar)
    assert ar == data and stats.comparisons == 0
    assert seen == set()


@pytest.mark.parametrize("algo", ("classic", "dualpivot"))
def test_baselines_select_the_same_body(monkeypatch, algo):
    # classic and dual-pivot hand their leaves to insertion_sort with
    # the comparator the input selected
    seen = seen_comparators(monkeypatch, baselines, ("insertion_sort",))
    for name in ("int", "str", "float", "int subclass", "list subclass"):
        data, want = SELECTION[name]
        seen.clear()
        ar = copy.copy(data)
        REGISTRY[algo](ar)
        assert list(ar) == sorted(data), name
        assert seen == {want}, name


def test_total_order_accepts_exact_ints_or_exact_strs_only():
    assert _total_order([1, 2**100, -3]) and _total_order(["b", "a"])
    for seq in ([], [1, "a"], [1, 2.0], [True, False], [1, True],
                [SubInt(1)], SubList([1, 2]), (1, 2), array.array("q", [1])):
        assert not _total_order(seq), seq
    assert _total_cmp3 is not _default_cmp3
    for x, y in ((1, 2), (2, 2), (3, 2), ("b", "a")):
        assert _total_cmp3(x, y) == _default_cmp3(x, y)


# --- outputs, counts and stage records against an outside comparator ---

THRESHOLDS = (3, 7, 16)
TOLERANCES = (0, 1, 3, 8)


def battery(n):
    return [generate(GenSpec(distribution=dist, reorder=kind, n=n,
                             arange=arange, seed=23))
            for dist in DISTRIBUTIONS for kind in BATTERY_REORDERS
            for arange in (n, 7)]


def run(data, config, cmp):
    """(output, vars of SortStats, StageRecord stream) of one sort."""
    sorter = Sorter(config, seed=5)
    records = []
    sorter.stage_hook = records.append
    ar = list(data)
    stats = sorter.sort_with_stats(ar, cmp)
    return ar, vars(stats), records


@pytest.mark.parametrize("n", (100, 2000))
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("tolerance", TOLERANCES)
def test_battery_matches_an_outside_comparator(n, threshold, tolerance):
    config = SortConfig(insertion_threshold=threshold,
                        reverse_tolerance=tolerance)
    for i, data in enumerate(battery(n)):
        got = run(data, config, None)
        assert got == run(data, config, conftest.cmp3), (n, i)
        assert got[0] == sorted(data)


def strings(n, seed):
    rnd = random.Random(seed)
    pool = "abcdefgh"
    return [
        # 8-char strings, a few distinct keys, shared prefixes, ordered
        ["".join(rnd.choice(pool) for _ in range(8)) for _ in range(n)],
        [rnd.choice(("x", "xy", "xyz", "")) for _ in range(n)],
        [f"key{rnd.randrange(n):06d}" for _ in range(n)],
        sorted(f"{v:08x}" for v in range(0, 97 * n, 97)),
        sorted((f"{v:08x}" for v in range(0, 97 * n, 97)), reverse=True),
        ["é" * (v % 5) + "a" for v in range(n)],
    ]


@pytest.mark.parametrize("n", (100, 2000))
@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_strings_match_an_outside_comparator(n, threshold):
    for tolerance in (0, 8):
        config = SortConfig(insertion_threshold=threshold,
                            reverse_tolerance=tolerance)
        for i, data in enumerate(strings(n, threshold)):
            got = run(data, config, None)
            assert got == run(data, config, conftest.cmp3), (n, i)
            assert got[0] == sorted(data)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_matches_an_outside_comparator(name):
    algo = REGISTRY[name]
    for data in battery(600)[::5] + strings(600, 1):
        got, want = list(data), list(data)
        st_got = algo(got, None, seed=3)
        st_want = algo(want, conftest.cmp3, seed=3)
        assert (got, vars(st_got)) == (want, vars(st_want)), name
        assert got == sorted(data)


# --- the compiled rules, on elements in a total order ---


class Ordered:
    """An element in a total order whose ``<``, ``>`` and ``==`` count
    their calls."""

    __slots__ = ("v",)
    calls = 0

    def __init__(self, v):
        self.v = v

    def __lt__(self, other):
        Ordered.calls += 1
        return self.v < other.v

    def __gt__(self, other):
        Ordered.calls += 1
        return self.v > other.v

    def __eq__(self, other):
        Ordered.calls += 1
        return self.v == other.v

    __hash__ = None


def counted(fn, cmp, vs, y):
    """(result, rich comparisons) of ``fn(cmp, xs, y)`` on Ordered
    elements of ``vs``; None, as the ``elif`` form's no-element, stays."""
    Ordered.calls = 0
    xs = [None if v is None else Ordered(v) for v in vs]
    out = fn(cmp, xs, Ordered(y))
    return out, Ordered.calls


@pytest.mark.parametrize("name", sorted(FUNCS))
def test_total_order_body_decides_as_the_value_form(name):
    original, compiled, (form, op, named) = FUNCS[name]
    for xs, y in inputs(form):
        vs = [None if x is None else x.v for x in xs]
        want, _ = counted(original, generic, vs, y.v)
        got, n_got = counted(compiled, _total_cmp3, vs, y.v)
        assert got == want
        if form != "while" and not named:
            # no name: one comparison for each element tested
            assert n_got == sum(v is not None for v in vs)


# per constant C, the element value that keeps the loop going
GOES_ON = {-1: 0, 1: 2, 0: 1}
# the cases whose loop every outcome but C's leaves, held or not
FIRST_GOES_ON = ("for", "while_true", "while_test", "not_preceded",
                 "second_assignment")


@pytest.mark.parametrize("name", sorted(CONST_FUNCS))
def test_the_outcome_that_goes_on_is_tested_first(name):
    original, compiled, drops, c = CONST_FUNCS[name]
    for vs in ([0, 0, 2, 1], [2, 2, 0], [1, 1, 0, 2], [0, 1, 2, 1, 0], [1],
               []):
        want = counted(original, generic, vs, 1)
        got = counted(compiled, _total_cmp3, vs, 1)
        assert got[0] == want[0]
    # every step goes on: the value form makes two comparisons a step
    # unless it goes on below y, and the total-order body one where
    # every other outcome leaves the loop
    steps = [GOES_ON[c]] * 6
    want = counted(original, generic, steps, 1)
    got = counted(compiled, _total_cmp3, steps, 1)
    assert got[0] == want[0]
    assert want[1] == (6 if c == -1 else 12)
    case = name.rsplit("_", 1)[0]
    assert got[1] == (6 if case in FIRST_GOES_ON else want[1]), case
