"""Comparators that misbehave without raising.

A comparator may be inconsistent (a seeded coin flip between -1 and
+1, or a seeded draw of -1, 0 or +1), may call
everything equal to NaN (floats with NaN under ``cmp=None``), or may
answer the same for every pair (always -1, always +1).  Every
``REGISTRY`` algorithm and both public fast-path handlers, run with
``finish=True``, must still terminate and leave the very objects they
were given, each exactly once.

The comparators here count their calls and fail the test past a
budget far above any quadratic sort of the input, so a loop that no
longer ends shows up as a failure, not as a hang.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from tsqsort.baselines import REGISTRY
from tsqsort.handlers import handle_possibly_reversed, handle_possibly_sorted


def budgeted(answer, n):
    """A comparator that returns ``answer()`` and fails the test once
    it has been called more than 20 n² + 1000 times."""
    left = 20 * n * n + 1000

    def cmp(x, y):
        nonlocal left
        left -= 1
        assert left >= 0, "comparator called past the budget"
        return answer()
    return cmp


def coin_flip(seed, n, faces=(-1, 1)):
    rnd = random.Random(seed)
    return budgeted(lambda: rnd.choice(faces), n)


def always(value, n):
    return budgeted(lambda: value, n)


HOSTILE = {
    "coin_flip": coin_flip,
    "three_way_flip": lambda seed, n: coin_flip(seed, n, (-1, 0, 1)),
    "always_-1": lambda seed, n: always(-1, n),
    "always_+1": lambda seed, n: always(1, n),
}


def handle_sorted(ar, cmp):
    b = len(ar) - 1
    # the pivot extracted; the center slot logically empty
    handle_possibly_sorted(ar, 0, b, ar[b >> 1], cmp=cmp, finish=True)


def handle_reversed(ar, cmp):
    b = len(ar) - 1
    handle_possibly_reversed(ar, 0, b, ar[b >> 1], cmp=cmp, finish=True)


RUNNERS = {name: (lambda algo: lambda ar, cmp: algo(ar, cmp, seed=3))(algo)
           for name, algo in REGISTRY.items()}
RUNNERS["handler_sorted"] = handle_sorted
RUNNERS["handler_reversed"] = handle_reversed


def assert_same_objects(out, data):
    assert sorted(map(id, out)) == sorted(map(id, data))


@pytest.mark.parametrize("runner", sorted(RUNNERS))
@pytest.mark.parametrize("kind", sorted(HOSTILE))
@settings(max_examples=60, deadline=None)
@given(data=st.lists(st.integers(0, 30), min_size=1, max_size=160),
       seed=st.integers(0, 2**32))
def test_hostile_comparator_leaves_a_permutation(runner, kind, data, seed):
    ar = list(data)
    RUNNERS[runner](ar, HOSTILE[kind](seed, len(data)))
    assert_same_objects(ar, data)


@pytest.mark.parametrize("runner", sorted(RUNNERS))
@settings(max_examples=60, deadline=None)
@given(data=st.lists(st.one_of(st.floats(), st.just(math.nan)),
                     min_size=1, max_size=160))
def test_nan_floats_leave_a_permutation(runner, data):
    ar = list(data)
    RUNNERS[runner](ar, None)
    assert_same_objects(ar, data)
