import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsqsort.baselines import fixed_pivot_qsort
from tsqsort.datagen import (DISTRIBUTIONS, GenSpec, KillerAdversary,
                             ParkMillerGen, cook_input, fort, generate,
                             load_column, reorder, save_column)


def test_park_miller_steps():
    g = ParkMillerGen(1)
    assert g.next_raw() == 16807
    assert g.next_raw() == 282475249  # 16807**2 mod 2**31


def test_park_miller_range():
    g = ParkMillerGen(99)
    for _ in range(1000):
        assert 0.0 <= g.gen_rand() < 1.0


@pytest.mark.parametrize("seed", [0, 1, 2**31, 987654321])
@pytest.mark.parametrize("smallest,largest",
                         [(1, 1), (1, 2), (1, 100), (1, 2**31 - 1),
                          (-50, 49)])
def test_draws_match_per_element_draws(seed, smallest, largest):
    batch = ParkMillerGen(seed)
    each = ParkMillerGen(seed)
    got = batch.draws(2000, smallest, largest)
    assert got == [each.gen_random2(smallest, largest) for _ in range(2000)]
    assert batch.zgen == each.zgen
    # the next draws go on from the same state
    assert batch.draws(3, smallest, largest) == \
        [each.gen_random2(smallest, largest) for _ in range(3)]
    assert batch.draws(0, smallest, largest) == []
    assert batch.zgen == each.zgen


def test_zero_seed_replaced():
    a = ParkMillerGen(0)
    b = ParkMillerGen(0)
    assert a.zgen == b.zgen != 0


def test_hill_traces():
    assert generate(GenSpec(distribution="hill", n=6, arange=100)) == \
        [0, 1, 2, 3, 2, 1]
    assert generate(GenSpec(distribution="hill", n=6, arange=2)) == \
        [0, 1, 2, 2, 2, 1]


def test_sawtooth_trace():
    assert generate(GenSpec(distribution="sawtooth", n=7, arange=3)) == \
        [0, 1, 2, 0, 1, 2, 0]


def test_fort_traces():
    ar = [1, 2, 3, 4]
    fort(ar, 0, 3, 2)
    assert ar == [3, 4, 1, 2]
    ar = list(range(1, 9))
    fort(ar, 0, 7, 2)
    assert ar == [6, 5, 8, 7, 2, 1, 4, 3]


def test_reverse_reorder():
    ar = [1, 2, 3, 4]
    reorder(ar, "reversed")
    assert ar == [4, 3, 2, 1]


def test_dither_adds_index_mod_5():
    ar = [0] * 12
    reorder(ar, "dither")
    assert ar == [i % 5 for i in range(12)]


def test_generate_is_pure():
    spec = GenSpec(distribution="random", reorder="dither", n=500,
                   arange=77, seed=1234)
    assert generate(spec) == generate(spec)


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_range_law(dist):
    spec = GenSpec(distribution=dist, n=400, arange=19, seed=9,
                   op_add=5)
    vals = generate(spec)
    assert len(vals) == 400
    if dist in ("sawtooth", "plateau", "hill"):
        assert all(0 <= v <= 19 for v in vals)
    elif dist == "organpipes":
        assert all(1 <= v <= 19 + 5 for v in vals)
    elif dist == "random":
        assert all(1 <= v <= 19 for v in vals)


def test_fort_preserves_multiset():
    base = sorted(generate(GenSpec(distribution="random", n=512, arange=100,
                                   seed=3)))
    ar = list(base)
    reorder(ar, "fort", minl=2)
    assert sorted(ar) == base
    assert ar != base  # actually scrambled


def test_generator_matches_mitigation_rng():
    from tsqsort.pivot import MitigationRng

    g = ParkMillerGen(777)
    m = MitigationRng(777)
    for _ in range(50):
        assert g.next_raw() == m.next().zgen


def test_empty_and_validation():
    assert generate(GenSpec(n=0)) == []
    with pytest.raises(ValueError):
        GenSpec(distribution="bogus")
    with pytest.raises(ValueError):
        GenSpec(reorder="bogus")
    with pytest.raises(ValueError):
        GenSpec(n=-1)


def test_column_roundtrip(tmp_path):
    vals = generate(GenSpec(distribution="stagger", n=200, arange=37,
                            seed=5))
    path = tmp_path / "col.txt"
    save_column(vals, path)
    assert load_column(path) == vals
    assert path.read_text().splitlines()[0] == str(vals[0])


# --- killer adversary ---


def test_killer_vs_library_sort_n2():
    adv = KillerAdversary(2)
    sorted(adv.handles(), key=functools.cmp_to_key(adv.compare))
    assert adv.ncmp == 1


def test_killer_drives_fixed_pivot_quadratic():
    n = 256
    cooked = cook_input(lambda ar, cmp: fixed_pivot_qsort(ar, cmp), n)
    assert sorted(cooked) == list(range(n))  # a permutation of 0..n-1
    st = fixed_pivot_qsort(list(cooked))
    assert st.comparisons >= n * n / 8


def test_killer_cooked_is_deterministic():
    n = 64
    c1 = cook_input(lambda ar, cmp: fixed_pivot_qsort(ar, cmp), n)
    c2 = cook_input(lambda ar, cmp: fixed_pivot_qsort(ar, cmp), n)
    assert c1 == c2


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 2000), st.integers(2, 50))
def test_fort_is_a_permutation(n, minl):
    ar = list(range(n))
    fort(ar, 0, n - 1, minl)
    assert sorted(ar) == list(range(n))
