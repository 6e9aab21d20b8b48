"""Deterministic adversarial input generation and reordering battery.

Distributions follow the classic sorting-benchmark definitions with the
value range bound called ``arange``:

* sawtooth: ``x[i] = i % arange``
* random:   uniform draws in ``[1, arange]`` from the internal generator
* stagger:  ``x[i] = (i * arange + i) % n``
* plateau:  ``x[i] = min(i, arange)``
* shuffle:  two ascending counters, selected by ``rand() % arange == 0``
* hill:     ascending then descending ramp, clamped at ``arange``
* organpipes: piecewise-linear random up/down runs

Reorderings: ``sorted`` reference-sorts, ``reversed`` sorts then
reverses, the half variants sort then reverse one half, ``dither`` adds
``i % 5`` to element i, and ``fort`` recursively reverses the array and
then both halves down to a minimum length, maximizing rearrangement
work for any sorter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

DISTRIBUTIONS = (
    "sawtooth",
    "random",
    "stagger",
    "plateau",
    "shuffle",
    "hill",
    "organpipes",
)

REORDERINGS = (
    "identity",
    "sorted",
    "reversed",
    "fronthalfreversed",
    "backhalfreversed",
    "dither",
    "fort",
)

_DEFAULT_SEED = 123456789


class ParkMillerGen:
    """Multiplicative congruential generator: z' = 16807 * z mod 2^31.

    The modulus is 2**31 (not the Mersenne prime 2**31 - 1); generator
    quality is secondary here, reproducibility is what matters.  State 0
    is absorbing, so zero seeds are replaced with a fixed constant.
    """

    A = 16807
    C = 0
    M = 2147483648

    __slots__ = ("zgen",)

    def __init__(self, seed: int):
        seed = int(seed) % self.M
        self.zgen = seed if seed != 0 else _DEFAULT_SEED

    def next_raw(self) -> int:
        self.zgen = (self.A * self.zgen + self.C) % self.M
        return self.zgen

    def gen_rand(self) -> float:
        """Uniform float in [0, 1)."""
        return self.next_raw() / self.M

    def gen_random2(self, smallest: int, largest: int) -> int:
        return int(self.gen_rand() * (largest - smallest + 1) + smallest)

    def draws(self, n: int, smallest: int, largest: int) -> list:
        """``n`` successive ``gen_random2(smallest, largest)`` draws,
        leaving the state where they would.

        The loop keeps the state in a local.  It is exact: with C = 0
        the step is a multiply and a mask, and M is a power of two, so
        ``z * ((largest - smallest + 1) / M)`` rounds exactly where
        ``(z / M) * (largest - smallest + 1)`` does.
        """
        a = self.A
        mask = self.M - 1
        scale = (largest - smallest + 1) / self.M
        z = self.zgen
        out = [0] * n
        for i in range(n):
            z = z * a & mask
            out[i] = int(z * scale + smallest)
        self.zgen = z
        return out


@dataclass(frozen=True)
class GenSpec:
    """A reproducible benchmark input: distribution, reordering, sizes."""

    distribution: str = "random"
    reorder: str = "identity"
    n: int = 0
    arange: int = 1
    seed: int = 1
    op_max_distance: int = 30
    op_add: int = 0
    fort_minl: int = 2

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.reorder not in REORDERINGS:
            raise ValueError(f"unknown reordering {self.reorder!r}")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.arange < 1:
            raise ValueError("arange must be >= 1")
        if self.fort_minl < 2:
            raise ValueError("fort_minl must be >= 2")
        if self.op_max_distance < 1:
            raise ValueError("op_max_distance must be >= 1")


def generate(spec: GenSpec) -> list:
    """Produce the input array for ``spec``; pure function of the spec."""
    n, m = spec.n, spec.arange
    rng = ParkMillerGen(spec.seed)
    dist = spec.distribution
    if dist == "sawtooth":
        ar = [i % m for i in range(n)]
    elif dist == "random":
        ar = rng.draws(n, 1, m)
    elif dist == "stagger":
        ar = [(i * m + i) % n for i in range(n)] if n else []
    elif dist == "plateau":
        ar = [min(i, m) for i in range(n)]
    elif dist == "shuffle":
        ar = [0] * n
        j, k = 0, 1
        for i in range(n):
            if rng.next_raw() % m == 0:
                j += 2
                ar[i] = j
            else:
                k += 2
                ar[i] = k
    elif dist == "hill":
        half = n >> 1
        ar = [min(i if i < half else n - i, m) for i in range(n)]
    elif dist == "organpipes":
        ar = _organ_pipes(rng, n, m, spec.op_max_distance, spec.op_add)
    else:  # pragma: no cover - guarded by GenSpec validation
        raise ValueError(dist)
    reorder(ar, spec.reorder, minl=spec.fort_minl)
    return ar


def _organ_pipes(rng: ParkMillerGen, size: int, arange: int,
                 op_max_distance: int, op_add: int) -> list:
    ar = [0] * size
    v1 = float(rng.gen_random2(1, arange))
    i = 0
    while i < size:
        v2 = float(rng.gen_random2(1, arange) + op_add)
        dist = rng.gen_random2(1, op_max_distance)
        step = (v2 - v1) / dist
        while dist != 0 and i < size:
            ar[i] = int(v1)
            i += 1
            v1 += step
            dist -= 1
        v1 = v2
    return ar


def reorder(ar: list, kind: str, minl: int = 2) -> None:
    """Apply a reordering in place."""
    if kind == "identity" or not ar:
        return
    if kind == "sorted":
        ar.sort()
    elif kind == "reversed":
        ar.sort()
        ar.reverse()
    elif kind == "fronthalfreversed":
        ar.sort()
        h = len(ar) // 2
        ar[:h] = ar[:h][::-1]
    elif kind == "backhalfreversed":
        ar.sort()
        h = len(ar) // 2
        ar[h:] = ar[h:][::-1]
    elif kind == "dither":
        for i in range(len(ar)):
            ar[i] += i % 5
    elif kind == "fort":
        fort(ar, 0, len(ar) - 1, minl)
    else:
        raise ValueError(f"unknown reordering {kind!r}")


def reverse_range(ar: list, a: int, b: int) -> None:
    i, j = a, b
    while i < j:
        ar[i], ar[j] = ar[j], ar[i]
        i += 1
        j -= 1


def fort(ar: list, a: int, b: int, minl: int) -> None:
    """Reverse [a..b], then recursively both halves, down to ``minl``."""
    reverse_range(ar, a, b)
    if b - a + 1 > minl:
        h = (a + b) >> 1
        fort(ar, a, h, minl)
        fort(ar, h + 1, b, minl)


# ---------------------------------------------------------------------------
# Quadratic-time killer adversary (gas-value scheme).


class KillerAdversary:
    """Adaptive comparator that cooks a worst-case input for a sort.

    Elements handed to the target sort are opaque handles (indices).
    All values start as "gas", which compares above every settled value.
    When two gas values meet, the one tracked as the current pivot
    candidate solidifies to the next counter value, so whatever the sort
    picks as a pivot turns out to be minimal among the survivors.  After
    a run, :meth:`cooked` returns a concrete integer array that replays
    the exact same comparison sequence against the same deterministic
    sort: solids keep their values and leftover gas (pairs of which were
    never directly compared) maps to distinct values above all solids.
    """

    def __init__(self, n: int):
        self.n = n
        self.gas = 2 * n + 1
        self.values = [self.gas] * n
        self.nsolid = 0
        self.candidate = 0
        self.ncmp = 0

    def handles(self) -> list:
        return list(range(self.n))

    def compare(self, x: int, y: int) -> int:
        self.ncmp += 1
        vals = self.values
        gas = self.gas
        if vals[x] == gas and vals[y] == gas:
            if x == self.candidate:
                vals[x] = self.nsolid
            else:
                vals[y] = self.nsolid
            self.nsolid += 1
        if vals[x] == gas:
            self.candidate = x
        elif vals[y] == gas:
            self.candidate = y
        return vals[x] - vals[y]

    def cooked(self) -> list:
        """Concrete integers reproducing the adversarial behaviour."""
        out = []
        ngas = self.nsolid
        for v in self.values:
            if v == self.gas:
                out.append(ngas)
                ngas += 1
            else:
                out.append(v)
        return out


def killer_comparator(n: int) -> KillerAdversary:
    """Fresh adversary for an n-element run."""
    return KillerAdversary(n)


def cook_input(sort_fn, n: int) -> list:
    """Run the adversary against ``sort_fn`` and return the cooked array.

    ``sort_fn(handles, cmp)`` must sort the handle list in place using
    only the given comparator.
    """
    adv = KillerAdversary(n)
    sort_fn(adv.handles(), adv.compare)
    return adv.cooked()


# ---------------------------------------------------------------------------
# Flat text-column serialization shared with the CLI (one decimal per line).


def save_column(values, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for v in values:
            fh.write(f"{int(v)}\n")


def load_column(path) -> list:
    with open(path, "r", encoding="ascii") as fh:
        return [int(line) for line in fh if line.strip()]


def battery_specs(n: int, arange: int, seed: int = 1):
    """The full test battery: 7 distributions x 6 reorderings."""
    base = GenSpec(n=n, arange=arange, seed=seed)
    for dist in DISTRIBUTIONS:
        for kind in REORDERINGS:
            if kind == "identity":
                continue
            yield replace(base, distribution=dist, reorder=kind)
