"""Benchmark harness: (algorithm x distribution x reordering x n x
arange x seed) grids with CSV/JSON emission.

Rows are produced in deterministic grid order and are byte-stable for a
given seed base (the wall-clock column aside, which is informational
only and excluded from any comparison).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .baselines import REGISTRY, get_algorithm
from .datagen import DISTRIBUTIONS, GenSpec, generate
from .inline import compile_all

CSV_HEADER = ("algorithm,distribution,reorder,n,arange,seed,comparisons,"
              "element_writes,virtual_swaps,temp_high_water,max_depth,"
              "wall_ns")

#: cells * n * seeds beyond this need --full
DEFAULT_BUDGET = 2 * 10**8

BATTERY_REORDERS = ("sorted", "reversed", "fronthalfreversed",
                    "backhalfreversed", "dither", "fort")


@dataclass(frozen=True)
class BenchRecord:
    algorithm: str
    distribution: str
    reorder: str
    n: int
    arange: int
    seed: int
    comparisons: int
    element_writes: int
    virtual_swaps: float
    temp_high_water: int
    max_depth: int
    wall_ns: int

    def csv_row(self) -> str:
        return (f"{self.algorithm},{self.distribution},{self.reorder},"
                f"{self.n},{self.arange},{self.seed},{self.comparisons},"
                f"{self.element_writes},{self.virtual_swaps:.6g},"
                f"{self.temp_high_water},{self.max_depth},{self.wall_ns}")

    @classmethod
    def from_csv_row(cls, row: str) -> "BenchRecord":
        f = row.strip().split(",")
        if len(f) != 12:
            raise ValueError(f"malformed record: {row!r}")
        return cls(f[0], f[1], f[2], int(f[3]), int(f[4]), int(f[5]),
                   int(f[6]), int(f[7]), float(f[8]), int(f[9]), int(f[10]),
                   int(f[11]))


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """One benchmark grid; the cross product of every axis."""

    algos: tuple = tuple(sorted(REGISTRY))
    distributions: tuple = ("random",)
    reorders: tuple = ("identity",)
    sizes: tuple = (1000,)
    aranges: tuple = (500,)
    seeds: int = 1
    seeds_base: int = 1
    mitigation: bool = True

    def cells(self):
        for dist in self.distributions:
            for kind in self.reorders:
                for n in self.sizes:
                    for arange in self.aranges:
                        for s in range(self.seeds):
                            yield dist, kind, n, arange, self.seeds_base + s

    def work(self) -> int:
        ncells = (len(self.distributions) * len(self.reorders)
                  * len(self.aranges) * self.seeds * len(self.algos))
        return ncells * sum(self.sizes)


def run_grid(grid: GridSpec, *, budget: int | None = DEFAULT_BUDGET,
             check_sorted: bool = False):
    """Yield one BenchRecord per (cell x algorithm), grid order.  Every
    inline body is compiled before the first timed call, so no
    ``wall_ns`` includes the compiler."""
    for name in grid.algos:
        get_algorithm(name)  # validate names before any work
    if budget is not None and grid.work() > budget:
        raise BudgetExceeded(
            f"grid work {grid.work():,} exceeds the budget {budget:,}; "
            "pass --full to run it anyway")
    from .config import SortConfig
    cfg = SortConfig(mitigation_enabled=grid.mitigation)
    compile_all()
    for dist, kind, n, arange, seed in grid.cells():
        spec = GenSpec(distribution=dist, reorder=kind, n=n, arange=arange,
                       seed=seed)
        base = generate(spec)
        for name in grid.algos:
            fn = get_algorithm(name)
            ar = list(base)
            t0 = time.perf_counter_ns()
            stats = fn(ar, seed=seed, config=cfg)
            wall = time.perf_counter_ns() - t0
            if check_sorted:
                _verify_output(base, ar, name, spec)
            yield BenchRecord(name, dist, kind, n, arange, seed,
                              stats.comparisons, stats.element_writes,
                              stats.virtual_swaps, stats.temp_high_water,
                              stats.max_depth, wall)


def _verify_output(base, ar, name, spec) -> None:
    if ar != sorted(base):
        raise AssertionError(f"{name} failed to sort {spec}")


def emit_csv(records, out) -> None:
    out.write(CSV_HEADER + "\n")
    for rec in records:
        out.write(rec.csv_row() + "\n")


def emit_json(records, out) -> None:
    rows = [rec.__dict__ for rec in records]
    json.dump(rows, out, indent=1)
    out.write("\n")


# ---------------------------------------------------------------------------
# Presets mirroring the count experiments at desk scale.


def preset_grid(name: str, *, full: bool = False, seeds: int = 3,
                seeds_base: int = 1, mitigation: bool = True) -> GridSpec:
    common = dict(seeds=seeds, seeds_base=seeds_base, mitigation=mitigation)
    if name == "figures":
        return GridSpec(
            distributions=DISTRIBUTIONS,
            reorders=BATTERY_REORDERS,
            sizes=(1000, 10000, 100000, 500000) if full else (100000,),
            aranges=(500,),
            **common,
        )
    if name == "adverse2m":
        return GridSpec(
            distributions=DISTRIBUTIONS,
            reorders=("identity",),
            sizes=(2000000,) if full else (200000,),
            aranges=(500,),
            **common,
        )
    if name == "range-sweep":
        return GridSpec(
            distributions=("random",),
            reorders=("identity",),
            sizes=(100000,),
            aranges=(100, 1000, 10000, 100000, 1000000, 10000000,
                     2000000000),
            **common,
        )
    if name == "overhead":
        return GridSpec(
            distributions=("random",),
            reorders=("identity",),
            sizes=(50,),
            aranges=(15,),
            seeds=max(seeds, 400 if not full else 4000),
            seeds_base=seeds_base,
            mitigation=mitigation,
        )
    raise ValueError(f"unknown preset {name!r}; valid: figures, adverse2m, "
                     "range-sweep, overhead")
