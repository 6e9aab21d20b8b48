"""Outside-in wall-time benchmark of ``Sorter.sort_with_stats``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload random --seed 1 --seconds 25 --trace 0

One process, one thread, one caller sorting one array after another (a
closed loop).  The benchmark imports ``tsqsort`` from this checkout's
``src/``, builds the workload's inputs from ``--seed`` and only hands the
generated lists to the package.  Every call's output is compared with
``sorted(input)`` and its ``SortStats`` with the first pass, outside the
timed interval.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
``layers.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``README.md`` for every metric, workload and the environment line.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

from layers import CMP, DRIVER, WRITES, LayerTracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: printed on every run but left out of the result object: on a shared
#: host the spread of raw wall times exceeds the largest regression bound
#: a metric may carry (see README.md).  name -> (unit, better)
PRINTED_ONLY = {
    "melem_per_s": ("Melem/s", "higher"),
    "sort_ms_p50": ("ms", "lower"),
    "sort_ms_tail": ("ms", "lower"),
    "setup_wall_s": ("s", "lower"),
}


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``: the workload names, and the unit and direction
    of every metric the result object carries."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workloads() -> list:
    return [w["name"] for w in spec()["workloads"]]


@functools.cache
def metric_info() -> dict:
    """name -> (unit, better) of every metric a run prints."""
    info = {m["name"]: (m["unit"], m["better"])
            for m in spec()["end_to_end"] + spec()["per_layer"]}
    info.update(PRINTED_ONLY)
    return info


N = 100_000
#: arange for effectively distinct values
DISTINCT = 2**31 - 1
#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3
#: the calibration sort: ``cmp_to_key(cmp3)`` over this many distinct
#: ints from a fixed seed, the same in every run and every workload
CAL_N = 40_000
#: a round figure for its wall time on the reference host (Intel Xeon,
#: 2 vCPU, Python 3.11.7), where it took 0.06-0.25 s as the host's load
#: varied; ``setup_s`` is in seconds at the speed this figure stands for
CAL_REF_S = 0.1
#: failures printed in full; the rest are only counted
MAX_FAILURE_LINES = 10

PRESORTED_ORDERS = ("sorted", "reversed", "fronthalfreversed",
                    "backhalfreversed")


def input_specs(workload: str, seed: int, n: int = N) -> list:
    """``GenSpec`` keyword arguments of the workload's inputs.

    The workload seed maps to GenSpec seeds ``8*seed + 1`` onward, so
    distinct workload seeds never share an input.  ``random`` and
    ``dups`` use an odd number of inputs so that the median call lies
    inside one input's cluster of times, not between two.
    """
    base = 8 * (seed % 2**28) + 1
    if workload == "random":
        return [dict(reorder="identity", n=n, arange=DISTINCT, seed=base + i)
                for i in range(3)]
    if workload == "presorted":
        return [dict(reorder=kind, n=n, arange=DISTINCT, seed=base)
                for kind in PRESORTED_ORDERS]
    if workload == "dups":
        return [dict(reorder="identity", n=n, arange=100, seed=base),
                dict(reorder="identity", n=n, arange=1000, seed=base),
                dict(reorder="identity", n=n, arange=1000, seed=base + 1)]
    raise ValueError(f"unknown workload {workload!r}")


def cmp3(x, y) -> int:
    """Three-way comparison, the same as the sorter's default."""
    if x < y:
        return -1
    if x > y:
        return 1
    return 0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result: the package under test is
    missing or every timed call failed."""


def load_package():
    """Import ``tsqsort`` afresh from this checkout's ``src/``."""
    init = SRC / "tsqsort" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"{init} not found; run from the root of a "
                         "checkout that has src/tsqsort")
    for name in [m for m in sys.modules
                 if m == "tsqsort" or m.startswith("tsqsort.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("tsqsort")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise BenchError(f"imported tsqsort from {pkg.__file__}, "
                         f"not from {init}")
    return pkg


def default_sorter(pkg, seed):
    return pkg.Sorter(seed=seed)


def tail(samples: list) -> tuple:
    """(value, percentile) of the 11th-highest sample, the highest
    percentile with ten samples beyond it; the maximum (percentile 100)
    when there are fewer than 11 samples."""
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


class Bench:
    """One workload: its inputs, reference counts and the call tally."""

    def __init__(self, workload: str, seed: int, n: int = N,
                 make_sorter=default_sorter):
        self.workload = workload
        self.specs = input_specs(workload, seed, n)
        self.n = n
        self.make_sorter = make_sorter
        self.key = functools.cmp_to_key(cmp3)
        self.pkg = None
        self.inputs = []
        self.expected = []
        self.ref = [None] * len(self.specs)
        self.temp_slots = 0
        self.attempted = 0
        self.failed = 0
        self.cal_input = random.Random(0).sample(range(DISTINCT), CAL_N)
        self.setup_s = []
        self.setup_wall_s = []
        self.datagen_ms = []

    # -- calls --

    def fail(self, i: int, why: str) -> None:
        self.failed += 1
        if self.failed <= MAX_FAILURE_LINES:
            print(f"# FAIL {self.workload} input {i} {self.specs[i]}: {why}")

    def call(self, i: int, tracer=None):
        """One checked ``sort_with_stats`` call on input ``i``.

        Returns its wall time in ns, or None if it raised.
        """
        work = list(self.inputs[i])
        sorter = self.make_sorter(self.pkg, self.specs[i]["seed"])
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter_ns()
                stats = sorter.sort_with_stats(work)
                dt = time.perf_counter_ns() - t0
            else:
                stats, dt = tracer.sort(sorter, work)
        except Exception as exc:  # a failed call is counted, not fatal
            self.fail(i, f"raised {exc!r}")
            return None
        self.temp_slots = max(self.temp_slots, len(sorter.temp.buf))
        if work != self.expected[i]:
            self.fail(i, "output differs from sorted(input)")
        elif self.ref[i] is None:
            self.ref[i] = stats
        elif vars(stats) != vars(self.ref[i]):
            self.fail(i, f"SortStats differ from the first pass: "
                         f"{stats.as_dict()} != {self.ref[i].as_dict()}")
        return dt

    def floor_call(self, i: int) -> int:
        work = list(self.inputs[i])
        t0 = time.perf_counter_ns()
        work.sort(key=self.key)
        return time.perf_counter_ns() - t0

    # -- phases --

    def calibrate(self) -> float:
        """Wall seconds of the calibration sort, which no change to
        ``tsqsort`` can move."""
        work = list(self.cal_input)
        t0 = time.perf_counter()
        work.sort(key=self.key)
        return time.perf_counter() - t0

    def _step(self, steps: list, cals: list, fn):
        """Run one set-up step, timed, then a calibration sort."""
        t0 = time.perf_counter()
        out = fn()
        steps.append(time.perf_counter() - t0)
        cals.append(self.calibrate())
        return out

    def setup(self) -> None:
        """Import, generate the inputs and run one untimed warm-up pass,
        ``SETUP_REPEATS`` times; the first warm-up pass is the count
        reference every later pass must match.

        Each step of a set-up (the import, each input's generation, each
        warm-up call) runs between two calibration sorts and is scaled by
        ``CAL_REF_S`` / their mean.  The host's slow phases slow a step
        and the sorts around it alike, so the sum of the scaled steps,
        ``setup_s``, is the set-up time at the reference host's speed.
        """
        for _ in range(SETUP_REPEATS):
            steps, cals = [], [self.calibrate()]
            self.pkg = self._step(steps, cals, load_package)
            self.inputs = [
                self._step(steps, cals, functools.partial(
                    self.pkg.generate, self.pkg.GenSpec(**kw)))
                for kw in self.specs]
            self.datagen_ms.append(sum(steps[1:]) * 1e3)
            self.expected = [sorted(x) for x in self.inputs]
            for i in range(len(self.inputs)):
                self._step(steps, cals, functools.partial(self.call, i))
            self.setup_wall_s.append(sum(steps))
            self.setup_s.append(CAL_REF_S * sum(
                dt / ((a + b) / 2) for dt, a, b in zip(steps, cals, cals[1:])))

    def measure(self, seconds: float) -> tuple:
        """Timed whole passes for ``seconds``.  Each tristate call sits
        between two ``cmp_to_key`` floor calls on the same input, and its
        floor time is their mean.

        Returns (metrics, tail note).  The floor calls around a tristate
        call run under the same machine load, so ``floor_ratio`` cancels
        the host's slow phases that the absolute times carry.
        """
        times = []
        tri_ns = floor_ns = 0
        deadline = time.perf_counter() + seconds
        while True:
            for i in range(len(self.inputs)):
                f = self.floor_call(i)
                t = self.call(i)
                f = (f + self.floor_call(i)) / 2
                if t is not None:
                    times.append(t)
                    tri_ns += t
                    floor_ns += f
            if time.perf_counter() >= deadline:
                break
        if not times:
            raise BenchError("every timed call raised")
        tail_ns, tail_pct = tail(times)
        return {
            "melem_per_s": self.n * len(times) / (tri_ns / 1e9) / 1e6,
            "sort_ms_p50": statistics.median(times) / 1e6,
            "sort_ms_tail": tail_ns / 1e6,
            "floor_ratio": tri_ns / floor_ns,
        }, (f"p{tail_pct:.1f} of {len(times)} calls, 10 beyond it"
            if len(times) > 10 else f"maximum of only {len(times)} calls")

    def measure_traced(self, seconds: float) -> tuple:
        """Alternate untraced and traced passes for ``seconds``.

        Returns (tracer, passes, untraced ns, traced ns).
        """
        tracer = LayerTracer(sys.modules["tsqsort.core"])
        plain_ns = traced_ns = 0
        passes = 0
        deadline = time.perf_counter() + seconds
        while True:
            # alternate which of the pair of passes goes first
            if passes % 2:
                traced_ns += self._traced_pass(tracer)
            for i in range(len(self.inputs)):
                plain_ns += self.call(i) or 0
            if not passes % 2:
                traced_ns += self._traced_pass(tracer)
            passes += 1
            if time.perf_counter() >= deadline:
                break
        return tracer, passes, plain_ns, traced_ns

    def _traced_pass(self, tracer) -> int:
        with tracer:
            return sum(self.call(i, tracer) or 0
                       for i in range(len(self.inputs)))

    # -- reports --

    def counts(self) -> dict:
        """Per-pass totals of the reference SortStats."""
        refs = [r for r in self.ref if r is not None]
        acts = [r.state_activations for r in refs]
        hand = [r.handler_activations for r in refs]
        attempts = sum(h["sorted"] + h["reversed"] for h in hand)
        return {
            "comparisons": sum(r.comparisons for r in refs),
            "element_writes": sum(r.element_writes for r in refs),
            "stages": sum(r.stages for r in refs),
            "max_depth": max((r.max_depth for r in refs), default=0),
            "temp_high_water": max((r.temp_high_water for r in refs),
                                   default=0),
            "s1": sum(a["S1"] for a in acts),
            "s2": sum(a["S2L"] + a["S2R"] for a in acts),
            "s3": sum(a["S3L"] + a["S3R"] for a in acts),
            "bypass_ratio": (1 - sum(h["fallbacks"] for h in hand) / attempts
                             if attempts else 0.0),
        }

    def end_to_end(self, seconds: float) -> tuple:
        """(metrics, tail note) of one untraced run."""
        m, note = self.measure(seconds)
        c = self.counts()
        m["comparisons"] = c["comparisons"]
        m["element_writes"] = c["element_writes"]
        m["temp_slots"] = self.temp_slots
        m["setup_s"] = statistics.median(self.setup_s)
        m["setup_wall_s"] = statistics.median(self.setup_wall_s)
        return m, note

    def per_layer(self, seconds: float) -> tuple:
        """(metrics, self-check ok) of one traced run."""
        tracer, passes, plain_ns, traced_ns = self.measure_traced(seconds)
        if not (plain_ns and traced_ns):
            raise BenchError("every timed call raised")
        c = self.counts()
        acc = tracer.acc
        m = {}
        for layer in [DRIVER] + tracer.present:
            calls, self_ns, ncmp, nwr = acc[layer]
            m[f"{layer}.calls"] = calls / passes
            m[f"{layer}.self_ms"] = self_ns / passes / 1e6
            m[f"{layer}.share"] = self_ns / traced_ns
            m[f"{layer}.cmp"] = ncmp / passes
            m[f"{layer}.writes"] = nwr / passes
            if layer != DRIVER:  # the driver itself compares nothing
                m[f"{layer}.ns_per_cmp"] = self_ns / ncmp if ncmp else 0.0
        m["handlers.bypass_ratio"] = c["bypass_ratio"]
        for s in ("s1", "s2", "s3"):
            m[f"core.machine.{s}"] = c[s]
        for k in ("stages", "max_depth", "temp_high_water"):
            m[f"core.{k}"] = c[k]
        m["datagen.self_ms"] = statistics.median(self.datagen_ms)
        m["trace.overhead_frac"] = traced_ns / plain_ns - 1

        for layer, why in tracer.missing.items():
            print(f"# layer {layer} missing: {why}; its time and counts "
                  f"fall into {DRIVER}")
        layer_cmp = sum(acc[x][CMP] for x in tracer.present)
        layer_wr = sum(acc[x][WRITES] for x in tracer.present)
        want_cmp = passes * c["comparisons"]
        want_wr = passes * (c["element_writes"] - c["stages"])
        if tracer.missing:
            ok = layer_cmp <= want_cmp and layer_wr <= want_wr
            kind = "partial (layers missing)"
        else:
            ok = layer_cmp == want_cmp and layer_wr == want_wr
            kind = "exact"
        print(f"# self-check {kind}: sum of layer cmp {layer_cmp} vs "
              f"{passes} x comparisons = {want_cmp}; sum of layer writes "
              f"{layer_wr} vs {passes} x (element_writes - stages) = "
              f"{want_wr}: {'ok' if ok else 'FAILED'}")
        return m, ok


def report(bench: Bench, metrics: dict, correct: bool,
           tail_note: str = "") -> dict:
    """Print the human-readable lines and return the result object."""
    info = metric_info()
    for name, value in metrics.items():
        unit, better = info[name]
        note = f" [{tail_note}]" if name == "sort_ms_tail" else ""
        gated = " (printed only)" if name in PRINTED_ONLY else ""
        print(f"# {name} = {value:.6g} {unit} ({better} is better)"
              f"{gated}{note}")
    frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"# failed_frac = {frac:.6g} ratio (lower is better) (printed "
          f"only) [{bench.failed} of {bench.attempted} calls]")
    return {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": info[name][0]}
                    for name, value in metrics.items()
                    if name not in PRINTED_ONLY},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads())
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None, n: int = N, make_sorter=default_sorter) -> int:
    args = parse_args(argv)
    env = environment()
    bench = Bench(args.workload, args.seed, n, make_sorter)
    print(f"# env: python {env['python']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']!r}; workload {args.workload}, seed {args.seed}, "
          f"n {n}, trace {args.trace}, closed loop of 1 caller")
    print(f"# inputs: {bench.specs}")
    note = ""
    try:
        bench.setup()
        if args.trace:
            metrics, ok = bench.per_layer(args.seconds)
        else:
            (metrics, note), ok = bench.end_to_end(args.seconds), True
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = ok and bench.failed == 0
    result = report(bench, metrics, correct, note)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
