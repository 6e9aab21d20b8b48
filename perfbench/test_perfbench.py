"""Tests of the benchmark itself, at tiny n except the harness cross-check.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import layers
import run

E2E = [m["name"] for m in run.spec()["end_to_end"]]
PER_LAYER = [m["name"] for m in run.spec()["per_layer"]]
TINY = 300


def run_main(capsys, workload, trace, **kw):
    code = run.main(["--workload", workload, "--seed", "1",
                     "--seconds", "0.01", "--trace", str(trace)],
                    n=TINY, **kw)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.workloads())
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    code, lines, result = run_main(capsys, workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == E2E
    for name in E2E:
        m = result["metrics"][name]
        assert m["unit"] == run.metric_info()[name][0] and m["value"] > 0
    printed = dict(run.metric_info(), failed_frac=("ratio", "lower"))
    for name in E2E + list(run.PRINTED_ONLY) + ["failed_frac"]:
        unit, better = printed[name]
        assert any(ln.startswith(f"# {name} = ")
                   and f" {unit} ({better} is better)" in ln
                   for ln in lines), name
    assert any(ln.startswith("# failed_frac = 0 ratio") for ln in lines)
    assert lines[0].startswith("# env: python ") and "nproc" in lines[0]


@pytest.mark.parametrize("workload", run.workloads())
def test_traced_run_self_check_holds(capsys, workload):
    code, lines, result = run_main(capsys, workload, 1)
    assert code == 0 and result["correct"]
    assert any(ln.startswith("# self-check exact:") and ln.endswith(": ok")
               for ln in lines)
    assert sorted(result["metrics"]) == sorted(PER_LAYER)
    for name, m in result["metrics"].items():
        assert m["unit"] == run.metric_info()[name][0]
        assert any(ln.startswith(f"# {name} = ") for ln in lines)


class _Corrupting:
    """A sorter whose output has its first two elements swapped."""

    def __init__(self, sorter):
        self.sorter = sorter
        self.temp = sorter.temp

    def sort_with_stats(self, ar):
        stats = self.sorter.sort_with_stats(ar)
        ar[0], ar[1] = ar[1], ar[0]
        return stats


def test_planted_wrong_output_raises_failed_frac(capsys):
    code, lines, result = run_main(
        capsys, "random", 0,
        make_sorter=lambda pkg, seed: _Corrupting(pkg.Sorter(seed=seed)))
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert any("output differs from sorted(input)" in ln for ln in lines)
    assert any(ln.startswith("# failed_frac = 1 ratio") for ln in lines)


def test_changed_counts_are_failures(capsys):
    calls = []

    def drifting(pkg, seed):
        sorter = pkg.Sorter(seed=seed)
        calls.append(seed)
        if len(calls) > 3:  # after the first (reference) pass
            sorter.config = pkg.SortConfig(insertion_threshold=8)
        return sorter

    code, lines, result = run_main(capsys, "random", 0,
                                   make_sorter=drifting)
    assert code == 1 and result["failed"] == result["attempted"] - 3
    assert any("SortStats differ from the first pass" in ln for ln in lines)


def test_missing_boundary_falls_into_driver(capsys, monkeypatch):
    monkeypatch.setattr(layers, "LAYERS", layers.LAYERS[:-1]
                        + (("smallsort", "_no_such_function"),))
    code, lines, result = run_main(capsys, "random", 1)
    assert code == 0 and result["correct"]
    assert any(ln.startswith("# layer smallsort missing:") for ln in lines)
    assert any(ln.startswith("# self-check partial") and ln.endswith(": ok")
               for ln in lines)
    metrics = result["metrics"]
    assert not any(name.startswith("smallsort.") for name in metrics)
    assert metrics["core.driver.cmp"]["value"] > 0


def test_setup_s_is_wall_time_scaled_by_calibration(monkeypatch):
    bench = run.Bench("dups", seed=1, n=TINY)
    monkeypatch.setattr(bench, "calibrate", lambda: run.CAL_REF_S)
    bench.setup()
    assert bench.setup_s == pytest.approx(bench.setup_wall_s)
    monkeypatch.setattr(bench, "calibrate", lambda: 2 * run.CAL_REF_S)
    bench.setup()
    assert bench.setup_s[-1] == pytest.approx(bench.setup_wall_s[-1] / 2)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(40))) == (29, 75.0)
    assert run.tail([5, 1, 3]) == (5, 100.0)


def _bench_cli_row(spec):
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    out = subprocess.run(
        [sys.executable, "-m", "tsqsort", "bench", "--algos", "tristate",
         "--dist", "random", "--reorder", spec["reorder"],
         "--n", str(spec["n"]), "--arange", str(spec["arange"]),
         "--seeds-base", str(spec["seed"]), "--seeds", "1",
         "--format", "json"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    (row,) = json.loads(out.stdout)
    return row


@pytest.mark.parametrize("workload", run.workloads())
def test_counts_equal_tsqsort_bench_rows(monkeypatch, workload):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    bench = run.Bench(workload, seed=1)
    bench.setup()
    assert bench.failed == 0
    for spec, ref in zip(bench.specs, bench.ref):
        row = _bench_cli_row(spec)
        assert (row["comparisons"], row["element_writes"]) == \
            (ref.comparisons, ref.element_writes)
