"""Command-line benchmark harness.

Subcommands:

* ``bench``   -- run an (algorithm x distribution x reordering x n x
  arange x seeds) grid, or a named preset, emitting CSV or JSON.
* ``verify``  -- run the self-verification battery.
* ``predict`` -- evaluate the closed-form count predictors.
* ``profile`` -- count the opcodes one sort executes, per line or per
  function, with its ``NOP`` census, comparisons and writes.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import (predict_comparisons, predict_swaps_classic,
                       predict_swaps_tsq_approx, predict_swaps_tsq_exact)
from .baselines import REGISTRY
from .bench import (BudgetExceeded, GridSpec, emit_csv, emit_json,
                    preset_grid, run_grid)
from .datagen import DISTRIBUTIONS, REORDERINGS, GenSpec, generate


def _csv_list(text: str) -> list:
    return [t.strip() for t in text.split(",") if t.strip()]


def _int_list(text: str) -> list:
    return [int(t) for t in _csv_list(text)]


PROFILE_SHAPES = ("sorted", "reversed", "fronthalfreversed",
                  "backhalfreversed", "random", "arange100", "arange1000",
                  "strings", "floats")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tsqsort",
        description="triple-state quicksort benchmark harness")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run a benchmark grid")
    b.add_argument("--algos", default=",".join(sorted(REGISTRY)),
                   help="comma list: " + ", ".join(sorted(REGISTRY)))
    b.add_argument("--dist", default="random",
                   help="comma list: " + ", ".join(DISTRIBUTIONS))
    b.add_argument("--reorder", default="identity",
                   help="comma list: " + ", ".join(REORDERINGS))
    b.add_argument("--n", default="1000", help="comma list of sizes")
    b.add_argument("--arange", default="500",
                   help="comma list of value-range bounds")
    b.add_argument("--seeds", type=int, default=1)
    b.add_argument("--seeds-base", type=int, default=1)
    b.add_argument("--preset", choices=("figures", "adverse2m",
                                        "range-sweep", "overhead"))
    b.add_argument("--mitigation", choices=("on", "off"), default="on")
    b.add_argument("--out", default="-", help="output path, - for stdout")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--emit-input", action="store_true",
                   help="emit the generated input column instead of sorting")
    b.add_argument("--full", action="store_true",
                   help="lift the work budget and use full-size presets")

    sub.add_parser("verify", help="run the self-verification battery")

    p = sub.add_parser("predict", help="evaluate count predictors")
    p.add_argument("n", type=int, nargs="+")

    # the shape names are those of tsqsort.profile.SHAPES, listed here so
    # that nothing imports that module unless this subcommand runs
    o = sub.add_parser("profile", help="count the opcodes of one sort")
    o.add_argument("--shape", default="random", choices=PROFILE_SHAPES)
    o.add_argument("--n", type=int, default=2000)
    o.add_argument("--seed", type=int, default=31,
                   help="GenSpec seed of the input")
    o.add_argument("--cmp", choices=("none", "cheap"), default="none",
                   help="the default comparator, or (x > y) - (x < y)")
    o.add_argument("--algo", default="tristate", choices=sorted(REGISTRY))
    o.add_argument("--by", choices=("line", "function"), default="line")
    o.add_argument("--top", type=int, default=20)
    return ap


def _cmd_bench(args) -> int:
    mitigation = args.mitigation == "on"
    if args.preset:
        grid = preset_grid(args.preset, full=args.full, seeds=args.seeds,
                           seeds_base=args.seeds_base, mitigation=mitigation)
    else:
        grid = GridSpec(
            algos=tuple(_csv_list(args.algos)),
            distributions=tuple(_csv_list(args.dist)),
            reorders=tuple(_csv_list(args.reorder)),
            sizes=tuple(_int_list(args.n)),
            aranges=tuple(_int_list(args.arange)),
            seeds=args.seeds,
            seeds_base=args.seeds_base,
            mitigation=mitigation,
        )
    for dist in grid.distributions:
        if dist not in DISTRIBUTIONS:
            print(f"error: unknown distribution {dist!r}; valid: "
                  + ", ".join(DISTRIBUTIONS), file=sys.stderr)
            return 2
    for kind in grid.reorders:
        if kind not in REORDERINGS:
            print(f"error: unknown reordering {kind!r}; valid: "
                  + ", ".join(REORDERINGS), file=sys.stderr)
            return 2
    for name in grid.algos:
        if name not in REGISTRY:
            print(f"error: unknown algorithm {name!r}; valid: "
                  + ", ".join(sorted(REGISTRY)), file=sys.stderr)
            return 2

    out = sys.stdout if args.out == "-" else open(args.out, "w")
    try:
        if args.emit_input:
            for dist, kind, n, arange, seed in grid.cells():
                spec = GenSpec(distribution=dist, reorder=kind, n=n,
                               arange=arange, seed=seed)
                for v in generate(spec):
                    out.write(f"{v}\n")
            return 0
        from .bench import DEFAULT_BUDGET
        budget = None if args.full else DEFAULT_BUDGET
        records = run_grid(grid, budget=budget)
        if args.format == "csv":
            emit_csv(records, out)
        else:
            emit_json(list(records), out)
        return 0
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if out is not sys.stdout:
            out.close()


def _cmd_predict(args) -> int:
    cols = ("n", "comparisons_classic", "swaps_classic", "swaps_tsq_exact",
            "swaps_tsq_approx")
    print(",".join(cols))
    for n in args.n:
        print(f"{n},{predict_comparisons(n):.4f},"
              f"{predict_swaps_classic(n):.4f},"
              f"{predict_swaps_tsq_exact(n):.4f},"
              f"{predict_swaps_tsq_approx(n):.4f}")
    return 0


def _cmd_profile(args) -> int:
    from .profile import cheap_cmp, profile_sort, report
    census, ar = profile_sort(args.shape, args.n, args.seed,
                              cheap_cmp if args.cmp == "cheap" else None,
                              args.algo, by_line=True)
    if ar != sorted(ar):
        print("error: the sort's output is not sorted", file=sys.stderr)
        return 1
    print(f"# profile: algo {args.algo}, shape {args.shape}, n {args.n}, "
          f"seed {args.seed}, cmp {args.cmp}, python "
          f"{sys.version.split()[0]}")
    print("\n".join(report(census, args.by, args.top)))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "verify":
        from .verify import run_verify
        return 0 if run_verify() else 1
    if args.command == "predict":
        return _cmd_predict(args)
    if args.command == "profile":
        return _cmd_profile(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
