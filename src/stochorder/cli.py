"""Command-line front-end.

Subcommands: ``compare`` (joint JSON in, all four verdicts out),
``estimate`` (sample CSV in, bootstrap report out), ``sample`` (draw pairs
to CSV) and ``reproduce`` (run the canonical scenarios and check their
expected blocks).  Exit codes: 0 success, 1 reproduction failure or a
closed stdout, 2 input error.  All randomness is controlled by --seed;
there is no hidden entropy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import StochOrderError
from .estimators import SeededStream, estimate_orders, sample_example4, sample_joint
from .io import read_joint_json, read_sample_csv, write_sample_csv
from .precedence import compare_all
from .scenarios import REPRODUCTIONS, example1, example2

_ORDER_LABELS = (
    ("sp", "stochastic precedence"),
    ("mean", "mean order"),
    ("cp_l1", "conditional L1 precedence"),
    ("cp_kstar", "conditional K* precedence"),
)


def _round_floats(obj):
    """Render every float with 10 significant digits (idempotent)."""
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    return obj


def render_json(doc: dict) -> str:
    return json.dumps(_round_floats(doc), indent=2, sort_keys=True)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _render_compare_table(report) -> str:
    lines = [f"{'order':<28}{'preferred':<11}{'outcome':<17}evidence"]
    for key, label in _ORDER_LABELS:
        verdict = getattr(report, key)
        evidence = "  ".join(f"{k}={_fmt(v)}" for k, v in verdict.evidence.items())
        lines.append(f"{label:<28}{verdict.preferred():<11}{verdict.outcome.value:<17}{evidence}")
    probs = report.probs
    lines.append(f"P(X<Y)={_fmt(probs.p_less)}  P(X=Y)={_fmt(probs.p_equal)}  P(X>Y)={_fmt(probs.p_greater)}")
    for d in (report.l1, report.kstar):
        lines.append(
            f"{d.metric}: below={_fmt(d.below_term)} above={_fmt(d.above_term)}"
            f" total={_fmt(d.total)}"
        )
    return "\n".join(lines)


def _cmd_compare(args) -> int:
    report = compare_all(read_joint_json(args.input))
    if args.format == "json":
        print(render_json(report.to_dict()))
    else:
        print(_render_compare_table(report))
    return 0


def _cmd_estimate(args) -> int:
    sample = read_sample_csv(args.input)
    report = estimate_orders(sample, args.level, args.bootstrap, SeededStream(args.seed))
    if args.format == "json":
        print(render_json(report.to_dict()))
        return 0
    lines = [f"n={report.n}  level={report.level}  bootstrap={report.bootstrap}  seed={report.seed}"]
    lines.append(f"{'quantity':<14}{'point':<16}interval")
    for name, est in report.quantities.items():
        lines.append(f"{name:<14}{_fmt(est.point):<16}[{_fmt(est.ci_low)}, {_fmt(est.ci_high)}]")
    lines.append("")
    lines.append(_render_compare_table(report.comparison))
    print("\n".join(lines))
    return 0


def _cmd_sample(args) -> int:
    if (args.input is None) == (args.eps is None):
        print("error: pass exactly one of --input or --eps", file=sys.stderr)
        return 2
    stream = SeededStream(args.seed)
    if args.input is not None:
        sample = sample_joint(read_joint_json(args.input), args.n, stream)
    else:
        sample = sample_example4(args.eps, args.n, stream)
    write_sample_csv(args.out, sample)
    print(f"wrote {sample.n} pairs to {args.out}")
    return 0


def _preference_table() -> str:
    """Side-by-side preferred sides of the two gambling scenarios."""
    columns = {fix.name: dict(fix.preferences) for fix in (example1(), example2())}
    lines = [f"{'order':<28}{'example1':<10}example2"]
    for key, label in _ORDER_LABELS:
        e1 = columns["example1"].get(key, "-")
        e2 = columns["example2"].get(key, "-")
        lines.append(f"{label:<28}{e1:<10}{e2}")
    return "\n".join(lines)


def _cmd_reproduce(args) -> int:
    names = list(REPRODUCTIONS) if args.which == "all" else [args.which]
    failures = 0
    for name in names:
        print(f"== {name} ==")
        for check in REPRODUCTIONS[name](args.eps, args.n, args.seed):
            status = "PASS" if check.passed else ("FAIL" if check.asserted else "NOTE")
            print(f"[{status}] {name}.{check.name}: expected {check.expected!r},"
                  f" computed {check.computed!r}")
            if check.asserted and not check.passed:
                failures += 1
            if check.note:
                print(f"       note: {check.note}")
    if args.which == "all":
        print()
        print(_preference_table())
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochorder",
        description="Compare two (possibly dependent) random variables under "
        "stochastic precedence, mean order and the conditional L1 / K* precedence orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="compare a joint distribution under all orders")
    compare.add_argument("--input", required=True, help="joint distribution JSON file")
    compare.add_argument("--format", choices=("table", "json"), default="table")

    estimate = sub.add_parser("estimate", help="estimate the orders from a paired-sample CSV")
    estimate.add_argument("--input", required=True, help="sample CSV file with header x,y")
    estimate.add_argument("--format", choices=("table", "json"), default="table")
    estimate.add_argument("--seed", type=int, default=0, help="bootstrap seed (default 0)")
    estimate.add_argument("--bootstrap", type=int, default=1000, help="bootstrap resamples")
    estimate.add_argument("--level", type=float, default=0.95, help="confidence level")

    sample = sub.add_parser("sample", help="draw pairs from a joint or the band-and-triangle density")
    sample.add_argument("--input", help="joint distribution JSON file")
    sample.add_argument("--eps", type=float, help="band-and-triangle parameter in (0,1)")
    sample.add_argument("--n", type=int, required=True, help="number of pairs")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", required=True, help="output CSV path")

    reproduce = sub.add_parser("reproduce", help="re-run the canonical scenarios and check them")
    reproduce.add_argument("which", choices=("all", *REPRODUCTIONS))
    reproduce.add_argument("--eps", type=float, default=0.5)
    reproduce.add_argument("--n", type=int, default=200_000, help="Monte Carlo size for example4")
    reproduce.add_argument("--seed", type=int, default=0)
    return parser


_COMMANDS = dict(compare=_cmd_compare, estimate=_cmd_estimate, sample=_cmd_sample, reproduce=_cmd_reproduce)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        print(end="", flush=True)  # a reader gone from stdout shows here, not at exit
        return status
    except BrokenPipeError:  # the reader of stdout has gone: not an input error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the exit flush then succeeds
        return 1
    except (StochOrderError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
