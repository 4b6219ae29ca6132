"""stochorder benchmark: three file-to-report workloads, timed end to end and by layer.

Run from the repository root; it needs nothing but the source tree:

    python3 bench/run.py --workload exact_compare --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off: set-up (import, input generation and one untimed warm-up op, repeated
SETUP_REPS times), then for ``--seconds`` it alternates one in-process op
with one run of the workload's CLI command as a fresh ``python -m
stochorder`` process, so both sample the whole window of the machine's
varying speed.  With ``--trace 1`` it alternates untraced and traced ops
and reports per-layer metrics from the spans (see tracing.py), which it
also writes to ``.bench_out/``.  Ops run one after another in this one
process (a closed loop with one client); the benchmark starts no threads
of its own and runs BLAS on one thread, in-process and in the CLI.

The last line of standard output is the result, one JSON object; the line
before it holds details: environment, op counts, the tail percentile,
fail ratio and the SHA-256 of the rendered report.  The exit code is 0
when the run completed, whether or not every op passed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness  # stdlib only: numpy must not load before the package import is timed

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
MIN_OPS = 5
MIN_TRACED_OPS = 3

END_TO_END = {
    "op_p50_s": "s",
    "items_per_s": "1/s",
    "cli_cold_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "io.read_joint_json.self_s": "s",
    "io.read_sample_csv.s": "s",
    "io.read_sample_csv.rows_per_s": "1/s",
    "io.write_sample_csv.s": "s",
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "distributions.make_joint.s": "s",
    "distributions.PairedSample.from_pairs.s": "s",
    "distributions.marginal_x.s": "s",
    "distributions.marginal_y.s": "s",
    "distributions.atoms_in": "count",
    "distributions.atoms_out": "count",
    "distributions.duplicates_merged": "count",
    "distributions.zero_mass_dropped": "count",
    "distributions.atoms_out_per_in": "ratio",
    "precedence.compare_all.s": "s",
    "partial_orders.compare_st.s": "s",
    "estimators.estimate_orders.s": "s",
    "estimators.estimate_orders.peak_mb": "MB",
    "estimators.distinct_pairs": "count",
    "estimators.bootstrap_path.index": "count",
    "estimators.bootstrap_path.multinomial": "count",
    "estimators.resampled_rows": "count",
    "estimators.sample_joint.s": "s",
    "cli.render_json.s": "s",
    "import.stochorder_s": "s",
    "trace.overhead_ratio": "ratio",
}


def pin_blas_threads() -> int:
    """Run BLAS on one thread, so the whole benchmark is single-threaded; returns nproc.

    On a shared 2-core machine, interleaved runs of estimate_continuous
    with one and with two BLAS threads gave half the run-to-run spread
    with one thread, at about 13% more time per op.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_threads(np) -> int | None:
    """Threads of the loaded OpenBLAS, asked through its own API; None if not found."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact_compare", "estimate_continuous", "sample_roundtrip"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(cls, so, workdir: Path, seed: int, reps: int, tally):
    """Generate the inputs and run one untimed warm-up op, ``reps`` times."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        wl = cls(so, workdir, seed)
        wl.setup()
        report, problems, _ = harness.attempt(wl)
        times.append(time.perf_counter() - start)
        tally.record(problems)
    return wl, (report if not problems else None), times


def end_to_end(wl, warm: str | None, setup_times, import_s, seconds, tally, details) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    op_times, cli_times, report = [], [], warm
    until = time.perf_counter() + seconds
    while len(op_times) < MIN_OPS or time.perf_counter() < until:
        text, problems, dt = harness.attempt(wl)
        tally.record(problems)
        op_times.append(dt)
        report = text if not problems else report
        problems, dt = harness.cli_run(wl, report, env, ROOT)
        tally.record(problems)
        cli_times.append(dt)
    tail = harness.tail(op_times)
    details.update(
        ops=len(op_times),
        cli_runs=len(cli_times),
        op_tail={"percentile": tail[0], "seconds": tail[1], "ops": len(op_times)} if tail else None,
        report_sha256=hashlib.sha256(report.encode()).hexdigest() if report else None,
    )
    return {
        "op_p50_s": statistics.median(op_times),
        "items_per_s": wl.items * len(op_times) / sum(op_times),
        "cli_cold_s": statistics.median(cli_times),
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, so, seed: int, import_s: float, seconds: float, tally, details) -> dict:
    import tracing

    tracer = tracing.Tracer(so)
    cutoff = getattr(so.estimators, "_MULTINOMIAL_CUTOFF", 256)
    untraced, traced, counts = [], {}, {}
    until = time.perf_counter() + seconds
    k = 0
    while min(len(untraced), len(traced)) < MIN_TRACED_OPS or time.perf_counter() < until:
        if k % 2 == 0:
            problems, dt = harness.attempt(wl)[1:]
            untraced.append(dt)
        else:
            problems, dt = harness.attempt(wl, lambda: tracer.op(k))[1:]
            traced[k] = dt
            counts[k] = tracing.counters(tracer.calls, cutoff)
            tracer.calls.clear()
        tally.record(problems)
        k += 1

    estimate = "estimators.estimate_orders"
    if any(s.name == estimate for s in tracer.spans):
        tracer.measure_peak = {estimate}
        tally.record(harness.attempt(wl, lambda: tracer.op(k))[1])
        tracer.measure_peak = set()
        tracer.discard(k)
        tracer.calls.clear()

    layers = tracing.per_op_layer_times(tracer.spans)

    def med(fn):
        return statistics.median(fn(op) for op in traced)

    def total(name):
        return med(lambda op: layers[op].get(name, (0.0, 0.0))[0])

    def count(name):
        return med(lambda op: counts[op].get(name, 0.0))

    def rows_per_s(op):
        secs = layers[op].get("io.read_sample_csv", (0.0, 0.0))[0]
        return counts[op].get("io.read_sample_csv.rows", 0.0) / secs if secs else 0.0

    def out_per_in(op):
        atoms_in = counts[op].get("distributions.atoms_in", 0.0)
        return counts[op].get("distributions.atoms_out", 0.0) / atoms_in if atoms_in else 0.0

    metrics = {
        "io.read_joint_json.self_s": med(lambda op: layers[op].get("io.read_joint_json", (0.0, 0.0))[1]),
        "io.read_sample_csv.rows_per_s": med(rows_per_s),
        "distributions.atoms_out_per_in": med(out_per_in),
        "estimators.estimate_orders.peak_mb": tracer.peak_mb.get(estimate, 0.0),
        "import.stochorder_s": import_s,
        "trace.overhead_ratio": statistics.median(traced.values()) / statistics.median(untraced),
    }
    for name, unit in PER_LAYER.items():
        if name in metrics:
            continue
        metrics[name] = total(name[:-2]) if unit == "s" else count(name)

    shares = tracing.top_level_share(tracer.spans)
    top = med(lambda op: shares[op] * traced[op])
    trace_file = ROOT / ".bench_out" / f"trace-{wl.name}-seed{seed}.json"
    tracer.write(trace_file)
    details.update(
        untraced_ops=len(untraced),
        traced_ops=len(traced),
        top_level_share_of_traced_op=med(lambda op: shares[op]),
        top_level_share_of_untraced_op=top / statistics.median(untraced),
        trace_file=str(trace_file.relative_to(ROOT)),
    )
    return {name: metrics[name] for name in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stochorder" / "__init__.py").is_file():
        print(f"error: no stochorder source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import stochorder as so
    import stochorder.cli  # noqa: F401  (the package does not import its CLI module)

    import_s = time.perf_counter() - start
    if not Path(so.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported stochorder from {so.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import numpy as np

    import selftest
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        failures = selftest.run(so, workdir, ROOT, END_TO_END, PER_LAYER)
        if failures:
            print("benchmark self-test failed:\n  " + "\n  ".join(failures), file=sys.stderr)
            return 1
        cls = workloads.WORKLOADS[args.workload]
        tally = harness.Tally()
        details = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": environment(np, nproc)}
        wl, warm, setup_times = set_up(cls, so, workdir, args.seed, 1 if args.trace else SETUP_REPS, tally)
        details["setup_reps_s"] = setup_times
        if args.trace:
            metrics = per_layer(wl, so, args.seed, import_s, args.seconds, tally, details)
            units = PER_LAYER
        else:
            metrics = end_to_end(wl, warm, setup_times, import_s, args.seconds, tally, details)
            units = END_TO_END
        details["fail_ratio"] = tally.failed / tally.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
