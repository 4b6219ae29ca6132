"""Timing loops, failure accounting and the tail-percentile rule."""

from __future__ import annotations

import contextlib
import gc
import subprocess
import sys
import time
import traceback


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value) at the highest percentile with at least ten ops beyond it.

    The value is the k-th smallest of n ops with k = n - 10, reported as
    percentile 100 k / n; with ten ops or fewer there is no such percentile.
    """
    n = len(times)
    if n <= 10:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(times)[k - 1]


class Tally:
    """Attempted and failed ops; an op fails if it raises, exits non-zero or fails its check."""

    def __init__(self, quiet: bool = False):
        self.attempted = 0
        self.failed = 0
        self.quiet = quiet

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if not self.quiet and self.failed <= 3:
                print(f"op failed: {'; '.join(problems[:5])}", file=sys.stderr)


def attempt(workload, around=contextlib.nullcontext):
    """Run one op, timed, then check it untimed: (rendered report or None, problems, seconds).

    The op's result is dropped on return, so no op runs while an earlier
    one's objects are still alive, and each op starts after a collection.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        with around():
            result = workload.op()
    except Exception:  # an op that raises is a failed op; keep measuring
        return None, [f"op raised: {traceback.format_exc(limit=3)}"], time.perf_counter() - start
    seconds = time.perf_counter() - start
    try:
        problems = workload.check(result)
    except Exception:
        problems = [f"check raised: {traceback.format_exc(limit=3)}"]
    return result.text, problems, seconds


def cli_run(workload, report: str | None, env: dict, cwd) -> tuple[list[str], float]:
    """Run the workload's CLI commands as fresh interpreters, checked against ``report``: (problems, seconds)."""
    start = time.perf_counter()
    outputs = []
    for argv in workload.cli_commands():
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "stochorder", *argv],
                cwd=cwd, env=env, capture_output=True, text=True, timeout=150,
            )
        except subprocess.TimeoutExpired:
            return [f"stochorder {argv[0]} timed out"], time.perf_counter() - start
        if proc.returncode != 0:
            return [f"stochorder {argv[0]} exited {proc.returncode}: {proc.stderr[-300:]}"], time.perf_counter() - start
        outputs.append(proc.stdout)
    seconds = time.perf_counter() - start
    if report is None:
        return ["no in-process report to compare"], seconds
    return workload.cli_problems(outputs, report), seconds
