"""Self-test of the benchmark's own code, run at the start of every benchmark run.

Each workload runs once on a small input.  When that op passes its
check, perturbed copies of its result (one term off by a relative 1e-6,
one flipped verdict, one changed pair) must each fail the check and be
counted as failed ops.  The tail-percentile rule is checked on op counts
whose answer is known, and the metric names of ``run.py`` against
``BENCHMARK.json`` when that file is present.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import harness
import workloads

SMALL = {
    "exact_compare": {"atoms": 400},
    "estimate_continuous": {"pairs": 2_000, "bootstrap": 50},
    "sample_roundtrip": {"draws": 3_000, "bootstrap": 50},
}


def _perturb_exact(so, res):
    rep = res.report
    l1 = so.precedence.decomposition_from_terms(rep.l1.below_term * (1 + 1e-6), rep.l1.above_term, "L1")
    yield "l1_below off by 1e-6", dataclasses.replace(res, report=dataclasses.replace(rep, l1=l1))
    yield "sp verdict flipped", dataclasses.replace(res, report=dataclasses.replace(rep, sp=rep.sp.swapped()))


def _perturb_estimate(so, res):
    rep = res.report
    est = rep.quantities["kstar_above"]
    point = est.point * (1 + 1e-6)
    moved = dataclasses.replace(est, point=point, ci_low=min(est.ci_low, point), ci_high=max(est.ci_high, point))
    quantities = dict(rep.quantities, kstar_above=moved)
    yield "kstar_above off by 1e-6", dataclasses.replace(res, report=dataclasses.replace(rep, quantities=quantities))
    comparison = dataclasses.replace(rep.comparison, cp_l1=rep.comparison.cp_l1.swapped())
    yield "cp_l1 verdict flipped", dataclasses.replace(res, report=dataclasses.replace(rep, comparison=comparison))
    x = res.read_back.x.copy()
    x[0] = x[0] + 1.0
    changed = so.distributions.PairedSample(x, res.read_back.y)
    yield "one pair read back changed", dataclasses.replace(res, read_back=changed)


class _Replay:
    """A workload whose op returns a fixed result, checked by the real workload."""

    def __init__(self, workload, result):
        self.workload, self.result = workload, result

    def op(self):
        return self.result

    def check(self, result):
        return self.workload.check(result)


def _tail_failures() -> list[str]:
    cases = {10: None, 11: (100.0 / 11, 0.0), 20: (50.0, 9.0), 100: (90.0, 89.0), 1000: (99.0, 989.0)}
    failures = []
    for n, want in cases.items():
        got = harness.tail([float(i) for i in reversed(range(n))])
        if got != want:
            failures.append(f"tail rule on {n} ops gave {got}, expected {want}")
    return failures


def _metric_failures(root: Path, end_to_end: dict, per_layer: dict) -> list[str]:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return []
    spec = json.loads(path.read_text(encoding="utf-8"))
    failures = []
    for key, ours in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != ours:
            failures.append(f"BENCHMARK.json {key} {declared} differs from run.py {ours}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return failures


def run(so, workdir: Path, root: Path, end_to_end: dict, per_layer: dict) -> list[str]:
    failures = _tail_failures() + _metric_failures(root, end_to_end, per_layer)
    perturbers = {"exact_compare": _perturb_exact}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(so, workdir, 7, **SMALL[name])
        wl.setup()
        result = wl.op()
        if wl.check(result):
            continue  # the package is wrong here; the measured ops will count it
        for what, bad in perturbers.get(name, _perturb_estimate)(so, result):
            tally = harness.Tally(quiet=True)
            tally.record(harness.attempt(_Replay(wl, bad))[1])
            if (tally.attempted, tally.failed) != (1, 1):
                failures.append(f"{name}: {what} was not counted as a failed op")
    return failures
