"""The benchmark's workloads: seeded inputs, one op each, and its correctness check.

Each workload writes its input files from the seed, then runs one op that
turns those files into a rendered report through the package's public
functions.  The package receives only the files.  Every op is checked
against references that this module computes with its own numpy and
``math.fsum`` code, from the generated data, so the checks do not depend
on how the package draws or sums.

Every call into the package goes through a module attribute looked up at
call time (``so.io.read_joint_json``), so the tracer can rebind it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Relative tolerances of the checks: exact terms against the fsum reference,
#: plug-in points against the per-pair mean, and values parsed back from the
#: rendered JSON, which keeps 10 significant digits.
EXACT_RTOL = 1e-9
POINT_RTOL = 1e-12
RENDER_RTOL = 1e-9
#: The package's equality tolerance for compared quantities, and its
#: pointwise tie tolerance for the usual stochastic order.
EQUAL_RTOL = 1e-12
ST_ABS_TOL, ST_REL_TOL = 1e-12, 1e-9

LEVEL = 0.95
BOOTSTRAP = 1000


def close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(abs(got), abs(want))


# ---------------------------------------------------------------------------
# Reference decision rules, restated from the paper's definitions.


def _trichotomy(first: float, second: float) -> str:
    """Outcome when ``first`` is the quantity arguing that X precedes."""
    if not (math.isfinite(first) and math.isfinite(second)):
        return "inconclusive"
    if close(first, second, EQUAL_RTOL):
        return "equal"
    return "first_precedes" if first > second else "second_precedes"


def reference_verdicts(terms: dict) -> dict:
    p_xley = terms["p_less"] + terms["p_equal"]
    p_ylex = terms["p_greater"] + terms["p_equal"]
    if p_xley >= 0.5 and p_ylex >= 0.5:
        sp = "equal"
    else:
        sp = "first_precedes" if p_xley >= 0.5 else "second_precedes"
    return {
        "sp": sp,
        "mean": _trichotomy(terms["mean_y"], terms["mean_x"]),
        "cp_l1": _trichotomy(terms["l1_below"], terms["l1_above"]),
        "cp_kstar": _trichotomy(terms["kstar_below"], terms["kstar_above"]),
    }


def _report_problems(report, verdicts: dict) -> list[str]:
    return [
        f"{key}: outcome {getattr(report, key).outcome.value}, reference {want}"
        for key, want in verdicts.items()
        if getattr(report, key).outcome.value != want
    ]


def _rendered_problems(text: str, verdicts: dict, values: dict) -> list[str]:
    """The rendered JSON must parse and carry the checked verdicts and values."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"rendered report is not JSON: {exc}"]
    problems = [
        f"rendered {key}: outcome {doc[key]['outcome']}, reference {want}"
        for key, want in verdicts.items()
        if doc[key]["outcome"] != want
    ]
    for path, want in values.items():
        node = doc
        for part in path:
            node = node[part]
        if not close(float(node), want, RENDER_RTOL):
            problems.append(f"rendered {'.'.join(path)} = {node!r}, reference {want!r}")
    return problems


# ---------------------------------------------------------------------------
# exact_compare


def exact_reference(x: np.ndarray, y: np.ndarray, p: np.ndarray) -> dict:
    """Exact-path terms of the raw atoms after merging duplicates and dropping zeros."""
    keep = p > 0.0
    x, y, p = x[keep], y[keep], p[keep]
    order = np.lexsort((y, x))
    x, y, p = x[order], y[order], p[order]
    starts = np.flatnonzero(np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1])])
    x, y, m = x[starts], y[starts], np.add.reduceat(p, starts)
    d = y - x
    below, above = d > 0.0, d < 0.0
    terms = {
        "p_less": math.fsum(m[below]),
        "p_equal": math.fsum(m[d == 0.0]),
        "p_greater": math.fsum(m[above]),
        "l1_below": math.fsum(d[below] * m[below]),
        "l1_above": math.fsum(-d[above] * m[above]),
        "kstar_below": math.fsum(m[below] * d[below] / (1.0 + d[below])),
        "kstar_above": math.fsum(m[above] * -d[above] / (1.0 - d[above])),
        "mean_x": math.fsum(x * m),
        "mean_y": math.fsum(y * m),
    }
    return {"terms": terms, "verdicts": reference_verdicts(terms), "st": _st_reference(x, y, m)}


def _marginal(values: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(values, kind="stable")
    values, masses = values[order], masses[order]
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    return values[starts], np.add.reduceat(masses, starts)


def _st_reference(x: np.ndarray, y: np.ndarray, m: np.ndarray) -> dict:
    """Usual stochastic order of the two marginals: cdfs on the union of supports."""
    (vx, mx), (vy, my) = _marginal(x, m), _marginal(y, m)
    support = np.union1d(vx, vy)

    def cdf(values, masses):
        idx = np.searchsorted(values, support, side="right")
        return np.where(idx > 0, np.cumsum(masses)[np.maximum(idx - 1, 0)], 0.0)

    fx, fy = cdf(vx, mx), cdf(vy, my)
    advantage = fx - fy
    tol = ST_ABS_TOL + ST_REL_TOL * np.maximum(np.abs(fx), np.abs(fy))
    pos, neg = bool((advantage > tol).any()), bool((advantage < -tol).any())
    outcome = {
        (True, True): "incomparable",
        (True, False): "first_precedes",
        (False, True): "second_precedes",
        (False, False): "equal",
    }[(pos, neg)]
    return {
        "outcome": outcome,
        "max_advantage": float(advantage.max(initial=0.0)),
        "min_advantage": float(advantage.min(initial=0.0)),
    }


@dataclass
class ExactResult:
    report: object
    st: object
    text: str


class ExactCompare:
    """Joint JSON of raw atoms -> all four verdicts, marginals and the st order.

    Coordinates are correlated normals rounded to 1e-3.  The last tenth of
    the atoms repeats earlier (x, y) pairs and a twentieth of all atoms has
    zero mass, so ``make_joint`` merges and drops atoms as real inputs make
    it do.
    """

    name = "exact_compare"

    def __init__(self, so, workdir: Path, seed: int, atoms: int = 200_000):
        self.so, self.seed, self.items = so, seed, atoms
        self.path = workdir / "joint.json"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        n = self.items
        fresh = n - n // 10
        z = rng.standard_normal((2, fresh))
        x = np.round(z[0], 3) + 0.0  # + 0.0 turns -0.0 into 0.0
        y = np.round(0.6 * z[0] + 0.8 * z[1] + 0.1, 3) + 0.0
        repeat = rng.integers(0, fresh, n - fresh)
        x, y = np.r_[x, x[repeat]], np.r_[y, y[repeat]]
        w = rng.random(n) + 0.5
        w[rng.choice(n, n // 20, replace=False)] = 0.0
        p = w / w.sum()
        atoms = ", ".join(
            f'{{"x": {a!r}, "y": {b!r}, "p": {c!r}}}'
            for a, b, c in zip(x.tolist(), y.tolist(), p.tolist())
        )
        self.path.write_text('{"atoms": [' + atoms + "]}\n", encoding="utf-8")
        self.ref = exact_reference(x, y, p)

    def op(self) -> ExactResult:
        so = self.so
        joint = so.io.read_joint_json(self.path)
        report = so.precedence.compare_all(joint)
        mx = so.distributions.marginal_x(joint)
        my = so.distributions.marginal_y(joint)
        st = so.partial_orders.compare_st(mx, my)
        return ExactResult(report, st, so.cli.render_json(report.to_dict()))

    def check(self, res: ExactResult) -> list[str]:
        ref, rep = self.ref, res.report
        got = {
            "p_less": rep.probs.p_less,
            "p_equal": rep.probs.p_equal,
            "p_greater": rep.probs.p_greater,
            "l1_below": rep.l1.below_term,
            "l1_above": rep.l1.above_term,
            "kstar_below": rep.kstar.below_term,
            "kstar_above": rep.kstar.above_term,
            "mean_x": rep.mean.evidence["mean_x"],
            "mean_y": rep.mean.evidence["mean_y"],
        }
        problems = _report_problems(rep, ref["verdicts"])
        problems += [
            f"{name} = {got[name]!r}, reference {want!r}"
            for name, want in ref["terms"].items()
            if not close(got[name], want, EXACT_RTOL)
        ]
        st = ref["st"]
        if res.st.verdict.outcome.value != st["outcome"]:
            problems.append(f"st: outcome {res.st.verdict.outcome.value}, reference {st['outcome']}")
        for key in ("max_advantage", "min_advantage"):  # cdf differences: an absolute tolerance
            if abs(res.st.verdict.evidence[key] - st[key]) > EXACT_RTOL:
                problems.append(f"st {key} = {res.st.verdict.evidence[key]!r}, reference {st[key]!r}")
        values = {("probs", "p_less"): ref["terms"]["p_less"], ("l1", "below"): ref["terms"]["l1_below"]}
        return problems + _rendered_problems(res.text, ref["verdicts"], values)

    def cli_commands(self) -> list[list[str]]:
        return [["compare", "--input", str(self.path), "--format", "json"]]

    def cli_problems(self, outputs: list[str], report: str) -> list[str]:
        return [] if outputs[0] == report + "\n" else ["CLI compare output differs from the in-process report"]


# ---------------------------------------------------------------------------
# Sample workloads


def sample_reference(x: np.ndarray, y: np.ndarray) -> dict:
    """Plug-in points as per-pair means (fsum), and the verdicts they imply."""
    n = x.size
    d = y - x
    below, above = d > 0.0, d < 0.0
    points = {
        "p_less": np.count_nonzero(below) / n,
        "p_greater": np.count_nonzero(above) / n,
        "l1_below": math.fsum(d[below]) / n,
        "l1_above": math.fsum(-d[above]) / n,
        "kstar_below": math.fsum(d[below] / (1.0 + d[below])) / n,
        "kstar_above": math.fsum(-d[above] / (1.0 - d[above])) / n,
        "mean_diff": math.fsum(d) / n,
    }
    terms = dict(
        points,
        p_equal=np.count_nonzero(d == 0.0) / n,
        mean_x=math.fsum(x) / n,
        mean_y=math.fsum(y) / n,
    )
    return {"points": points, "verdicts": reference_verdicts(terms)}


def estimate_problems(report, ref: dict) -> list[str]:
    problems = _report_problems(report.comparison, ref["verdicts"])
    for name, want in ref["points"].items():
        est = report.quantities[name]
        if not close(est.point, want, POINT_RTOL):
            problems.append(f"{name} point = {est.point!r}, plug-in mean {want!r}")
        if not (math.isfinite(est.ci_low) and math.isfinite(est.ci_high)):
            problems.append(f"{name} interval [{est.ci_low!r}, {est.ci_high!r}] is not finite")
        elif not est.ci_low <= est.point <= est.ci_high:
            problems.append(f"{name} interval [{est.ci_low!r}, {est.ci_high!r}] misses {est.point!r}")
    return problems


@dataclass
class EstimateResult:
    report: object
    text: str
    sample: object = None  # the pairs the op drew, when it drew any
    read_back: object = None  # the pairs read from the CSV the op wrote


def _write_csv(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))
    path.write_text("x,y\n" + rows, encoding="utf-8")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class EstimateContinuous:
    """Sample CSV of continuous pairs -> bootstrap estimate report.

    The pairs come from the paper's band-and-triangle density (eps = 0.3),
    whose verdicts cross.  They are continuous, so there are far more than
    256 distinct pairs and the bootstrap draws row indices per resample.
    """

    name = "estimate_continuous"

    def __init__(self, so, workdir: Path, seed: int, pairs: int = 100_000, bootstrap: int = BOOTSTRAP):
        self.so, self.seed, self.items, self.bootstrap = so, seed, pairs, bootstrap
        self.path = workdir / "sample.csv"

    def setup(self) -> None:
        so = self.so
        drawn = so.estimators.sample_example4(0.3, self.items, so.estimators.SeededStream(self.seed))
        self.x, self.y = np.array(drawn.x), np.array(drawn.y)
        _write_csv(self.path, self.x, self.y)
        self.ref = sample_reference(self.x, self.y)

    def op(self) -> EstimateResult:
        so = self.so
        sample = so.io.read_sample_csv(self.path)
        report = so.estimators.estimate_orders(
            sample, level=LEVEL, bootstrap=self.bootstrap, stream=so.estimators.SeededStream(self.seed)
        )
        return EstimateResult(report, so.cli.render_json(report.to_dict()), read_back=sample)

    def check(self, res: EstimateResult) -> list[str]:
        problems = []
        if not (_same_bits(res.read_back.x, self.x) and _same_bits(res.read_back.y, self.y)):
            problems.append("pairs read from the CSV differ from the generated pairs")
        values = {("ci", k, "point"): v for k, v in self.ref["points"].items() if v != 0.0}
        problems += estimate_problems(res.report, self.ref)
        return problems + _rendered_problems(res.text, self.ref["verdicts"], values)

    def cli_commands(self) -> list[list[str]]:
        return [[
            "estimate", "--input", str(self.path), "--format", "json", "--seed", str(self.seed),
            "--bootstrap", str(self.bootstrap), "--level", str(LEVEL),
        ]]

    def cli_problems(self, outputs: list[str], report: str) -> list[str]:
        return [] if outputs[0] == report + "\n" else ["CLI estimate output differs from the in-process report"]


class SampleRoundtrip:
    """Joint JSON -> draw pairs -> write CSV -> read it back -> estimate report.

    The joint has 36 atoms on {1..6}^2 with mass 2 where x <= y and 1
    elsewhere (normalized), so x and y are dependent and the few distinct
    pairs take the multinomial bootstrap path.
    """

    name = "sample_roundtrip"

    def __init__(self, so, workdir: Path, seed: int, draws: int = 500_000, bootstrap: int = BOOTSTRAP):
        self.so, self.seed, self.items, self.bootstrap = so, seed, draws, bootstrap
        self.joint_path = workdir / "joint36.json"
        self.path = workdir / "roundtrip.csv"
        self.cli_path = workdir / "roundtrip_cli.csv"
        self._drawn = None

    def setup(self) -> None:
        atoms = [
            {"x": float(x), "y": float(y), "p": (2.0 if x <= y else 1.0) / 57.0}
            for x in range(1, 7)
            for y in range(1, 7)
        ]
        self.joint_path.write_text(json.dumps({"atoms": atoms}) + "\n", encoding="utf-8")
        self.joint = self.so.io.read_joint_json(self.joint_path)

    def op(self) -> EstimateResult:
        so = self.so
        drawn = so.estimators.sample_joint(self.joint, self.items, so.estimators.SeededStream(self.seed + 1))
        so.io.write_sample_csv(self.path, drawn)
        sample = so.io.read_sample_csv(self.path)
        report = so.estimators.estimate_orders(
            sample, level=LEVEL, bootstrap=self.bootstrap, stream=so.estimators.SeededStream(self.seed)
        )
        return EstimateResult(report, so.cli.render_json(report.to_dict()), drawn, sample)

    def _reference_for(self, x: np.ndarray, y: np.ndarray) -> dict:
        """Reference of these draws; recomputed only when the draws change."""
        if self._drawn is None or not (_same_bits(x, self._drawn[0]) and _same_bits(y, self._drawn[1])):
            self._drawn = (x.copy(), y.copy(), sample_reference(x, y))
        return self._drawn[2]

    def check(self, res: EstimateResult) -> list[str]:
        x, y = res.sample.x, res.sample.y
        problems = []
        if x.size != self.items:
            problems.append(f"drew {x.size} pairs, asked for {self.items}")
        if not (np.isin(x, np.arange(1.0, 7.0)).all() and np.isin(y, np.arange(1.0, 7.0)).all()):
            problems.append("a drawn pair lies outside the joint's support")
        if not (_same_bits(res.read_back.x, x) and _same_bits(res.read_back.y, y)):
            problems.append("pairs read back from the CSV differ from the drawn pairs")
        ref = self._reference_for(x, y)
        values = {("ci", k, "point"): v for k, v in ref["points"].items() if v != 0.0}
        problems += estimate_problems(res.report, ref)
        return problems + _rendered_problems(res.text, ref["verdicts"], values)

    def cli_commands(self) -> list[list[str]]:
        return [
            ["sample", "--input", str(self.joint_path), "--n", str(self.items),
             "--seed", str(self.seed + 1), "--out", str(self.cli_path)],
            ["estimate", "--input", str(self.cli_path), "--format", "json", "--seed", str(self.seed),
             "--bootstrap", str(self.bootstrap), "--level", str(LEVEL)],
        ]

    def cli_problems(self, outputs: list[str], report: str) -> list[str]:
        problems = []
        if self.cli_path.read_bytes() != self.path.read_bytes():
            problems.append("CLI sample wrote another CSV than the in-process op")
        if outputs[1] != report + "\n":
            problems.append("CLI estimate output differs from the in-process report")
        return problems


WORKLOADS = {w.name: w for w in (ExactCompare, EstimateContinuous, SampleRoundtrip)}
