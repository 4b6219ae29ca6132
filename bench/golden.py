"""Golden output hashes, so a later change can show its output is byte-identical.

    python3 bench/golden.py            # compare current hashes with bench/golden.json
    python3 bench/golden.py --write    # record the current hashes there

Hashed (SHA-256): the output of ``stochorder reproduce all``, of
``stochorder compare --format json`` on the example1 and example2 joints,
and each workload's rendered report at seed 0.  The comparison is
informational: differences are printed and the exit code stays 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

import harness
import run

GOLDEN = run.ROOT / "bench" / "golden.json"
SEED = 0


def _cli(argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "stochorder", *argv],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout


def current_hashes(so, workdir) -> dict[str, str]:
    import workloads

    outputs = {"reproduce_all": _cli(["reproduce", "all"])}
    for fixture in (so.example1(), so.example2()):
        path = workdir / f"{fixture.name}.json"
        atoms = [{"x": x, "y": y, "p": p} for x, y, p in fixture.joint.atoms]
        path.write_text(json.dumps({"atoms": atoms}) + "\n", encoding="utf-8")
        outputs[f"compare_json_{fixture.name}"] = _cli(["compare", "--input", str(path), "--format", "json"])
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(so, workdir, SEED)
        wl.setup()
        report, problems, _ = harness.attempt(wl)
        if problems:
            raise SystemExit(f"{name} at seed {SEED} fails its check: {problems[:3]}")
        outputs[f"{name}_report_seed{SEED}"] = report
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in outputs.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="Record or compare golden output hashes.")
    parser.add_argument("--write", action="store_true", help="record the current hashes")
    args = parser.parse_args()
    run.pin_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import stochorder as so
    import stochorder.cli  # noqa: F401  (the workloads render through it)

    workdir = run.ROOT / ".bench_work" / f"golden-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        hashes = current_hashes(so, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.write:
        GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(hashes)} hashes to {GOLDEN.relative_to(run.ROOT)}")
        return 0
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name in sorted(set(hashes) | set(recorded)):
        status = "same" if hashes.get(name) == recorded.get(name) else "DIFFERENT"
        print(f"{status:10s}{name}  {hashes.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
