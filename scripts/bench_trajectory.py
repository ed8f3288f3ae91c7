"""Record one point of the benchmark trajectory as BENCH_<label>.json.

    python3 scripts/bench_trajectory.py LABEL [--seed N] [--checkout NAME=DIR ...]

Each checkout (by default this one, named "change") runs its own
`perfbench/run.py --trace 0` on every workload of BENCHMARK.json, at
BENCHMARK.json's `run_seconds`.  Workloads
run one after the other, and for each workload every checkout runs in
the order given, so a parent and a change named on one command line
are measured side by side on the same machine.  Before the first run
the `__pycache__` directories under each checkout's `src/` are deleted,
and every run has PYTHONDONTWRITEBYTECODE=1, so each side compiles its
own current source at every start and no stale or missing bytecode
tilts `setup_s` between checkouts.

BENCH_<label>.json, written at the root of this checkout, holds for each
checkout its `git rev-parse HEAD` (and whether the working tree differs
from it) and, per workload, each end-to-end metric's interquartile mean,
median and quartiles over the run's invocations, the invocation count,
the failed fraction and the environment block of perfbench/run.py's
results file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in SPEC["end_to_end"]]


def checkout_arg(text: str) -> tuple[str, Path]:
    name, sep, path = text.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError("expected NAME=DIR")
    return name, Path(path).resolve()


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=checkout, capture_output=True, text=True, check=True
    ).stdout.strip()


def clear_bytecode(checkout: Path) -> None:
    for cache in list((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)


def run_workload(checkout: Path, workload: str, seed: int) -> dict:
    """Run one workload in checkout; its metrics, counts and environment."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout}: exit {proc.returncode}\n{proc.stderr}")
    results = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(results.read_text())
    summary = record["summary"]
    return {
        "metrics": {
            name: {k: summary[name][k] for k in ("iqm", "median", "q1", "q3", "unit")}
            for name in METRICS
            if name in summary
        },
        "invocations": len(record["invocations"]),
        "failed_frac": record["failed_frac"],
        "environment": record["environment"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label")
    ap.add_argument("--seed", type=int, default=701)
    ap.add_argument("--checkout", action="append", type=checkout_arg)
    args = ap.parse_args(argv)
    checkouts = dict(args.checkout or [("change", ROOT)])

    points = {
        name: {
            "commit": git(path, "rev-parse", "HEAD"),
            "dirty": bool(git(path, "status", "--porcelain", "--untracked-files=no")),
            "workloads": {},
        }
        for name, path in checkouts.items()
    }
    for path in checkouts.values():
        clear_bytecode(path)
    for workload in (w["name"] for w in SPEC["workloads"]):
        for name, path in checkouts.items():
            result = run_workload(path, workload, args.seed)
            points[name]["workloads"][workload] = result
            run_s, failed = result["metrics"]["run_s_norm"]["iqm"], result["failed_frac"]
            print(f"{name} {workload}: run_s_norm {run_s:.4g} s, failed_frac {failed:.3g}")
    out = ROOT / f"BENCH_{args.label}.json"
    record = {
        "label": args.label,
        "seed": args.seed,
        "seconds": SPEC["run_seconds"],
        "checkouts": points,
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
