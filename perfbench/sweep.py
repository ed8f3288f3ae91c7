"""Repeat the benchmark over several seeds and report the spread.

    python3 perfbench/sweep.py --seeds 0-9

Run from the root of a checkout.  Every workload of BENCHMARK.json runs
end to end at every seed, interleaved (each seed runs every workload
before the next seed starts) so that slow drifts of a shared machine
spread over all of them.  For every end-to-end metric it prints the
median over the runs, the quartiles, and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json, and last the largest
spread as a share of its bound, setup_s included.  All final result
lines are appended to perfbench/results/sweep.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, required=True)
    args = ap.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    log = BENCH / "results" / "sweep.jsonl"
    values: dict[str, dict[str, list[float]]] = {n: {} for n in names}
    tried = {n: [0, 0] for n in names}  # failed, attempted invocations
    log.parent.mkdir(exist_ok=True)
    for seed in args.seeds:
        for name in names:
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(last)
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            tried[name][0] += result["failed"]
            tried[name][1] += result["attempted"]
            for k, v in result["metrics"].items():
                values[name].setdefault(k, []).append(v["value"])
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    worst = 0.0
    for name in names:
        for m in spec["end_to_end"]:
            vs = values[name].get(m["name"], [])
            if len(vs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / m["bound"])
            print(f"{name:12s} {m['name']:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} = {spread / m['bound']:.2f} of bound {m['bound']}")
    for name, (failed, attempted) in tried.items():
        print(f"{name:12s} failed_frac {failed / attempted!r} ({failed} of {attempted} invocations)")
    print(f"largest spread as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
