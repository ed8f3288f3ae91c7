"""The sparse-hw benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of workloads.py as a closed loop of `sparse-hw` CLI
invocations, each in a fresh child process (child.py), until S seconds
have passed (at least MIN_INVOCATIONS times), and checks every report
(check.py).  It must be started from the root of a source checkout: the
children import the package from ./src.

--trace 0 reports the end-to-end metrics, each the interquartile mean
(the mean of the middle half) over the invocations: setup_s,
run_s_norm, work_per_s_norm, cpu_s_norm and peak_rss_mb.  The `_norm`
metrics are the measured run_s, work_per_s and cpu_s at the reference
speed of calibrate.py: the reference kernel is timed between
invocations (so right before and right after each), and each
invocation's times are divided by its speed_factor, the mean of the two
kernel times over the kernel's reference time.  A shared machine's
speed drifts over seconds and minutes; this takes most of the drift out
of the comparison of two runs.
--trace 1 alternates untraced and traced invocations, then (for the
Monte Carlo workloads) adds one traced invocation at --threads 1, and
reports the per-layer metrics of tracer.py; trace.overhead_s is the
traced run_s minus the untraced median.  Every traced invocation must
give the same exact counts.

Human-readable lines come first; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.  A results
file with the environment, every invocation and the quartiles is written
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_INVOCATIONS = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s_norm": "s",
    "work_per_s_norm": "1/s",
    "cpu_s_norm": "s",
    "peak_rss_mb": "MiB",
}
# measured values, reported beside the end-to-end metrics and in the results file
MEASURED_UNITS = {"run_s": "s", "work_per_s": "1/s", "cpu_s": "s", "speed_factor": "ratio"}


def _read_proc(path: str, key: str) -> str:
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(child_env: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_proc("/proc/cpuinfo", "model name"),
        "ram": _read_proc("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        **child_env,
        "blas_threads": int(workloads.CHILD_ENV["OPENBLAS_NUM_THREADS"]),
        "loadavg_at_start": os.getloadavg(),
    }


def spawn(spec: dict, workdir: Path) -> dict | None:
    """Run child.py on spec; return its result plus cpu_s (and peak_rss_mb where it has none)."""
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    result_path = Path(spec["result"])
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), **workloads.CHILD_ENV)
    with open(workdir / "child.log", "ab") as log:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), repr(started), str(spec_path)],
            cwd=ROOT,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        # os.wait4 rather than Popen.wait: it returns the child's rusage
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - started > CHILD_TIMEOUT_S:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        return None
    out = json.loads(result_path.read_text())
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    if out.get("peak_rss_mb") is None:
        out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return out


class Runner:
    """Invocations of one workload at one seed, with their checks."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.wl = workloads.WORKLOADS[name]
        self.workdir = workdir
        self.argv, self.work = workloads.build(name, seed, workdir)
        self.refs = check.load_references()
        self.invocations: list[dict] = []
        calibrate.kernel_s()  # the first timing pays page faults and caches
        self.kernel_s = calibrate.kernel_s()

    def warm_up(self) -> dict:
        """Import once untimed so byte-code and file caches are warm; return the environment."""
        res = spawn(
            {"src": str(SRC), "import_only": True, "result": str(self.workdir / "result.json")},
            self.workdir,
        )
        if res is None:
            raise RuntimeError(f"cannot import sparse_hw from {SRC}; see {self.workdir / 'child.log'}")
        return res["environment"]

    def invoke(self, trace: bool, threads: int = workloads.THREADS) -> dict:
        outdir = self.workdir / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        spec = {
            "src": str(SRC),
            "argv": self.argv + ["--threads", str(threads), "--out", str(outdir)],
            "trace": trace,
            "result": str(self.workdir / "result.json"),
        }
        # the kernel timed after one invocation is also the one before the next
        before = self.kernel_s
        res = spawn(spec, self.workdir)
        self.kernel_s = calibrate.kernel_s()
        speed = calibrate.speed_factor([before, self.kernel_s])
        if res is None:
            inv = {"problems": ["child process failed"], "trace": trace, "threads": threads}
        else:
            inv = {**res, "trace": trace, "threads": threads}
            inv["problems"] = check.check_outdir(self.name, res["exit_code"], outdir, self.refs)
            inv["work_per_s"] = self.work / res["run_s"]
            inv["speed_factor"] = speed
            inv["run_s_norm"] = res["run_s"] / speed
            inv["cpu_s_norm"] = res["cpu_s"] / speed
            inv["work_per_s_norm"] = inv["work_per_s"] * speed
        self.invocations.append(inv)
        return inv

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv["problems"])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: robust to the slowest and fastest quarter,
    and steadier than the median over the few invocations a run holds."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    started = time.monotonic()
    while len(runner.invocations) < MIN_INVOCATIONS or time.monotonic() - started < seconds:
        runner.invoke(trace=False)
    good = [inv for inv in runner.invocations if not inv["problems"]] or runner.invocations
    summary, metrics = {}, {}
    for key, unit in {**END_TO_END_UNITS, **MEASURED_UNITS}.items():
        values = [inv[key] for inv in good if key in inv]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        iqm = interquartile_mean(values)
        summary[key] = {"iqm": iqm, "median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit}
        if key in END_TO_END_UNITS:
            metrics[key] = {"value": iqm, "unit": unit}
    return summary, metrics


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    started = time.monotonic()
    untraced, traced = [], []
    while (
        len(traced) < MIN_TRACED or len(untraced) < MIN_TRACED or time.monotonic() - started < seconds
    ):
        untraced.append(runner.invoke(trace=False))
        traced.append(runner.invoke(trace=True))
    # one more traced invocation at --threads 1 gives the MC thread speed-up
    single = [runner.invoke(trace=True, threads=1)] if runner.wl.command == "hw-verify" else []
    ok = [inv for inv in traced if "spans" in inv]
    if not ok:
        return {"problems": ["no traced invocation completed"]}, {}
    per_run = [tracer.layer_metrics(inv["spans"]) for inv in ok]
    counts = {k: [m[k] for m in per_run] for k in tracer.EXACT_COUNTS}
    for inv in single:
        if "spans" in inv:
            one = tracer.layer_metrics(inv["spans"])
            for k in counts:
                counts[k].append(one[k])
    for k, values in counts.items():
        if len(set(values)) > 1:
            for inv in traced + single:
                inv["problems"].append(f"exact count {k} differs between traced runs: {values}")
    values = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    values.update({k: v[0] for k, v in counts.items()})
    traced_run_s = statistics.median(inv["run_s"] for inv in ok)
    untraced_run_s = [inv["run_s"] for inv in untraced if "run_s" in inv]
    values["trace.run_s"] = traced_run_s
    values["trace.overhead_s"] = traced_run_s - statistics.median(untraced_run_s) if untraced_run_s else 0.0
    sim2 = statistics.median(tracer.simulate_wall(inv["spans"]) for inv in ok)
    sim1 = [tracer.simulate_wall(inv["spans"]) for inv in single if "spans" in inv]
    values["quadform_mc.thread_speedup"] = sim1[0] / sim2 if sim1 and sim2 else 0.0
    absent = tracer.absent_metrics(ok[0]["absent"])
    summary = {"absent_names": ok[0]["absent"], "absent_metrics": absent, "exact_counts": counts}
    metrics = {
        k: {"value": values[k], "unit": unit}
        for k, unit in tracer.PER_LAYER_UNITS.items()
        if k not in absent
    }
    return summary, metrics


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparse_hw" / "cli.py").is_file():
        print(f"no sparse_hw package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner = Runner(args.workload, args.seed, workdir)
        env = environment(runner.warm_up())
        if args.trace:
            summary, metrics = run_traced(runner, args.seconds)
        else:
            summary, metrics = run_untraced(runner, args.seconds)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.invocations)
    failed = runner.failed
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} invocations, "
        f"work unit {runner.wl.work_unit}"
    ]
    for inv in runner.invocations:
        for problem in inv["problems"]:
            lines.append(f"FAILED: {problem}")
    if args.trace:
        lines += [f"{k}: {v['value']!r} {v['unit']}" for k, v in metrics.items()]
        lines += [f"absent: {m}" for m in summary.get("absent_metrics", [])]
    else:
        lines += [
            f"{k}: {s['iqm']!r} {s['unit']} (median {s['median']:.6g}, quartiles {s['q1']:.6g} .. {s['q3']:.6g}, n={s['n']})"
            for k, s in summary.items()
        ]
    lines.append(f"failed_frac: {failed / attempted!r} (failed {failed} of {attempted})")
    print("\n".join(lines))

    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_unit": runner.wl.work_unit,
        "environment": env,
        "summary": summary,
        "failed_frac": failed / attempted,
        "invocations": [{k: v for k, v in inv.items() if k != "spans"} for inv in runner.invocations],
    }
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
