"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Run from the root of a checkout.  Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


@pytest.fixture
def tiny(monkeypatch):
    """One chunk per MC run, the fewest rip replicates, one invocation per loop."""
    monkeypatch.setattr(workloads, "MC_SAMPLES", {"mc-sparse": 1 << 16, "mc-dense": 1 << 16})
    monkeypatch.setattr(workloads, "RIP_REPLICATES", 10)
    monkeypatch.setattr(run, "MIN_INVOCATIONS", 1)
    monkeypatch.setattr(run, "MIN_TRACED", 1)


def _run(capsys, name: str, trace: int) -> dict:
    code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, name):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = _run(capsys, name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in listed} == {
            k: v["unit"] for k, v in result["metrics"].items()
        }
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _reference_report(name: str) -> tuple[dict, int]:
    """A report equal to the stored reference, and its exit code."""
    refs = check.load_references()
    ref = refs[name]
    wl = workloads.WORKLOADS[name]
    if wl.command == "hw-verify":
        n = ref["n_samples"]
        results = {k: ref[k] for k in ("center", "L", "t_grid", "bounds")}
        results["survival"] = [k / n for k in ref["counts"]]
        config = {"n_samples": n}
    elif wl.command == "bound-table":
        results, config = {k: ref[k] for k in ("t_grid", "norms", "bounds")}, {}
    else:
        sample = ref["rip_sample"]
        results = {
            "bound_rhs": ref["bound_rhs"],
            "rip_quantiles": {
                t: float(np.quantile(sample, 1.0 - 2.0 * math.exp(-float(t)))) for t in ref["bound_rhs"]
            },
            "rip_mean": float(np.mean(sample)),
        }
        report = {"results": results, "config": {"replicates": workloads.RIP_REPLICATES}}
        passed = check._rip_dominated(report)
        report["verdicts"] = [{"name": "rip_quantile_dominated_by_calibrated_bound", "passed": passed}]
        return report, 0 if passed else 1
    verdicts = [{"name": k, "passed": v} for k, v in wl.expected_verdicts.items()]
    return {"verdicts": verdicts, "results": results, "config": config}, wl.expected_exit


def _perturbed(report: dict, *path, factor: float) -> dict:
    """A copy of report with the number at results[path...] multiplied by factor."""
    copy = json.loads(json.dumps(report))
    *parents, leaf = path
    owner = copy["results"]
    for key in parents:
        owner = owner[key]
    owner[leaf] *= factor
    return copy


PERTURBATIONS = {
    "bound-table": [(("bounds", "sparse_alpha", 2), 1.01)],
    # a rip_k returning 0 leaves the recomputed verdict passing; the
    # quantile and mean checks must still flag it
    "rip": [
        (("bound_rhs", "4.0"), 1.01),
        (("rip_quantiles", "2.0"), 1.3),
        (("rip_quantiles", "1.0"), 0.0),
        (("rip_mean",), 0.0),
    ],
    "mc-sparse": [(("survival", 12), 1.05), (("bounds", "sparse_alpha", 3), 1.01)],
    "mc-dense": [(("survival", 12), 1.05), (("bounds", "sparse_alpha_refined", 3), 1.01)],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_flags_a_perturbed_report(name):
    refs = check.load_references()
    report, code = _reference_report(name)
    assert check.check_report(name, code, report, refs) == []
    if report["verdicts"]:
        flipped = json.loads(json.dumps(report))
        flipped["verdicts"][0]["passed"] = not flipped["verdicts"][0]["passed"]
        assert check.check_report(name, code, flipped, refs)
    for path, factor in PERTURBATIONS[name]:
        assert check.check_report(name, code, _perturbed(report, *path, factor=factor), refs), path


def test_traced_run_survives_a_missing_name():
    """A refactor that removes a wrapped name makes its metrics absent, not a crash."""
    script = f"""
import json, sys
sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]
from pathlib import Path
import sparse_hw.bounds, sparse_hw.cli
import tracer, workloads
workloads.MC_SAMPLES["mc-sparse"] = 1 << 14
del sparse_hw.bounds.comparison_bounds
t = tracer.Tracer()
t.install()
argv, _ = workloads.build("mc-sparse", 1, Path(sys.argv[1]))
code = sparse_hw.cli.main(argv + ["--threads", "2", "--out", sys.argv[1] + "/out"])
m = tracer.layer_metrics(t.spans)
print(json.dumps({{"code": code, "absent": t.absent, "absent_metrics": tracer.absent_metrics(t.absent),
                  "chunks": m["quadform_mc.chunks"]}}))
"""
    work = BENCH / "_work" / "smoke-missing-name"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script, str(work)],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["absent"] == ["bounds.comparison_bounds"]
    assert set(out["absent_metrics"]) == {"bounds.self_s", "bounds.comparison_calls"}
    assert out["chunks"] == 1
