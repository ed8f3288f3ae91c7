"""Correctness check of one invocation's report.

An invocation is correct when
  * the exit code and the verdict names and flags equal the workload's
    recorded expected outcome (`workloads.WORKLOADS`).  The `rip`
    verdict calibrates at the 1 - 2e^-8 quantile, which its replicate
    count cannot resolve, so it passes or fails with the seed (see
    NOTES.md); its expected flag is recomputed from the reported
    quantiles and bound_rhs, and the exit code must agree with it;
  * every deterministic output matches `references.json` within the
    tolerance recorded there (`rtol` relative, `atol` where the
    reference is exactly zero): the `bound-table` bounds and norms, the
    `rip` bound_rhs, and the `hw-verify` center, L and bounds;
  * every point of the Monte Carlo survival curve agrees with the
    reference curve within Wilson intervals at z = `wilson_z`, computed
    for both curves.  Agreement is statistical, not bitwise, so a
    declared change of the random-stream layout passes while a wrong
    statistic or centre does not;
  * the `rip` quantiles at the levels of t = 1 and 2, and the mean of
    rip_k over the replicates, agree with the reference sample of rip_k
    values: for a reported quantile q at level l over R replicates, the
    Wilson interval of l at R and that of the reference fraction <= q
    must overlap at z = `wilson_z`, and the mean must lie within
    z standard errors of the reference mean.  The deeper levels are left
    out, because R replicates cannot resolve them (see NOTES.md).

`references.json` is written by make_references.py from the code the
benchmark was defined on; the workloads make every deterministic output
independent of the seed, so one reference serves every seed.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
from pathlib import Path

from workloads import WORKLOADS

REFERENCES = Path(__file__).with_name("references.json")
RIP_CHECKED_T = ("1.0", "2.0")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def wilson(k: float, n: int, z: float) -> tuple[float, float]:
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return center - half, center + half


def _close(value, ref, rtol: float, atol: float) -> bool:
    if ref == 0.0:
        return abs(value) <= atol
    return abs(value - ref) <= rtol * abs(ref)


def _compare(label: str, got, ref, rtol: float, atol: float, problems: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            problems.append(f"{label}: keys {sorted(got) if isinstance(got, dict) else got} != {sorted(ref)}")
            return
        for k in ref:
            _compare(f"{label}.{k}", got[k], ref[k], rtol, atol, problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{label}: length differs from the reference")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _compare(f"{label}[{i}]", g, r, rtol, atol, problems)
    elif not isinstance(got, (int, float)) or not _close(float(got), float(ref), rtol, atol):
        problems.append(f"{label}: {got!r} differs from reference {ref!r}")


def check_report(name: str, exit_code: int, report: dict | None, refs: dict) -> list[str]:
    """Problems found in one invocation; an empty list means correct."""
    wl = WORKLOADS[name]
    if report is None:
        return [f"exit code {exit_code}, no report written"]
    problems = []
    expected, expected_exit = wl.expected_verdicts, wl.expected_exit
    if expected is None:
        expected = {"rip_quantile_dominated_by_calibrated_bound": _rip_dominated(report)}
        expected_exit = 0 if all(expected.values()) else 1
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code}, expected {expected_exit}")
    verdicts = {v["name"]: v["passed"] for v in report.get("verdicts", [])}
    if verdicts != expected:
        problems.append(f"verdicts {verdicts}, expected {expected}")
    ref = refs[name]
    rtol, atol = refs["rtol"], refs["atol"]
    res = report.get("results", {})
    if wl.command == "hw-verify":
        for key in ("center", "L", "t_grid", "bounds"):
            _compare(key, res.get(key), ref[key], rtol, atol, problems)
        _check_survival(res.get("survival"), report["config"]["n_samples"], ref, refs["wilson_z"], problems)
    elif wl.command == "bound-table":
        for key in ("t_grid", "norms", "bounds"):
            _compare(key, res.get(key), ref[key], rtol, atol, problems)
    else:
        _compare("bound_rhs", res.get("bound_rhs"), ref["bound_rhs"], rtol, atol, problems)
        _check_rip(res, report["config"]["replicates"], ref["rip_sample"], refs["wilson_z"], problems)
    return problems


def _rip_dominated(report: dict) -> bool:
    """The rip verdict as the report's quantiles and bound_rhs decide it."""
    res = report.get("results", {})
    q, rhs = res.get("rip_quantiles", {}), res.get("bound_rhs", {})
    if not q or set(q) != set(rhs):
        return False
    t0 = max(q, key=float)
    c_hat = q[t0] / rhs[t0]
    slack = report["config"].get("rel_slack", 0.0)
    return all(q[t] <= c_hat * rhs[t] * (1 + slack) + 1e-12 for t in q)


def _check_survival(survival, n: int, ref: dict, z: float, problems: list[str]) -> None:
    if not isinstance(survival, list) or len(survival) != len(ref["counts"]):
        problems.append("survival curve missing or of the wrong length")
        return
    for t, s, k_ref in zip(ref["t_grid"], survival, ref["counts"]):
        lo, hi = wilson(round(s * n), n, z)
        ref_lo, ref_hi = wilson(k_ref, ref["n_samples"], z)
        if hi < ref_lo or lo > ref_hi:
            problems.append(
                f"survival at t={t:.4g} is {s:.4g}, outside the reference "
                f"{k_ref / ref['n_samples']:.4g} at z={z}"
            )


def _check_rip(res: dict, replicates: int, sample: list[float], z: float, problems: list[str]) -> None:
    quantiles = res.get("rip_quantiles", {})
    n_ref = len(sample)
    for t in RIP_CHECKED_T:
        q = quantiles.get(t)
        if not isinstance(q, (int, float)):
            problems.append(f"rip quantile at t={t} missing")
            continue
        level = 1.0 - 2.0 * math.exp(-float(t))
        k_ref = bisect.bisect_right(sample, q)
        lo, hi = wilson(level * replicates, replicates, z)
        ref_lo, ref_hi = wilson(k_ref, n_ref, z)
        if hi < ref_lo or lo > ref_hi:
            problems.append(
                f"rip quantile at t={t} is {q:.4g}, at reference level "
                f"{k_ref / n_ref:.4g} instead of {level:.4g} at z={z}"
            )
    mean, sd = statistics.fmean(sample), statistics.stdev(sample)
    got = res.get("rip_mean")
    if not isinstance(got, (int, float)) or abs(got - mean) > z * sd * math.sqrt(1 / replicates + 1 / n_ref):
        problems.append(f"rip_mean {got!r} differs from the reference mean {mean:.4g} at z={z}")


def check_outdir(name: str, exit_code: int, outdir: Path, refs: dict) -> list[str]:
    try:
        report = json.loads((outdir / "report.json").read_text())
    except (OSError, ValueError):
        report = None
    return check_report(name, exit_code, report, refs)
