"""Write references.json from the package in ./src.

    python3 perfbench/make_references.py

Run from the root of a checkout, only when a change is declared to alter
the outputs the check compares (see check.py).  Deterministic outputs
come from one invocation per workload; the Monte Carlo reference curve
uses REFERENCE_SAMPLES samples so that its Wilson intervals are narrower
than those of a benchmark invocation.  The `rip` reference is the sorted
sample of RIP_REFERENCE_REPLICATES values of rip_k(Sigma_hat - Sigma),
drawn the way the `rip` command draws its replicates.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402

os.environ.update(workloads.CHILD_ENV)

import numpy as np  # noqa: E402

from sparse_hw import cli  # noqa: E402
from sparse_hw import covest as cv  # noqa: E402

REFERENCE_SEED = 1
REFERENCE_SAMPLES = 1 << 21
RTOL = 1e-9
ATOL = 1e-12
WILSON_Z = 5.0
RIP_REFERENCE_REPLICATES = 2000


def rip_sample(matrix: np.ndarray, cfg: dict) -> list[float]:
    """Sorted rip_k(Sigma_hat - Sigma) over independent replicates."""
    model = cv.MultivariateModel(b=matrix, alpha=cfg["alpha"], p=(float(cfg["p"]),) * matrix.shape[0])
    sigma = model.sigma()
    rips = []
    for i in range(RIP_REFERENCE_REPLICATES):
        values, _ = cv.generate_samples(model, cfg["n"], cfg["seed"], stream_id=i)
        rips.append(cv.rip_k(cv.ipw_estimator(values, model.p_array()) - sigma, cfg["k"]))
    return sorted(float(f"{r:.10g}") for r in rips)


def main() -> int:
    refs = {"rtol": RTOL, "atol": ATOL, "wilson_z": WILSON_Z, "reference_seed": REFERENCE_SEED}
    workdir = BENCH / "_work" / "references"
    try:
        for name, wl in workloads.WORKLOADS.items():
            mc = wl.command == "hw-verify"
            argv, _ = workloads.build(
                name, REFERENCE_SEED, workdir, n_samples=REFERENCE_SAMPLES if mc else None
            )
            outdir = workdir / "out"
            code = cli.main(argv + ["--threads", str(workloads.THREADS), "--out", str(outdir)])
            if code not in (0, 1):
                print(f"{name}: exit {code}", file=sys.stderr)
                return 1
            res = json.loads((outdir / "report.json").read_text())["results"]
            if mc:
                refs[name] = {
                    "center": res["center"],
                    "L": res["L"],
                    "t_grid": res["t_grid"],
                    "bounds": res["bounds"],
                    "n_samples": REFERENCE_SAMPLES,
                    "counts": [round(s * REFERENCE_SAMPLES) for s in res["survival"]],
                }
            elif name == "bound-table":
                refs[name] = {k: res[k] for k in ("t_grid", "norms", "bounds")}
            else:
                refs[name] = {
                    "bound_rhs": res["bound_rhs"],
                    "rip_sample": rip_sample(
                        workloads.instance_matrix(name, REFERENCE_SEED),
                        workloads.config(name, REFERENCE_SEED, ""),
                    ),
                }
            print(f"{name}: reference written")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "references.json").write_text(json.dumps(refs, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
