"""The benchmark's pinned workloads and the inputs they are built from.

Every workload is one closed-loop run of the `sparse-hw` command line
on a generated input: the benchmark writes the matrix file and the JSON
config, and the program sees nothing else.

Inputs come from the workload seed as follows.  Each workload has a
pinned base matrix, drawn once from BASE_SEED with the benchmark's own
generator.  The workload seed draws a signed permutation (P, D) and the
program receives D P A0 P^T D (for `rip`, rows and columns of B are
permuted and signed separately); the seed is also the config `seed`,
so it selects the Monte Carlo streams.  A signed permutation is an
isometry of every l_r space and leaves an iid symmetric coordinate law
unchanged, so every deterministic output (norms, bounds, `bound_rhs`,
`center`, `L`) and the distribution of every simulated statistic is
the same for every seed.  That is what lets the references stored in
`references.json` check a run on a seed nobody has tried before, while
the program still computes on a different matrix and different random
streams each time.

Sizes are chosen so that one invocation takes a few seconds on two
cores and a run of BENCHMARK.json's `run_seconds` holds several of them;
see NOTES.md for why each workload exists and what it should show.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BASE_SEED = 20251017

# One thread per core; the pool threads are the only parallelism, so BLAS
# must not start its own.
THREADS = 2
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    work_unit: str
    expected_exit: int
    # None: the verdict is decided by the report's own numbers (see check.py)
    expected_verdicts: dict[str, bool] | None = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-sparse", "hw-verify", "samples", 0, {"tail_dominates_calibrated_exponent": True}),
        Workload("mc-dense", "hw-verify", "samples", 1, {"tail_dominates_calibrated_exponent": False}),
        Workload("bound-table", "bound-table", "thresholds", 0),
        Workload("rip", "rip", "replicates", 0, None),
    )
}

MC_N = 200
MC_SAMPLES = {"mc-sparse": 1 << 18, "mc-dense": 1 << 18}
BT_N = 60
BT_THRESHOLDS = 4
RIP_SHAPE = (14, 8)
RIP_REPLICATES = 100


def _pinned_symmetric(n: int, diagonal_free: bool) -> np.ndarray:
    g = np.random.default_rng([BASE_SEED, n]).standard_normal((n, n))
    a = 0.5 * (g + g.T)
    if diagonal_free:
        np.fill_diagonal(a, 0.0)
    return a


def _signed_permutation(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    return rng.permutation(n), rng.choice([-1.0, 1.0], size=n)


def instance_matrix(name: str, seed: int) -> np.ndarray:
    """The matrix handed to the program for workload `name` at `seed`."""
    rng = np.random.default_rng([BASE_SEED, seed])
    if name in ("mc-sparse", "mc-dense"):
        a0 = _pinned_symmetric(MC_N, diagonal_free=True)
    elif name == "bound-table":
        a0 = _pinned_symmetric(BT_N, diagonal_free=False)
    else:
        rows, cols = RIP_SHAPE
        b0 = np.random.default_rng([BASE_SEED, rows, cols]).standard_normal(RIP_SHAPE)
        rp, rs = _signed_permutation(rng, rows)
        cp, cs = _signed_permutation(rng, cols)
        return rs[:, None] * b0[np.ix_(rp, cp)] * cs[None, :]
    perm, signs = _signed_permutation(rng, a0.shape[0])
    return signs[:, None] * a0[np.ix_(perm, perm)] * signs[None, :]


def write_matrix_bin(path: Path, a: np.ndarray) -> None:
    """The package's binary matrix format: u64 rows, u64 cols, row-major f64."""
    with open(path, "wb") as fh:
        np.array(a.shape, dtype="<u8").tofile(fh)
        np.ascontiguousarray(a, dtype="<f8").tofile(fh)


def config(name: str, seed: int, matrix_path: str, n_samples: int | None = None) -> dict:
    """The JSON config for one invocation; n_samples overrides the MC size."""
    if name in ("mc-sparse", "mc-dense"):
        sparse = name == "mc-sparse"
        return {
            "matrix": {"bin": matrix_path},
            "model": {"alpha": 1.0, "p": 0.05 if sparse else 1.0},
            "t_grid": {
                "kind": "log",
                "start": 2.0 if sparse else 300.0,
                "stop": 400.0 if sparse else 2500.0,
                "num": 24,
            },
            "n_samples": n_samples or MC_SAMPLES[name],
            "seed": seed,
        }
    if name == "bound-table":
        return {
            "matrix": {"bin": matrix_path},
            "model": {"alpha": 1.5, "p": 0.3},
            "t_grid": {"kind": "log", "start": 1.0, "stop": 1000.0, "num": BT_THRESHOLDS},
            "seed": seed,
        }
    return {
        "b": {"bin": matrix_path},
        "alpha": 1.0,
        "p": 0.5,
        "n": 200,
        "k": 4,
        "t_values": [1, 2, 4, 8],
        "replicates": RIP_REPLICATES,
        # sup K2 over the axis directions only: random directions would make
        # bound_rhs depend on the seed (see the module docstring)
        "theta_budget": 0,
        "seed": seed,
    }


def work_units(cfg: dict, name: str) -> int:
    if name in ("mc-sparse", "mc-dense"):
        return cfg["n_samples"]
    if name == "bound-table":
        return cfg["t_grid"]["num"]
    return cfg["replicates"]


def build(name: str, seed: int, workdir: Path, n_samples: int | None = None) -> tuple[list[str], int]:
    """Write the inputs of one workload; return (CLI argv, work units)."""
    wl = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    matrix_path = workdir / "matrix.bin"
    write_matrix_bin(matrix_path, instance_matrix(name, seed))
    cfg = config(name, seed, str(matrix_path), n_samples)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    return [wl.command, "--config", str(cfg_path)], work_units(cfg, name)
