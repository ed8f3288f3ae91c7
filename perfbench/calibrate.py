"""A fixed reference kernel that measures how fast the host runs right now.

On a shared machine the speed of the cores drifts, from one second to
the next and in phases of minutes: the same invocation of the program
takes 2.0 s at one moment and 3.5 s at another, with its CPU time
moving alongside.  The benchmark therefore times this kernel between
invocations (so right before and right after each) and divides each
invocation's times by the kernel's slowdown against REFERENCE_S.  The
kernel uses numpy and the standard library only, never the package, so
no change to the program can change it.

It has three parts, one for each kind of work the workloads do:

- `interp`: a pure-Python loop of lookups in a 40 MB dict (interpreter
  dispatch and scattered memory reads, as in the command line's
  per-threshold and per-subset loops over Python objects);
- `small`: many numpy calls on 60 x 60 and 4 x 4 arrays (call overhead
  and small BLAS / LAPACK calls, as in the power iterations of
  `opnorm_detail` and the submatrix eigenvalues of `rip_k`);
- `stream`: a sparse-sample draw and a quadratic form on 8192 x 200
  arrays (random generation and memory traffic, as in `simulate_tail`).

The parts run once on each CPU the benchmark may use, pinned to it, and
the kernel's time is the geometric mean of all of them: the workloads
run on both cores, and the two cores of a shared host do not always
run at the same speed.

REFERENCE_S is the kernel's typical time on the machine the benchmark
was defined on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4 with
OpenBLAS 0.3.31).  A time divided by `speed_factor()` is "seconds at the
reference speed"; it equals the measured time whenever the host runs at
that speed.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

REFERENCE_S = 0.05

_SMALL = np.random.default_rng(1).standard_normal((60, 60))
_TINY = [m @ m.T for m in np.random.default_rng(2).standard_normal((64, 4, 4))]
_STREAM_A = np.random.default_rng(3).standard_normal((200, 200))
_TABLE = {int(k): i for i, k in enumerate(np.random.default_rng(5).integers(0, 1 << 40, 400_000))}
_KEYS = np.random.default_rng(6).permutation(list(_TABLE))[:60_000].tolist()


def _interp() -> float:
    started = time.perf_counter()
    acc = 0
    for key in _KEYS:
        acc += _TABLE[key] % 13
    return time.perf_counter() - started


def _small() -> float:
    started = time.perf_counter()
    x = np.ones(60)
    for _ in range(4_000):
        y = _SMALL @ x
        x = y / np.abs(y).max()
    for m in _TINY * 16:
        np.linalg.eigvalsh(m)
    return time.perf_counter() - started


def _stream() -> float:
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    rows, d = 8_192, 200
    xi = np.where(rng.random((rows, d)) < 0.5, rng.standard_exponential((rows, d)), 0.0)
    q = np.einsum("ij,ij->i", xi @ _STREAM_A, xi)
    np.sort(q)
    return time.perf_counter() - started


def kernel_s() -> float:
    """One timing of the kernel: the geometric mean of its parts on every CPU, in seconds."""
    cpus = sorted(os.sched_getaffinity(0))
    parts = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            parts += [_interp(), _small(), _stream()]
    finally:
        os.sched_setaffinity(0, cpus)
    return math.exp(sum(math.log(p) for p in parts) / len(parts))


def speed_factor(kernel_times: list[float]) -> float:
    """Host slowdown relative to the reference: > 1 when the host runs slow."""
    return float(np.median(kernel_times)) / REFERENCE_S
