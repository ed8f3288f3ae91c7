"""Every documented exit case of the command line, each written once.

A Case is one run of the program: its argv, the input files it reads and
the outcome the README documents for it, an exit code and the one line
it prints on stderr.  The line is "" where none is documented: a run
that exits 0 prints nothing, and argparse's usage error prints its usage
before its error line.  Every run reads its inputs from, and writes its
--out directory `out` into, a directory of its own.  A run that exits
2, 3 or 4 writes no file there.

tests/test_cli.py runs every case through cli.main in this process, and
a memory-capped case (`vmem`: a run that skipped its check would ask for
more than 2 GiB) in a `python -m sparse_hw.cli` child limited to 2 GiB of
address space.  CI runs them through the installed console script:

    python tests/exit_cases.py DIR

writes each case's inputs into DIR/<id>/ and prints one tab-separated
line per case: id, exit code, `vmem` or `-`, stderr line, then the argv.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple[str, ...]
    code: int
    stderr: str
    files: dict[str, bytes | None]  # name -> contents; None makes a directory
    vmem: bool = False


def golden(case: str, **patch) -> dict:
    """The config of a golden case, with the given fields replaced."""
    return json.loads((GOLDEN / case / "config.json").read_text()) | patch


HW_CONFIG = {
    "matrix": {"kind": "exchange", "n": 2},
    "model": {"alpha": 1.0, "p": 0.5},
    "t_grid": {"kind": "log", "start": 8.0, "stop": 120.0, "num": 12},
    "n_samples": 1_000_000,
    "seed": 7,
    "rel_slack": 0.1,
}
HW_SMALL = dict(HW_CONFIG, t_grid={"values": [1e300]}, n_samples=2000)
HUGE_BASE = {"kind": "weibull", "alpha": 1.0, "scale": 8e153}
TABLE_CONFIG = {
    "matrix": {"values": [[0.0, 1.0], [1.0, 0.0]]},
    "model": {"alpha": 1.0, "p": 0.5},
    "t_grid": {"values": [1.0, 2.0]},
    "seed": 0,
}
RIP_POOL = golden("rip", replicates=1000, n=200)  # 7 replicate batches, enough for a pool
BUDGET = "exceeds the input budget of 268435456 entries"

CASES: list[Case] = []


def config_case(id, command, cfg, code, stderr, *options, files=None, vmem=False):
    """A config command on cfg (a dict, or the raw bytes of config.json)."""
    text = cfg if isinstance(cfg, bytes) else json.dumps(cfg).encode()
    argv = (command, "--config", "config.json", *options, "--out", "out")
    CASES.append(Case(id, argv, code, stderr, {"config.json": text, **(files or {})}, vmem))


def norms_case(id, matrix, options, stderr, files=None, vmem=False):
    """norms on the file `matrix`; it exits 2."""
    argv = ("norms", matrix, *options, "--out", "out")
    CASES.append(Case(id, argv, 2, stderr, files or {}, vmem))


def error(message: str) -> str:
    return f"config error: {message}"


def rejected(message: str) -> str:
    return f"config error: config rejected: {message}"


def csv_text(m) -> bytes:
    out = io.StringIO()
    np.savetxt(out, m, delimiter=",", fmt="%.17g")
    return out.getvalue().encode()


def bin_file(rows: int, cols: int, payload: bytes) -> bytes:
    return rows.to_bytes(8, "little") + cols.to_bytes(8, "little") + payload


GOLDEN_NORMS = np.loadtxt(GOLDEN / "norms" / "matrix.csv", delimiter=",")
NORMS_OPTIONS = ("--alpha", "1.5", "--p", "0.5,0.3,0.8,0.6")
EYE = {"matrix.csv": b"1.0,0.0\n0.0,1.0\n"}
FOUR = {"matrix.csv": (GOLDEN / "norms" / "matrix.csv").read_bytes()}

# --- argparse and norms options
CASES.append(Case("unknown-command", ("nonsense",), 2, "", {}))
norms_case("norms-alpha-0", "matrix.csv", ("--alpha", "0"), error("alpha must lie in (0, 2], got 0.0"), EYE)
norms_case("norms-alpha-3", "matrix.csv", ("--alpha", "3"), error("alpha must lie in (0, 2], got 3.0"), FOUR)
for id, p, message in [
    ("norms-p-of-wrong-length", "0.5,0.3,0.8", "p has 3 entries, instance needs 4"),
    ("norms-p-2", "2", "retention probabilities must lie in [0, 1]"),
    ("norms-p-nan", "nan", "retention probabilities must lie in [0, 1]"),
    ("norms-p-abc", "abc", "could not convert string to float: 'abc'"),
    ("norms-p-trailing-comma", "0.5,", "could not convert string to float: ''"),
]:
    norms_case(id, "matrix.csv", ("--p", p), error(message), FOUR)
# times 8e307 every entry is finite but ||A||_F is about 3.4e308; times 1e200
# only gamma1, a sum of squares, overflows
for scale, name in ((8e307, "frobenius"), (1e200, "gamma1")):
    norms_case(
        f"norms-{name}-overflows", "matrix.csv", NORMS_OPTIONS,
        error(f"{name} is inf: the matrix entries are too large"),
        {"matrix.csv": csv_text(GOLDEN_NORMS * scale)},
    )

# --- matrix files that cannot be read, or hold no matrix
UNREADABLE = {
    "missing-csv": ("csv", "absent.csv", "cannot read matrix file: [Errno 2] No such file or directory: 'absent.csv'"),
    "missing-bin": ("bin", "absent.bin", "cannot read matrix file: [Errno 2] No such file or directory: 'absent.bin'"),
    "directory": ("csv", "folder", "cannot read matrix file: [Errno 21] Is a directory: 'folder'"),
    "not-utf-8": ("csv", "latin1.csv", "matrix file 'latin1.csv' is not UTF-8 text; a binary matrix goes under \"bin\""),
}
UNREADABLE_FILES = {"folder": None, "latin1.csv": b"\xbc1,2\n"}
for command, case, field in [
    ("bound-table", "bound-table-dense", "matrix"),
    ("rip", "rip", "b"),
    ("covest", "covest", "b"),
    ("sketch", "sketch", "x"),
]:
    for name, (kind, path, message) in UNREADABLE.items():
        cfg = golden(case, **{field: {kind: path}})
        config_case(f"{command}-{name}", command, cfg, 2, error(message), files=UNREADABLE_FILES)
for name in ("missing-csv", "directory"):
    kind, path, message = UNREADABLE[name]
    norms_case(f"norms-{name}", path, (), error(message), UNREADABLE_FILES)
norms_case("norms-not-utf-8", "latin1.csv", (), error(
    "matrix file 'latin1.csv' is not UTF-8 text; read a binary matrix with --format bin"), UNREADABLE_FILES)

# a header must fit its file before anything is allocated (a 2^20 x 2^20
# header asks for 8 TiB) and fill it exactly
NO_MATRIX = {
    "header-2^20x2^20": ("big.bin", bin_file(1 << 20, 1 << 20, bytes(32)), "truncated matrix payload", True),
    "header-2^63x2": ("huge.bin", bin_file(1 << 63, 2, bytes(32)), "truncated matrix payload", True),
    "header-0x3": ("none.bin", bin_file(0, 3, b""), "matrix file 'none.bin' holds no entries", False),
    "empty-csv": ("empty.csv", b"", "matrix file 'empty.csv' holds no entries", False),
    # once loaded as [[0, 1], [2, 3]] without a word
    "header-2x2-5-entries": (
        "long.bin", bin_file(2, 2, np.arange(5, dtype="<f8").tobytes()),
        "matrix file 'long.bin' holds 8 bytes past its 2 x 2 entries", False,
    ),
}
for name, (path, data, message, vmem) in NO_MATRIX.items():
    files = {path: data}
    norms_case(f"norms-{name}", path, (), error(message), files, vmem)
    spec = {path.rsplit(".", 1)[1]: path}
    config_case(f"bound-table-{name}", "bound-table", golden("bound-table-dense", matrix=spec), 2,
                error(message), files=files, vmem=vmem)

# --- configs that are not JSON, or that the schemas reject
config_case("config-not-utf-8", "bound-table", b"\xbc{}", 2,
            error("'utf-8' codec can't decode byte 0xbc in position 0: invalid start byte"))
config_case(
    "config-integer-past-the-digit-limit", "bound-table", b'{"seed": ' + b"9" * 5000 + b"}", 2,
    error("Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits;"
          " use sys.set_int_max_str_digits() to increase the limit"),
)
config_case("hw-verify-broken-json", "hw-verify", b"{", 2, error(
    "config is not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"))
# with the message jsonschema's best_match gives
REJECTIONS = [
    ("hw-verify-alpha-above-2", "hw-verify", dict(HW_CONFIG, model={"alpha": 3.0, "p": 0.5}),
     "3.0 is greater than the maximum of 2"),
    ("hw-verify-missing-seed", "hw-verify", {k: v for k, v in HW_CONFIG.items() if k != "seed"},
     "'seed' is a required property"),
    ("hw-verify-unknown-key", "hw-verify", dict(HW_CONFIG, extra=1),
     "Additional properties are not allowed ('extra' was unexpected)"),
    ("hw-verify-two-errors", "hw-verify", dict(HW_CONFIG, n_samples="many", seed=-1.5),
     "-1.5 is not of type 'integer'"),
    ("bernstein-verify-string-entry", "bernstein-verify",
     golden("bernstein-verify", vector={"values": [1.0, "x"]}), "'x' is not of type 'number'"),
    ("covest-p-above-1", "covest", golden("covest", p=[0.5, 1.5]), "1.5 is greater than the maximum of 1"),
    ("rip-zero-threshold", "rip", golden("rip", t_values=[0.0, 1.0]),
     "0.0 is less than or equal to the minimum of 0"),
    ("sketch-eta-at-1", "sketch", golden("sketch", eta=1), "1 is greater than or equal to the maximum of 1"),
    ("sample-bad-kind", "sample", golden("sample", base={"kind": "cauchy"}),
     "'cauchy' is not one of ['weibull', 'gaussian', 'rademacher']"),
    ("bound-table-three-missing-keys", "bound-table", {"seed": 0}, "'matrix' is a required property"),
    ("bound-table-L-in-no-branch", "bound-table", TABLE_CONFIG | {"L": "manual"},
     "'manual' is not valid under any of the given schemas"),
]
for id, command, cfg, message in REJECTIONS:
    config_case(id, command, cfg, 2, rejected(message))
# jsonschema's own `integer` accepts 3.0; these configs used to crash or mislead
INTEGER_FLOATS = [
    ("hw-verify-n_samples-float", "hw-verify", golden("hw-verify-refined", n_samples=1000.0), 1000.0),
    ("bernstein-verify-vector-n-float", "bernstein-verify",
     golden("bernstein-verify", vector={"kind": "ones", "n": 3.0}), 3.0),
    ("covest-seed-float", "covest", golden("covest", seed=0.0), 0.0),
    ("rip-k-float", "rip", golden("rip", k=2.0), 2.0),
    ("sketch-r_values-float", "sketch", golden("sketch", r_values=[2.0]), 2.0),
    ("sample-n-float", "sample", golden("sample", n=10.0), 10.0),
    ("bound-table-t_grid-num-float", "bound-table",
     TABLE_CONFIG | {"t_grid": {"kind": "log", "start": 1.0, "stop": 9.0, "num": 3.0}}, 3.0),
]
for id, command, cfg, value in INTEGER_FLOATS:
    config_case(id, command, cfg, 2, rejected(f"{value} is not of type 'integer'"))
config_case("hw-verify-empty-matrix", "hw-verify", dict(HW_CONFIG, matrix={}), 2,
            error("matrix spec needs csv, bin, values, or kind"))
config_case("hw-verify-missing-n_samples", "hw-verify", {k: v for k, v in HW_CONFIG.items() if k != "n_samples"},
            2, rejected("'n_samples' is a required property"))
# --threads is the one thread-count setting; the config field is gone
config_case("hw-verify-threads-field", "hw-verify", dict(HW_CONFIG, threads=2, n_samples=1000), 2,
            rejected("Additional properties are not allowed ('threads' was unexpected)"))
config_case("bernstein-verify-alpha-above-1", "bernstein-verify", {
    "vector": {"kind": "ones", "n": 2},
    "model": {"alpha": 1.5, "p": 1.0},
    "t_grid": {"values": [1.0, 2.0]},
    "n_samples": 100,
    "seed": 1,
}, 2, error("linear-form verification needs alpha in (0, 1]"))

# --- generated inputs without their size
SQUARE = ("bound-table", "bound-table-dense", "matrix")
RECT = ("sketch", "sketch", "x")
VECTOR = ("bernstein-verify", "bernstein-verify", "vector")
for (command, case, field), spec, missing in [
    (SQUARE, {"kind": "exchange"}, "n"),
    (SQUARE, {"kind": "identity"}, "n"),
    (SQUARE, {"kind": "random_dense"}, "n"),
    (RECT, {"kind": "random_rect", "rows": 3}, "cols"),
    (RECT, {"kind": "random_lowrank", "rows": 3, "cols": 3}, "rank"),
    (VECTOR, {"kind": "ones"}, "n"),
]:
    what = "vector" if field == "vector" else "matrix"
    config_case(
        f"{command}-{spec['kind']}-without-{missing}", command, golden(case, **{field: spec}), 2,
        error(f"{what} kind {spec['kind']!r} needs {missing!r}"), "--threads", "1",
    )

# --- input the schemas admit and a library check rejects, each a ConfigError where it is found
RANDOM_3X3_INF = {"kind": "random_rect", "rows": 3, "cols": 3, "seed": 5, "scale": 1e308}
SKETCH_X = golden("sketch")["x"]
for id, command, cfg, message in [
    ("bound-table-vector-values", "bound-table", dict(TABLE_CONFIG, matrix={"values": [1.0, 2.0]}),
     "expected a square matrix"),
    ("bound-table-ragged-values", "bound-table", dict(TABLE_CONFIG, matrix={"values": [[1.0, 2.0], [3.0]]}),
     "setting an array element with a sequence. The requested array has an inhomogeneous"
     " shape after 1 dimensions. The detected shape was (2,) + inhomogeneous part."),
    # once exit 4, as a TypeError
    ("bound-table-object-entry", "bound-table",
     dict(TABLE_CONFIG, matrix={"values": [[1.0, {"a": 1}], [3.0, 4.0]]}),
     "float() argument must be a string or a real number, not 'dict'"),
    ("bound-table-generated-inf-entries", "bound-table",
     dict(TABLE_CONFIG, matrix={"kind": "random_dense", "n": 5, "seed": 8, "scale": 1e308}),
     "matrix entries must be finite"),
    ("bound-table-nan-csv", "bound-table", dict(TABLE_CONFIG, matrix={"csv": "nan.csv"}),
     "matrix entries must be finite"),
    ("bound-table-abc-csv", "bound-table", dict(TABLE_CONFIG, matrix={"csv": "abc.csv"}),
     "could not convert string 'abc' to float64 at row 0, column 2."),
    ("bound-table-short-bin", "bound-table", dict(TABLE_CONFIG, matrix={"bin": "short.bin"}),
     "truncated matrix header"),
    ("bound-table-weibull-without-alpha", "bound-table",
     dict(TABLE_CONFIG, model={"alpha": 1.0, "p": 0.5, "base": {"kind": "weibull"}}),
     "weibull base requires alpha"),
    ("bound-table-nan-p", "bound-table", dict(TABLE_CONFIG, model={"alpha": 1.0, "p": math.nan}),
     "retention probabilities must lie in [0, 1]"),
    ("bernstein-verify-empty-vector", "bernstein-verify", golden("bernstein-verify", vector={"values": []}),
     "p must be nonempty"),
    ("covest-vector-b", "covest", golden("covest", b={"values": [1.0, 2.0]}, p=0.5), "B must be a 2-D array"),
    ("covest-inf-b-entries", "covest", golden("covest", b=RANDOM_3X3_INF, p=0.5), "B entries must be finite"),
    # once exit 4, as a ZeroDivisionError
    ("rip-p-1e-300", "rip", golden("rip", p=1e-300), "p = 1e-300 underflows to 0 when squared"),
    ("sketch-vector-x", "sketch", golden("sketch", x={"values": [1.0, 2.0]}), "X must be 2-D"),
    ("sketch-inf-x-entries", "sketch", golden("sketch", x=RANDOM_3X3_INF), "X entries must be finite"),
    ("sketch-zero-x", "sketch", golden("sketch", x={"values": [[0.0, 0.0]]}), "X is zero; nothing to sketch"),
    ("sketch-rank-above-detected", "sketch",
     golden("sketch", x={"values": [[1.0, 0.0], [0.0, 1.0]]}, allow_wide=False),
     "target rank r=6 exceeds detected rank k=2; pass allow_wide=True to proceed"),
    ("sketch-nan-p", "sketch", golden("sketch", p=math.nan), "p must lie in (0, 1]"),
    ("sketch-nan-eta", "sketch", golden("sketch", eta=math.nan), "eta must lie in (0, 1)"),
]:
    files = {"nan.csv": b"1,nan\n2,3\n", "abc.csv": b"1,abc\n2,3\n", "short.bin": b"\x01\x00"}
    config_case(id, command, cfg, 2, error(message), "--threads", "1", files=files)

# --- models whose numbers overflow or are not finite
for id, command, cfg, message in [
    ("hw-verify-alpha-0.01", "hw-verify", dict(HW_SMALL, model={"alpha": 0.01, "p": 0.5}),
     "weibull base with alpha=0.01, scale=1.0 has a second moment beyond the float range"),
    ("hw-verify-nonfinite-statistics", "hw-verify",
     dict(HW_SMALL, model={"alpha": 1.0, "p": 0.5, "base": dict(HUGE_BASE, scale=5e153)}),
     "30 of 2000 simulated statistics are inf or NaN"),
    # the statistics stay finite on this tiny matrix, but L^2 overflows
    ("hw-verify-auto-L-squared", "hw-verify",
     dict(HW_SMALL, matrix={"values": [[0.0, 1e-10], [1e-10, 0.0]]},
          model={"alpha": 1.0, "p": 0.5, "base": HUGE_BASE}),
     "L = 1.6e+154 overflows when squared"),
    ("bound-table-auto-L-squared", "bound-table",
     dict(TABLE_CONFIG, model={"alpha": 1.0, "p": 0.5, "base": HUGE_BASE}), "L = 1.6e+154 overflows when squared"),
    ("bound-table-config-L-squared", "bound-table", dict(TABLE_CONFIG, L=1e200), "L = 1e+200 overflows when squared"),
    # json reads the NaN literal and the schema counts it as a number
    ("hw-verify-nan-threshold", "hw-verify", dict(HW_SMALL, t_grid={"values": [1.0, math.nan]}),
     "thresholds must be finite"),
    ("bound-table-nan-threshold", "bound-table", dict(TABLE_CONFIG, t_grid={"values": [1.0, math.nan]}),
     "thresholds must be finite"),
    ("rip-nan-threshold", "rip", golden("rip", t_values=[1.0, math.nan]), "thresholds must be finite"),
    # numpy warned on stderr before the grid check saw the NaN
    ("hw-verify-infinite-t_grid-start", "hw-verify",
     dict(HW_SMALL, t_grid={"kind": "log", "start": math.inf, "stop": 9.0, "num": 3}),
     "t_grid start must be finite"),
    # the non-finite scalars below used to end in exit 1, exit 0 or a wrong message
    ("hw-verify-nan-rel_slack", "hw-verify", dict(HW_SMALL, rel_slack=math.nan), "rel_slack must be finite"),
    ("rip-nan-rel_slack", "rip", golden("rip", rel_slack=math.nan), "rel_slack must be finite"),
    ("hw-verify-infinite-c_alpha", "hw-verify", dict(HW_SMALL, constants={"c_alpha": math.inf}),
     "constants c_alpha must be finite"),
    ("covest-infinite-tol_se", "covest", golden("covest", tol_se=math.inf), "tol_se must be finite"),
    ("covest-nan-p", "covest", golden("covest", p=[0.5, math.nan]),
     "retention probabilities must lie in (0, 1]"),
    ("hw-verify-nan-matrix-scale", "hw-verify",
     dict(HW_SMALL, matrix={"kind": "random_dense", "n": 3, "scale": math.nan}), "matrix scale must be finite"),
    ("hw-verify-nan-matrix-values", "hw-verify",
     dict(HW_SMALL, matrix={"values": [[0.0, math.nan], [math.nan, 0.0]]}), "matrix values must be finite"),
    ("bernstein-verify-infinite-L", "bernstein-verify", golden("bernstein-verify", L=math.inf),
     "L must be finite"),
    ("sketch-infinite-c1", "sketch", golden("sketch", c1=math.inf), "c1 must be finite"),
    # the singular values of X overflow, which once gave NaN errors and exit 1
    ("sketch-overflowing-singular-values", "sketch",
     {"x": {"values": [[1.7e308, -1.7e308, 1e308], [1.7e308, 1.7e308, -1e308]]}, "p": 0.001,
      "r_values": [1, 3], "n_seeds": 3, "seed": 1, "allow_wide": True},
     "singular values must be finite, nonnegative and descending"),
    # X is finite, but the first sketch Y = 1.7e308 xi^2 / 0.5 overflows
    ("sketch-overflowing-error", "sketch",
     {"x": {"values": [[1.7e308]]}, "p": 0.5, "r_values": [1], "n_seeds": 3, "seed": 1},
     "the sketch error of X at r=1 is inf"),
    ("rip-overflowing-sigma", "rip", golden("rip", b={"values": [[1e200, 0.0], [0.0, 1.0]]}),
     "Sigma = B B^T overflows a float"),
    # Sigma is finite, but the IPW estimate of its largest entry is not; bound_rhs (whose
    # K2 term holds B's entries to the fourth power) overflows first, before a replicate is drawn
    ("rip-overflowing-estimate", "rip", golden("rip", b={"values": [[1.2e154, 0.0], [0.0, 1.0]]}),
     "bound_rhs overflows a float: B is too large for its K1 or K2 term"),
    # json reads an integer of any size and the schema bounds compare it
    # exactly, so these passed the schema and ended in exit 4
    ("bound-table-oversized-integer-L", "bound-table", dict(TABLE_CONFIG, L=10**400), "L must be finite"),
    ("rip-oversized-integer-t_values", "rip", golden("rip", t_values=[1, 10**400]),
     "thresholds must be finite"),
    ("bound-table-oversized-integer-matrix-scale", "bound-table",
     dict(TABLE_CONFIG, matrix={"kind": "random_dense", "n": 3, "scale": 10**400}),
     "matrix scale must be finite"),
    # comb(d, k) = 0 sizes no task: k is checked first
    ("rip-k-above-dimension", "rip", golden("rip", k=5), "need 1 <= k <= d"),
    # Sigma and the estimates are finite, but K2 squares entries of B B^T
    ("rip-overflowing-bound-rhs", "rip", golden("rip", b={"values": [[1e100, 0.0], [0.0, 1.0]]}, k=1),
     "bound_rhs overflows a float: B is too large for its K1 or K2 term"),
    # B is not zero but its bound underflows; once exit 4 (ZeroDivisionError)
    ("rip-underflowing-bound-rhs", "rip", golden("rip", b={"values": [[1e-300, 0.0], [0.0, 1e-300]]}, k=1),
     "bound_rhs underflows to 0: B is too small for its K1 and K2 terms"),
    # at alpha = 0.5 the K1 term grows as u^4, u = t + k log(48 e d / k): the bound
    # is finite at t = 1 and 1e50 and overflows from 1e80, so t is the cause, not B
    ("rip-bound-rhs-overflows-at-1e80", "rip", golden("rip", alpha=0.5, t_values=[1.0, 1e300, 1e80, 1e50]),
     "bound_rhs overflows a float at t = 1e+80: t is too large"),
    ("rip-bound-rhs-overflows-at-1e300", "rip", golden("rip", alpha=0.5, t_values=[1.0, 1e300]),
     "bound_rhs overflows a float at t = 1e+300: t is too large"),
    # p^2 = 1e-320 is not 0, but sup K1 divides by it
    ("rip-sup-k1-overflows-at-p-1e-160", "rip", golden("rip", p=1e-160),
     "p = 1e-160 is too small: sup K1 = k1_scale / p^2 overflows a float"),
    # a p list fixes the sample width, so a dim that disagrees is an error
    ("sample-p-list-disagrees-with-dim", "sample", golden("sample", p=[0.5, 0.5, 0.5], dim=5),
     "p has 3 entries, instance needs 5"),
    # psi_1 of W(0.5) is infinite; a sampled L of about 18 once exited 0
    ("bound-table-weibull-base-lighter-than-alpha", "bound-table",
     dict(TABLE_CONFIG, model={"alpha": 1.0, "p": 0.5, "base": {"kind": "weibull", "alpha": 0.5}},
          t_grid={"values": [1, 10, 100]}),
     "weibull base with alpha=0.5 has an infinite psi_alpha norm at alpha=1 (finite only for alpha <= 0.5)"),
    # the closed form log(2)^(-1/alpha) once overflowed into exit 4
    ("bound-table-rademacher-closed-form-overflows", "bound-table",
     dict(TABLE_CONFIG, model={"alpha": 0.0001, "p": 0.5, "base": {"kind": "rademacher"}}),
     "rademacher base has a psi_alpha norm at alpha=0.0001 beyond float range"),
    # an overflowed bound coefficient once gave every bound 2.0: exit 1 with
    # "need at least 2 usable grid points", or exit 0 with "frobenius": Infinity.
    # Every coefficient is of degree 1 in the entries, so these l_2 norms
    # overflow themselves: sqrt(2) 1.5e308 and 3 x 8e307 (9 entries of
    # 8e307, the largest that symmetrize does not double past the range).
    # bound-table checks the functionals it reports before it builds a
    # bound, so it names frobenius, as norms does
    ("bernstein-verify-overflowing-coefficient", "bernstein-verify",
     golden("bernstein-verify", vector={"values": [1.5e308, -1.5e308, 0.25]}, model={"alpha": 0.7, "p": 1.0}),
     "regime coefficients must be finite and nonnegative, got inf"),
    ("bound-table-overflowing-coefficient", "bound-table",
     dict(TABLE_CONFIG, matrix={"values": [[8e307] * 3] * 3}, model={"alpha": 1.0, "p": 1.0},
          t_grid={"values": [1.0, 1e300]}),
     "frobenius is inf: the matrix entries are too large"),
    # times 2^660 every bound is finite, as the bounds read sqrt(gamma1), but
    # the reported gamma1 overflows; norms words it the same way
    ("bound-table-gamma1-overflows", "bound-table",
     golden("bound-table-dense", matrix=golden("bound-table-dense")["matrix"] | {"scale": 2.0**660}),
     "gamma1 is inf: the matrix entries are too large"),
    # the draws are finite but their squares are not; once exit 0 with Infinity
    ("sample-overflowing-second-moment", "sample",
     {"base": {"kind": "gaussian", "scale": 1e154}, "n": 1000, "seed": 0},
     "the sample second moment is inf: the squares overflow"),
    # Sigma is finite, but the IPW estimates are not; once exit 1 with Infinity
    ("covest-overflowing-estimates", "covest", golden("covest", b={"values": [[1e154, 0.0], [1.0, 1.0]]}),
     "the IPW estimates or their squares overflow a float: B is too large"),
    # L^2 underflows to 0, so every threshold was inf in L^2 units; once Infinity in the report
    ("hw-verify-underflowing-L-squared", "hw-verify", golden("hw-verify-refined", L=1e-300, n_samples=2000),
     "L = 1e-300 underflows to 0 when squared"),
    ("bound-table-underflowing-L-squared", "bound-table", dict(TABLE_CONFIG, L=1e-300),
     "L = 1e-300 underflows to 0 when squared"),
    # X and the sketch errors are finite, but the bound is not; once Infinity in its meta file
    ("sketch-overflowing-bound", "sketch", golden("sketch", x=SKETCH_X | {"scale": 1e300}, c1=1e154),
     "the entrywise error bound is inf: it overflows a float"),
    # a field the command ignores is echoed in the report, which once held NaN;
    # the body runs before the NaN is found, and its side files (the sketch
    # factors and meta file, covest's draw) once stayed in --out
    ("hw-verify-degenerate-infinite-L", "hw-verify", golden("hw-verify-degenerate", L=math.inf),
     "L must be finite"),
    ("bound-table-ignored-nan-matrix-scale", "bound-table",
     dict(TABLE_CONFIG, matrix={"values": [[0.0, 1.0], [1.0, 0.0]], "scale": math.nan}),
     "an ignored config field holds a NaN or infinite number"),
    ("sketch-ignored-nan-scale", "sketch",
     golden("sketch", x={"values": [[1, 2], [3, 4], [5, 6.5]], "scale": math.nan}, r_values=[1, 2]),
     "an ignored config field holds a NaN or infinite number"),
    ("covest-ignored-nan-scale-with-draw", "covest",
     golden("covest", b={"values": [[2.0, 0.0], [1.0, 1.0]], "scale": math.nan}),
     "an ignored config field holds a NaN or infinite number"),
]:
    config_case(id, command, cfg, 2, error(message), "--threads", "1")
# numpy's errstate is per thread: pool tasks once ran under numpy's default
# and printed "RuntimeWarning: overflow encountered in matmul" at --threads 2
for id, threads in (("covest-overflow-one-thread", "1"), ("covest-overflow-on-the-pool", "2")):
    cfg = golden("covest", b={"values": [[1e154, 0.0], [0.0, 1.0]]}, p=0.5, n=200, replicates=1000,
                 save_first_draw=False)
    config_case(id, "covest", cfg, 2, error("the IPW estimates or their squares overflow a float: B is too large"),
                "--threads", threads)

# --- budgets: each run exits 3 before it draws or allocates
MC_BUDGET = "exceeds the Monte Carlo budget of 4294967296 samples"
BIG = 10**400
for id, command, cfg, what in [
    ("hw-verify-n_samples", "hw-verify", golden("hw-verify-refined", n_samples=10**30),
     f"n_samples = {10**30} {MC_BUDGET}"),
    ("bernstein-verify-n_samples", "bernstein-verify", golden("bernstein-verify", n_samples=10**30),
     f"n_samples = {10**30} {MC_BUDGET}"),
    ("rip-replicates", "rip", golden("rip", replicates=BIG), f"replicates x n = {30 * BIG} {MC_BUDGET}"),
    ("rip-theta_budget", "rip", golden("rip", theta_budget=BIG),
     f"theta_budget = {BIG}: 4 + theta_budget directions of up to k^2 d^2 = 64 terms"
     " exceed the K2 budget of 1000000000 terms"),
    ("covest-replicates", "covest", golden("covest", replicates=BIG), f"replicates x n = {25 * BIG} {MC_BUDGET}"),
    ("sample-dim", "sample", golden("sample", dim=BIG), f"dim x n = {200 * BIG} {BUDGET}"),
    ("sample-without-p-n", "sample", {"base": {"kind": "gaussian"}, "n": 10**15, "seed": 0},
     f"dim x n = {10**15} {BUDGET}"),
    ("bound-table-t_grid-num", "bound-table",
     golden("bound-table-dense", t_grid={"kind": "log", "start": 1.0, "stop": 50.0, "num": 10**9}),
     f"t_grid num = {10**9} exceeds 1048576"),
    ("bound-table-t_grid-oversized-num", "bound-table",
     golden("bound-table-dense", t_grid={"kind": "linear", "start": 1.0, "stop": 50.0, "num": BIG}),
     f"t_grid num = {BIG} exceeds 1048576"),
    ("sketch-n_seeds", "sketch", golden("sketch", n_seeds=BIG), f"n_seeds = {BIG} exceeds 65536"),
    ("rip-enumeration", "rip", {
        "b": {"kind": "identity", "n": 30}, "alpha": 2.0, "p": 0.8, "n": 4, "k": 15,
        "t_values": [1.0], "replicates": 10, "seed": 5},
     "comb(30, 15) = 155117520 exceeds the enumeration budget 1000000"),
]:
    config_case(id, command, cfg, 3, f"budget exceeded: {what}", "--threads", "1")
# n_samples below the Monte Carlo chunk is one chunk, which would start no pool
for threads in (257, 100_000):
    config_case(f"hw-verify-threads-{threads}", "hw-verify", dict(HW_CONFIG, n_samples=1000), 3,
                f"budget exceeded: threads = {threads} exceeds 256", "--threads", str(threads))
# none of these fits in 2 GiB of address space, so a run that skips its budget
# check fails at once instead of filling memory.  rip-n and covest-n are within
# the sample budget (replicates x n = 4e9), but one replicate of n = 4e8 rows
# (11.9 GiB for rip, 59.6 GiB for covest) is not; identity-65536 and sample-2^32-1
# fit the Monte Carlo sample budget of 2^32 and once ended in exit 4
for id, command, cfg, what in [
    ("rip-n", "rip", golden("rip", replicates=10, n=4 * 10**8), "n x max(b rows, b cols) = 1600000000"),
    ("covest-n", "covest", golden("covest", replicates=10, n=4 * 10**8), "n x max(b rows, b cols) = 800000000"),
    ("bound-table-identity-10^9", "bound-table", golden("bound-table-dense", matrix={"kind": "identity", "n": 10**9}),
     f"matrix rows x cols = {10**18}"),
    ("sketch-random_rect-10^9", "sketch", golden("sketch", x={"kind": "random_rect", "rows": 10**9, "cols": 10**9}),
     f"matrix rows x cols = {10**18}"),
    ("sketch-random_lowrank-rank-10^18", "sketch",
     golden("sketch", x={"kind": "random_lowrank", "rows": 1, "cols": 1, "rank": 10**18}),
     f"matrix rank x (rows + cols) = {2 * 10**18}"),
    ("bernstein-verify-ones-10^18", "bernstein-verify", golden("bernstein-verify", vector={"kind": "ones", "n": 10**18}),
     f"vector n = {10**18}"),
    # a sketch's factors are (rows, r) and (cols, r): 14.6 TiB at r = 10^12
    ("sketch-r_values-10^12", "sketch",
     {"x": {"values": [[1, 0], [0, 1]]}, "p": 0.5, "r_values": [10**12], "seed": 1, "allow_wide": True},
     f"max(r_values) x (rows + cols) = {4 * 10**12}"),
    ("bound-table-identity-65536", "bound-table", golden("bound-table-dense", matrix={"kind": "identity", "n": 65536}),
     "matrix rows x cols = 4294967296"),
    ("sample-2^32-1", "sample", {"base": {"kind": "gaussian"}, "n": 1431655765, "dim": 3, "seed": 0},
     "dim x n = 4294967295"),
]:
    config_case(id, command, cfg, 3, f"budget exceeded: {what} {BUDGET}", "--threads", "1", vmem=True)

# --- valid runs: no numpy warning, no second stderr line
# an infinite exponent gives a bound of 0.0, which is right
config_case("bound-table-infinite-exponent", "bound-table",
            golden("bound-table-dense", model={"alpha": 2.0, "p": 0.4},
                   t_grid={"kind": "log", "start": 1e300, "stop": 50.0, "num": 4}), 0, "", "--threads", "1")
# q_i^2 underflows to 0, and the NaN it gives lands on the diagonal, which is overwritten;
# on the pool, n d = 50 <= 256, so the 1100 replicates are 3 batches (512, 512 and 76)
for id, replicates, threads in (("covest-underflowing-weight", 2, "1"),
                                ("covest-underflowing-weight-on-the-pool", 1100, "2")):
    config_case(id, "covest", golden("covest", p=[0.6, 1e-300], replicates=replicates, save_first_draw=False),
                1, "verification failed: ipw_estimator_unbiased", "--threads", threads)
# the usable thresholds coincide, so there is no slope to fit; np.polyfit once warned
config_case("hw-verify-coinciding-thresholds", "hw-verify",
            golden("hw-verify-two-regime", t_grid={"kind": "log", "start": 10, "stop": 10, "num": 10},
                   n_samples=2000), 0, "")
# U of this 2 x 3 X is a square orthonormal 2 x 2; coherence() gives
# 0.9999999999999999 for it, which once exited 2 with "coherences are at least 1"
config_case("sketch-coherence-rounds-below-1", "sketch",
            {"x": {"values": [[1, -1, 0.5], [1, 1, -0.5]]}, "p": 0.001, "r_values": [1, 3],
             "n_seeds": 3, "seed": 1, "allow_wide": True}, 0, "")
config_case("rip-on-the-pool", "rip", RIP_POOL, 0, "", "--threads", "2")

BY_ID = {case.id: case for case in CASES}
assert len(BY_ID) == len(CASES), "case ids must be unique"


class Outcome(NamedTuple):
    code: int
    stdout: str
    stderr: str
    warnings: list[str]
    written: list[str]  # the files under the case's --out directory


def run_main(argv) -> tuple[int, str, str, list[str]]:
    """cli.main on argv in this process: exit code, stdout, stderr and the warnings raised."""
    from sparse_hw import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(stdout),
        contextlib.redirect_stderr(stderr),
    ):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse ends a usage error
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue(), [str(w.message) for w in caught]


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))  # 2 GiB, as `ulimit -v` sets it


def run_capped(argv, cwd: Path) -> tuple[int, str, str, list[str]]:
    """argv in a `python -m sparse_hw.cli` child limited to 2 GiB of address space."""
    import sparse_hw

    env = dict(os.environ, PYTHONPATH=str(Path(sparse_hw.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "sparse_hw.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, preexec_fn=_cap_address_space,
    )
    return proc.returncode, proc.stdout, proc.stderr, []


def write_inputs(case: Case, directory) -> Path:
    """Write the case's input files into directory/<id>/, and return that directory."""
    where = Path(directory) / case.id
    where.mkdir(parents=True, exist_ok=True)
    for name, data in case.files.items():
        if data is None:
            (where / name).mkdir(exist_ok=True)
        else:
            (where / name).write_bytes(data)
    return where


def run_case(case: Case, directory) -> Outcome:
    """Run a case in directory/<id>/: in a capped child if it is flagged, else in-process."""
    where = write_inputs(case, directory)
    if case.vmem:
        result = run_capped(case.argv, where)
    else:
        with contextlib.chdir(where):
            result = run_main(list(case.argv))
    written = sorted(str(p.relative_to(where)) for p in (where / "out").rglob("*") if p.is_file())
    return Outcome(*result, written)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: exit_cases.py DIR", file=sys.stderr)
        return 2
    for case in CASES:
        write_inputs(case, argv[0])
        print("\t".join([case.id, str(case.code), "vmem" if case.vmem else "-", case.stderr, *case.argv]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
