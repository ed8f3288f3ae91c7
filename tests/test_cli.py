"""End-to-end tests for the command line interface."""

import functools
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from test_golden_reports import CONFIG_CASES

import sparse_hw
from sparse_hw import bounds as bd
from sparse_hw import cli
from sparse_hw import covest as cv
from sparse_hw import quadform_mc as qf
from sparse_hw import sketchlr as sk
from sparse_hw.cli import main
from sparse_hw.streams import stream

HW_CONFIG = {
    "matrix": {"kind": "exchange", "n": 2},
    "model": {"alpha": 1.0, "p": 0.5},
    "t_grid": {"kind": "log", "start": 8.0, "stop": 120.0, "num": 12},
    "n_samples": 1_000_000,
    "seed": 7,
    "rel_slack": 0.1,
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(outdir):
    with open(outdir / "report.json") as fh:
        return json.load(fh)


SUBCOMMANDS = ["hw-verify", "bernstein-verify", "covest", "rip", "sketch", "sample", "bound-table", "norms"]


def parse_outcome(capsys, parse) -> tuple:
    """(exit code, stdout, stderr) of a parse that ends the program."""
    with pytest.raises(SystemExit) as excinfo:
        parse()
    return (excinfo.value.code, *capsys.readouterr())


def test_version_flag(capsys):
    assert parse_outcome(capsys, lambda: main(["--version"])) == (0, f"{sparse_hw.__version__}\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["--version"],
        ["nonsense"],
        [],
        *([name, "--help"] for name in SUBCOMMANDS),
        ["bound-table"],
        ["bound-table", "--config", "c.json", "extra"],
        ["norms", "--format", "xyz", "m.csv"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_parser_output_is_that_of_the_full_parser(capsys, argv):
    # main builds only the subcommand argv names; what it prints and its
    # exit code are those of the parser holding all eight
    ours = parse_outcome(capsys, lambda: main(argv))
    assert ours == parse_outcome(capsys, lambda: cli.build_parser().parse_args(argv))


def test_help_lists_every_subcommand(capsys):
    code, out, err = parse_outcome(capsys, lambda: main(["--help"]))
    assert (code, err) == (0, "")
    assert out.startswith("usage: sparse-hw [-h] [--version]")
    # one line per subcommand, indented by 4; its help wraps onto deeper lines
    assert re.findall(r"^    (\S+)", out, re.MULTILINE) == SUBCOMMANDS


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help_exits_0(capsys, name):
    code, out, err = parse_outcome(capsys, lambda: main([name, "--help"]))
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: sparse-hw {name} [-h]")
    # the parser main builds holds only the named subcommand
    subs = next(a for a in cli.build_parser(name)._actions if a.dest == "command")
    assert list(subs.choices) == [name]


def test_unknown_command_exits_2(capsys):
    code, out, err = parse_outcome(capsys, lambda: main(["nonsense"]))
    assert (code, out) == (2, "")
    expected = "sparse-hw: error: argument command: invalid choice: 'nonsense' (choose from "
    assert err.splitlines()[-1].startswith(expected)


def parse_norms_stdout(capsys):
    out = {}
    for line in capsys.readouterr().out.strip().split("\n"):
        name, value = line.rsplit(None, 1)
        out[name.strip()] = float(value)
    return out


def test_norms_identity(tmp_path, capsys):
    path = tmp_path / "eye.csv"
    path.write_text("1.0,0.0\n0.0,1.0\n")
    assert main(["norms", str(path)]) == 0
    entries = parse_norms_stdout(capsys)
    assert math.isclose(entries["frobenius"], math.sqrt(2.0), rel_tol=1e-10)
    assert math.isclose(entries["spectral"], 1.0, rel_tol=1e-10)
    assert math.isclose(entries["max_abs"], 1.0, rel_tol=1e-12)
    assert math.isclose(entries["op_2_to_inf"], 1.0, rel_tol=1e-10)


def test_norms_weighted_entries(tmp_path, capsys):
    path = tmp_path / "ex.csv"
    path.write_text("1.0,2.0\n2.0,1.0\n")
    out = tmp_path / "res"
    rc = main(["norms", str(path), "--p", "0.5,0.25", "--alpha", "1.5", "--out", str(out)])
    assert rc == 0
    entries = parse_norms_stdout(capsys)
    assert math.isclose(entries["gamma1"], 1.75, rel_tol=1e-12)
    assert "op_alpha_to_conj(alpha=1.5)" in entries
    saved = json.loads((out / "norms.json").read_text())
    assert saved["norms"]["gamma1"] == entries["gamma1"]
    assert saved["altmax_converged"] == {"op_alpha_to_conj(alpha=1.5)": True}


def test_norms_scalar_p_on_rectangular_matrix(tmp_path):
    # p weights the 3 columns, not the 2 rows
    path = tmp_path / "rect.csv"
    path.write_text("1.0,2.0,0.5\n-1.0,0.0,3.0\n")
    saved = {}
    for name, p in (("scalar", "0.5"), ("list", "0.5,0.5,0.5")):
        assert main(["norms", str(path), "--p", p, "--out", str(tmp_path / name)]) == 0
        saved[name] = json.loads((tmp_path / name / "norms.json").read_text())["norms"]
    assert saved["scalar"]["row_weighted_max"] == saved["list"]["row_weighted_max"]


def test_norms_missing_file(tmp_path):
    assert main(["norms", str(tmp_path / "nope.csv")]) == 2


def test_norms_alpha_zero_exits_2(tmp_path, capsys):
    path = tmp_path / "eye.csv"
    path.write_text("1.0,0.0\n0.0,1.0\n")
    assert main(["norms", str(path), "--alpha", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["config error: alpha must lie in (0, 2], got 0.0"]


def run_scaled_golden_norms(tmp_path, scale: float) -> tuple[int, Path]:
    """norms on the golden norms matrix times scale, with that case's
    options; the exit code and the --out directory."""
    path = tmp_path / "scaled.csv"
    m = np.loadtxt(GOLDEN / "norms" / "matrix.csv", delimiter=",") * scale
    np.savetxt(path, m, delimiter=",", fmt="%.17g")
    out = tmp_path / "out"
    return main(["norms", str(path), "--alpha", "1.5", "--p", "0.5,0.3,0.8,0.6", "--out", str(out)]), out


def assert_norms_overflow(tmp_path, capsys, scale: float, name: str):
    rc, out = run_scaled_golden_norms(tmp_path, scale)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: {name} is inf: the matrix entries are too large"]
    assert not out.exists()


def test_norms_overflowing_functional_exits_2_with_one_line(tmp_path, capsys):
    # the golden matrix times 8e307: every entry is finite, but ||A||_F is
    # about 3.4e308, past the float range; norms exited 0 with Infinity and
    # NaN in norms.json before it checked its entries
    assert_norms_overflow(tmp_path, capsys, 8e307, "frobenius")


def test_norms_overflowing_gamma1_exits_2_with_one_line(tmp_path, capsys):
    # times 1e200 every l_r field is finite, but gamma1 is a sum of squares
    # near 1e400; it read NaN (inf - inf) while it subtracted the diagonal
    assert_norms_overflow(tmp_path, capsys, 1e200, "gamma1")


def test_norms_scale_exactly_by_two_to_the_minus_700(tmp_path, capsys):
    # every field but gamma1 (whose value 2^-1400 gamma1 underflows) is
    # 2^-700 times its golden value; frobenius, op_2_to_inf, op_1_to_2, the
    # mixed norms and row_weighted_max read 0 while they summed unscaled
    # squares.  LAPACK scales a matrix this small by a factor that is not a
    # power of two, so spectral and weighted_spectral may move a few ulps
    rc, out = run_scaled_golden_norms(tmp_path, 2.0**-700)
    assert rc == 0
    printed = parse_norms_stdout(capsys)
    saved = json.loads((out / "norms.json").read_text())["norms"]
    golden = json.loads((GOLDEN / "norms" / "expected" / "norms.json").read_text())["norms"]
    assert printed.keys() == saved.keys() == golden.keys()
    for name, value in golden.items():
        if name == "gamma1":
            continue
        expected = 2.0**-700 * value
        if name in ("spectral", "weighted_spectral"):
            assert abs(saved[name] - expected) <= 4 * np.spacing(expected), name
        else:
            assert saved[name] == expected, name
        assert printed[name] == float(f"{saved[name]:.12g}"), name


def test_norms_and_bound_table_share_functionals(tmp_path):
    # both read one Functionals record of the same symmetric matrix and p
    g = np.random.default_rng(17).standard_normal((6, 6))
    a = 0.5 * (g + g.T)
    p = [0.9, 0.5, 0.25, 1.0, 0.1, 0.6]
    path = tmp_path / "a.csv"
    np.savetxt(path, a, delimiter=",")
    argv = ["norms", str(path), "--p", ",".join(map(str, p)), "--alpha", "1.5"]
    assert main([*argv, "--out", str(tmp_path / "norms")]) == 0
    norms = json.loads((tmp_path / "norms" / "norms.json").read_text())["norms"]
    cfg = {
        "matrix": {"csv": str(path)},
        "model": {"alpha": 1.5, "p": p},
        "t_grid": {"values": [1.0, 10.0]},
        "seed": 0,
    }
    out = tmp_path / "table"
    assert main(["bound-table", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    table = read_report(out)["results"]["norms"]
    shared = ["frobenius", "spectral", "max_abs", "gamma1", "gamma2"]
    shared += ["weighted_spectral", "row_weighted_max"]
    assert sorted(table) == sorted(shared)
    assert {name: norms[name] for name in shared} == table


def test_hw_verify_passes(tmp_path):
    cfg = write_config(tmp_path, HW_CONFIG)
    out = tmp_path / "out"
    assert main(["hw-verify", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["command"] == "hw-verify"
    assert rep["results"]["dominance"]["ok"]
    assert rep["results"]["dominance"]["shape"] == "sparse_alpha_refined"
    surv = rep["results"]["survival"]
    assert all(b <= a for a, b in zip(surv, surv[1:]))
    assert (out / "tail.csv").exists()
    assert (out / "bounds.csv").exists()
    # tail.csv rows line up with the report grid
    rows = (out / "tail.csv").read_text().strip().split("\n")
    assert rows[0] == "t,survival,ci_low,ci_high"
    assert len(rows) == 1 + len(rep["results"]["t_grid"])


def test_hw_verify_degenerate_zero_matrix(tmp_path):
    cfg = dict(HW_CONFIG, matrix={"values": [[0.0, 0.0], [0.0, 0.0]]}, n_samples=10)
    out = tmp_path / "out"
    assert main(["hw-verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["results"]["degenerate"] is True
    assert rep["verdicts"][0]["passed"]


def test_hw_verify_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, HW_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["hw-verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["hw-verify", "--config", cfg, "--out", str(out2)]) == 0
    r1, r2 = read_report(out1), read_report(out2)
    assert r1["results"] == r2["results"]
    assert r1["config_hash"] == r2["config_hash"]
    for name in ("tail.csv", "bounds.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_hw_verify_thread_count_does_not_change_results(tmp_path):
    cfg = write_config(tmp_path, HW_CONFIG)
    out1, out2 = tmp_path / "t1", tmp_path / "t7"
    assert main(["hw-verify", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["hw-verify", "--config", cfg, "--out", str(out2), "--threads", "7"]) == 0
    r1, r2 = read_report(out1), read_report(out2)
    assert r1["threads"] == 1 and r2["threads"] == 7
    assert r1["results"] == r2["results"]
    assert (out1 / "tail.csv").read_bytes() == (out2 / "tail.csv").read_bytes()


def test_seed_override_changes_survival(tmp_path):
    cfg = write_config(tmp_path, HW_CONFIG)
    out1, out2 = tmp_path / "s7", tmp_path / "s8"
    assert main(["hw-verify", "--config", cfg, "--out", str(out1)]) == 0
    main(["hw-verify", "--config", cfg, "--out", str(out2), "--seed", "8"])
    r1, r2 = read_report(out1), read_report(out2)
    assert r1["seed"] == 7 and r2["seed"] == 8
    assert r1["results"]["survival"] != r2["results"]["survival"]


def test_config_errors_exit_2(tmp_path):
    bad_alpha = dict(HW_CONFIG, model={"alpha": 3.0, "p": 0.5})
    assert main(["hw-verify", "--config", write_config(tmp_path, bad_alpha, "a.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["hw-verify", "--config", str(broken)]) == 2
    empty_matrix = dict(HW_CONFIG, matrix={})
    assert main(["hw-verify", "--config", write_config(tmp_path, empty_matrix, "m.json")]) == 2
    missing = {k: v for k, v in HW_CONFIG.items() if k != "n_samples"}
    assert main(["hw-verify", "--config", write_config(tmp_path, missing, "n.json")]) == 2


@pytest.mark.parametrize("command", sorted(cli._SCHEMAS))
def test_config_schemas_are_valid(command):
    # _load_config validates against these schemas without checking them
    schema = cli._SCHEMAS[command]
    jsonschema.validators.validator_for(schema).check_schema(schema)


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RIP = GOLDEN / "rip"
HW_SMALL = dict(HW_CONFIG, t_grid={"values": [1e300]}, n_samples=2000)
HUGE_BASE = {"kind": "weibull", "alpha": 1.0, "scale": 8e153}
TABLE_CONFIG = {
    "matrix": {"values": [[0.0, 1.0], [1.0, 0.0]]},
    "model": {"alpha": 1.0, "p": 0.5},
    "t_grid": {"values": [1.0, 2.0]},
    "seed": 0,
}


def golden_config(case: str) -> dict:
    return json.loads((GOLDEN / case / "config.json").read_text())


@pytest.mark.parametrize(
    "command, cfg",
    [
        pytest.param("bound-table", TABLE_CONFIG, id="bound-table"),
        pytest.param("hw-verify", dict(HW_CONFIG, n_samples=20_000), id="hw-verify"),
    ],
)
def test_quadrature_l_does_not_depend_on_the_seed(tmp_path, command, cfg):
    # W_s(1.5) at alpha = 1 has no closed form, so L comes from the quadrature
    cfg = dict(cfg, model={"alpha": 1.0, "p": 0.5, "base": {"kind": "weibull", "alpha": 1.5}})
    path = write_config(tmp_path, cfg)
    ls = []
    for seed in ("0", "7"):
        out = tmp_path / seed
        assert main([command, "--config", path, "--out", str(out), "--seed", seed]) in (0, 1)
        ls.append(read_report(out)["results"]["L"])
    assert ls[0] == ls[1] == pytest.approx(1.5114760572454617, rel=1e-9)


# configs the schemas reject, with the message jsonschema's best_match gives
REJECTIONS = [
    pytest.param(
        "hw-verify", dict(HW_CONFIG, model={"alpha": 3.0, "p": 0.5}), id="alpha-above-2"
    ),
    pytest.param(
        "hw-verify", {k: v for k, v in HW_CONFIG.items() if k != "seed"}, id="missing-seed"
    ),
    pytest.param("hw-verify", dict(HW_CONFIG, extra=1), id="unknown-key"),
    pytest.param("hw-verify", dict(HW_CONFIG, n_samples="many", seed=-1.5), id="two-errors"),
    pytest.param(
        "bernstein-verify",
        golden_config("bernstein-verify") | {"vector": {"values": [1.0, "x"]}},
        id="bernstein-verify-string-entry",
    ),
    pytest.param(
        "covest", golden_config("covest") | {"p": [0.5, 1.5]}, id="covest-p-above-1"
    ),
    pytest.param(
        "rip", golden_config("rip") | {"t_values": [0.0, 1.0]}, id="rip-zero-threshold"
    ),
    pytest.param("sketch", golden_config("sketch") | {"eta": 1}, id="sketch-eta-at-1"),
    pytest.param(
        "sample", golden_config("sample") | {"base": {"kind": "cauchy"}}, id="sample-bad-kind"
    ),
    pytest.param("bound-table", {"seed": 0}, id="bound-table-three-missing-keys"),
    pytest.param(
        "bound-table", TABLE_CONFIG | {"L": "manual"}, id="bound-table-L-in-no-branch"
    ),
]


@pytest.mark.parametrize("command, cfg", REJECTIONS)
def test_config_rejections_keep_the_jsonschema_message(tmp_path, capsys, command, cfg):
    with pytest.raises(jsonschema.ValidationError) as excinfo:
        jsonschema.validate(cfg, cli._SCHEMAS[command])
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == f"config error: config rejected: {excinfo.value.message}\n"


# jsonschema's own `integer` accepts 3.0; these configs used to crash or mislead
INTEGER_FLOATS = [
    pytest.param(
        "hw-verify", golden_config("hw-verify-refined") | {"n_samples": 1000.0}, 1000.0,
        id="hw-verify-n_samples",
    ),
    pytest.param(
        "bernstein-verify",
        golden_config("bernstein-verify") | {"vector": {"kind": "ones", "n": 3.0}},
        3.0,
        id="bernstein-verify-vector-n",
    ),
    pytest.param("covest", golden_config("covest") | {"seed": 0.0}, 0.0, id="covest-seed"),
    pytest.param("rip", golden_config("rip") | {"k": 2.0}, 2.0, id="rip-k"),
    pytest.param(
        "sketch", golden_config("sketch") | {"r_values": [2.0]}, 2.0, id="sketch-r_values"
    ),
    pytest.param("sample", golden_config("sample") | {"n": 10.0}, 10.0, id="sample-n"),
    pytest.param(
        "bound-table",
        TABLE_CONFIG | {"t_grid": {"kind": "log", "start": 1.0, "stop": 9.0, "num": 3.0}},
        3.0,
        id="bound-table-t_grid-num",
    ),
]


@pytest.mark.parametrize("command, cfg, value", INTEGER_FLOATS)
def test_integer_fields_reject_integer_valued_floats(tmp_path, capsys, command, cfg, value):
    jsonschema.validate(cfg, cli._SCHEMAS[command])  # the stock checker lets it through
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    expected = f"config error: config rejected: {value} is not of type 'integer'\n"
    assert capsys.readouterr().err == expected


BLOCKED_RUNS = """
import contextlib, io, json, sys
sys.modules["jsonschema"] = None  # import jsonschema now raises ImportError
from sparse_hw.cli import main
for command, path in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", path])
    print(json.dumps([code, err.getvalue()]))
"""


def test_rejections_keep_their_message_without_jsonschema(tmp_path):
    # jsonschema is a test dependency only; these once ended in exit 4
    cases = [(*case.values, None) for case in REJECTIONS] + [c.values for c in INTEGER_FLOATS]
    runs, expected = [], []
    for i, (command, cfg, value) in enumerate(cases):
        runs.append([command, write_config(tmp_path, cfg, f"{i}.json")])
        if value is None:
            with pytest.raises(jsonschema.ValidationError) as excinfo:
                jsonschema.validate(cfg, cli._SCHEMAS[command])
            message = excinfo.value.message
        else:
            message = f"{value} is not of type 'integer'"
        expected.append([2, f"config error: config rejected: {message}\n"])
    assert len(runs) == 18
    env = dict(os.environ, PYTHONPATH=str(Path(sparse_hw.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUNS, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line) for line in proc.stdout.splitlines()] == expected


@pytest.mark.parametrize(
    "command, cfg, message",
    [
        pytest.param(
            "hw-verify",
            dict(HW_SMALL, model={"alpha": 0.01, "p": 0.5}),
            "second moment beyond the float range",
            id="hw-verify-alpha-0.01",
        ),
        pytest.param(
            "hw-verify",
            dict(HW_SMALL, model={"alpha": 1.0, "p": 0.5, "base": dict(HUGE_BASE, scale=5e153)}),
            "of 2000 simulated statistics are inf or NaN",
            id="hw-verify-nonfinite-statistics",
        ),
        # the statistics stay finite on this tiny matrix, but L^2 overflows
        pytest.param(
            "hw-verify",
            dict(
                HW_SMALL,
                matrix={"values": [[0.0, 1e-10], [1e-10, 0.0]]},
                model={"alpha": 1.0, "p": 0.5, "base": HUGE_BASE},
            ),
            "overflows when squared",
            id="hw-verify-auto-L-squared",
        ),
        pytest.param(
            "bound-table",
            dict(TABLE_CONFIG, model={"alpha": 1.0, "p": 0.5, "base": HUGE_BASE}),
            "overflows when squared",
            id="bound-table-auto-L-squared",
        ),
        pytest.param(
            "bound-table",
            dict(TABLE_CONFIG, L=1e200),
            "overflows when squared",
            id="bound-table-config-L-squared",
        ),
        # json reads the NaN literal and the schema counts it as a number
        pytest.param(
            "hw-verify",
            dict(HW_SMALL, t_grid={"values": [1.0, math.nan]}),
            "thresholds must be finite",
            id="hw-verify-nan-threshold",
        ),
        pytest.param(
            "bound-table",
            dict(TABLE_CONFIG, t_grid={"values": [1.0, math.nan]}),
            "thresholds must be finite",
            id="bound-table-nan-threshold",
        ),
        pytest.param(
            "rip",
            json.loads((GOLDEN_RIP / "config.json").read_text()) | {"t_values": [1.0, math.nan]},
            "thresholds must be finite",
            id="rip-nan-threshold",
        ),
        # numpy warned on stderr before the grid check saw the NaN
        pytest.param(
            "hw-verify",
            dict(HW_SMALL, t_grid={"kind": "log", "start": math.inf, "stop": 9.0, "num": 3}),
            "t_grid start must be finite",
            id="hw-verify-infinite-t_grid-start",
        ),
        # the non-finite scalars below used to end in exit 1, exit 0 or a wrong message
        pytest.param(
            "hw-verify", dict(HW_SMALL, rel_slack=math.nan), "rel_slack must be finite",
            id="hw-verify-nan-rel_slack",
        ),
        pytest.param(
            "rip", golden_config("rip") | {"rel_slack": math.nan}, "rel_slack must be finite",
            id="rip-nan-rel_slack",
        ),
        pytest.param(
            "hw-verify",
            dict(HW_SMALL, constants={"c_alpha": math.inf}),
            "constants c_alpha must be finite",
            id="hw-verify-infinite-c_alpha",
        ),
        pytest.param(
            "covest", golden_config("covest") | {"tol_se": math.inf}, "tol_se must be finite",
            id="covest-infinite-tol_se",
        ),
        pytest.param(
            "covest",
            golden_config("covest") | {"p": [0.5, math.nan]},
            "retention probabilities must lie in (0, 1]",
            id="covest-nan-p",
        ),
        pytest.param(
            "hw-verify",
            dict(HW_SMALL, matrix={"kind": "random_dense", "n": 3, "scale": math.nan}),
            "matrix scale must be finite",
            id="hw-verify-nan-matrix-scale",
        ),
        pytest.param(
            "hw-verify",
            dict(HW_SMALL, matrix={"values": [[0.0, math.nan], [math.nan, 0.0]]}),
            "matrix values must be finite",
            id="hw-verify-nan-matrix-values",
        ),
        pytest.param(
            "bernstein-verify",
            golden_config("bernstein-verify") | {"L": math.inf},
            "L must be finite",
            id="bernstein-verify-infinite-L",
        ),
        pytest.param(
            "sketch", golden_config("sketch") | {"c1": math.inf}, "c1 must be finite",
            id="sketch-infinite-c1",
        ),
        # the singular values of X overflow, which once gave NaN errors and exit 1
        pytest.param(
            "sketch",
            {
                "x": {"values": [[1.7e308, -1.7e308, 1e308], [1.7e308, 1.7e308, -1e308]]},
                "p": 0.001,
                "r_values": [1, 3],
                "n_seeds": 3,
                "seed": 1,
                "allow_wide": True,
            },
            "singular values must be finite, nonnegative and descending",
            id="sketch-overflowing-singular-values",
        ),
        # X is finite, but the first sketch Y = 1.7e308 xi^2 / 0.5 overflows
        pytest.param(
            "sketch",
            {"x": {"values": [[1.7e308]]}, "p": 0.5, "r_values": [1], "n_seeds": 3, "seed": 1},
            "the sketch error of X at r=1 is inf",
            id="sketch-overflowing-error",
        ),
        pytest.param(
            "rip",
            json.loads((GOLDEN_RIP / "config.json").read_text())
            | {"b": {"values": [[1e200, 0.0], [0.0, 1.0]]}},
            "Sigma = B B^T overflows",
            id="rip-overflowing-sigma",
        ),
        # Sigma is finite, but the IPW estimate of its largest entry is not; bound_rhs (whose
        # K2 term holds B's entries to the fourth power) overflows first and is now rejected
        # before a replicate is drawn, so rip_k's "M has inf or NaN entries" is not reached
        pytest.param(
            "rip",
            json.loads((GOLDEN_RIP / "config.json").read_text())
            | {"b": {"values": [[1.2e154, 0.0], [0.0, 1.0]]}},
            "bound_rhs overflows a float",
            id="rip-overflowing-estimate",
        ),
        # json reads an integer of any size and the schema bounds compare it
        # exactly, so these passed the schema and ended in exit 4
        pytest.param(
            "bound-table", dict(TABLE_CONFIG, L=10**400), "L must be finite",
            id="bound-table-oversized-integer-L",
        ),
        pytest.param(
            "rip",
            golden_config("rip") | {"t_values": [1, 10**400]},
            "thresholds must be finite",
            id="rip-oversized-integer-t_values",
        ),
        pytest.param(
            "bound-table",
            dict(TABLE_CONFIG, matrix={"kind": "random_dense", "n": 3, "scale": 10**400}),
            "matrix scale must be finite",
            id="bound-table-oversized-integer-matrix-scale",
        ),
        # comb(d, k) = 0 sizes no task: k is checked first
        pytest.param(
            "rip",
            json.loads((GOLDEN_RIP / "config.json").read_text()) | {"k": 5},
            "need 1 <= k <= d",
            id="rip-k-above-dimension",
        ),
        # Sigma and the estimates are finite, but K2 squares entries of B B^T
        pytest.param(
            "rip",
            json.loads((GOLDEN_RIP / "config.json").read_text())
            | {"b": {"values": [[1e100, 0.0], [0.0, 1.0]]}, "k": 1},
            "bound_rhs overflows",
            id="rip-overflowing-bound-rhs",
        ),
        # a p list fixes the sample width, so a dim that disagrees is an error
        pytest.param(
            "sample",
            golden_config("sample") | {"p": [0.5, 0.5, 0.5], "dim": 5},
            "p has 3 entries, instance needs 5",
            id="sample-p-list-disagrees-with-dim",
        ),
        # psi_1 of W(0.5) is infinite; a sampled L of about 18 once exited 0
        pytest.param(
            "bound-table",
            dict(
                TABLE_CONFIG,
                model={"alpha": 1.0, "p": 0.5, "base": {"kind": "weibull", "alpha": 0.5}},
                t_grid={"values": [1, 10, 100]},
            ),
            "weibull base with alpha=0.5 has an infinite psi_alpha norm at alpha=1",
            id="bound-table-weibull-base-lighter-than-alpha",
        ),
        # the closed form log(2)^(-1/alpha) once overflowed into exit 4
        pytest.param(
            "bound-table",
            dict(TABLE_CONFIG, model={"alpha": 0.0001, "p": 0.5, "base": {"kind": "rademacher"}}),
            "rademacher base has a psi_alpha norm at alpha=0.0001 beyond float range",
            id="bound-table-rademacher-closed-form-overflows",
        ),
        # an overflowed bound coefficient once gave every bound 2.0: exit 1 with
        # "need at least 2 usable grid points", or exit 0 with "frobenius": Infinity
        pytest.param(
            "bernstein-verify",
            golden_config("bernstein-verify")
            | {"vector": {"values": [1e300, -0.5, 0.25]}, "seed": 7},
            "regime coefficients must be finite and nonnegative, got inf",
            id="bernstein-verify-overflowing-coefficient",
        ),
        pytest.param(
            "bound-table",
            dict(
                TABLE_CONFIG,
                matrix={"values": [[0, 1e300], [1e300, 0]]},
                t_grid={"values": [1.0, 1e300]},
            ),
            "regime coefficients must be finite and nonnegative, got inf",
            id="bound-table-overflowing-coefficient",
        ),
        # the draws are finite but their squares are not; once exit 0 with Infinity
        pytest.param(
            "sample",
            {"base": {"kind": "gaussian", "scale": 1e154}, "n": 1000, "seed": 0},
            "the sample second moment is inf",
            id="sample-overflowing-second-moment",
        ),
        # Sigma is finite, but the IPW estimates are not; once exit 1 with Infinity
        pytest.param(
            "covest",
            golden_config("covest") | {"b": {"values": [[1e154, 0.0], [1.0, 1.0]]}},
            "the IPW estimates or their squares overflow a float",
            id="covest-overflowing-estimates",
        ),
        # B is not zero but its bound underflows; once exit 4 (ZeroDivisionError)
        pytest.param(
            "rip",
            golden_config("rip") | {"b": {"values": [[1e-300, 0.0], [0.0, 1e-300]]}, "k": 1},
            "bound_rhs underflows to 0",
            id="rip-underflowing-bound-rhs",
        ),
        # L^2 underflows to 0, so every threshold was inf in L^2 units; once Infinity in the report
        pytest.param(
            "hw-verify",
            golden_config("hw-verify-refined") | {"L": 1e-300, "n_samples": 2000},
            "L = 1e-300 underflows to 0 when squared",
            id="hw-verify-underflowing-L-squared",
        ),
        pytest.param(
            "bound-table",
            dict(TABLE_CONFIG, L=1e-300),
            "L = 1e-300 underflows to 0 when squared",
            id="bound-table-underflowing-L-squared",
        ),
        # X and the sketch errors are finite, but the bound is not; once Infinity in its meta file
        pytest.param(
            "sketch",
            golden_config("sketch")
            | {"x": golden_config("sketch")["x"] | {"scale": 1e300}, "c1": 1e154},
            "the entrywise error bound is inf",
            id="sketch-overflowing-bound",
        ),
        # a field the command ignores is echoed in the report, which once held NaN
        pytest.param(
            "hw-verify",
            golden_config("hw-verify-degenerate") | {"L": math.inf},
            "L must be finite",
            id="hw-verify-degenerate-infinite-L",
        ),
        pytest.param(
            "bound-table",
            dict(TABLE_CONFIG, matrix={"values": [[0.0, 1.0], [1.0, 0.0]], "scale": math.nan}),
            "an ignored config field holds a NaN or infinite number",
            id="bound-table-ignored-nan-matrix-scale",
        ),
    ],
)
def test_overflowing_models_exit_2_with_one_line(tmp_path, command, cfg, message):
    env = dict(os.environ, PYTHONPATH=str(Path(sparse_hw.__file__).parents[1]))
    argv = [command, "--config", write_config(tmp_path, cfg), "--threads", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "sparse_hw.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ") and message in lines[0]


@pytest.mark.parametrize(
    "change, message",
    [
        (
            {"b": {"values": [[1e100, 0.0], [0.0, 1.0]]}, "k": 1},
            "bound_rhs overflows a float: B is too large for its K1 or K2 term",
        ),
        (
            {"b": {"values": [[1e-300, 0.0], [0.0, 1e-300]]}, "k": 1},
            "bound_rhs underflows to 0: B is too small for its K1 and K2 terms",
        ),
        # at alpha = 0.5 the K1 term grows as u^4, u = t + k log(48 e d / k): the bound
        # is finite at t = 1 and 1e50 and overflows from 1e80, so t is the cause, not B
        (
            {"alpha": 0.5, "t_values": [1.0, 1e300, 1e80, 1e50]},
            "bound_rhs overflows a float at t = 1e+80: t is too large",
        ),
    ],
    ids=["overflow", "underflow", "overflow-at-t"],
)
def test_rip_rejects_an_unusable_bound_before_it_draws(
    tmp_path, monkeypatch, capsys, change, message
):
    # bound_rhs does not depend on the draws: a run that cannot use it draws no replicate
    calls = []
    ipw_batches = cv.ipw_batches

    def spy(*args, **kwargs):
        calls.append(args)
        return ipw_batches(*args, **kwargs)

    monkeypatch.setattr(cv, "ipw_batches", spy)
    cfg = golden_config("rip") | change
    assert main(["rip", "--config", write_config(tmp_path, cfg), "--threads", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"config error: {message}"]
    assert not calls


@pytest.mark.parametrize(
    "command, cfg, threads, code",
    [
        # an infinite exponent gives a bound of 0.0, which is right
        pytest.param(
            "bound-table",
            golden_config("bound-table-dense")
            | {
                "model": {"alpha": 2.0, "p": 0.4},
                "t_grid": {"kind": "log", "start": 1e300, "stop": 50.0, "num": 4},
            },
            "1",
            0,
            id="bound-table-infinite-exponent",
        ),
        # q_i^2 underflows to 0, and the NaN it gives lands on the diagonal, which is overwritten
        pytest.param(
            "covest",
            golden_config("covest")
            | {"p": [0.6, 1e-300], "replicates": 2, "save_first_draw": False},
            "1",
            1,
            id="covest-underflowing-weight",
        ),
        # the same on the pool: n d = 50 <= 256, so the 1100 replicates are
        # 3 batches (512, 512 and 76), at least 2 for the pool
        pytest.param(
            "covest",
            golden_config("covest")
            | {"p": [0.6, 1e-300], "replicates": 1100, "save_first_draw": False},
            "2",
            1,
            id="covest-underflowing-weight-on-the-pool",
        ),
    ],
)
def test_valid_runs_print_no_numpy_warnings(tmp_path, command, cfg, threads, code):
    env = dict(os.environ, PYTHONPATH=str(Path(sparse_hw.__file__).parents[1]))
    argv = [command, "--config", write_config(tmp_path, cfg), "--threads", threads]
    proc = subprocess.run(
        [sys.executable, "-m", "sparse_hw.cli", *argv, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == code
    assert proc.stderr == ("" if code == 0 else "verification failed: ipw_estimator_unbiased\n")


def test_rip_on_a_zero_b_is_degenerate(tmp_path):
    # every deviation and the bound are 0; the constant fit once divided by it (exit 4)
    cfg = golden_config("rip") | {"b": {"values": [[0.0, 0.0], [0.0, 0.0]]}, "k": 1}
    out = tmp_path / "out"
    assert main(["rip", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["results"] == {"degenerate": True}
    assert [v["name"] for v in rep["verdicts"]] == ["degenerate_instance"]


def test_enumeration_budget_exits_3(tmp_path):
    cfg = {
        "b": {"kind": "identity", "n": 30},
        "alpha": 2.0,
        "p": 0.8,
        "n": 4,
        "k": 15,
        "t_values": [1.0],
        "replicates": 10,
        "seed": 5,
    }
    assert main(["rip", "--config", write_config(tmp_path, cfg)]) == 3


@pytest.mark.parametrize(
    "command, case, field, value",
    [
        pytest.param(
            "hw-verify", "hw-verify-refined", "n_samples", 10**30, id="hw-verify-hw-verify-refined"
        ),
        pytest.param(
            "bernstein-verify", "bernstein-verify", "n_samples", 10**30,
            id="bernstein-verify-bernstein-verify",
        ),
        pytest.param("rip", "rip", "replicates", 10**400, id="rip-replicates"),
        pytest.param("rip", "rip", "theta_budget", 10**400, id="rip-theta_budget"),
        pytest.param("covest", "covest", "replicates", 10**400, id="covest-replicates"),
        # replicates x n = 4e9 is within the sample budget, but one replicate of
        # n = 4e8 rows (11.9 GiB for rip, 59.6 GiB for covest) is over the input budget
        pytest.param("rip", ("rip", {"replicates": 10}), "n", 4 * 10**8, id="rip-n"),
        pytest.param("covest", ("covest", {"replicates": 10}), "n", 4 * 10**8, id="covest-n"),
        pytest.param("sample", "sample", "dim", 10**400, id="sample-dim"),
        pytest.param(
            "bound-table", "bound-table-dense", "t_grid",
            {"kind": "log", "start": 1.0, "stop": 50.0, "num": 10**9},
            id="bound-table-t_grid-num",
        ),
        pytest.param(
            "bound-table", "bound-table-dense", "t_grid",
            {"kind": "linear", "start": 1.0, "stop": 50.0, "num": 10**400},
            id="bound-table-t_grid-oversized-num",
        ),
        pytest.param("sketch", "sketch", "n_seeds", 10**400, id="sketch-n_seeds"),
    ],
)
def test_sample_budget_exits_3_before_drawing(tmp_path, capsys, command, case, field, value):
    case, fields = (case, {}) if isinstance(case, str) else case
    cfg = golden_config(case) | fields | {field: value}
    started = time.perf_counter()
    assert main([command, "--config", write_config(tmp_path, cfg), "--threads", "1"]) == 3
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    # the message names the field: "n_samples = ", "replicates x n = ", "theta_budget = ",
    # "dim x n = ", "t_grid num = ", "n_seeds = ", "n x max(b rows, b cols) = "
    assert len(lines) == 1 and lines[0].startswith(f"budget exceeded: {field} "), lines


def unreadable_matrix_spec(tmp_path, case: str) -> dict:
    (tmp_path / "folder").mkdir()
    (tmp_path / "latin1.csv").write_bytes(b"\xbc1,2\n")
    return {
        "missing-csv": {"csv": str(tmp_path / "absent.csv")},
        "missing-bin": {"bin": str(tmp_path / "absent.bin")},
        "directory": {"csv": str(tmp_path / "folder")},
        "not-utf-8": {"csv": str(tmp_path / "latin1.csv")},
    }[case]


@pytest.mark.parametrize("case", ["missing-csv", "missing-bin", "directory", "not-utf-8"])
@pytest.mark.parametrize(
    "command, golden, field",
    [("bound-table", "bound-table-dense", "matrix"), ("rip", "rip", "b"), ("covest", "covest", "b"), ("sketch", "sketch", "x")],
)
def test_unreadable_matrix_file_exits_2_with_one_line(tmp_path, capsys, command, golden, field, case):
    # a schema-valid config naming a file that cannot be read is a config
    # error, not a fault of the program (exit 4)
    spec = unreadable_matrix_spec(tmp_path, case)
    cfg = dict(golden_config(golden), **{field: spec})
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("config error: ") and next(iter(spec.values())) in line, line
    if case == "not-utf-8":
        assert line.endswith('is not UTF-8 text; a binary matrix goes under "bin"'), line


@pytest.mark.parametrize("case", ["missing-csv", "directory", "not-utf-8"])
def test_norms_unreadable_file_exits_2_with_one_line(tmp_path, capsys, case):
    path = unreadable_matrix_spec(tmp_path, case)["csv"]
    assert main(["norms", path]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ") and path in line, line


def matrix_without_entries(tmp_path, case: str) -> tuple[Path, str]:
    """A matrix file that holds no matrix, or not the one its header names,
    and the one stderr line it must give."""
    payload = np.zeros(4, dtype="<f8").tobytes()  # a 48-byte file with either big header
    path, shape, data = {
        "header-2^20x2^20": ("big.bin", (1 << 20, 1 << 20), payload),
        "header-2^63x2": ("huge.bin", (1 << 63, 2), payload),
        "header-0x3": ("none.bin", (0, 3), b""),
        "empty-csv": ("empty.csv", None, b""),
        # once loaded as [[0, 1], [2, 3]] without a word
        "header-2x2-5-entries": ("long.bin", (2, 2), np.arange(5, dtype="<f8").tobytes()),
    }[case]
    path = tmp_path / path
    header = b"" if shape is None else np.array(shape, dtype="<u8").tobytes()
    path.write_bytes(header + data)
    if case.startswith("header-2^"):
        return path, "config error: truncated matrix payload"
    if case == "header-2x2-5-entries":
        return path, f"config error: matrix file {str(path)!r} holds 8 bytes past its 2 x 2 entries"
    return path, f"config error: matrix file {str(path)!r} holds no entries"


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
@pytest.mark.parametrize(
    "case", ["header-2^20x2^20", "header-2^63x2", "header-0x3", "empty-csv", "header-2x2-5-entries"]
)
@pytest.mark.parametrize("command", ["norms", "bound-table"])
def test_matrix_file_without_a_matrix_exits_2_with_one_line(tmp_path, capsys, command, case):
    # a header must fit its file before anything is allocated (a 2^20 x 2^20 header
    # asks for 8 TiB) and fill it exactly, and a file with no entries is a config
    # error for every command
    path, message = matrix_without_entries(tmp_path, case)
    if command == "norms":
        argv = ["norms", str(path)]
    else:
        spec = {path.suffix[1:]: str(path)}
        argv = [command, "--config", write_config(tmp_path, dict(golden_config("bound-table-dense"), matrix=spec))]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [message]


def assert_internal_error(capsys, name: str) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"internal error: {name}: "), captured.err


@pytest.mark.parametrize(
    "error",
    [RuntimeError("unexpected\nstate"), np.linalg.LinAlgError("Eigenvalues did not converge")],
    ids=["RuntimeError", "LinAlgError"],
)
def test_unexpected_exceptions_exit_4_with_one_line(tmp_path, monkeypatch, capsys, error):
    # exit 1 means a failed verdict and exit 2 a bad config; a fault of the
    # program gets its own code, LinAlgError too although it is a ValueError
    def body(cfg, seed, threads):
        raise error

    # bodies are bound into the registry when cli loads, so the entry is patched
    monkeypatch.setitem(cli._SUBCOMMANDS, "rip", (cli._SUBCOMMANDS["rip"][0], body))
    argv = ["rip", "--config", str(GOLDEN_RIP / "config.json"), "--out", str(tmp_path)]
    assert main(argv) == 4
    assert_internal_error(capsys, type(error).__name__)
    assert not (tmp_path / "report.json").exists()


def test_linalg_error_in_rip_k_exits_4(tmp_path, monkeypatch, capsys):
    def rip_k(m, k):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cv, "rip_k", rip_k)
    argv = ["rip", "--config", str(GOLDEN_RIP / "config.json"), "--threads", "2"]
    assert main([*argv, "--out", str(tmp_path)]) == 4
    assert_internal_error(capsys, "LinAlgError")
    assert not (tmp_path / "report.json").exists()


def rip_pool_config() -> dict:
    """Golden rip at n = 200 and 1000 replicates: 7 batches of up to 163, enough for a pool."""
    return golden_config("rip") | {"replicates": 1000, "n": 200}


@pytest.mark.parametrize("threads, pools", [("1", []), ("3", [3])], ids=["one-thread", "three-threads"])
def test_rip_runs_its_replicate_batches_on_the_pool(tmp_path, monkeypatch, threads, pools):
    started = []
    pool = qf.ThreadPoolExecutor

    def spy(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return pool(*args, **kwargs)

    monkeypatch.setattr(qf, "ThreadPoolExecutor", spy)
    argv = ["rip", "--config", write_config(tmp_path, rip_pool_config()), "--threads", threads]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert started == pools


def test_rip_hands_its_batches_to_the_module_pool_function(tmp_path, monkeypatch):
    # covest looks _run_chunks up in quadform_mc at each call, so a wrapper
    # put there (perfbench's tracer wraps this name) sees every rip batch
    batches = []
    run_chunks = qf._run_chunks

    def spy(worker, total, threads, size):
        def counted(c, take):
            batches.append((c, take))
            return worker(c, take)

        return run_chunks(counted, total, threads, size)

    monkeypatch.setattr(qf, "_run_chunks", spy)
    argv = ["rip", "--config", write_config(tmp_path, rip_pool_config()), "--threads", "2"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert sorted(batches) == [(c, 163) for c in range(6)] + [(6, 22)]


def test_rip_outputs_do_not_depend_on_threads_on_the_pool(tmp_path):
    # the golden rip case is one batch and never starts a pool; this one does
    cfg = write_config(tmp_path, rip_pool_config())
    reports, tables = [], []
    for threads in ("1", "2", "3"):
        out = tmp_path / threads
        assert main(["rip", "--config", cfg, "--threads", threads, "--out", str(out)]) == 0
        report = read_report(out)
        assert report.pop("threads") == int(threads)
        report.pop("wall_clock_s")
        reports.append(report)
        tables.append((out / "rip.csv").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert tables[0] == tables[1] == tables[2]


def test_rip_on_the_pool_exits_with_the_lowest_failing_batch(tmp_path, monkeypatch, capsys):
    # batch 1 raises only after batch 5 has, yet the run reports batch 1
    batch = threading.local()
    late = threading.Event()
    generate_samples, rip_k = cv.generate_samples, cv.rip_k

    def generate(model, n, seed, stream_id=0):
        batch.index = stream_id
        return generate_samples(model, n, seed, stream_id)

    def failing(m, k):
        if batch.index == 5:
            late.set()
            raise ValueError("batch 5 failed")
        if batch.index == 1:
            assert late.wait(timeout=60)
            raise ValueError("batch 1 failed")
        return rip_k(m, k)

    monkeypatch.setattr(cv, "generate_samples", generate)
    monkeypatch.setattr(cv, "rip_k", failing)
    argv = ["rip", "--config", write_config(tmp_path, rip_pool_config()), "--threads", "3"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == ["config error: batch 1 failed"]
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_covest_overflow_prints_one_line_at_any_thread_count(tmp_path, threads):
    # numpy's errstate is per thread: pool tasks once ran under numpy's default
    # and printed "RuntimeWarning: overflow encountered in matmul" at --threads 2
    cfg = golden_config("covest") | {
        "b": {"values": [[1e154, 0.0], [0.0, 1.0]]},
        "p": 0.5,
        "n": 200,
        "replicates": 1000,  # 4 batches
        "save_first_draw": False,
    }
    env = dict(os.environ, PYTHONPATH=str(Path(sparse_hw.__file__).parents[1]))
    argv = ["covest", "--config", write_config(tmp_path, cfg), "--threads", threads]
    proc = subprocess.run(
        [sys.executable, "-m", "sparse_hw.cli", *argv, "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    message = "config error: the IPW estimates or their squares overflow a float: B is too large"
    assert proc.stderr == message + "\n"


def test_bernstein_verify_bound_matches_formula(tmp_path):
    cfg = {
        "vector": {"values": [1.0, -0.5, 0.25]},
        "model": {"alpha": 0.7, "p": 0.6},
        "t_grid": {"kind": "log", "start": 3.0, "stop": 40.0, "num": 10},
        "n_samples": 200_000,
        "seed": 11,
        "L": 2.5,
    }
    out = tmp_path / "out"
    assert main(["bernstein-verify", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["results"]["dominance"]["ok"]
    a = np.array([1.0, -0.5, 0.25])
    c_gauss = 2.5 * math.sqrt(float(a * a @ np.full(3, 0.6)))
    c_heavy = 2.5 * 1.0
    t = np.array(rep["results"]["t_grid"])
    ref = 2.0 * np.exp(-np.minimum((t / c_gauss) ** 2, (t / c_heavy) ** 0.7))
    assert np.allclose(rep["results"]["bound"], ref, rtol=1e-12, atol=0)


def test_bernstein_rejects_alpha_above_one(tmp_path):
    cfg = {
        "vector": {"kind": "ones", "n": 2},
        "model": {"alpha": 1.5, "p": 1.0},
        "t_grid": {"values": [1.0, 2.0]},
        "n_samples": 100,
        "seed": 1,
    }
    assert main(["bernstein-verify", "--config", write_config(tmp_path, cfg)]) == 2


def test_covest_cli(tmp_path):
    cfg = {
        "b": {"values": [[2.0, 0.0], [1.0, 1.0]]},
        "alpha": 1.5,
        "p": [0.6, 1.0],
        "n": 25,
        "replicates": 300,
        "seed": 3,
        "save_first_draw": True,
    }
    out = tmp_path / "out"
    assert main(["covest", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["verdicts"][0]["name"] == "ipw_estimator_unbiased"
    assert rep["results"]["max_z_score"] <= 4.0
    rows = (out / "estimates.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 4  # header plus one row per sigma entry
    for name in ("samples_values.csv", "samples_masks.csv", "samples_manifest.json"):
        assert (out / "draw" / name).exists()


def test_covest_saved_draw_is_replicate_0(tmp_path):
    # with two replicates |estimate_0 - mean| is the standard error exactly
    cfg = {
        "b": {"values": [[2.0, 0.0], [1.0, 1.0]]},
        "alpha": 1.5,
        "p": [0.6, 1.0],
        "n": 25,
        "replicates": 2,
        "seed": 3,
        "save_first_draw": True,
    }
    out = tmp_path / "out"
    assert main(["covest", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    r = read_report(out)["results"]
    values = np.loadtxt(out / "draw" / "samples_values.csv", delimiter=",")
    assert values.shape == (25, 2)
    gap = np.abs(cv.ipw_estimator(values, cfg["p"]) - r["estimator_mean"])
    assert np.allclose(gap, r["estimator_se"], rtol=0, atol=1e-12)


def test_covest_saved_draw_is_the_batches_replicate_0(tmp_path):
    # n d = 400 > 256: a batch holds 131072 // 400 = 327 of the 400 replicates,
    # and the saved draw is replicate 0 of that batch, as ipw_batches estimates it
    cfg = golden_config("covest") | {"n": 200, "replicates": 400}
    out = tmp_path / "out"
    assert main(["covest", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    values = np.loadtxt(out / "draw" / "samples_values.csv", delimiter=",")
    masks = np.loadtxt(out / "draw" / "samples_masks.csv", delimiter=",")
    assert values.shape == masks.shape == (200, 2)
    assert np.array_equal(values != 0.0, masks == 1)
    model = cv.MultivariateModel(b=np.array(cfg["b"]["values"]), alpha=cfg["alpha"], p=cfg["p"])
    first = cv.ipw_batches(model, 200, 400, cfg["seed"], lambda est: (len(est), est[0]))
    assert [take for take, _ in first] == [327, 73]
    assert np.array_equal(cv.ipw_estimator(values, cfg["p"]), first[0][1])


@pytest.mark.parametrize(
    "command, cfg",
    [
        pytest.param(
            "sketch",
            golden_config("sketch")
            | {"x": {"values": [[1, 2], [3, 4], [5, 6.5]], "scale": math.nan}, "r_values": [1, 2]},
            id="sketch",
        ),
        pytest.param(
            "covest",
            golden_config("covest") | {"b": {"values": [[2.0, 0.0], [1.0, 1.0]], "scale": math.nan}},
            id="covest-save_first_draw",
        ),
    ],
)
def test_nan_in_an_ignored_field_exits_2_and_writes_no_file(tmp_path, capsys, command, cfg):
    # the body runs before _config_hash finds the NaN; its side files (the sketch
    # factors and meta file, covest's draw) once stayed in --out
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    message = "config error: an ignored config field holds a NaN or infinite number\n"
    assert capsys.readouterr().err == message
    assert not out.exists() or not any(out.iterdir())


SKETCH_OF_ONE = {
    "x": {"values": [[1.0]]},
    "p": 1,
    "r_values": [1, 2],
    "xi": "rademacher",
    "seed": 0,
    "allow_wide": True,
}


def test_sketch_median_that_rises_by_rounding_alone_passes(tmp_path):
    out = tmp_path / "out"
    assert main(["sketch", "--config", write_config(tmp_path, SKETCH_OF_ONE), "--out", str(out)]) == 0
    assert read_report(out)["results"]["median_error"] == [0.0, np.finfo(float).eps]


def test_sketch_median_that_rises_beyond_rounding_fails(tmp_path, monkeypatch):
    # the tolerance is 64 eps max|X| = 64 eps; the median at r = 2 rises to 65 eps
    low_rank_approx = sk.low_rank_approx

    def raised(x, r, *args, **kwargs):
        fu, fv, error_max = low_rank_approx(x, r, *args, **kwargs)
        return fu, fv, error_max + 64 * np.finfo(float).eps * (r == 2)

    monkeypatch.setattr(sk, "low_rank_approx", raised)
    out = tmp_path / "out"
    assert main(["sketch", "--config", write_config(tmp_path, SKETCH_OF_ONE), "--out", str(out)]) == 1
    assert read_report(out)["results"]["median_error"] == [0.0, 65 * np.finfo(float).eps]


def test_rip_cli(tmp_path):
    cfg = {
        "b": {"values": [[1.0, 0.0], [0.0, 1.0]]},
        "alpha": 2.0,
        "p": 0.8,
        "n": 40,
        "k": 1,
        "t_values": [1.0, 2.0],
        "replicates": 30,
        "seed": 5,
    }
    out = tmp_path / "out"
    assert main(["rip", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    q = rep["results"]["rip_quantiles"]
    rhs = rep["results"]["bound_rhs"]
    # the constant is anchored at the deepest threshold
    assert math.isclose(rep["results"]["c_hat"], q["2.0"] / rhs["2.0"], rel_tol=1e-12)
    assert len((out / "rip.csv").read_text().strip().split("\n")) == 3


def test_rip_bound_does_not_depend_on_the_seed(tmp_path):
    # the bound's random directions once drew from stream(seed, 0), the key of
    # replicate batch 0: seed 6 gave 164.9571 at t = 1, seeds 5 and 7 164.9153
    argv = ["rip", "--config", str(GOLDEN / "rip" / "config.json")]
    rhs = []
    for seed in (5, 6, 7):
        out = tmp_path / str(seed)
        assert main([*argv, "--seed", str(seed), "--out", str(out)]) == 0
        rhs.append(read_report(out)["results"]["bound_rhs"])
    assert rhs[0] == rhs[1] == rhs[2]


def test_sketch_cli(tmp_path):
    cfg = {
        "x": {"kind": "random_lowrank", "rows": 12, "cols": 10, "rank": 3, "seed": 4},
        "p": 0.6,
        "r_values": [2, 6],
        "n_seeds": 15,
        "seed": 9,
        "allow_wide": True,
    }
    out = tmp_path / "out"
    assert main(["sketch", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    med = rep["results"]["median_error"]
    assert med[1] <= med[0]
    assert rep["results"]["detected_rank"] == 3
    meta = json.loads((out / "sketch_meta.json").read_text())
    assert meta["r"] == 6 and meta["p"] == 0.6
    fu = np.loadtxt(out / "factor_left.csv", delimiter=",")
    fv = np.loadtxt(out / "factor_right.csv", delimiter=",")
    assert fu.shape == (12, 6) and fv.shape == (10, 6)


def test_sketch_accepts_a_square_factor_whose_coherence_rounds_below_1(tmp_path, capsys):
    # U of this 2 x 3 X is a square orthonormal 2 x 2; coherence() gives
    # 0.9999999999999999 for it, which once exited 2 with "coherences are at least 1"
    cfg = {
        "x": {"values": [[1, -1, 0.5], [1, 1, -0.5]]},
        "p": 0.001,
        "r_values": [1, 3],
        "n_seeds": 3,
        "seed": 1,
        "allow_wide": True,
    }
    argv = ["sketch", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_sketch_factors_x_once(tmp_path, monkeypatch):
    # every (seed, r) sketch of the golden config reuses one thin SVD of x
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return thin_svd(*args, **kwargs)

    thin_svd = sk.thin_svd
    monkeypatch.setattr(sk, "thin_svd", counting)
    argv = ["sketch", "--config", str(GOLDEN / "sketch" / "config.json")]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_sketch_computes_its_bound_once_per_r(tmp_path, monkeypatch):
    # eps and the bound do not depend on the seed: one bound for each of the
    # golden config's 2 r values, not for each of its 2 x 3 sketches; and the
    # coherences do not depend on r, so those of the 12 x 10 X are computed once
    bounds, coherences = [], []

    def counting_bound(fact, r, *args):
        bounds.append(r)
        return sketch_bound(fact, r, *args)

    def counting_coherences(fact):
        coherences.append((fact.u.shape, fact.v.shape))
        return compute(fact)

    sketch_bound, compute = sk.sketch_bound, sk.FactoredMatrix.coherences.func
    cached = functools.cached_property(counting_coherences)
    cached.__set_name__(sk.FactoredMatrix, "coherences")
    monkeypatch.setattr(sk, "sketch_bound", counting_bound)
    monkeypatch.setattr(sk.FactoredMatrix, "coherences", cached)
    argv = ["sketch", "--config", str(GOLDEN / "sketch" / "config.json")]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert bounds == [2, 6]
    assert coherences == [((12, 3), (10, 3))]


def test_sketch_slope_is_null_when_a_median_error_is_zero(tmp_path):
    # a 1 x 1 X at p = 1 with Rademacher signs is reproduced exactly at r = 1;
    # log(0) once put NaN in the report
    cfg = {"x": {"values": [[1.0]]}, "p": 1, "r_values": [1, 2], "xi": "rademacher", "seed": 0}
    out = tmp_path / "out"
    argv = ["--config", write_config(tmp_path, cfg | {"allow_wide": True}), "--out", str(out)]
    assert main(["sketch", *argv]) in (0, 1)  # rounding may raise the error at r = 2
    assert "NaN" not in (out / "report.json").read_text()
    results = read_report(out)["results"]
    assert results["median_error"][0] == 0.0
    assert results["error_decay_slope"] is None


def _quantile_samples():
    """Sorted-input oracle cases: n from 1 to 12 and 100 (odd and even),
    Gaussian, tied, signed-zero and 1e-300..1e300 values."""
    rng = stream(95, 0)
    for n in [*range(1, 13), 100]:
        yield rng.standard_normal(n)
        yield rng.integers(-2, 3, size=n).astype(float)
        yield rng.choice([-0.0, 0.0, 1.0, -1.0], size=n)
        yield rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301, size=n)
        yield np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-300, 301, size=n)


def test_sorted_quantile_and_median_match_numpy():
    rng = stream(96, 0)
    rip_levels = [max(0.0, 1.0 - 2.0 * math.exp(-t)) for t in (0.5, 1.0, 2.0, 3.0, 5.0, 20.0)]
    for v in _quantile_samples():
        s = np.sort(v)
        for q in [0.0, 1.0, 0.5, *rng.random(8), *rip_levels]:
            expected = np.quantile(v, q)
            got = cli._sorted_quantile(s, q)
            assert got == expected, (v, q)
            assert got == 0.0 or got.hex() == expected.hex(), (v, q)
        expected = np.median(v)
        got = cli._sorted_median(s)
        assert got == expected and (got == 0.0 or got.hex() == expected.hex()), v
    nan = np.array([1.0, np.nan, 2.0])
    with np.errstate(invalid="ignore"):
        assert np.isnan(np.quantile(nan, 0.3)) and np.isnan(np.median(nan))
    assert math.isnan(cli._sorted_quantile(np.sort(nan), 0.3))
    assert math.isnan(cli._sorted_median(np.sort(nan)))


MA_GUARD = """
import json, sys
import sparse_hw.cli as cli
for command, config, code, out in json.loads(sys.argv[1]):
    assert cli.main([command, "--config", config, "--out", out]) == code, command
    assert "numpy.ma" not in sys.modules, "imported by a valid " + command + " run"
"""


def test_config_commands_never_import_numpy_ma(tmp_path):
    # numpy.ma costs more to import than a rip run's quantiles take to
    # compute; np.quantile, np.median and np.unique load it
    runs = {}
    for case, (command, code) in sorted(CONFIG_CASES.items()):
        config = str(GOLDEN / case / "config.json")
        runs.setdefault(command, [command, config, code, str(tmp_path / case)])
    assert len(runs) == 7
    env = dict(os.environ, PYTHONPATH=str(Path(sparse_hw.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", MA_GUARD, json.dumps(list(runs.values()))],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


RANDOM_GUARD = """
import json, sys
from sparse_hw.cli import main
for argv, code in json.loads(sys.argv[1]):
    assert main(argv) == code, argv
print("numpy.random" in sys.modules)
"""


def loads_numpy_random(runs: list) -> bool:
    """Whether main, run on each (argv, exit code) in one fresh interpreter, loaded numpy.random."""
    env = dict(os.environ, PYTHONPATH=str(Path(sparse_hw.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", RANDOM_GUARD, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # norms prints its table first
    return {"True": True, "False": False}[proc.stdout.splitlines()[-1]]


def test_bound_table_and_norms_never_import_numpy_random(tmp_path):
    # importing numpy.random takes 10-15 ms; the operator norms start from
    # fixed sign patterns, so commands that sample nothing never load it.
    # The matrix is read from a file, because a generated one is drawn.
    matrix = str(GOLDEN / "norms" / "matrix.csv")
    cfg = {
        "matrix": {"csv": matrix},
        "model": {"alpha": 1.5, "p": 0.3},
        "t_grid": {"kind": "log", "start": 1.0, "stop": 50.0, "num": 4},
        "seed": 0,
    }
    config = write_config(tmp_path, cfg)
    norms = ["norms", matrix, "--alpha", "1.5", "--p", "0.5,0.3,0.8,0.6"]
    runs = [
        [["bound-table", "--config", config, "--out", str(tmp_path / "table")], 0],
        [[*norms, "--out", str(tmp_path / "norms")], 0],
    ]
    assert not loads_numpy_random(runs)


def test_hw_verify_loads_numpy_random(tmp_path):
    # the control for the test above: a command that samples does load it
    config = str(GOLDEN / "hw-verify-refined" / "config.json")
    code = CONFIG_CASES["hw-verify-refined"][1]
    assert loads_numpy_random([[["hw-verify", "--config", config, "--out", str(tmp_path)], code]])


def test_sample_sparse_model(tmp_path):
    cfg = {"base": {"kind": "weibull", "alpha": 1.0}, "p": 0.5, "dim": 4, "n": 2000, "seed": 3}
    out = tmp_path / "out"
    assert main(["sample", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    r = rep["results"]
    assert abs(r["zero_fraction"] - 0.5) < 0.05
    assert abs(r["second_moment"] - 1.0) < 0.15  # p * E zeta^2 = 0.5 * 2
    rows = (out / "samples.csv").read_text().strip().split("\n")
    assert rows[0] == "x0,x1,x2,x3"
    assert len(rows) == 2001


def test_sample_honours_a_rademacher_scale(tmp_path):
    # the scale passed the schema and was then ignored (max_abs 1.0)
    cfg = {"base": {"kind": "rademacher", "scale": 5.0}, "p": 1.0, "dim": 2, "n": 4, "seed": 3}
    out = tmp_path / "out"
    assert main(["sample", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    r = read_report(out)["results"]
    assert r["max_abs"] == 5.0 and r["second_moment"] == 25.0


def test_sample_without_p_draws_dim_columns(tmp_path):
    cfg = {"base": {"kind": "gaussian"}, "dim": 5, "n": 4, "seed": 0}
    out = tmp_path / "out"
    assert main(["sample", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rows = (out / "samples.csv").read_text().strip().split("\n")
    assert rows[0] == "x0,x1,x2,x3,x4"
    assert len(rows) == 5
    assert "zero_fraction" not in read_report(out)["results"]


def test_sample_without_p_checks_the_budget(tmp_path, capsys):
    cfg = {"base": {"kind": "gaussian"}, "n": 10**15, "seed": 0}
    assert main(["sample", "--config", write_config(tmp_path, cfg), "--threads", "1"]) == 3
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("budget exceeded: dim x n = "), lines


def test_bound_table_matches_library(tmp_path):
    cfg = {
        "matrix": {"values": [[0.0, 1.0], [1.0, 0.0]]},
        "model": {"alpha": 1.0, "p": [0.5, 0.25]},
        "t_grid": {"values": [0.5, 1.0, 2.0, 4.0]},
        "L": 2.0,
        "seed": 0,
    }
    out = tmp_path / "out"
    assert main(["bound-table", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = bd.functionals(a, np.array([0.5, 0.25]), 1.0)
    ref = bd.bound_report(f, np.array([0.5, 1.0, 2.0, 4.0]), L=2.0)
    for name, values in ref["bounds"].items():
        assert np.allclose(rep["results"]["bounds"][name], values, rtol=0, atol=0)
    lines = (out / "bounds.csv").read_text().strip().split("\n")
    assert lines[0].startswith("t,") and len(lines) == 5


def test_config_threads_field_exits_2(tmp_path, capsys):
    # --threads is the one thread-count setting; the config field is gone
    cfg = dict(HW_CONFIG, threads=2, n_samples=1000)
    assert main(["hw-verify", "--config", write_config(tmp_path, cfg)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        "config error: config rejected: Additional properties are not allowed"
        " ('threads' was unexpected)"
    ]


@pytest.mark.parametrize("threads", [5, cli.THREAD_BUDGET, cli.THREAD_BUDGET + 1, 100_000])
def test_threads_flag_sets_the_thread_count_up_to_the_budget(tmp_path, capsys, threads):
    # n_samples below MC_CHUNK is one chunk, which runs without a pool at any --threads
    cfg = dict(HW_CONFIG, n_samples=1000)
    assert cfg["n_samples"] <= qf.MC_CHUNK
    out = tmp_path / "out"
    argv = ["hw-verify", "--config", write_config(tmp_path, cfg), "--threads", str(threads)]
    code = main([*argv, "--out", str(out)])
    if threads <= cli.THREAD_BUDGET:
        assert code in (0, 1) and read_report(out)["threads"] == threads
    else:
        assert code == 3 and not out.exists()
        message = f"budget exceeded: threads = {threads} exceeds {cli.THREAD_BUDGET}"
        assert capsys.readouterr().err.splitlines() == [message]


# (command, golden case, field) of a generated square matrix, rectangular matrix and vector
SQUARE = ("bound-table", "bound-table-dense", "matrix")
RECT = ("sketch", "sketch", "x")
VECTOR = ("bernstein-verify", "bernstein-verify", "vector")
SAMPLE = ("sample", None, None)  # the spec is the whole config


@pytest.mark.parametrize(
    "where, spec, missing",
    [
        pytest.param(SQUARE, {"kind": "exchange"}, "n", id="exchange"),
        pytest.param(SQUARE, {"kind": "identity"}, "n", id="identity"),
        pytest.param(SQUARE, {"kind": "random_dense"}, "n", id="random_dense"),
        pytest.param(RECT, {"kind": "random_rect", "rows": 3}, "cols", id="random_rect"),
        pytest.param(
            RECT, {"kind": "random_lowrank", "rows": 3, "cols": 3}, "rank", id="random_lowrank"
        ),
        pytest.param(VECTOR, {"kind": "ones"}, "n", id="ones"),
    ],
)
def test_generated_input_without_its_size_exits_2(tmp_path, capsys, where, spec, missing):
    command, case, field = where
    cfg = golden_config(case) | {field: spec}
    assert main([command, "--config", write_config(tmp_path, cfg), "--threads", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    what = "vector" if field == "vector" else "matrix"
    message = f"config error: {what} kind {spec['kind']!r} needs {missing!r}"
    assert captured.err.splitlines() == [message]


# none of these fits in the 2 GiB address space the run allows, so a run that
# skips the budget check fails at once instead of filling memory; the last
# two fit the Monte Carlo sample budget of 2^32 and once ended in exit 4
@pytest.mark.parametrize(
    "where, spec, what",
    [
        pytest.param(SQUARE, {"kind": "identity", "n": 10**9}, "matrix rows x cols", id="identity"),
        pytest.param(
            RECT,
            {"kind": "random_rect", "rows": 10**9, "cols": 10**9},
            "matrix rows x cols",
            id="random_rect",
        ),
        pytest.param(
            RECT,
            {"kind": "random_lowrank", "rows": 1, "cols": 1, "rank": 10**18},
            "matrix rank x (rows + cols)",
            id="random_lowrank",
        ),
        pytest.param(VECTOR, {"kind": "ones", "n": 10**18}, "vector n", id="vector-ones"),
        pytest.param(
            ("sketch", None, None),
            {
                "x": {"values": [[1, 0], [0, 1]]},
                "p": 0.5,
                "r_values": [10**12],
                "seed": 1,
                "allow_wide": True,
            },
            "max(r_values) x (rows + cols)",
            id="sketch-r_values",
        ),
        pytest.param(
            SQUARE, {"kind": "identity", "n": 65536}, "matrix rows x cols", id="identity-2^32"
        ),
        pytest.param(
            SAMPLE,
            {"base": {"kind": "gaussian"}, "n": 1431655765, "dim": 3, "seed": 0},
            "dim x n",
            id="sample-2^32-1",
        ),
    ],
)
def test_oversized_generated_matrix_exits_3(tmp_path, where, spec, what):
    command, case, field = where
    cfg = golden_config(case) | {field: spec} if field else spec
    argv = [command, "--config", write_config(tmp_path, cfg), "--threads", "1"]
    # a 2 GiB address-space limit, as `ulimit -v` sets it
    run = (
        "import resource, sys, sparse_hw.cli;"
        " resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30));"
        " sys.exit(sparse_hw.cli.main(sys.argv[1:]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sparse_hw.__file__).parents[1]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", run, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"budget exceeded: {what} = "), lines
    assert lines[0].endswith(f" exceeds the input budget of {cli.INPUT_ENTRY_BUDGET} entries")
