"""End-to-end tests for the command line interface."""

import contextlib
import dataclasses
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

import exit_cases as ec
import jsonschema
import numpy as np
import pytest
from exit_cases import GOLDEN, HW_CONFIG, TABLE_CONFIG
from test_golden_reports import CONFIG_CASES

import sparse_hw
from sparse_hw import bounds as bd
from sparse_hw import cli
from sparse_hw import covest as cv
from sparse_hw import quadform_mc as qf
from sparse_hw import sketchlr as sk
from sparse_hw.cli import main
from sparse_hw.errors import ConfigError
from sparse_hw.streams import stream


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
    # stdout prints 12 digits of the value norms.json holds
    assert float(f"{saved['norms']['gamma1']:.12g}") == entries["gamma1"]
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


@pytest.mark.parametrize("k", (-600, 600))
def test_hw_verify_scales_exactly_by_powers_of_two(tmp_path, k):
    # the matrix and the thresholds times 2^k compare every statistic with
    # every threshold as at k = 0, and every bound coefficient is of degree
    # 1 in A.  While the sparse bounds took sqrt(gamma1) of a sum of squares,
    # gamma1 read 0 at k = -600 (sparse_alpha 1.272 for 1.889 at the first
    # threshold) and inf at k = 600, which exited 2
    want = read_report(GOLDEN / "hw-verify-refined" / "expected")["results"]
    cfg = ec.golden("hw-verify-refined")
    cfg["matrix"]["scale"] = 2.0**k
    cfg["t_grid"] = {"values": [2.0**k * t for t in want["t_grid"]]}
    out = tmp_path / "out"
    assert main(["hw-verify", "--config", write_config(tmp_path, cfg), "--threads", "1", "--out", str(out)]) == 0
    got = read_report(out)["results"]
    assert got["survival"] == want["survival"]
    assert got["bounds"].keys() == want["bounds"].keys()
    for name, values in want["bounds"].items():
        np.testing.assert_allclose(got["bounds"][name], values, rtol=1e-14, atol=0.0, err_msg=name)


def test_norms_scale_exactly_by_two_to_the_minus_700(tmp_path, capsys):
    # every field but gamma1 (whose value 2^-1400 gamma1 underflows) is
    # 2^-700 times its golden value; frobenius, op_2_to_inf, op_1_to_2, the
    # mixed norms and row_weighted_max read 0 while they summed unscaled
    # squares.  LAPACK scales a matrix this small by a factor that is not a
    # power of two, so spectral and weighted_spectral may move a few ulps
    path, out = tmp_path / "scaled.csv", tmp_path / "out"
    path.write_bytes(ec.csv_text(ec.GOLDEN_NORMS * 2.0**-700))
    assert main(["norms", str(path), *ec.NORMS_OPTIONS, "--out", str(out)]) == 0
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


@pytest.mark.parametrize("command", sorted(cli._SCHEMAS))
def test_config_schemas_are_valid(command):
    # _load_config validates against these schemas without checking them
    schema = cli._SCHEMAS[command]
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("case", ec.CASES, ids=lambda case: case.id)
def test_exit_case(tmp_path, case):
    # every documented exit case: its code and stderr line, nothing on stdout,
    # no warning, and no file in --out from a run that exits 2, 3 or 4
    got = ec.run_case(case, tmp_path)
    assert got.code == case.code, got.stderr
    assert got.stdout == ""
    if case.stderr or case.code == 0:
        assert got.stderr.splitlines() == ([case.stderr] if case.stderr else [])
    assert got.warnings == []
    assert case.code < 2 or got.written == []


def config_of(case_id: str) -> tuple[str, dict]:
    """The command and the config of an exit case."""
    case = ec.BY_ID[case_id]
    return case.argv[0], json.loads(case.files["config.json"])


@pytest.mark.parametrize("case_id", [case[0] for case in ec.REJECTIONS])
def test_config_rejections_keep_the_jsonschema_message(case_id):
    command, cfg = config_of(case_id)
    with pytest.raises(jsonschema.ValidationError) as excinfo:
        jsonschema.validate(cfg, cli._SCHEMAS[command])
    assert ec.BY_ID[case_id].stderr == f"config error: config rejected: {excinfo.value.message}"


@pytest.mark.parametrize("case_id", [case[0] for case in ec.INTEGER_FLOATS])
def test_integer_fields_reject_integer_valued_floats(case_id):
    # the stock checker lets an integer-valued float through; the program rejects it
    command, cfg = config_of(case_id)
    jsonschema.validate(cfg, cli._SCHEMAS[command])


BLOCKED_RUNS = """
import json, os, sys
sys.modules["jsonschema"] = None  # import jsonschema now raises ImportError
from exit_cases import BY_ID, run_main
for case_id, where in json.loads(sys.argv[1]):
    os.chdir(where)
    code, _, err, _ = run_main(BY_ID[case_id].argv)
    print(json.dumps([code, err]))
"""


def test_rejections_keep_their_message_without_jsonschema(tmp_path):
    # jsonschema is a test dependency only; these once ended in exit 4
    cases = [ec.BY_ID[case[0]] for case in ec.REJECTIONS + ec.INTEGER_FLOATS]
    runs = [[case.id, str(ec.write_inputs(case, tmp_path))] for case in cases]
    paths = [str(Path(sparse_hw.__file__).parents[1]), str(Path(ec.__file__).parent)]
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUNS, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [[case.code, case.stderr + "\n"] for case in cases]
    assert [json.loads(line) for line in proc.stdout.splitlines()] == expected


@pytest.mark.parametrize(
    "case_id",
    [
        "rip-overflowing-bound-rhs",
        "rip-underflowing-bound-rhs",
        "rip-bound-rhs-overflows-at-1e80",
        "rip-sup-k1-overflows-at-p-1e-160",
    ],
)
def test_rip_rejects_an_unusable_bound_before_it_draws(tmp_path, monkeypatch, case_id):
    # bound_rhs does not depend on the draws: a run that cannot use it draws no replicate
    calls = []
    ipw_batches = cv.ipw_batches

    def spy(*args, **kwargs):
        calls.append(args)
        return ipw_batches(*args, **kwargs)

    monkeypatch.setattr(cv, "ipw_batches", spy)
    ec.run_case(ec.BY_ID[case_id], tmp_path)
    assert not calls


def test_rip_checks_its_enumeration_budget_before_k2(tmp_path, monkeypatch):
    # sup K2 takes about a second on the 158 directions of d = 30, which rip_k could not enumerate
    def fail(*args):
        raise AssertionError("expected_frob_sq_exact was called")

    monkeypatch.setattr(cv, "expected_frob_sq_exact", fail)
    case = ec.BY_ID["rip-enumeration"]
    got = ec.run_case(case, tmp_path)
    assert (got.code, got.stderr) == (3, case.stderr + "\n")


def test_rip_enumeration_budget_precedes_the_degenerate_return(tmp_path):
    # a zero B over the enumeration budget exits 3 before rip's degenerate verdict
    case = ec.BY_ID["rip-enumeration"]
    cfg = json.loads(case.files["config.json"]) | {"b": {"values": [[0.0] * 30] * 30}}
    zero = dataclasses.replace(case, id="rip-enumeration-zero-b", files={"config.json": json.dumps(cfg).encode()})
    got = ec.run_case(zero, tmp_path)
    assert (got.code, got.stderr, got.written) == (3, case.stderr + "\n", [])


@pytest.mark.parametrize(
    "case_id",
    [
        "hw-verify-n_samples",
        "bernstein-verify-n_samples",
        "rip-replicates",
        "rip-theta_budget",
        "covest-replicates",
        "rip-n",
        "covest-n",
        "sample-dim",
        "bound-table-t_grid-num",
        "bound-table-t_grid-oversized-num",
        "sketch-n_seeds",
    ],
)
def test_sample_budget_exits_3_before_drawing(tmp_path, case_id):
    # in-process, a memory-capped case too: a run that drew first would take seconds
    case = ec.BY_ID[case_id]
    with contextlib.chdir(ec.write_inputs(case, tmp_path)):
        started = time.perf_counter()
        ec.run_main(case.argv)
        assert time.perf_counter() - started < 1.0


def assert_internal_error(got: ec.Outcome, name: str) -> None:
    assert (got.code, got.stdout, got.written) == (4, "", [])
    lines = got.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"internal error: {name}: "), got.stderr


@pytest.mark.parametrize(
    "error",
    [
        RuntimeError("unexpected\nstate"),
        np.linalg.LinAlgError("Eigenvalues did not converge"),
        ValueError("unexpected"),
    ],
    ids=["RuntimeError", "LinAlgError", "ValueError"],
)
def test_unexpected_exceptions_exit_4_with_one_line(tmp_path, monkeypatch, error):
    # exit 1 means a failed verdict and exit 2 a bad config, which only a
    # ConfigError reports; any other exception, a ValueError or its subclass
    # LinAlgError too, is a fault of the program and gets its own code
    def body(cfg, seed, threads):
        raise error

    # bodies are bound into the registry when cli loads, so the entry is patched
    monkeypatch.setitem(cli._SUBCOMMANDS, "rip", (cli._SUBCOMMANDS["rip"][0], body))
    assert_internal_error(ec.run_case(ec.BY_ID["rip-on-the-pool"], tmp_path), type(error).__name__)


def test_linalg_error_in_rip_k_exits_4(tmp_path, monkeypatch):
    def rip_k(m, k):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cv, "rip_k", rip_k)
    assert_internal_error(ec.run_case(ec.BY_ID["rip-on-the-pool"], tmp_path), "LinAlgError")


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


def test_rip_on_a_zero_b_is_degenerate(tmp_path):
    # every deviation and the bound are 0; the constant fit once divided by it (exit 4)
    cfg = ec.golden("rip") | {"b": {"values": [[0.0, 0.0], [0.0, 0.0]]}, "k": 1}
    out = tmp_path / "out"
    assert main(["rip", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["results"] == {"degenerate": True}
    assert [v["name"] for v in rep["verdicts"]] == ["degenerate_instance"]


@pytest.mark.parametrize("threads, pools", [("1", []), ("3", [3])], ids=["one-thread", "three-threads"])
def test_rip_runs_its_replicate_batches_on_the_pool(tmp_path, monkeypatch, threads, pools):
    started = []
    pool = qf.ThreadPoolExecutor

    def spy(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return pool(*args, **kwargs)

    monkeypatch.setattr(qf, "ThreadPoolExecutor", spy)
    argv = ["rip", "--config", write_config(tmp_path, ec.RIP_POOL), "--threads", threads]
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
    argv = ["rip", "--config", write_config(tmp_path, ec.RIP_POOL), "--threads", "2"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert sorted(batches) == [(c, 163) for c in range(6)] + [(6, 22)]


def test_rip_outputs_do_not_depend_on_threads_on_the_pool(tmp_path):
    # the golden rip case is one batch and never starts a pool; this one does
    cfg = write_config(tmp_path, ec.RIP_POOL)
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
            raise ConfigError("batch 5 failed")
        if batch.index == 1:
            assert late.wait(timeout=60)
            raise ConfigError("batch 1 failed")
        return rip_k(m, k)

    monkeypatch.setattr(cv, "generate_samples", generate)
    monkeypatch.setattr(cv, "rip_k", failing)
    argv = ["rip", "--config", write_config(tmp_path, ec.RIP_POOL), "--threads", "3"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == ["config error: batch 1 failed"]
    assert not (tmp_path / "out" / "report.json").exists()


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
    cfg = ec.golden("covest") | {"n": 200, "replicates": 400}
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


@pytest.mark.parametrize("threads", [5, cli.THREAD_BUDGET])
def test_threads_flag_sets_the_thread_count_up_to_the_budget(tmp_path, threads):
    # n_samples below MC_CHUNK is one chunk, which runs without a pool at any
    # --threads; past the budget the exit cases hw-verify-threads-* exit 3
    cfg = dict(HW_CONFIG, n_samples=1000)
    assert cfg["n_samples"] <= qf.MC_CHUNK
    out = tmp_path / "out"
    argv = ["hw-verify", "--config", write_config(tmp_path, cfg), "--threads", str(threads)]
    assert main([*argv, "--out", str(out)]) in (0, 1)
    assert read_report(out)["threads"] == threads


