"""Golden reports: every subcommand's output on small pinned configs.

Each case under tests/golden/ holds the config and the files the command
wrote into --out.  A run must reproduce report.json exactly (apart from
wall_clock_s, which is a timing) and every other file byte for byte.
"""

import contextlib
import json
import shutil
from pathlib import Path

import pytest

from sparse_hw import covest as cv
from sparse_hw.cli import main

GOLDEN = Path(__file__).parent / "golden"

# case directory -> (subcommand, expected exit code)
CONFIG_CASES = {
    "hw-verify-refined": ("hw-verify", 0),
    "hw-verify-two-regime": ("hw-verify", 0),
    "hw-verify-degenerate": ("hw-verify", 0),
    "bernstein-verify": ("bernstein-verify", 0),
    "bernstein-verify-unresolved": ("bernstein-verify", 1),
    "bernstein-verify-degenerate": ("bernstein-verify", 0),
    "covest": ("covest", 0),
    "rip": ("rip", 0),
    "sketch": ("sketch", 0),
    "sample": ("sample", 0),
    "bound-table-dense": ("bound-table", 0),
    "bound-table-heavy": ("bound-table", 0),
    "bound-table-quadrature": ("bound-table", 0),
}


def _report_text(path: Path) -> str:
    report = json.loads(path.read_text())
    report.pop("wall_clock_s")
    return json.dumps(report, indent=2)


def assert_same_outputs(expected: Path, actual: Path) -> None:
    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

    assert files(actual) == files(expected)
    for rel in files(expected):
        if rel.name == "report.json":
            assert _report_text(actual / rel) == _report_text(expected / rel), rel
        else:
            assert (actual / rel).read_bytes() == (expected / rel).read_bytes(), rel


def run_config_case(case: str, out: Path, threads: int = 1) -> int:
    """Run a config case's command with its output in out; the exit code."""
    config = GOLDEN / case / "config.json"
    argv = [CONFIG_CASES[case][0], "--config", str(config), "--threads", str(threads)]
    return main([*argv, "--out", str(out)])


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_golden_config_command(case, tmp_path):
    out = tmp_path / "out"
    assert run_config_case(case, out) == CONFIG_CASES[case][1]
    assert_same_outputs(GOLDEN / case / "expected", out)


@pytest.mark.parametrize("case", ["hw-verify-refined", "bernstein-verify", "covest", "rip"])
def test_golden_reports_do_not_depend_on_threads(case, tmp_path):
    # chunks (and covest batches, rip replicates) draw from streams keyed by their index,
    # so only the field that records the thread count may differ
    out = tmp_path / "out"
    assert run_config_case(case, out, threads=3) == CONFIG_CASES[case][1]
    report = json.loads((out / "report.json").read_text())
    assert report["threads"] == 3
    report["threads"] = 1
    (out / "report.json").write_text(json.dumps(report, indent=2))
    assert_same_outputs(GOLDEN / case / "expected", out)


@pytest.mark.parametrize("threads", [1, 3])
def test_golden_rip_report_does_not_depend_on_replicate_chunks(monkeypatch, tmp_path, threads):
    # the 20 replicates are one batch and one rip_k call; once the batch is
    # drawn, a block constant of 7 comb(4, 2) + 5 makes rip_k itself split the
    # stack into ragged sub-stacks of 7, 7 and 6, at any --threads
    calls, stacks = [], []
    rip_k, sub_stack_maxima = cv.rip_k, cv._sub_stack_maxima

    def recording(m, k):
        monkeypatch.setattr(cv, "BLOCK_ENTRIES", 7 * 6 + 5)
        calls.append(len(m))
        return rip_k(m, k)

    def sub_stack(sym, *args):
        stacks.append(len(sym))
        return sub_stack_maxima(sym, *args)

    monkeypatch.setattr(cv, "rip_k", recording)
    monkeypatch.setattr(cv, "_sub_stack_maxima", sub_stack)
    out = tmp_path / "out"
    assert run_config_case("rip", out, threads=threads) == 0
    assert (calls, stacks) == ([20], [7, 7, 6])
    report = json.loads((out / "report.json").read_text())
    report["threads"] = 1
    (out / "report.json").write_text(json.dumps(report, indent=2))
    assert_same_outputs(GOLDEN / "rip" / "expected", out)


def run_norms_case(workdir: Path) -> int:
    """Run the norms case inside workdir, which gets its outputs in out/; the exit code.

    The report records the matrix path as given, so the command runs on
    a relative path from workdir.
    """
    shutil.copy(GOLDEN / "norms" / "matrix.csv", workdir / "matrix.csv")
    with contextlib.chdir(workdir):
        return main(["norms", "matrix.csv", "--p", "0.5,0.3,0.8,0.6", "--alpha", "1.5", "--out", "out"])


def test_golden_norms(tmp_path):
    assert run_norms_case(tmp_path) == 0
    assert_same_outputs(GOLDEN / "norms" / "expected", tmp_path / "out")
