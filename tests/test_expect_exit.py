"""The CI workflow's exit-code helpers in .github/expect-exit.sh.

Each case sources the helper in `bash -e`, as a workflow step does, and
calls it as a plain statement; the step must fail exactly when the checked
command's exit code or stderr differs from what the call expects.
"""

import subprocess
import sys
from pathlib import Path

import exit_cases as ec
import pytest

HELPER = Path(__file__).resolve().parents[1] / ".github" / "expect-exit.sh"


def run_step(script: str, tmp_path: Path) -> subprocess.CompletedProcess:
    step = f'source "{HELPER}"\n{script}\necho step-finished\n'
    return subprocess.run(
        ["bash", "-e", "-c", step],
        env={"PATH": "/usr/bin:/bin", "RUNNER_TEMP": str(tmp_path)},
        capture_output=True,
        text=True,
        timeout=30,
    )


# sh -c 'echo ...; exit N' stands for a checked command with one stderr line
FAILS_WITH_MSG = "sh -c 'echo \"config error: p is bad\" >&2; exit 2'"

CASES = {
    "exact message": ("expect_exit 2 'config error: p is bad' " + FAILS_WITH_MSG, True),
    "empty message skips stderr": ("expect_exit 3 '' sh -c 'echo a >&2; echo b >&2; exit 3'", True),
    "success expected": ("expect_exit 0 '' true", True),
    "wrong code": ("expect_exit 3 'config error: p is bad' " + FAILS_WITH_MSG, False),
    "unexpected success": ("expect_exit 2 '' true", False),
    "inexact message": ("expect_exit 2 'config error: p is' " + FAILS_WITH_MSG, False),
    # a message is compared as it stands: a leading ^ is a character, not an anchor
    "caret message is literal": ("expect_exit 2 '^p is bad' sh -c 'echo \"^p is bad\" >&2; exit 2'", True),
    "caret message is no pattern": ("expect_exit 2 '^config error: p is bad' " + FAILS_WITH_MSG, False),
    "second stderr line": (
        "expect_exit 2 'config error: p is bad' "
        "sh -c 'echo \"config error: p is bad\" >&2; echo more >&2; exit 2'",
        False,
    ),
    "vmem_2g passes the exit code": ("expect_exit 4 '' vmem_2g sh -c 'exit 4'", True),
}


@pytest.mark.parametrize("case", list(CASES))
def test_expect_exit_fails_the_step_exactly_on_a_mismatch(case, tmp_path):
    script, passes = CASES[case]
    proc = run_step(script, tmp_path)
    assert (proc.returncode == 0) is passes, proc.stderr
    assert ("step-finished" in proc.stdout) is passes


def test_expect_exit_prints_the_commands_stderr(tmp_path):
    proc = run_step("expect_exit 2 'config error: p is bad' " + FAILS_WITH_MSG, tmp_path)
    assert proc.stdout.splitlines() == ["config error: p is bad", "step-finished"]


def test_vmem_2g_limits_only_its_own_subshell(tmp_path):
    proc = run_step("vmem_2g sh -c 'ulimit -v'\nulimit -v", tmp_path)
    assert proc.returncode == 0, proc.stderr
    limited, outer = proc.stdout.splitlines()[:2]
    assert limited == "2097152"
    assert outer != "2097152"


def case_line(id: str, code: int, flag: str, message: str, script: str) -> str:
    """A line as tests/exit_cases.py prints it, for a case whose argv is `-c script`."""
    return "\t".join([id, str(code), flag, message, "-c", script])


def run_cases(lines: list[str], tmp_path: Path) -> subprocess.CompletedProcess:
    """expect_exit_cases on `sh`, reading lines, with a directory for each case."""
    for line in lines:
        (tmp_path / "cases" / line.split("\t")[0]).mkdir(parents=True)
    (tmp_path / "cases.tsv").write_text("".join(line + "\n" for line in lines))
    return run_step(f'expect_exit_cases sh "{tmp_path}/cases" < "{tmp_path}/cases.tsv"', tmp_path)


# each run prints the name of the directory it runs in
PASSES = case_line("a", 2, "-", "config error: a", 'echo "config error: ${PWD##*/}" >&2; exit 2')
SILENT = case_line("c", 0, "-", "", "echo c-ran >&2")


def test_expect_exit_cases_prints_each_commands_stderr(tmp_path):
    proc = run_cases([PASSES, SILENT], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["case a", "config error: a", "case c", "c-ran", "step-finished"]


def test_expect_exit_cases_fails_the_step_on_the_first_mismatch(tmp_path):
    wrong_code = case_line("b", 3, "-", "config error: b", 'echo "config error: b" >&2; exit 2')
    proc = run_cases([PASSES, wrong_code, SILENT], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.splitlines() == ["case a", "config error: a", "case b", "config error: b"]


def test_expect_exit_cases_runs_flagged_cases_under_vmem_2g(tmp_path):
    lines = [case_line("capped", 0, "vmem", "", "ulimit -v >&2"), case_line("free", 0, "-", "", "ulimit -v >&2")]
    proc = run_cases(lines, tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[:3] == ["case capped", "2097152", "case free"]
    assert out[3] != "2097152"


def test_exit_cases_script_prints_every_case_and_writes_its_files(tmp_path):
    proc = subprocess.run(
        [sys.executable, ec.__file__, str(tmp_path)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split("\t") for line in proc.stdout.splitlines()]
    assert [line[0] for line in lines] == [case.id for case in ec.CASES]
    for case, (id, code, flag, message, *argv) in zip(ec.CASES, lines):
        assert (int(code), flag == "vmem", message, tuple(argv)) == (case.code, case.vmem, case.stderr, case.argv)
        for name, data in case.files.items():
            path = tmp_path / id / name
            assert path.is_dir() if data is None else path.read_bytes() == data, path
