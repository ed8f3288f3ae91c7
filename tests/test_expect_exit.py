"""The CI workflow's exit-code helpers in .github/expect-exit.sh.

Each case sources the helper in `bash -e`, as a workflow step does, and
calls it as a plain statement; the step must fail exactly when the checked
command's exit code or stderr differs from what the call expects.
"""

import subprocess
from pathlib import Path

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
    "pattern message": ("expect_exit 2 '^config error: p is' " + FAILS_WITH_MSG, True),
    "empty message skips stderr": ("expect_exit 3 '' sh -c 'echo a >&2; echo b >&2; exit 3'", True),
    "success expected": ("expect_exit 0 '' true", True),
    "wrong code": ("expect_exit 3 'config error: p is bad' " + FAILS_WITH_MSG, False),
    "unexpected success": ("expect_exit 2 '' true", False),
    "inexact message": ("expect_exit 2 'config error: p is' " + FAILS_WITH_MSG, False),
    "non-matching pattern": ("expect_exit 2 '^budget exceeded' " + FAILS_WITH_MSG, False),
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
