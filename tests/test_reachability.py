"""Every public function of the package is one that a command runs.

The golden cases run under sys.setprofile, with `norms` also run on the
golden norms matrix written as a binary file.  A public module-level
function of sparse_hw that none of these runs calls fails the test,
unless KEPT names it with the reason it stays.  Code that only the tests
call belongs in tests/oracles.py.  A KEPT entry that a run now calls,
or that no longer exists, fails too, so the list stays short.
"""

import contextlib
import importlib
import inspect
import pkgutil
import sys

import numpy as np

import sparse_hw
from oracles import save_matrix_bin
from sparse_hw.cli import main
from test_golden_reports import CONFIG_CASES, GOLDEN, run_config_case, run_norms_case

KEPT = {
    "covest.k1_k2_terms": "perfbench/tracer.py wraps it, and the CI tracer step fails on an absent name",
    "quadform_mc.lower_bound_check": "the anti-concentration floor that hw-verify is to report",
    "quadform_mc.simulate_norm_tail": "the paper's norm application, for a norm-verify command to run",
}


def public_functions() -> dict:
    """'module.name' -> code object of every public function defined at module level."""
    found = {}
    for info in pkgutil.iter_modules(sparse_hw.__path__):
        module = importlib.import_module(f"sparse_hw.{info.name}")
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj.__code__
    return found


def run_commands(tmp_path) -> None:
    """Every golden case at --threads 1 (one thread, so one profile sees every call)."""
    for case, (_, rc) in CONFIG_CASES.items():
        assert run_config_case(case, tmp_path / case) == rc, case
    (tmp_path / "norms").mkdir()
    assert run_norms_case(tmp_path / "norms") == 0
    matrix = tmp_path / "matrix.bin"
    save_matrix_bin(matrix, np.loadtxt(GOLDEN / "norms" / "matrix.csv", delimiter=",", ndmin=2))
    with contextlib.redirect_stdout(None):
        assert main(["norms", str(matrix), "--p", "0.5,0.3,0.8,0.6", "--alpha", "1.5"]) == 0


def test_every_public_function_is_run_by_a_command(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_commands(tmp_path)
    finally:
        sys.setprofile(None)
    unreached = {name for name, code in public_functions().items() if code not in called}
    unused = sorted(unreached - KEPT.keys())
    assert not unused, f"no command runs {unused}: delete them or move them to tests/oracles.py"
    stale = sorted(KEPT.keys() - unreached)
    assert not stale, f"KEPT names {stale}, which a command runs or which no longer exist"
