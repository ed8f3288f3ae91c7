"""Rewrite the expected outputs of golden config cases.

    PYTHONPATH=src python tests/golden/regenerate.py CASE [CASE ...]

Each named case (a directory under tests/golden/ listed in
test_golden_reports.CONFIG_CASES, or `norms`) is run with the same
command line as its test (test_golden_config_command at --threads 1, or
test_golden_norms), and its expected/ directory is replaced by what the
command wrote.  Only the named cases are touched.  A case whose exit
code differs from the recorded one is left as it is and makes the script
exit 1.  wall_clock_s is a timing the test ignores, so a rewritten report
keeps the old value and its diff shows only what the program changed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden_reports import CONFIG_CASES, GOLDEN, run_config_case, run_norms_case  # noqa: E402

# case -> the exit code its test expects
CASES = {**{case: rc for case, (_, rc) in CONFIG_CASES.items()}, "norms": 0}


def regenerate(case: str) -> bool:
    expected = GOLDEN / case / "expected"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        rc = run_norms_case(Path(tmp)) if case == "norms" else run_config_case(case, out)
        if rc != CASES[case]:
            print(f"{case}: exit code {rc}, recorded {CASES[case]}; not rewritten")
            return False
        old_report = expected / "report.json"
        if old_report.exists():
            report = json.loads((out / "report.json").read_text())
            report["wall_clock_s"] = json.loads(old_report.read_text())["wall_clock_s"]
            (out / "report.json").write_text(json.dumps(report, indent=2))
        shutil.rmtree(expected, ignore_errors=True)
        shutil.copytree(out, expected)
    print(f"{case}: rewritten")
    return True


def main(argv: list[str]) -> int:
    unknown = [c for c in argv if c not in CASES]
    if not argv or unknown:
        print(f"usage: regenerate.py CASE...; cases: {', '.join(sorted(CASES))}")
        return 2
    return 0 if all([regenerate(case) for case in argv]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
