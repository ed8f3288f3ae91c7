"""One benchmark invocation, run in a fresh interpreter.

    python3 perfbench/child.py <spawn_time> <spec.json>

<spawn_time> is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so setup_s covers
interpreter start-up and the import of sparse_hw.cli with numpy and
jsonschema: what every command-line user pays once per run.  The spec
names the package source directory, the CLI argv, whether to trace, and
where to write the result.  Exit status is 0 whenever the result file
was written; the CLI's own exit code is part of the result.
"""

import json
import sys
import time
from pathlib import Path


def _environment() -> dict:
    import numpy as np

    env = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def _peak_rss_mb() -> float | None:
    """This process's own peak resident set, VmHWM.

    Not the parent's wait4 rusage: Linux carries the parent's resident set
    at fork over into the child's ru_maxrss, so a small child would report
    the benchmark's own size.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def main() -> int:
    spawned = float(sys.argv[1])
    spec = json.loads(Path(sys.argv[2]).read_text())
    import sparse_hw.cli as cli

    setup_s = time.monotonic() - spawned
    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"sparse_hw was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = {"setup_s": setup_s}
    if spec.get("import_only"):
        out["environment"] = _environment()
    else:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        started = time.perf_counter()
        out["exit_code"] = cli.main(spec["argv"])
        out["run_s"] = time.perf_counter() - started
        if tracer is not None:
            out["spans"] = tracer.spans
            out["absent"] = tracer.absent
        out["peak_rss_mb"] = _peak_rss_mb()
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
