"""Every config that passes the schema ends in exit code 0, 1, 2 or 3.

Hypothesis takes a golden config, sets one to three of its numeric fields
(or fields its schema admits) to values from a fixed list of edge
numbers, and runs the command in-process at --threads 1 to 4.  It never
ends in exit 4, an internal error: a config the program cannot run is a
ConfigError (exit 2) or trips a budget (exit 3).  Whatever the exit code,
stderr holds at most the one line that code documents, no numpy warning
is raised, and every JSON file written parses as RFC 8259 JSON (no
Infinity or NaN).
"""

import json
import math
import tempfile
from pathlib import Path

from exit_cases import run_main
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_config_check import sites
from test_golden_reports import CONFIG_CASES, GOLDEN

from sparse_hw import cli

# the schema bounds, tiny and huge magnitudes, and the non-finite values json reads
EDGE_NUMBERS = [0, 1, 2, 10, -1, 0.5, 1.5, 1e-300, 1e-3, 0.999, 3.0, 1e154, 1e300, -1e300]
EDGE_NUMBERS += [math.inf, math.nan]
# a Monte Carlo run keeps its golden size up to this many samples
SMALL_SAMPLES = 2000


def numbers_for(branches: list[dict]) -> list:
    """The edge numbers a field under these schema branches may take: all of
    them for a number or a free array entry, the integers for an integer."""
    types = {b.get("type", "number" if not b else None) for b in branches}
    if "number" in types:
        return EDGE_NUMBERS
    return [v for v in EDGE_NUMBERS if isinstance(v, int)] if "integer" in types else []


def numeric_fields(cfg: dict, schema: dict) -> list[tuple]:
    """(parent, key, numbers) for every numeric field of cfg, and for each
    numeric property its schema admits but cfg lacks."""
    out = []
    for parent, key, branches in sites(cfg, schema):
        value = cfg if parent is None else parent[key]
        if isinstance(value, dict):
            props = {k: s for b in branches for k, s in b.get("properties", {}).items()}
            for k in sorted(props.keys() - value.keys()):
                out.append((value, k, numbers_for(props[k].get("anyOf", [props[k]]))))
        elif parent is not None and not isinstance(value, list):
            out.append((parent, key, numbers_for(branches)))
    return [field for field in out if field[2]]


@st.composite
def runs(draw) -> tuple[str, dict, int]:
    """(command, config, threads): a golden config with 1 to 3 fields set to edge numbers."""
    case = draw(st.sampled_from(sorted(CONFIG_CASES)))
    command = CONFIG_CASES[case][0]
    cfg = json.loads((GOLDEN / case / "config.json").read_text())
    if "n_samples" in cfg:
        cfg["n_samples"] = min(cfg["n_samples"], SMALL_SAMPLES)
    fields = numeric_fields(cfg, cli._SCHEMAS[command])
    picks = st.lists(st.sampled_from(range(len(fields))), min_size=1, max_size=3, unique=True)
    for i in draw(picks):
        parent, key, numbers = fields[i]
        parent[key] = draw(st.sampled_from(numbers))
    return command, cfg, draw(st.integers(1, 4))


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


# the configs that once exited 0 or 1 with an overflowed bound or moment, or warned on stderr
@example(
    (
        "bernstein-verify",
        {
            "vector": {"values": [1e300, -0.5, 0.25]},
            "model": {"alpha": 0.7, "p": 0.6},
            "t_grid": {"kind": "log", "start": 1.0, "stop": 30.0, "num": 10},
            "n_samples": 20000,
            "seed": 7,
            "L": 4.0,
        },
        1,
    )
)
@example(
    (
        "bound-table",
        {
            "matrix": {"values": [[0, 1e300], [1e300, 0]]},
            "model": {"alpha": 1.0, "p": 0.5},
            "t_grid": {"values": [1.0, 1e300]},
            "seed": 0,
        },
        1,
    )
)
@example(("sample", {"base": {"kind": "gaussian", "scale": 1e154}, "n": 1000, "seed": 0}, 1))
@example(
    (
        "bound-table",
        {
            "matrix": {"kind": "random_dense", "n": 5, "seed": 8},
            "model": {"alpha": 2.0, "p": 0.4},
            "t_grid": {"kind": "log", "start": 1e300, "stop": 50.0, "num": 4},
            "seed": 0,
        },
        1,
    )
)
@example(
    (
        "covest",
        {
            "b": {"values": [[2.0, 0.0], [1.0, 1.0]]},
            "alpha": 1.5,
            "p": [0.6, 1e-300],
            "n": 25,
            "replicates": 2,
            "seed": 3,
        },
        2,
    )
)
@settings(deadline=None, max_examples=120, derandomize=True)
@given(runs())
def test_edge_configs_end_in_a_documented_exit_code(run):
    command, cfg, threads = run
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--threads", str(threads), "--out", str(out)]
        code, stdout, stderr, caught = run_main(argv)
        reports = {p.name: p.read_text() for p in out.rglob("*.json")} if out.exists() else {}

    assert not caught, caught
    assert stdout == ""
    lines = stderr.splitlines()
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert lines == []
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("verification failed: ")
    else:
        assert len(lines) == 1 and "Traceback" not in lines[0]
    for text in reports.values():
        json.loads(text, parse_constant=_no_constant)
