"""The in-package config check against jsonschema, its reference.

cli._violation decides whether a config is valid and words the message
of a rejection without loading jsonschema, which is only a test
dependency.  These tests hold it to jsonschema (with `integer` meaning a
JSON integer) and its best_match on drawn configs, and keep jsonschema
off the import path of a valid run.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_reports import CONFIG_CASES

import sparse_hw
from sparse_hw import cli

GOLDEN = Path(__file__).parent / "golden"
BOUNDS = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")


def reference_validator(schema: dict):
    """A jsonschema validator whose `integer` takes only a JSON integer."""
    base = jsonschema.validators.validator_for(schema)
    strict = base.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)
    )
    return jsonschema.validators.extend(base, type_checker=strict)(schema)


REFERENCE = {command: reference_validator(schema) for command, schema in cli._SCHEMAS.items()}

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3)
)


def number_strategy(schema: dict) -> st.SearchStrategy:
    """Numbers within the bounds of schema: integers, and floats unless `integer`."""
    lo = schema.get("minimum", schema.get("exclusiveMinimum"))
    hi = schema.get("maximum", schema.get("exclusiveMaximum"))
    int_lo = None if lo is None else math.floor(lo) + 1 if "exclusiveMinimum" in schema else lo
    int_hi = None if hi is None else math.ceil(hi) - 1 if "exclusiveMaximum" in schema else hi
    options = []
    if int_lo is None or int_hi is None or int_lo <= int_hi:
        options.append(st.integers(int_lo, int_hi))
    if schema["type"] == "number":
        floats = st.floats(
            lo,
            hi,
            exclude_min="exclusiveMinimum" in schema,
            exclude_max="exclusiveMaximum" in schema,
            allow_nan=False,
            allow_infinity=False,
        )
        options.append(floats)
    return st.one_of(options)


def valid(schema: dict) -> st.SearchStrategy:
    """Values valid under a schema built from the keywords _SCHEMAS uses."""
    if "anyOf" in schema:
        return st.one_of([valid(branch) for branch in schema["anyOf"]])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    kind = schema["type"]
    if kind == "object":
        props, required = schema["properties"], schema.get("required", [])
        return st.fixed_dictionaries(
            {key: valid(props[key]) for key in required},
            optional={key: valid(sub) for key, sub in props.items() if key not in required},
        )
    if kind == "array":
        items = valid(schema["items"]) if "items" in schema else JSON_SCALARS
        return st.lists(items, min_size=schema.get("minItems", 0), max_size=3)
    if kind in ("number", "integer"):
        return number_strategy(schema)
    return st.text(max_size=3) if kind == "string" else st.booleans()


def sites(value, schema: dict, parent=None, key=None):
    """(parent, key, schemas) for value and every value nested in it.

    schemas lists the schema at that place, or the branches of its anyOf.
    """
    branches = schema.get("anyOf", [schema])
    yield parent, key, branches
    if isinstance(value, dict):
        props = {k: s for b in branches for k, s in b.get("properties", {}).items()}
        for k, v in value.items():
            if k in props:
                yield from sites(v, props[k], value, k)
    elif isinstance(value, list):
        items = next((b["items"] for b in branches if "items" in b), {})
        for i, v in enumerate(value):
            yield from sites(v, items, value, i)


def edge_values(branches: list[dict]) -> list:
    """Each bound of the branches, as int and float, and the floats next to it."""
    out = []
    for bound in (b[k] for b in branches for k in BOUNDS if k in b):
        out += [bound, float(bound), bound - 1, bound + 1]
        out += [math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
    return out


WRONG_TYPES = [None, True, "x", [], {}, 0, -1, 1, 2, 0.5, 1.5, -0.0]
NON_FINITE = [math.nan, math.inf, -math.inf]
CHANGES = ["none", "replace", "bound", "integer-float", "non-finite", "drop", "extra-key"]


def change_one_field(data, cfg: dict, schema: dict) -> None:
    """Apply, in place, one drawn change to one drawn field of cfg."""
    parent, key, branches = data.draw(st.sampled_from(list(sites(cfg, schema))))
    target = cfg if parent is None else parent[key]
    change = data.draw(st.sampled_from(CHANGES))
    if change == "drop" and isinstance(target, (dict, list)) and target:
        keys = sorted(target) if isinstance(target, dict) else range(len(target))
        del target[data.draw(st.sampled_from(keys))]
    elif change == "extra-key" and isinstance(target, dict):
        target[data.draw(st.sampled_from(["extra", "Seed", ""]))] = 1
    elif parent is None or change in ("none", "drop", "extra-key"):
        return
    elif change == "replace":
        parent[key] = data.draw(st.sampled_from(WRONG_TYPES) | JSON_SCALARS)
    elif change == "bound" and edge_values(branches):
        parent[key] = data.draw(st.sampled_from(edge_values(branches)))
    elif change == "integer-float" and not isinstance(target, bool) and isinstance(target, int):
        parent[key] = float(target)
    elif change == "non-finite":
        parent[key] = data.draw(st.sampled_from(NON_FINITE))


@pytest.mark.parametrize("command", sorted(cli._SCHEMAS))
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_fast_check_agrees_with_jsonschema(tmp_path_factory, command, data):
    schema = cli._SCHEMAS[command]
    cfg = data.draw(valid(schema))
    assert cli._violation(cfg, schema) is None
    assert REFERENCE[command].is_valid(cfg)
    change_one_field(data, cfg, schema)

    expected = jsonschema.exceptions.best_match(REFERENCE[command].iter_errors(cfg))
    assert (cli._violation(cfg, schema) is None) == (expected is None)
    if expected is None:
        return
    # the message main prints is the reference's, read back from the file
    path = tmp_path_factory.getbasetemp() / f"{command}.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main([command, "--config", str(path)]) == 2
    assert err.getvalue() == f"config error: config rejected: {expected.message}\n"


@pytest.mark.parametrize("case", sorted(p.parent.name for p in GOLDEN.glob("*/config.json")))
def test_golden_configs_pass_the_fast_check(case):
    command = CONFIG_CASES[case][0]
    cfg = json.loads((GOLDEN / case / "config.json").read_text())
    assert cli._violation(cfg, cli._SCHEMAS[command]) is None
    assert REFERENCE[command].is_valid(cfg)


def test_schemas_match_their_snapshot():
    # the fast check draws its configs from whatever _SCHEMAS holds, so a
    # changed bound, required list or key order shows only here; the key
    # order fixes _violation's walk order and so every rejection message
    snapshot = (GOLDEN / "schemas.json").read_text()
    assert json.dumps(cli._SCHEMAS, indent=2) == snapshot


def test_a_deeply_nested_free_array_is_checked_without_recursion():
    # `values` of a matrix has no `items`, so neither checker descends into it
    cfg = json.loads((GOLDEN / "hw-verify-refined" / "config.json").read_text())
    cfg["matrix"] = json.loads('{"values": ' + "[" * 900 + "]" * 900 + "}")
    assert cli._violation(cfg, cli._SCHEMAS["hw-verify"]) is None
    assert REFERENCE["hw-verify"].is_valid(cfg)


IMPORT_GUARD = """
import sys
import sparse_hw.cli as cli
assert "jsonschema" not in sys.modules, "imported with sparse_hw.cli"
code = cli.main(["rip", "--config", sys.argv[1], "--threads", "1", "--out", sys.argv[2]])
assert code == 0, code
assert "jsonschema" not in sys.modules, "imported by a valid rip run"
"""


def test_a_valid_run_never_imports_jsonschema(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(sparse_hw.__file__).parents[1]))
    argv = [str(GOLDEN / "rip" / "config.json"), str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
