"""Command line interface.

Every experiment subcommand reads a JSON config (schema-validated, seed
mandatory), runs deterministically given (config, seed, threads), and
emits a JSON report plus CSV sidecars.  Numeric results are
bit-identical for any --threads value (1 to THREAD_BUDGET,
the CPU count by default, the only thread-count setting); only
wall_clock_s varies.

The object schemas in _SCHEMAS are built by _object from field schemas
(_ALPHA, _COUNT, _SEED, ...) and blocks (_FACTOR_MODEL) that configs share.
A config is checked against its schema in _SCHEMAS by one walk,
_violation, which decides as jsonschema does and words the message of a
rejected config as jsonschema's best_match would; jsonschema is only the
tests' reference.  An `integer` field takes only a JSON integer (3.0 is
rejected), and a number that is NaN or infinite, or an integer beyond the float range,
which Python's json reads and the schemas admit, is rejected (exit 2) by
the builder that reads it, or by _config_hash in a field no builder reads.

Exit codes: 0 success, 1 a verification verdict failed, 2 usage or
config error, 3 a compute budget guard tripped, 4 internal error (an
unexpected exception, reported on one stderr line without a traceback).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bd
from . import covest as cv
from . import matrix_norms as mn
from . import quadform_mc as qf
from . import sketchlr as sk
from .errors import BudgetExceededError, ConfigError
from .rv_models import (
    AlphaParam,
    DistributionSpec,
    SparseModel,
    model_psi_alpha,
    sample_base,
    sample_sparse_matrix,
)
from .streams import STREAM_LAYOUT, stream

# The most float64 entries (2 GiB) of an array built from a config size: a generated
# matrix or vector, random_lowrank factors, sample's draws (not chunked Monte Carlo).
INPUT_ENTRY_BUDGET = 1 << 28
# Limits on t_grid "num" and sketch "n_seeds", checked before anything is allocated.
T_GRID_BUDGET = 1 << 20
SKETCH_SEED_BUDGET = 1 << 16
# The most worker threads --threads may ask for: the pool starts one OS
# thread per submitted chunk, up to this many.
THREAD_BUDGET = 256

# ---------------------------------------------------------------- schemas


def _object(properties: dict, *required: str) -> dict:
    """The schema of an object with only these properties, the required ones among them."""
    schema = {"type": "object", "properties": properties}
    if required:
        schema["required"] = list(required)
    schema["additionalProperties"] = False
    return schema


def _nonempty(items: dict) -> dict:
    return {"type": "array", "items": items, "minItems": 1}


_ALPHA = {"type": "number", "exclusiveMinimum": 0, "maximum": 2}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_COUNT = {"type": "integer", "minimum": 1}
_SEED = {"type": "integer"}
_SLACK = {"type": "number", "minimum": 0, "exclusiveMaximum": 1}
_PROB = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}

_BASE_SCHEMA = _object(
    {
        "kind": {"enum": ["weibull", "gaussian", "rademacher"]},
        "alpha": _ALPHA,
        "scale": _POSITIVE,
        "unit_variance": {"type": "boolean"},
    },
    "kind",
)

_MATRIX_SCHEMA = _object(
    {
        "csv": {"type": "string"},
        "bin": {"type": "string"},
        "values": {"type": "array"},
        "kind": {"enum": ["exchange", "identity", "random_dense", "random_rect", "random_lowrank"]},
        "n": _COUNT,
        "rows": _COUNT,
        "cols": _COUNT,
        "rank": _COUNT,
        "seed": _SEED,
        "diagonal_free": {"type": "boolean"},
        "scale": {"type": "number"},
    }
)

_VECTOR_SCHEMA = _object(
    {
        "values": {"type": "array", "items": {"type": "number"}},
        "kind": {"enum": ["ones", "e1", "random_unit"]},
        "n": _COUNT,
        "seed": _SEED,
    }
)

_PROBS_SCHEMA = {"anyOf": [_PROB, _nonempty({"type": "number", "minimum": 0, "maximum": 1})]}

_MODEL_SCHEMA = _object({"alpha": _ALPHA, "p": _PROBS_SCHEMA, "base": _BASE_SCHEMA}, "alpha", "p")

_TGRID_SCHEMA = _object(
    {
        "values": _nonempty({"type": "number", "minimum": 0}),
        "kind": {"enum": ["linear", "log"]},
        "start": _POSITIVE,
        "stop": _POSITIVE,
        "num": {"type": "integer", "minimum": 2},
    }
)

_CONSTANTS_SCHEMA = _object({"c_alpha": _POSITIVE, "prefactor": _POSITIVE})

_L_SCHEMA = {"anyOf": [{"enum": ["auto"]}, _POSITIVE]}


def _verify_schema(subject: str, subject_schema: dict) -> dict:
    """Schema of a verify command whose instance is given under `subject`."""
    properties = {
        subject: subject_schema,
        "model": _MODEL_SCHEMA,
        "t_grid": _TGRID_SCHEMA,
        "n_samples": _COUNT,
        "seed": _SEED,
        "constants": _CONSTANTS_SCHEMA,
        "L": _L_SCHEMA,
        "rel_slack": _SLACK,
    }
    return _object(properties, subject, "model", "t_grid", "n_samples", "seed")


# the factor model of covest and rip, and the n draws of a replicate
_FACTOR_MODEL = {"b": _MATRIX_SCHEMA, "alpha": _ALPHA, "p": _PROBS_SCHEMA, "n": _COUNT}

_COVEST_FIELDS = {
    **_FACTOR_MODEL,
    "replicates": {"type": "integer", "minimum": 2},
    "seed": _SEED,
    "tol_se": _POSITIVE,
    "save_first_draw": {"type": "boolean"},
}

_RIP_FIELDS = {
    **_FACTOR_MODEL,
    "k": _COUNT,
    "t_values": _nonempty(_POSITIVE),
    "replicates": {"type": "integer", "minimum": 10},
    "theta_budget": {"type": "integer", "minimum": 0},
    "seed": _SEED,
    "rel_slack": _SLACK,
}

_SKETCH_FIELDS = {
    "x": _MATRIX_SCHEMA,
    "p": _PROB,
    "r_values": _nonempty(_COUNT),
    "n_seeds": _COUNT,
    "seed": _SEED,
    "xi": {"enum": ["gaussian", "rademacher"]},
    "eta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    "c1": _POSITIVE,
    "allow_wide": {"type": "boolean"},
}

_SAMPLE_FIELDS = {"base": _BASE_SCHEMA, "p": _PROBS_SCHEMA, "dim": _COUNT, "n": _COUNT, "seed": _SEED}

_BOUND_TABLE_FIELDS = {
    "matrix": _MATRIX_SCHEMA,
    "model": _MODEL_SCHEMA,
    "t_grid": _TGRID_SCHEMA,
    "constants": _CONSTANTS_SCHEMA,
    "L": _L_SCHEMA,
    "seed": _SEED,
}

_SCHEMAS = {
    "hw-verify": _verify_schema("matrix", _MATRIX_SCHEMA),
    "bernstein-verify": _verify_schema("vector", _VECTOR_SCHEMA),
    "covest": _object(_COVEST_FIELDS, *_FACTOR_MODEL, "replicates", "seed"),
    "rip": _object(_RIP_FIELDS, *_FACTOR_MODEL, "k", "t_values", "replicates", "seed"),
    "sketch": _object(_SKETCH_FIELDS, "x", "p", "r_values", "seed"),
    "sample": _object(_SAMPLE_FIELDS, "base", "n", "seed"),
    "bound-table": _object(_BOUND_TABLE_FIELDS, "matrix", "model", "t_grid", "seed"),
}

# ---------------------------------------------------------------- validation

# the JSON Schema types of values read by json; an `integer` is a JSON
# integer, so 3.0 is not one (jsonschema's own checker accepts it)
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}

# each bound keyword as the test under which it fails, as jsonschema
# writes it (so NaN fails none of them), and the words of its message
_BOUND_FAILS = {
    "minimum": (operator.lt, "less than the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}


def _violations(value, schema: dict):
    """Each violation of schema by a value read by json, as jsonschema 4.26 lists it.

    A violation is (path relative to value, keyword, message, whether the
    value has the `type` of the schema that raised it, an anyOf's branch
    violations).  Covers the keywords _SCHEMAS uses; as in JSON Schema, the
    number, array and object keywords pass values of other types.
    """
    typed = "type" in schema and _JSON_TYPES[schema["type"]](value)

    def here(message: str, context=()) -> tuple:
        return (), keyword, message, typed, context

    def under(key, sub: dict):
        for path, *rest in _violations(value[key], sub):
            yield (key, *path), *rest

    for keyword, arg in schema.items():
        if keyword == "type" and not typed:
            yield here(f"{value!r} is not of type {arg!r}")
        elif keyword == "enum" and value not in arg:
            yield here(f"{value!r} is not one of {arg!r}")
        elif keyword == "anyOf":
            if all(branches := [list(_violations(value, branch)) for branch in arg]):
                context = [error for errors in branches for error in errors]
                yield here(f"{value!r} is not valid under any of the given schemas", context)
        elif keyword in _BOUND_FAILS and _JSON_TYPES["number"](value):
            fails, words = _BOUND_FAILS[keyword]
            if fails(value, arg):
                yield here(f"{value!r} is {words} of {arg!r}")
        elif isinstance(value, list):
            # no descent without `items`: a free array may nest as deep as json reads
            if keyword == "items":
                for i in range(len(value)):
                    yield from under(i, arg)
            elif keyword == "minItems" and len(value) < arg:
                yield here(f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}")
        elif not isinstance(value, dict):
            continue
        elif keyword == "properties":
            for key, sub in arg.items():
                if key in value:
                    yield from under(key, sub)
        elif keyword == "required":
            for key in arg:
                if key not in value:
                    yield here(f"{key!r} is a required property")
        elif keyword == "additionalProperties" and arg is False:
            if extras := sorted(value.keys() - schema.get("properties", {}).keys()):
                listed = ", ".join(map(repr, extras)) + (" was" if len(extras) == 1 else " were")
                yield here(f"Additional properties are not allowed ({listed} unexpected)")


def _relevance(error) -> tuple:
    """jsonschema's relevance key: the larger, the better the match at one level."""
    path, keyword, _, typed, _ = error
    return -len(path), path, keyword != "anyOf", not typed


def _violation(value, schema: dict) -> str | None:
    """The message of the violation jsonschema 4.26's best_match picks, or None.

    best_match takes the most relevant violation: the shallowest; among
    siblings, the one whose path sorts last; a non-anyOf one before an
    anyOf one; then one from a schema whose `type` the value does not
    have; remaining ties go to the first in walk order.  An anyOf
    violation then descends into its context, to the violation that
    sorts first under the same key (the deepest, and so on), unless the
    two that sort first tie.
    """
    best = max(_violations(value, schema), key=_relevance, default=None)
    if best is None:
        return None
    while context := best[4]:
        first = sorted(context, key=_relevance)[:2]
        if len(first) == 2 and _relevance(first[0]) == _relevance(first[1]):
            break
        best = first[0]
    return best[2]


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    message = _violation(cfg, _SCHEMAS[command])
    if message is not None:
        raise ConfigError(f"config rejected: {message}")
    return cfg


# ---------------------------------------------------------------- builders


def _finite(value, name: str):
    """value, a number or an array (as a float array), which must be finite.

    json reads the NaN and Infinity literals and integers of any size, and
    the schemas admit them; an integer beyond the float range is not finite.
    """
    try:
        floats = np.asarray(value, dtype=float)
    except OverflowError:
        floats = np.array(math.inf)
    if not np.all(np.isfinite(floats)):
        raise ConfigError(f"{name} must be finite")
    return floats if floats.ndim else value


def _config_hash(cfg: dict) -> str:
    # the builders reject NaN and Infinity (not RFC 8259 JSON) in each field they
    # read, so one found here is in a field the command ignores, and the report echoes it
    try:
        canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise ConfigError("an ignored config field holds a NaN or infinite number") from exc
    return hashlib.sha256(canonical.encode()).hexdigest()


def _read_matrix(path, binary: bool, bin_hint: str) -> np.ndarray:
    """A matrix file; one that cannot be read, or a CSV that is not UTF-8
    text, is a config error naming the path (bin_hint says how to read a
    binary matrix instead)."""
    try:
        return mn.load_matrix_bin(path) if binary else mn.load_matrix_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"matrix file {str(path)!r} is not UTF-8 text; {bin_hint}") from exc


def _check_input_size(entries: int, what: str) -> None:
    """Raise BudgetExceededError, before it is built, for an array over INPUT_ENTRY_BUDGET."""
    if entries > INPUT_ENTRY_BUDGET:
        raise BudgetExceededError(
            f"{what} = {entries} exceeds the input budget of {INPUT_ENTRY_BUDGET} entries"
        )


def _size(cfg: dict, key: str, what: str) -> int:
    """Size field key of a generated matrix or vector; a missing one is a config error."""
    if key not in cfg:
        raise ConfigError(f"{what} kind {cfg['kind']!r} needs {key!r}")
    return cfg[key]


def _build_matrix(cfg: dict) -> np.ndarray:
    if "csv" in cfg:
        return _read_matrix(cfg["csv"], False, 'a binary matrix goes under "bin"')
    if "bin" in cfg:
        return _read_matrix(cfg["bin"], True, "")
    if "values" in cfg:
        return _finite(cfg["values"], "matrix values")
    kind = cfg.get("kind")
    if kind is None:
        raise ConfigError("matrix spec needs csv, bin, values, or kind")
    if kind in ("exchange", "identity", "random_dense"):
        rows = cols = _size(cfg, "n", "matrix")
    else:
        rows, cols = _size(cfg, "rows", "matrix"), _size(cfg, "cols", "matrix")
    # sizes are checked before anything is allocated
    _check_input_size(rows * cols, "matrix rows x cols")
    scale = _finite(cfg.get("scale", 1.0), "matrix scale")
    if kind == "exchange":
        if rows < 2:
            raise ConfigError("exchange matrix needs n >= 2")
        a = np.zeros((rows, rows))
        a[0, 1] = a[1, 0] = 1.0
        return a
    if kind == "identity":
        return np.eye(rows)
    if kind == "random_dense":
        rng = stream(cfg.get("seed", 0), 1001)
        g = rng.standard_normal((rows, rows))
        a = 0.5 * (g + g.T) * scale
        if cfg.get("diagonal_free", False):
            np.fill_diagonal(a, 0.0)
        return a
    if kind == "random_rect":
        rng = stream(cfg.get("seed", 0), 1002)
        return rng.standard_normal((rows, cols)) * scale
    if kind == "random_lowrank":
        rank = _size(cfg, "rank", "matrix")
        _check_input_size(rank * (rows + cols), "matrix rank x (rows + cols)")
        rng = stream(cfg.get("seed", 0), 1003)
        left = rng.standard_normal((rows, rank))
        right = rng.standard_normal((cols, rank))
        return left @ right.T * scale
    raise ConfigError(f"unknown matrix kind {kind!r}")


def _build_vector(cfg: dict) -> np.ndarray:
    if "values" in cfg:
        return _finite(cfg["values"], "vector values")
    kind = cfg.get("kind")
    if kind not in ("ones", "e1", "random_unit"):
        raise ConfigError("vector spec needs values or kind")
    n = _size(cfg, "n", "vector")
    _check_input_size(n, "vector n")
    if kind == "ones":
        return np.ones(n)
    if kind == "e1":
        v = np.zeros(n)
        v[0] = 1.0
        return v
    rng = stream(cfg.get("seed", 0), 1004)
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _build_base(cfg: dict | None, alpha: float) -> DistributionSpec:
    if cfg is None:
        return DistributionSpec(kind="weibull", alpha=alpha)
    return DistributionSpec(
        kind=cfg["kind"],
        alpha=cfg.get("alpha"),
        scale=_finite(cfg.get("scale", 1.0), "base scale"),
        unit_variance=cfg.get("unit_variance", False),
    )


def _p_vector(p, dim: int) -> tuple[float, ...]:
    """Config p, a scalar for all dim coordinates or a list of dim entries, as a tuple."""
    if np.isscalar(p):
        return tuple([float(p)] * dim)
    if len(p) != dim:
        raise ConfigError(f"p has {len(p)} entries, instance needs {dim}")
    return tuple(float(v) for v in p)


def _build_model(cfg: dict, dim: int) -> tuple[SparseModel, float]:
    alpha = AlphaParam(cfg["alpha"]).value
    base = _build_base(cfg.get("base"), alpha)
    return SparseModel(p=_p_vector(cfg["p"], dim), base=base), alpha


def _build_multivariate(cfg: dict) -> cv.MultivariateModel:
    """The model of covest and rip, whose replicate of n draws must fit the input budget."""
    b = _build_matrix(cfg["b"])
    _check_input_size(cfg["n"] * max(b.shape), "n x max(b rows, b cols)")
    return cv.MultivariateModel(b=b, alpha=cfg["alpha"], p=_p_vector(cfg["p"], b.shape[0]))


def _build_t_grid(cfg: dict) -> np.ndarray:
    if "values" in cfg:
        grid = cfg["values"]
    else:
        for key in ("kind", "start", "stop", "num"):
            if key not in cfg:
                raise ConfigError("t_grid needs values or kind/start/stop/num")
        if cfg["num"] > T_GRID_BUDGET:
            raise BudgetExceededError(f"t_grid num = {cfg['num']} exceeds {T_GRID_BUDGET}")
        ends = [_finite(cfg[key], f"t_grid {key}") for key in ("start", "stop")]
        space = np.linspace if cfg["kind"] == "linear" else np.geomspace
        grid = space(*ends, cfg["num"])
    return _finite(grid, "thresholds")


def _build_constants(cfg: dict | None) -> bd.BoundConstants:
    """bd.DEFAULT_CONSTANTS with each constant cfg gives, c_alpha checked before prefactor."""
    given = [key for key in ("c_alpha", "prefactor") if cfg and key in cfg]
    finite = {key: _finite(cfg[key], f"constants {key}") for key in given}
    return dataclasses.replace(bd.DEFAULT_CONSTANTS, **finite)


def _resolve_l(cfg_l, model: SparseModel, alpha: float) -> float:
    if cfg_l is None or cfg_l == "auto":
        return model_psi_alpha(model, alpha)
    return float(_finite(cfg_l, "L"))


def _resolve_threads(args) -> int:
    """--threads, by default the CPU count up to THREAD_BUDGET."""
    if args.threads is None:
        return min(os.cpu_count() or 1, THREAD_BUDGET)
    if args.threads < 1:
        raise ConfigError("threads must be at least 1")
    if args.threads > THREAD_BUDGET:
        raise BudgetExceededError(f"threads = {args.threads} exceeds {THREAD_BUDGET}")
    return args.threads


# ---------------------------------------------------------------- reports


def _write_table(path: Path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _emit(outdir: str | None, report: dict, tables: dict[str, tuple[list[str], list]], side) -> None:
    if outdir is None:
        print(json.dumps(report, indent=2))
        return
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2)
    for name, (header, rows) in tables.items():
        _write_table(out / f"{name}.csv", header, rows)
    for write in side:
        write(out)


def _verdict(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _run(command: str, body, args) -> int:
    """Load the config, resolve seed and threads, run body, write the report.

    body(cfg, seed, threads) returns (results, tables, verdicts, *writers of
    side files into --out); nothing is written before it and _config_hash pass.
    """
    started = time.time()
    cfg = _load_config(args.config, command)
    seed = args.seed if args.seed is not None else cfg["seed"]
    threads = _resolve_threads(args)
    results, tables, verdicts, *side = body(cfg, seed, threads)
    report = {
        "command": command,
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "seed": seed,
        "threads": threads,
        "version": __version__,
        "stream_layout": STREAM_LAYOUT,
        "results": results,
        "verdicts": verdicts,
        "wall_clock_s": time.time() - started,
    }
    _emit(args.out, report, tables, side)
    failed = [v["name"] for v in verdicts if not v["passed"]]
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _bounds_table(t_grid, probs: dict) -> tuple[list[str], np.ndarray]:
    return ["t"] + list(probs), np.column_stack([t_grid] + [np.asarray(v) for v in probs.values()])


def _degenerate(what: str):
    verdict = _verdict("degenerate_instance", True, f"zero {what}; nothing to verify")
    return {"degenerate": True}, {}, [verdict]


def _verify_tail(tail, exponent, probs: dict, rel_slack: float, results: dict, shape: dict):
    """Dominance verdict, slope fit and tables shared by the verify commands."""
    name = "tail_dominates_calibrated_exponent"
    try:
        dom = qf.dominance_check(tail, exponent, rel_slack=rel_slack)
    except ValueError as exc:
        verdicts = [_verdict(name, False, str(exc))]
    else:
        results["dominance"] = {**shape, **dataclasses.asdict(dom)}
        detail = f"c_hat={dom.c_hat:.4g} over {dom.n_points} grid points"
        verdicts = [_verdict(name, dom.ok, detail)]
    try:
        results["slope_fit"] = dataclasses.asdict(qf.tail_slope_fit(tail))
    except ValueError as exc:
        results["slope_fit"] = {"error": str(exc)}
    tables = {
        "tail": (
            ["t", "survival", "ci_low", "ci_high"],
            np.column_stack([tail.t_grid, tail.survival, tail.ci_low, tail.ci_high]),
        ),
        "bounds": _bounds_table(tail.t_grid, probs),
    }
    return results, tables, verdicts


# ---------------------------------------------------------------- commands


def _hw_verify(cfg: dict, seed: int, threads: int):
    a = bd.symmetrize(_build_matrix(cfg["matrix"]))
    model, alpha = _build_model(cfg["model"], a.shape[0])
    t_grid = _build_t_grid(cfg["t_grid"])
    constants = _build_constants(cfg.get("constants"))
    rel_slack = _finite(cfg.get("rel_slack", 0.1), "rel_slack")
    L = _resolve_l(cfg.get("L"), model, alpha)
    bd.check_l(L)
    if not np.any(a):
        return _degenerate("matrix")

    f = bd.functionals(a, model.p_array(), alpha)
    bounds = {"sparse_alpha": bd.TailBound(bd.hw_sparse_regimes(f), constants)}
    if alpha <= 1.0:
        bounds["sparse_alpha_refined"] = bd.TailBound(bd.f_sparse_regimes(f), constants)
    inst = qf.QuadFormInstance(a, model)
    tail = qf.simulate_tail(inst, t_grid, cfg["n_samples"], seed, threads=threads)
    tn = tail.t_grid / L**2
    shape_name = "sparse_alpha_refined" if alpha <= 1.0 else "sparse_alpha"
    exponent = bounds[shape_name].exponent(tn)
    probs = {k: tb.prob(tn, exponent if k == shape_name else None) for k, tb in bounds.items()}
    results = {
        "L": L,
        "center": inst.mean(),
        "survival": tail.survival.tolist(),
        "t_grid": tail.t_grid.tolist(),
        "bounds": {k: np.asarray(v).tolist() for k, v in probs.items()},
    }
    return _verify_tail(tail, exponent, probs, rel_slack, results, {"shape": shape_name})


def _bernstein_verify(cfg: dict, seed: int, threads: int):
    a = _build_vector(cfg["vector"])
    model, alpha = _build_model(cfg["model"], a.size)
    if alpha > 1.0:
        raise ConfigError("linear-form verification needs alpha in (0, 1]")
    t_grid = _build_t_grid(cfg["t_grid"])
    constants = _build_constants(cfg.get("constants"))
    rel_slack = _finite(cfg.get("rel_slack", 0.1), "rel_slack")
    L = _resolve_l(cfg.get("L"), model, alpha)
    if not np.any(a):
        return _degenerate("vector")

    tb = bd.TailBound(bd.bernstein_regimes(a, model.p_array(), alpha, L), constants)
    tail = qf.simulate_linear_tail(a, model, t_grid, cfg["n_samples"], seed, threads=threads)
    exponent = tb.exponent(tail.t_grid)
    probs = {"bound": tb.prob(tail.t_grid, exponent)}
    results = {
        "L": L,
        "survival": tail.survival.tolist(),
        "t_grid": tail.t_grid.tolist(),
        "bound": np.asarray(probs["bound"]).tolist(),
    }
    return _verify_tail(tail, exponent, probs, rel_slack, results, {})


def _covest(cfg: dict, seed: int, threads: int):
    model = _build_multivariate(cfg)
    n, replicates = cfg["n"], cfg["replicates"]
    tol_se = _finite(cfg.get("tol_se", 4.0), "tol_se")

    mean, se = cv.ipw_replicate_stats(model, n, replicates, seed, threads)
    sigma = model.sigma()
    dev = np.abs(mean - sigma)
    floor = 1e-12 * max(1.0, float(np.abs(sigma).max()))
    z = dev / np.maximum(se, floor)
    max_z = float(z.max())
    ok = max_z <= tol_se

    results = {
        "sigma": sigma.tolist(),
        "estimator_mean": mean.tolist(),
        "estimator_se": se.tolist(),
        "max_abs_deviation": float(dev.max()),
        "max_z_score": max_z,
        "tol_se": tol_se,
    }
    verdicts = [
        _verdict(
            "ipw_estimator_unbiased",
            ok,
            f"max |mean - sigma| = {max_z:.3f} standard errors (allowed {tol_se})",
        )
    ]
    tables = {
        "estimates": (
            ["row", "col", "sigma", "mean", "se"],
            [[i, j, sigma[i, j], mean[i, j], se[i, j]] for i, j in np.ndindex(sigma.shape)],
        )
    }
    if not cfg.get("save_first_draw", False):
        return results, tables, verdicts

    def save_draw(out: Path) -> None:
        values, masks = cv.first_replicate(model, n, replicates, seed)
        cv.save_samples(out / "draw", model, values, masks, seed)

    return results, tables, verdicts, save_draw


def _sorted_quantile(s: np.ndarray, q: float) -> float:
    """numpy's "linear" quantile (Hyndman & Fan type 7) of the sorted 1-D array s.

    Equal (==) to np.quantile(s, q) for 0 <= q <= 1, bit for bit unless
    the result is a zero, whose sign numpy takes from wherever its
    partition leaves -0.0 and 0.0.  np.quantile itself is not called
    because it imports numpy.ma, which costs more than the sort.
    """
    if math.isnan(s[-1]):  # sorted last; numpy's quantile is then NaN
        return math.nan
    n = len(s)
    at = (n - 1) * q
    if at >= n - 1:
        return float(s[-1])
    i = math.floor(at)
    a, b, g = float(s[i]), float(s[i + 1]), at - i
    # numpy's _lerp: interpolate from the nearer end
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def _sorted_median(s: np.ndarray) -> float:
    """np.median of the sorted 1-D array s, under the terms of _sorted_quantile."""
    if math.isnan(s[-1]):
        return math.nan
    h = len(s) // 2
    return float(s[h]) if len(s) % 2 else (float(s[h - 1]) + float(s[h])) / 2


def _rip(cfg: dict, seed: int, threads: int):
    model = _build_multivariate(cfg)
    n, k = cfg["n"], cfg["k"]
    t_values = sorted(float(t) for t in _build_t_grid({"values": cfg["t_values"]}))
    slack = _finite(cfg.get("rel_slack", 0.0), "rel_slack")
    # checks k and the theta budget before anything is drawn
    rhs = cv.rip_bound_rhs(t_values, k, model, n, cfg.get("theta_budget", 128)).value
    if not np.any(model.b):
        return _degenerate("B")
    # after the degenerate return (a zero B gives rhs 0), before anything is drawn
    finite = np.isfinite(rhs)
    if not finite[0]:
        raise ConfigError("bound_rhs overflows a float: B is too large for its K1 or K2 term")
    if not finite.all():  # finite at the smallest t, so a larger t is the cause
        t = t_values[int(np.argmin(finite))]
        raise ConfigError(f"bound_rhs overflows a float at t = {t!r}: t is too large")
    if rhs[-1] == 0.0:  # B is not zero, but its K1 and K2 terms underflow
        raise ConfigError("bound_rhs underflows to 0: B is too small for its K1 and K2 terms")
    sigma = model.sigma()
    # rip_k rejects inf and NaN deviations
    rips = np.concatenate(
        cv.ipw_batches(
            model, n, cfg["replicates"], seed, lambda est: cv.rip_k(est - sigma, k), threads
        )
    )
    rhs = rhs.tolist()
    ordered = np.sort(rips)
    quantiles = [_sorted_quantile(ordered, max(0.0, 1.0 - 2.0 * math.exp(-t))) for t in t_values]
    # tail bounds bind in the deep tail: anchor the constant at the
    # largest t, then the shallower quantile levels must stay dominated
    c_hat = quantiles[-1] / rhs[-1]
    ok = all(qt <= c_hat * r * (1 + slack) + 1e-12 for qt, r in zip(quantiles, rhs))
    results = {
        "rip_quantiles": dict(zip(map(str, t_values), quantiles)),
        "bound_rhs": dict(zip(map(str, t_values), rhs)),
        "c_hat": c_hat,
        "rip_mean": float(rips.mean()),
    }
    verdicts = [
        _verdict(
            "rip_quantile_dominated_by_calibrated_bound",
            ok,
            f"c_hat={c_hat:.4g} fitted at t={t_values[-1]}",
        )
    ]
    tables = {"rip": (["t", "quantile", "bound_rhs"], list(zip(t_values, quantiles, rhs)))}
    return results, tables, verdicts


def _sketch(cfg: dict, seed: int, threads: int):
    n_seeds = cfg.get("n_seeds", 1)
    if n_seeds > SKETCH_SEED_BUDGET:
        raise BudgetExceededError(f"n_seeds = {n_seeds} exceeds {SKETCH_SEED_BUDGET}")
    x = _build_matrix(cfg["x"])
    p = cfg["p"]
    r_values = sorted(set(cfg["r_values"]))
    # the last sketch's factors are (rows, r) and (cols, r)
    _check_input_size(r_values[-1] * sum(x.shape), "max(r_values) x (rows + cols)")
    xi = cfg.get("xi", "gaussian")
    eta = cfg.get("eta", 0.1)
    c1 = _finite(cfg.get("c1", 1.0), "c1")
    allow_wide = cfg.get("allow_wide", False)

    fact = sk.thin_svd(x)  # shared by every sketch of x
    rows, medians = [], []
    for r in r_values:
        errs = np.empty(n_seeds)
        for s in range(n_seeds):
            fu, fv, errs[s] = sk.low_rank_approx(x, r, p, seed + s, xi, allow_wide, fact)
        error_max = float(errs[-1])  # the last sketch's; errs is sorted in place
        errs.sort()
        medians.append(_sorted_median(errs))
        eps, bound = sk.sketch_bound(fact, r, p, eta, c1)  # the same for every seed
        rows.append([r, medians[-1], bound])

    results = {
        "r_values": r_values,
        "median_error": medians,
        "detected_rank": fact.rank,
        "truncated": fact.truncated,
    }
    verdicts = []
    if len(r_values) >= 2:
        log_r = np.log(np.asarray(r_values, dtype=float))
        # a median error of exactly 0 has no logarithm, and then no slope
        slope = np.polyfit(log_r, np.log(medians), 1)[0] if min(medians) > 0 else None
        results["error_decay_slope"] = None if slope is None else float(slope)
        # a median may rise by rounding alone (X = [[1]] gives 0.0, then 2.2e-16 at r = 2):
        # only a rise above 64 eps max|X|, 64 ulps of X's largest entry, fails
        slack = 64 * np.finfo(float).eps * float(np.abs(x).max())
        monotone = all(b <= a + slack for a, b in zip(medians, medians[1:]))
        detail = f"medians {['%.3g' % m for m in medians]}"
        verdicts.append(_verdict("median_error_nonincreasing_in_r", monotone, detail))

    tables = {"errors": (["r", "median_error", "bound"], rows)}

    def save_last_sketch(out: Path) -> None:
        np.savetxt(out / "factor_left.csv", fu, delimiter=",")
        np.savetxt(out / "factor_right.csv", fv, delimiter=",")
        # the last sketch (the largest r at the last seed), with that r's eps and bound
        meta = {"r": r, "p": p, "seed": seed + n_seeds - 1, "scale": 1.0 / p, "xi": xi}
        meta |= {"eps": eps, "error_max": error_max, "bound": bound}
        meta |= {"detected_rank": fact.rank, "truncated": fact.truncated}
        with open(out / "sketch_meta.json", "w") as fh:
            json.dump(meta, fh, indent=2)

    return results, tables, verdicts, save_last_sketch


def _cmd_norms(args) -> int:
    path = Path(args.matrix)
    binary = args.format == "bin" or (args.format == "auto" and path.suffix == ".bin")
    a = _read_matrix(path, binary, "read a binary matrix with --format bin")
    p = None
    if args.p is not None:
        parts = [float(v) for v in args.p.split(",")]
        p = parts[0] if len(parts) == 1 else parts  # a scalar weights every column
    al = None if args.alpha is None else AlphaParam(args.alpha)
    f = mn.Functionals(a, p, None if al is None else al.value)

    names = ["frobenius", "max_abs", "spectral", "op_2_to_inf", "op_1_to_2", "op_1_to_inf"]
    names += ["mixed_l4_l2", "mixed_linf_l2"]
    entries: dict[str, float] = {name: getattr(f, name) for name in names}
    converged: dict[str, bool] = {}
    if al is not None:
        key = f"op_alpha_to_conj(alpha={al.value})"
        # below alpha = 1 the entry is the closed form ||A||_{1->inf}
        entries[key] = f.op_alpha_to_conj if al.value > 1.0 else f.op_1_to_inf
        if al.value > 1.0:
            converged[key] = f.op(al.value, mn.conjugate(al.value)).converged
            entries[f"mixed_conj_l2(alpha={al.value})"] = f.mixed_conj_l2
    if p is not None:
        weighted = ["gamma1", "gamma2", "weighted_spectral"] if a.shape[0] == a.shape[1] else []
        entries.update((name, getattr(f, name)) for name in weighted + ["row_weighted_max"])
    for name, value in entries.items():  # JSON has no Infinity or NaN
        if not math.isfinite(value):
            raise ConfigError(f"{name} is {value}: the matrix entries are too large")

    width = max(len(k) for k in entries)
    for name, value in entries.items():
        print(f"{name:<{width}}  {value:.12g}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "norms.json", "w") as fh:
            report = {"matrix": str(path), "norms": entries, "altmax_converged": converged}
            json.dump(report, fh, indent=2)
    return 0


def _sample(cfg: dict, seed: int, threads: int):
    base = _build_base(cfg["base"], cfg["base"].get("alpha"))
    n = cfg["n"]
    results = {}
    rng = stream(seed, 0)
    p = cfg.get("p")
    # a list p fixes the width; a config dim that disagrees is refused below
    width = len(p) if isinstance(p, list) else cfg.get("dim", 1)
    _check_input_size(width * n, "dim x n")
    dim = cfg.get("dim", width)
    if p is None:
        flat = sample_base(base, (n, dim), rng)
    else:
        model = SparseModel(p=_p_vector(p, dim), base=base)
        flat = sample_sparse_matrix(model, n, rng)
        results["zero_fraction"] = float(np.mean(flat == 0.0))
    second_moment = float((flat**2).mean())
    if not math.isfinite(second_moment):  # the base law's is finite, a draw's square may not be
        raise ValueError(f"the sample second moment is {second_moment}: the squares overflow")
    results.update(
        {
            "n": n,
            "mean": float(flat.mean()),
            "second_moment": second_moment,
            "max_abs": float(np.abs(flat).max()),
        }
    )
    tables = {"samples": ([f"x{i}" for i in range(flat.shape[1])], flat)}
    return results, tables, []


def _bound_table(cfg: dict, seed: int, threads: int):
    a = bd.symmetrize(_build_matrix(cfg["matrix"]))
    model, alpha = _build_model(cfg["model"], a.shape[0])
    t_grid = _build_t_grid(cfg["t_grid"])
    constants = _build_constants(cfg.get("constants"))
    L = _resolve_l(cfg.get("L"), model, alpha)
    f = bd.functionals(a, model.p_array(), alpha)
    table = bd.bound_report(f, t_grid, L=L, constants=constants)
    return table, {"bounds": _bounds_table(np.asarray(table["t_grid"]), table["bounds"])}, []


# ---------------------------------------------------------------- driver


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="JSON config path")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--threads", type=int, default=None, help="worker thread count")
    sub.add_argument("--out", default=None, help="output directory for report and tables")


# each subcommand's help and config body, in the order `sparse-hw --help` lists
# them; norms reads a matrix file and options instead of a config, so has no body
_SUBCOMMANDS = {
    "hw-verify": ("simulate a quadratic-form tail and verify the sparse bounds", _hw_verify),
    "bernstein-verify": ("simulate a linear-form tail and verify its bound", _bernstein_verify),
    "covest": ("IPW covariance estimator unbiasedness experiment", _covest),
    "rip": ("k-sparse deviation concentration experiment", _rip),
    "sketch": ("sparsified-sketch low-rank approximation", _sketch),
    "sample": ("draw samples from a base law or sparse model", _sample),
    "bound-table": ("tabulate comparison bounds over a threshold grid", _bound_table),
    "norms": ("print matrix functionals", None),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `sparse-hw` parser, with every subcommand or only `command`.

    argparse looks up each of a parser's messages through gettext when it
    builds the parser, so main builds only the subcommand argv names.
    That parser's usage line still lists every subcommand, as errors it
    raises itself (unrecognized arguments) print it.
    """
    parser = argparse.ArgumentParser(
        prog="sparse-hw",
        description="Sparse quadratic-form tail bounds: evaluation and Monte Carlo verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # a metavar would also rename the subcommand in the full parser's errors
    metavar = None if command is None else "{%s}" % ",".join(_SUBCOMMANDS)
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    for name, (help_text, body) in _SUBCOMMANDS.items():
        if command not in (None, name):
            continue
        sub = subs.add_parser(name, help=help_text)
        if body is not None:
            _add_common(sub)
            sub.set_defaults(handler=functools.partial(_run, name, body))
        else:  # norms
            sub.add_argument("matrix", help="matrix file (CSV, or binary with --format bin)")
            sub.add_argument("--format", choices=["auto", "csv", "bin"], default="auto")
            sub.add_argument("--p", default=None, help="retention probabilities (scalar or comma list)")
            sub.add_argument("--alpha", type=float, default=None)
            sub.add_argument("--out", default=None)
            sub.set_defaults(handler=_cmd_norms)
    return parser


def _internal_error(exc: Exception) -> int:
    """Exit 4 with one stderr line: a fault of the program, not of the config."""
    message = " ".join(str(exc).split())
    print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
    return 4


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    named = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(named).parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # inf and NaN are checked where they matter
            return args.handler(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, but not an input error
        return _internal_error(exc)
    except ValueError as exc:  # ConfigError is one
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        return _internal_error(exc)


if __name__ == "__main__":
    sys.exit(main())
