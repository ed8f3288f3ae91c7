"""Outside-in tracing of sparse_hw's layers.

The benchmark installs wrappers around the public functions of each
layer from its own files; no file of the package changes.  A wrapper
records one span per call: name, start, end, parent span and thread.
`from x import f` copies a name into the importing module, so every copy
a caller looks up is wrapped too (`quadform_mc.sample_sparse_matrix`,
`cli.model_psi_alpha`, ...).  The Monte Carlo chunk worker is a closure,
so it is wrapped where it crosses `quadform_mc._run_chunks`; that is the
only boundary where statistic evaluation can be told apart from
sampling.  Spans stay in memory and are handed back at the end of the
run.

A name that no longer exists is recorded as absent and skipped, so the
traced run survives a refactor of the package; the metrics that depend
on it are then reported as absent.

Per-layer metrics are computed from the spans by `layer_metrics`.  Self
time is computed per thread: a span's self time is its duration minus
the durations of its children on the same thread, so a main-thread span
whose work runs on pool threads shows up as waiting, not as busy.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time

import numpy as np

# (module, attribute, layer) for every name a caller binds.  Copies made by
# `from ... import` are listed under the importing module but keep the layer
# of the defining module.
WRAPPED = (
    ("sparse_hw.cli", "main", "cli"),
    ("sparse_hw.cli", "model_psi_alpha", "rv_models"),
    ("sparse_hw.cli", "sample_base", "rv_models"),
    ("sparse_hw.cli", "sample_sparse_matrix", "rv_models"),
    ("sparse_hw.cli", "stream", "streams"),
    ("sparse_hw.rv_models", "sample_sparse_matrix", "rv_models"),
    ("sparse_hw.rv_models", "sample_base", "rv_models"),
    ("sparse_hw.rv_models", "model_psi_alpha", "rv_models"),
    ("sparse_hw.rv_models", "psi_alpha_norm", "rv_models"),
    ("sparse_hw.rv_models", "stream", "streams"),
    ("sparse_hw.quadform_mc", "simulate_tail", "quadform_mc"),
    ("sparse_hw.quadform_mc", "_run_chunks", "quadform_mc"),
    ("sparse_hw.quadform_mc", "dominance_check", "quadform_mc"),
    ("sparse_hw.quadform_mc", "tail_slope_fit", "quadform_mc"),
    ("sparse_hw.quadform_mc", "sample_sparse_matrix", "rv_models"),
    ("sparse_hw.quadform_mc", "stream", "streams"),
    ("sparse_hw.matrix_norms", "opnorm_detail", "matrix_norms"),
    ("sparse_hw.matrix_norms", "frobenius", "matrix_norms"),
    ("sparse_hw.matrix_norms", "max_abs", "matrix_norms"),
    ("sparse_hw.matrix_norms", "mixed_norm", "matrix_norms"),
    ("sparse_hw.matrix_norms", "gamma1", "matrix_norms"),
    ("sparse_hw.matrix_norms", "gamma2", "matrix_norms"),
    ("sparse_hw.matrix_norms", "weighted_spectral", "matrix_norms"),
    ("sparse_hw.matrix_norms", "row_weighted_max", "matrix_norms"),
    ("sparse_hw.matrix_norms", "stream", "streams"),
    ("sparse_hw.bounds", "bound_report", "bounds"),
    ("sparse_hw.bounds", "comparison_bounds", "bounds"),
    ("sparse_hw.bounds", "f1_regimes", "bounds"),
    ("sparse_hw.bounds", "f2_regimes", "bounds"),
    ("sparse_hw.bounds", "f_sparse_regimes", "bounds"),
    ("sparse_hw.bounds", "hw_sparse_regimes", "bounds"),
    ("sparse_hw.bounds", "TailBound.exponent", "bounds"),
    ("sparse_hw.bounds", "TailBound.prob", "bounds"),
    ("sparse_hw.covest", "generate_samples", "covest"),
    ("sparse_hw.covest", "ipw_estimator", "covest"),
    ("sparse_hw.covest", "rip_k", "covest"),
    ("sparse_hw.covest", "rip_bound_rhs", "covest"),
    ("sparse_hw.covest", "k1_k2_terms", "covest"),
    ("sparse_hw.covest", "expected_frob_sq_exact", "covest"),
    ("sparse_hw.covest", "sample_base", "rv_models"),
    ("sparse_hw.covest", "stream", "streams"),
    ("sparse_hw.streams", "stream", "streams"),
)

FUNCTIONALS = (
    "frobenius",
    "max_abs",
    "mixed_norm",
    "gamma1",
    "gamma2",
    "weighted_spectral",
    "row_weighted_max",
)


def _attrs(func: str, args: tuple, kwargs: dict, result) -> dict | None:
    """Counts recorded at the boundary where the work happens."""
    if func == "sample_sparse_matrix":
        rows, dim = result.shape
        return {"rows": rows, "dim": dim, "nonzero": int(np.count_nonzero(result))}
    if func == "opnorm_detail":
        return {"restarts": int(result.restarts), "converged": bool(result.converged)}
    if func == "rip_k":
        d = len(args[0])
        return {"subsets": math.comb(d, int(args[1] if len(args) > 1 else kwargs["k"]))}
    if func == "expected_frob_sq_exact":
        return {"d": len(args[0])}
    if func == "simulate_tail":
        return {"threads": int(kwargs.get("threads", args[4] if len(args) > 4 else 1))}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, layer, thread, parent, start, end, attrs)
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _span(self, fn, name: str, layer: str, parent_of_thread=None):
        short = name.rsplit(".", 1)[-1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else parent_of_thread
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = _attrs(short, args, kwargs, result)
            self.spans.append((sid, name, layer, threading.get_ident(), parent, start, end, attrs))
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _wrap_run_chunks(self, fn, name: str, layer: str):
        # Wrap the closure handed to _run_chunks so each chunk gets a span
        # whose parent is the _run_chunks span, even on a pool thread.
        tracer = self

        def run_chunks(worker, *args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            chunk = tracer._span(worker, "quadform_mc.chunk", "quadform_mc", parent_of_thread=parent)
            return fn(chunk, *args, **kwargs)

        return self._span(functools.wraps(fn)(run_chunks), name, layer)

    def install(self) -> None:
        for module_name, attr, layer in WRAPPED:
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            if getattr(fn, "__wrapped_by_tracer__", False):
                continue
            if leaf == "_run_chunks":
                setattr(owner, leaf, self._wrap_run_chunks(fn, name, layer))
            else:
                setattr(owner, leaf, self._span(fn, name, layer))


# ---------------------------------------------------------------- metrics

PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "rv_models.sample_busy_s": "s",
    "rv_models.coords_drawn": "count",
    "rv_models.coords_nonzero": "count",
    "rv_models.useful_frac": "ratio",
    "quadform_mc.chunks": "count",
    "quadform_mc.chunk_busy_s": "s",
    "quadform_mc.stat_busy_s": "s",
    "quadform_mc.wait_s": "s",
    "quadform_mc.parallel_frac": "ratio",
    "quadform_mc.thread_speedup": "ratio",
    "quadform_mc.stat_flops_computed": "flop",
    "quadform_mc.verdict_s": "s",
    "matrix_norms.opnorm_calls": "count",
    "matrix_norms.altmax_calls": "count",
    "matrix_norms.altmax_unconverged": "count",
    "matrix_norms.opnorm_s": "s",
    "matrix_norms.functional_calls": "count",
    "matrix_norms.functional_s": "s",
    "bounds.self_s": "s",
    "bounds.comparison_calls": "count",
    "covest.rip_k_s": "s",
    "covest.rip_k_subsets": "count",
    "covest.frob_exact_s": "s",
    "covest.frob_exact_calls": "count",
    "covest.frob_exact_terms_computed": "count",
    "covest.generate_s": "s",
    "streams.generators": "count",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that are exact counts on a deterministic run: two traced runs of the
# same code and inputs must give identical values.
EXACT_COUNTS = tuple(k for k, u in PER_LAYER_UNITS.items() if u in ("count", "flop"))

# Wrapped names each metric is computed from; a metric whose names are absent
# is reported as absent instead of as a misleading zero.
_NEEDS = {
    "cli.self_s": ("cli.main",),
    "rv_models.": ("rv_models.sample_sparse_matrix", "quadform_mc.sample_sparse_matrix"),
    "quadform_mc.": ("quadform_mc.simulate_tail", "quadform_mc._run_chunks"),
    "quadform_mc.verdict_s": ("quadform_mc.dominance_check", "quadform_mc.tail_slope_fit"),
    "matrix_norms.opnorm": ("matrix_norms.opnorm_detail",),
    "matrix_norms.altmax": ("matrix_norms.opnorm_detail",),
    "matrix_norms.functional": tuple(f"matrix_norms.{f}" for f in FUNCTIONALS),
    "bounds.": ("bounds.comparison_bounds",),
    "covest.rip_k": ("covest.rip_k",),
    "covest.frob": ("covest.expected_frob_sq_exact",),
    "covest.generate_s": ("covest.generate_samples",),
    "streams.": ("streams.stream",),
}


def absent_metrics(absent: list[str]) -> list[str]:
    gone = set(absent)
    out = []
    for metric in PER_LAYER_UNITS:
        needs = [names for prefix, names in _NEEDS.items() if metric.startswith(prefix)]
        if any(gone.intersection(names) for names in needs):
            out.append(metric)
    return out


def _self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus its same-thread children's durations."""
    thread_of = {s[0]: s[3] for s in spans}
    self_t = {s[0]: s[6] - s[5] for s in spans}
    for s in spans:
        parent = s[4]
        if parent in self_t and thread_of[parent] == s[3]:
            self_t[parent] -= s[6] - s[5]
    return self_t


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (except trace.* and thread_speedup)."""
    by_id = {s[0]: s for s in spans}
    self_t = _self_times(spans)
    main_thread = next((s[3] for s in spans if s[1] == "cli.main"), None)

    def named(*names):
        return [s for s in spans if s[1] in names]

    def dur(ss):
        return sum((s[6] - s[5] for s in ss), 0.0)

    def outermost(layer):
        return [s for s in spans if s[2] == layer and (s[4] not in by_id or by_id[s[4]][2] != layer)]

    m: dict[str, float] = {}
    m["cli.self_s"] = sum((self_t[s[0]] for s in spans if s[2] == "cli" and s[3] == main_thread), 0.0)

    samplers = [s for s in spans if s[1].endswith(".sample_sparse_matrix")]
    drawn = sum(s[7]["rows"] * s[7]["dim"] for s in samplers)
    nonzero = sum(s[7]["nonzero"] for s in samplers)
    sampling = [s for s in outermost("rv_models") if s[1].rsplit(".", 1)[-1] in ("sample_sparse_matrix", "sample_base")]
    m["rv_models.sample_busy_s"] = dur(sampling)
    m["rv_models.coords_drawn"] = drawn
    m["rv_models.coords_nonzero"] = nonzero
    m["rv_models.useful_frac"] = nonzero / drawn if drawn else 0.0

    chunks = named("quadform_mc.chunk")
    chunk_ids = {s[0] for s in chunks}
    in_chunk_sampling = [s for s in samplers if s[4] in chunk_ids]
    sim = named("quadform_mc.simulate_tail")
    sim_wall = dur(sim)
    threads = max((s[7]["threads"] for s in sim), default=1)
    m["quadform_mc.chunks"] = len(chunks)
    m["quadform_mc.chunk_busy_s"] = dur(chunks)
    m["quadform_mc.stat_busy_s"] = sum((self_t[s[0]] for s in chunks), 0.0)
    m["quadform_mc.wait_s"] = sum(
        self_t[s[0]] for s in named("quadform_mc._run_chunks") if s[3] == main_thread
    ) if any(s[3] != main_thread for s in chunks) else 0.0
    m["quadform_mc.parallel_frac"] = dur(chunks) / (threads * sim_wall) if sim_wall else 0.0
    m["quadform_mc.stat_flops_computed"] = sum(
        2 * s[7]["rows"] * s[7]["dim"] ** 2 for s in in_chunk_sampling
    )
    m["quadform_mc.verdict_s"] = dur(named("quadform_mc.dominance_check", "quadform_mc.tail_slope_fit"))

    opn = named("matrix_norms.opnorm_detail")
    funcs = [s for s in outermost("matrix_norms") if s[1].rsplit(".", 1)[-1] in FUNCTIONALS]
    m["matrix_norms.opnorm_calls"] = len(opn)
    m["matrix_norms.altmax_calls"] = sum(1 for s in opn if s[7]["restarts"] > 0)
    m["matrix_norms.altmax_unconverged"] = sum(
        1 for s in opn if s[7]["restarts"] > 0 and not s[7]["converged"]
    )
    m["matrix_norms.opnorm_s"] = dur(opn)
    m["matrix_norms.functional_calls"] = len(funcs)
    m["matrix_norms.functional_s"] = dur(funcs)

    m["bounds.self_s"] = sum((self_t[s[0]] for s in spans if s[2] == "bounds"), 0.0)
    m["bounds.comparison_calls"] = len(named("bounds.comparison_bounds"))

    rip = named("covest.rip_k")
    frob = named("covest.expected_frob_sq_exact")
    m["covest.rip_k_s"] = dur(rip)
    m["covest.rip_k_subsets"] = sum(s[7]["subsets"] for s in rip)
    m["covest.frob_exact_s"] = dur(frob)
    m["covest.frob_exact_calls"] = len(frob)
    m["covest.frob_exact_terms_computed"] = sum(s[7]["d"] ** 4 for s in frob)
    m["covest.generate_s"] = dur(named("covest.generate_samples"))

    m["streams.generators"] = sum(1 for s in spans if s[2] == "streams")
    return m


def simulate_wall(spans: list[tuple]) -> float:
    return sum(s[6] - s[5] for s in spans if s[1] == "quadform_mc.simulate_tail")
