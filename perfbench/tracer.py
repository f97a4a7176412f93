"""Span tracing of hippomem's public functions, from outside the package.

`Tracer.install` wraps each traced function and patches every module
attribute bound to it, so the wrapper runs wherever a caller looks the name
up (`forward_block` reaches `retrieve` and `block_update` through
`hippomem.attention`, `run_benchmark` reaches `history_kernel` through
`hippomem.signal_bench`, and so on). Nothing under `src/` changes.

A span records its name, start, end, parent span and the op (root span) it
belongs to. Spans stay in memory and are written out when the run ends.
`layer_metrics` folds them into the per-layer metrics `BENCHMARK.json` names.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

# (module, function, span name or function of (args, kwargs), extra or None)
# An extra maps (args, kwargs, result) to counters summed per span name.


def _block_update_work(args, kwargs, result):
    state, inputs, bank = args[:3]
    n, d, ell = state.order, state.channel_count, bank.block_length
    return {
        "flops_computed": 2 * n * n * d + 2 * n * ell * d,
        # bank slice (P_i, K_i), state read and written, input block
        "bytes_computed": 8 * (n * n + n * ell + 2 * n * d + ell * d),
    }


def _forward_block_work(args, kwargs, result):
    io, weights, cfg = args[:3]
    ell, d, n, heads, dh = (cfg.block_length, cfg.model_dim, cfg.hippo_order,
                            cfg.head_count, cfg.head_dim)
    mem = cfg.mem_length if cfg.mem_length > 0 and io.block_index > 1 else 0
    flops = (8 * ell * d * d                         # Q, K, V and output projections
             + 2 * 2 * heads * ell * (mem + ell) * dh  # scores and probs @ V
             + 2 * 2 * mem * n * d                     # key and value retrieval
             + 2 * (2 * n * n * d + 2 * n * ell * d))  # key and value block updates
    words = (4 * d * d + 2 * ell * d + 4 * n * d       # weights, hidden, output, states
             + heads * ell * (mem + ell)               # probabilities
             + (mem * n if mem else 0) + n * n + n * ell)  # R_i, P_i, K_i
    return {"flops_computed": flops, "bytes_computed": 8 * words}


def _cache_hit(args, kwargs, result):
    return {"hit": int(bool(result[2]))}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _written_bytes(args, kwargs, result):
    return {"bytes": int(result)}


def _history_kernel_name(args, kwargs):
    scheme = args[2] if len(args) > 2 else kwargs["scheme"]
    return f"discretization.history_kernel.{scheme.value}"


TARGETS = [
    ("operators", "legendre_table", "operators.legendre_table", None),
    ("operators", "basis_matrix", "operators.basis_matrix", None),
    ("discretization", "transition_power", "discretization.transition_power", None),
    ("discretization", "segment_coefficients", "discretization.segment_coefficients", None),
    ("discretization", "discretize_interval", "discretization.discretize_interval", None),
    ("discretization", "history_kernel", _history_kernel_name, None),
    ("block_kernel", "build_bank", "block_kernel.build_bank", None),
    ("block_kernel", "block_update", "block_kernel.block_update", _block_update_work),
    ("reconstruction", "build_reconstruction_bank",
     "reconstruction.build_reconstruction_bank", None),
    ("reconstruction", "sample_points", "reconstruction.sample_points", None),
    ("reconstruction", "retrieve", "reconstruction.retrieve", None),
    ("attention", "forward_block", "attention.forward_block", _forward_block_work),
    ("attention", "apply_rotary", "attention.apply_rotary", None),
    ("attention", "build_trapezoidal_mask", "attention.build_trapezoidal_mask", None),
    ("attention", "init_weights", "attention.init_weights", None),
    ("signal_bench", "run_table", "signal_bench.run_table", None),
    ("signal_bench", "run_benchmark", "signal_bench.run_benchmark", None),
    ("signal_bench", "generate_signal", "signal_bench.generate_signal", None),
    ("bank_cache", "load_or_build_kernel_bank", "bank_cache.kernel", _cache_hit),
    ("bank_cache", "load_or_build_reconstruction_bank", "bank_cache.recon", _cache_hit),
    ("bank_cache", "read_kernel_bank", "bank_cache.read", _file_bytes),
    ("bank_cache", "read_reconstruction_bank", "bank_cache.read", _file_bytes),
    ("bank_cache", "write_kernel_bank", "bank_cache.write", _written_bytes),
    ("bank_cache", "write_reconstruction_bank", "bank_cache.write", _written_bytes),
]

class Tracer:
    """Collects spans around hippomem's public functions while installed."""

    def __init__(self, workdir=None):
        self.workdir = workdir     # where traced children write their spans
        self.spans: list[tuple] = []   # (name, start, end, parent, op, extra)
        self._stack: list[tuple[int, int]] = []   # (span, op) of open spans
        self._patches: list[tuple] = []
        self.active = False

    def span(self, name, fn, *args, extra=None, **kwargs):
        """Call fn inside a span named `name`."""
        if not self.active:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent, op = self._stack[-1] if self._stack else (-1, index)
        # a placeholder until the span ends; finished spans are tuples, which
        # the garbage collector stops tracking, so a long trace stays cheap
        self.spans.append(None)
        self._stack.append((index, op))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, op, None)
        if extra is not None:
            self.spans[index] = (name, start, end, parent, op, extra(args, kwargs, result))
        return result

    def _wrap(self, fn, name, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            return self.span(label, fn, *args, extra=extra, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace calls made inside the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        """Patch every hippomem module attribute bound to a traced function."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hippomem" or key.startswith("hippomem."))]
        for module_name, func_name, name, extra in TARGETS:
            fn = getattr(importlib.import_module(f"hippomem.{module_name}"), func_name)
            wrapper = self._wrap(fn, name, extra)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (used for reference computations)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def absorb_file(self, path: str) -> None:
        """Append the spans a traced child wrote, as ops of their own."""
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        offset = len(self.spans)
        for name, start, end, parent, op, extra in spans:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1,
                               op + offset, extra))

    def dump(self, path: str, **fields) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**fields, "spans": self.spans}, fh)


def layer_metrics(spans: list[tuple], measured: dict[str, float],
                  names: list[str]) -> dict[str, float]:
    """The per-layer metrics `names`; functions a workload never calls read 0.

    A name is "<span name>.<stat>", with stat one of calls, lookups (=
    calls), busy_s, self_s, hit_ratio or a summed extra. Names in `measured`
    (start-up times, cli.startup_share, trace.overhead_ratio) are taken from
    it as they are.
    """
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    child: dict[int, float] = {}
    extras: dict[str, float] = {}
    for name, start, end, parent, _op, extra in spans:
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (end - start)
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
        for key, value in (extra or {}).items():
            extras[f"{name}.{key}"] = extras.get(f"{name}.{key}", 0) + value
    self_time: dict[str, float] = {}
    for index, (name, start, end, *_rest) in enumerate(spans):
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child.get(index, 0.0)

    out = {}
    for metric in names:
        if metric in measured:
            out[metric] = measured[metric]
            continue
        span_name, stat = metric.rsplit(".", 1)
        if stat in ("calls", "lookups"):
            out[metric] = calls.get(span_name, 0)
        elif stat == "busy_s":
            out[metric] = busy.get(span_name, 0.0)
        elif stat == "self_s":
            out[metric] = self_time.get(span_name, 0.0)
        elif stat == "hit_ratio":
            n = calls.get(span_name, 0)
            out[metric] = extras.get(f"{span_name}.hit", 0) / n if n else 0.0
        else:
            out[metric] = extras.get(metric, 0)
    return out
