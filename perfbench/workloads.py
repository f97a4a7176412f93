"""The four benchmark workloads: seeded inputs, set-up, the timed loop, checks.

Every workload is a closed loop with one caller: the next op starts only
after the previous one returns. The library workloads (`stream`, `attn`,
`compress`) call hippomem's public functions in this process; `cli` runs
each invocation as a fresh `python -m hippomem.cli` child, one at a time.

Inputs come from numpy's seeded `Generator`, never from `hippomem.rng`, so a
change to the package cannot change what it is fed. Every reference used by
an output check is computed outside the timed region, and with tracing
paused, so it moves neither the latencies nor the per-layer counts.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
TRACE_CLI = HERE / "trace_cli.py"
SETUP_PROBE = HERE / "setup_probe.py"

# Percentiles a tail may be reported at; a workload reports the highest one
# that leaves at least TAIL_BEYOND ops above it (see Sizes.tail).
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# Child processes get a hard limit so a hung child cannot hang the run.
CHILD_TIMEOUT_S = 120.0


def _rank(q: float, n: int) -> int:
    """Nearest rank of the q-th percentile of n values (1-based).

    Rounded before the ceiling, so float error in q * n cannot add a rank
    (99.9 / 100 * 10000 is 9990.000000000002).
    """
    return max(1, math.ceil(round(q * n / 100.0, 6)))


def tail_percentile(window: int) -> float:
    """Highest listed percentile with at least TAIL_BEYOND of `window` ops beyond it."""
    for q in TAIL_PERCENTILES:
        if window - _rank(q, window) >= TAIL_BEYOND:
            return q
    raise ValueError(f"a window of {window} ops leaves no tail with {TAIL_BEYOND} ops beyond")


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def child_env() -> dict[str, str]:
    """The environment of every child: this one's (BLAS pin included) plus src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


@dataclass
class Tally:
    """Per-op latencies and outcomes of one pass over a workload."""

    latencies: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    failed_ops: set[int] = field(default_factory=set)
    failures: list[str] = field(default_factory=list)
    # op counts at the end of each unit: a sequence (stream, attn), one
    # cycle of the T strata (compress) or one script pass (cli)
    unit_ends: list[int] = field(default_factory=list)
    # called after each unit, between two ops (the untraced run's set-up probes)
    between_units: Callable[[], None] | None = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def busy(self) -> float:
        return float(sum(self.latencies))

    def record(self, seconds: float, tokens: int) -> int:
        self.latencies.append(seconds)
        self.tokens.append(tokens)
        return len(self.latencies) - 1

    def end_unit(self) -> None:
        self.unit_ends.append(self.attempted)
        if self.between_units is not None:
            self.between_units()

    def units(self) -> list[list[float]]:
        """Op latencies of each whole unit."""
        starts = [0] + self.unit_ends[:-1]
        return [self.latencies[a:b] for a, b in zip(starts, self.unit_ends)]

    def unit_tokens(self) -> list[int]:
        starts = [0] + self.unit_ends[:-1]
        return [sum(self.tokens[a:b]) for a, b in zip(starts, self.unit_ends)]

    def extend(self, other: "Tally") -> None:
        """Append another pass's ops and outcomes to this one."""
        offset = self.attempted
        self.unit_ends += [end + offset for end in other.unit_ends]
        self.latencies += other.latencies
        self.tokens += other.tokens
        self.failed_ops |= {op + offset for op in other.failed_ops}
        self.failures += other.failures[:5 - len(self.failures)]

    def fail(self, op: int, why: str) -> None:
        if op not in self.failed_ops:
            self.failed_ops.add(op)
            if len(self.failures) < 5:
                self.failures.append(f"op {op}: {why}")


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def _max_abs(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@dataclass(frozen=True)
class Sizes:
    """Shape and run-length settings of one workload."""

    min_ops: int
    traced_ops: int          # fixed op count of each traced-run pass
    # ops per window of the tail percentile, or None for one window of the
    # whole run; the percentile is then set by min_ops, so it is the same in
    # every run however many ops beyond min_ops a run completes
    tail_window: int | None = None
    setup_repeats: int = 9   # fresh interpreters timed per run for setup_s
    trace_pairs: int = 3     # untraced/traced pass pairs in a traced run

    @property
    def tail(self) -> float:
        return tail_percentile(self.tail_window or self.min_ops)


class Workload:
    """Interface shared by the four workloads."""

    name: str
    import_target = "hippomem"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, hm, seed: int, workdir: Path | None):
        raise NotImplementedError

    def run(self, hm, ctx, seed: int, seconds: float, min_ops: int, tracer=None,
            between_units=None) -> Tally:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------- stream

@dataclass(frozen=True)
class StreamSizes(Sizes):
    order: int = 128
    block_length: int = 64
    channels: int = 256
    max_blocks: int = 256    # ZOH bank of ~50 MB at the defaults, far beyond L2
    mem_length: int = 16
    decay: float = 0.95


class Stream(Workload):
    name = "stream"

    def setup(self, hm, seed, workdir):
        s = self.sizes
        op = hm.build_operator(s.order)
        strategy = hm.SamplingStrategy(hm.SamplingKind.EXPONENTIAL, s.decay)
        return {
            "op": op,
            "kernel_bank": hm.build_bank(op, s.block_length, hm.Scheme.ZOH, s.max_blocks),
            "recon_bank": hm.build_reconstruction_bank(
                op, strategy, s.mem_length, s.block_length, s.max_blocks),
        }

    def inputs(self, seed: int, sequence: int, out: np.ndarray) -> np.ndarray:
        """Fill `out` (max_blocks, L, D) with the sequence's seeded inputs.

        Uniform on [-1, 1): values do not change the cost of an op, and these
        draw several times faster than normals, leaving more of a run to ops.
        """
        np.random.default_rng([seed, 1, sequence]).random(out=out)
        out *= 2.0
        out -= 1.0
        return out

    def run(self, hm, ctx, seed, seconds, min_ops, tracer=None, between_units=None):
        s = self.sizes
        tally = Tally(between_units=between_units)
        kbank, rbank = ctx["kernel_bank"], ctx["recon_bank"]
        # one input buffer refilled per sequence keeps peak RSS independent of
        # how the allocator reuses freed memory
        blocks = np.empty((s.max_blocks, s.block_length, s.channels))
        started = time.perf_counter()
        sequence = 0
        while tally.attempted < min_ops or time.perf_counter() - started < seconds:
            self.inputs(seed, sequence, blocks)
            state = hm.zero_state(s.order, s.channels)
            checked = {}  # block position -> (state before, op index, state after)
            for b in range(s.max_blocks):
                before = state
                t0 = time.perf_counter()
                try:
                    state = hm.block_update(state, blocks[b], kbank)
                    rows = hm.retrieve(state, rbank)
                except (ValueError, IndexError) as exc:
                    tally.fail(tally.record(time.perf_counter() - t0, s.block_length), repr(exc))
                    break
                op = tally.record(time.perf_counter() - t0, s.block_length)
                if not np.isfinite(rows).all():
                    tally.fail(op, "non-finite retrieved row")
                if sequence == 0 and b in (0, s.max_blocks - 1):
                    checked[b + 1] = (before, op, state)
            with _paused(tracer):
                for position, (before, op, after) in checked.items():
                    err = self.sequential_error(hm, ctx["op"], before, blocks[position - 1],
                                                position, after)
                    if not err <= 1e-9:
                        tally.fail(op, f"block {position} differs from sequential by {err:.3e}")
            tally.end_unit()
            sequence += 1
        return tally

    def sequential_error(self, hm, op, before, block, position, after) -> float:
        """Max |block_update - token-by-token sequential_update| for one block."""
        ell = self.sizes.block_length
        first = (position - 1) * ell + 1
        state = before
        for j in range(ell):
            state = hm.sequential_update(
                state, block[j], hm.discretize_step(op, first + j, hm.Scheme.ZOH))
        return _max_abs(state.coefficients, after.coefficients)


# ------------------------------------------------------------------- attn

@dataclass(frozen=True)
class AttnSizes(Sizes):
    head_count: int = 4
    head_dim: int = 64
    block_length: int = 64
    mem_length: int = 16
    order: int = 32
    max_blocks: int = 128    # banks of ~3 MB, inside L2


def reference_block(hidden, key_coeffs, value_coeffs, block_index, weights, cfg,
                    kernel_bank, recon_bank):
    """Plain-numpy forward pass of one block, written without `apply_rotary`.

    Returns (output, probabilities, key coefficients, value coefficients).
    """
    ell, heads, dh, d = cfg.block_length, cfg.head_count, cfg.head_dim, cfg.model_dim
    q = hidden @ weights.w_query
    k = hidden @ weights.w_key
    v = hidden @ weights.w_value
    positions = (block_index - 1) * ell + np.arange(ell)
    turn = np.exp(1j * positions[:, None] * cfg.rope_base ** (-np.arange(0, dh, 2) / dh))

    def rotate(x):
        z = (x[:, 0::2] + 1j * x[:, 1::2]) * turn
        out = np.empty_like(x)
        out[:, 0::2], out[:, 1::2] = z.real, z.imag
        return out

    mem = cfg.mem_length if cfg.mem_length > 0 and block_index > 1 else 0
    if mem:
        recon = recon_bank.matrices[block_index - 2]
        k_mem, v_mem = recon @ key_coeffs, recon @ value_coeffs
    else:
        k_mem = v_mem = np.zeros((0, d))
    causal = np.tril(np.ones((ell, ell), dtype=bool))
    visible = np.concatenate([np.ones((ell, mem), dtype=bool), causal], axis=1)
    merged = np.empty((ell, d))
    probs = np.empty((heads, ell, mem + ell))
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        keys = np.concatenate([k_mem[:, cols], rotate(k[:, cols])])
        values = np.concatenate([v_mem[:, cols], v[:, cols]])
        scores = np.where(visible, rotate(q[:, cols]) @ keys.T / np.sqrt(dh), -np.inf)
        weight = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs[h] = weight / weight.sum(axis=1, keepdims=True)
        merged[:, cols] = probs[h] @ values
    position = block_index - 1
    new_key = kernel_bank.transitions[position] @ key_coeffs + kernel_bank.kernels[position] @ k
    new_value = (kernel_bank.transitions[position] @ value_coeffs
                 + kernel_bank.kernels[position] @ v)
    return merged @ weights.w_output, probs, new_key, new_value


class Attn(Workload):
    name = "attn"

    def config(self, hm):
        s = self.sizes
        return hm.AttentionConfig(
            model_dim=s.head_count * s.head_dim, head_count=s.head_count,
            head_dim=s.head_dim, block_length=s.block_length, mem_length=s.mem_length,
            hippo_order=s.order, scheme=hm.Scheme.ZOH,
            strategy=hm.SamplingStrategy(hm.SamplingKind.UNIFORM))

    def setup(self, hm, seed, workdir):
        s = self.sizes
        cfg = self.config(hm)
        op = hm.build_operator(s.order)
        d = cfg.model_dim
        gen = np.random.default_rng([seed, 2])
        mats = gen.standard_normal((4, d, d)) / np.sqrt(d)
        return {
            "cfg": cfg,
            "kernel_bank": hm.build_bank(op, s.block_length, hm.Scheme.ZOH, s.max_blocks),
            "recon_bank": hm.build_reconstruction_bank(
                op, cfg.strategy, s.mem_length, s.block_length, s.max_blocks),
            "weights": hm.AttentionWeights(*mats),
        }

    def run(self, hm, ctx, seed, seconds, min_ops, tracer=None, between_units=None):
        s = self.sizes
        cfg, weights = ctx["cfg"], ctx["weights"]
        kbank, rbank = ctx["kernel_bank"], ctx["recon_bank"]
        tally = Tally(between_units=between_units)
        future = np.triu(np.ones((s.block_length, s.block_length), dtype=bool), k=1)
        hidden = np.empty((s.max_blocks, s.block_length, cfg.model_dim))  # as in Stream
        started = time.perf_counter()
        sequence = 0
        while tally.attempted < min_ops or time.perf_counter() - started < seconds:
            np.random.default_rng([seed, 3, sequence]).standard_normal(out=hidden)
            key_state = value_state = hm.zero_state(s.order, cfg.model_dim)
            for i in range(1, s.max_blocks + 1):
                t0 = time.perf_counter()
                try:
                    io = hm.BlockIO(hidden=hidden[i - 1], key_state=key_state,
                                    value_state=value_state, block_index=i)
                    res = hm.forward_block(io, weights, cfg, kbank, rbank)
                except (ValueError, IndexError) as exc:
                    tally.fail(tally.record(time.perf_counter() - t0, s.block_length), repr(exc))
                    break
                op = tally.record(time.perf_counter() - t0, s.block_length)
                probs = res.probabilities
                mem = probs.shape[2] - s.block_length
                if not np.abs(probs.sum(axis=2) - 1.0).max() <= 1e-12:
                    tally.fail(op, "probability rows do not sum to 1")
                if probs[:, :, mem:][:, future].any():
                    tally.fail(op, "attention mass on future in-block rows")
                if i == 1 and mem != 0:
                    tally.fail(op, "block 1 attends to memory")
                if not np.isfinite(res.output).all():
                    tally.fail(op, "non-finite output")
                if sequence == 0 and i in (2, s.max_blocks):
                    with _paused(tracer):
                        ref = reference_block(hidden[i - 1], key_state.coefficients,
                                              value_state.coefficients, i, weights, cfg,
                                              kbank, rbank)
                    got = (res.output, probs, res.key_state.coefficients,
                           res.value_state.coefficients)
                    err = max(_max_abs(a, b) for a, b in zip(got, ref))
                    if not err <= 1e-12:
                        tally.fail(op, f"block {i} differs from reference by {err:.3e}")
                key_state, value_state = res.key_state, res.value_state
            tally.end_unit()
            sequence += 1
        return tally


# --------------------------------------------------------------- compress

SCHEMES = ("zoh", "forward", "backward", "bilinear")


@dataclass(frozen=True)
class CompressSizes(Sizes):
    order: int = 32
    min_length: int = 512
    max_length: int = 2048
    strata: int = 10         # T slices per scheme in one cycle (a unit)


def composite_signal(gen: np.random.Generator, length: int) -> np.ndarray:
    """Three seeded sines (1-9 cycles per window) plus a little noise, unit variance."""
    t = np.arange(length) / length
    amp, freq = gen.uniform(0.5, 1.5, 3), gen.uniform(1.0, 9.0, 3)
    phase = gen.uniform(0, 2 * np.pi, 3)
    sig = (amp[:, None] * np.sin(2 * np.pi * freq[:, None] * t + phase[:, None])).sum(axis=0)
    sig += 0.05 * gen.standard_normal(length)
    sig -= sig.mean()
    return sig / sig.std()


class Compress(Workload):
    name = "compress"

    def setup(self, hm, seed, workdir):
        return {"op": hm.build_operator(self.sizes.order)}

    def run(self, hm, ctx, seed, seconds, min_ops, tracer=None, between_units=None):
        s = self.sizes
        op = ctx["op"]
        tally = Tally(between_units=between_units)
        started = time.perf_counter()
        j = 0
        while tally.attempted < min_ops or time.perf_counter() - started < seconds:
            # a unit is one whole cycle, so every unit has the same spread of costs
            for _ in range(s.strata * len(SCHEMES)):
                self.op(hm, op, seed, j, tally, tracer)
                j += 1
            tally.end_unit()
        return tally

    def op(self, hm, op, seed: int, j: int, tally: Tally, tracer) -> None:
        """Op j: compress a seeded sequence, reconstruct it and check it."""
        order = self.sizes.order
        length = self.length(seed, j)
        x = composite_signal(np.random.default_rng([seed, 4, j]), length)
        scheme = hm.Scheme(SCHEMES[j % len(SCHEMES)])
        t0 = time.perf_counter()
        try:
            state = hm.history_kernel(op, length, scheme) @ x
            grid = np.arange(length, dtype=float)
            recon = hm.basis_matrix(grid, float(length), order) @ state
            mse = float(np.mean((recon - x) ** 2))
        except (ValueError, IndexError) as exc:
            tally.fail(tally.record(time.perf_counter() - t0, length), repr(exc))
            return
        done = tally.record(time.perf_counter() - t0, length)
        if not (np.isfinite(state).all() and math.isfinite(mse)):
            tally.fail(done, "non-finite state or MSE")
        if j < len(SCHEMES):
            with _paused(tracer):
                err = _max_abs(state, self.sequential_state(hm, op, x, scheme))
            if not err <= 1e-9:
                tally.fail(done, f"{scheme.value} T={length} differs from "
                                 f"sequential by {err:.3e}")

    def length(self, seed: int, j: int) -> int:
        """T of op j, stratified: in each cycle, each scheme's ops take one T
        from each of `strata` equal slices of the range, in a seeded order and
        position, so every seed and every cycle has the same spread of costs."""
        s = self.sizes
        rounds, scheme = divmod(j, len(SCHEMES))
        cycle, k = divmod(rounds, s.strata)
        gen = np.random.default_rng([seed, 6, scheme, cycle])
        order, jitter = gen.permutation(s.strata), gen.random(s.strata)
        span = s.max_length - s.min_length + 1
        return s.min_length + int((order[k] + jitter[k]) * span / s.strata)

    @staticmethod
    def sequential_state(hm, op, x: np.ndarray, scheme) -> np.ndarray:
        """First sample as e0*f0, then one discretize_step per further sample."""
        state = np.zeros(op.order)
        state[0] = x[0]
        for k in range(1, len(x)):
            step = hm.discretize_step(op, k, scheme)
            state = step.a_bar @ state + step.b_bar * x[k]
        return state


# -------------------------------------------------------------------- cli

@dataclass(frozen=True)
class CliSizes(Sizes):
    data_rows: int = 1024
    table_seeds: int = 2
    table_length: int = 512


@dataclass
class Invocation:
    argv: list[str]
    tokens: int
    kind: str   # "cold", "warm" or "repeatable"


class Cli(Workload):
    name = "cli"
    import_target = "hippomem.cli"

    def setup(self, hm, seed, workdir):
        s = self.sizes
        gen = np.random.default_rng([seed, 5])
        data = workdir / "signal.txt"
        data.write_text(
            "\n".join(f"{v:.17g}" for v in composite_signal(gen, s.data_rows)) + "\n")
        return {"data": data, "seed": int(gen.integers(0, 2**31)), "workdir": workdir}

    def script(self, ctx, cache_dir: str, index: int) -> list[Invocation]:
        """One pass of the invocation script; `index` makes the cold call cold."""
        s = self.sizes
        scheme = SCHEMES[index % len(SCHEMES)]
        seed = str(ctx["seed"])
        banks = ["build-banks", "--order", "32", "--block-length", "64",
                 "--max-blocks", str(8 + index), "--scheme", scheme,
                 "--strategy", "exponential", "--mem-length", "16", "--cache-dir", cache_dir]
        demo = ["attn-demo", "--train-strategy", "uniform", "--eval-strategy", "exponential",
                "--seed", seed, "--cache-dir", cache_dir]
        compress = ["compress", str(ctx["data"]), "--order", "32", "--scheme", scheme,
                    "--strategy", "exponential", "--mem-length", "16"]
        table = ["bench-table", "--seed", seed, "--seeds", str(s.table_seeds),
                 "--length", str(s.table_length)]
        table_tokens = 9 * s.table_seeds * s.table_length
        demo_tokens = 2 * 4 * 8   # two passes over the default 4 blocks of 8 tokens
        return [
            Invocation(banks, 0, "cold"),
            Invocation(banks, 0, "warm"),
            Invocation(demo, demo_tokens, "repeatable"),
            Invocation(demo, demo_tokens, "repeatable"),
            Invocation(compress, s.data_rows, "repeatable"),
            Invocation(compress, s.data_rows, "repeatable"),
            Invocation(table, table_tokens, "repeatable"),
            Invocation(table + ["--format", "json"], table_tokens, "repeatable"),
        ]

    def run(self, hm, ctx, seed, seconds, min_ops, tracer=None, between_units=None):
        tally = Tally(between_units=between_units)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=ctx["workdir"])
        first_stdout: dict[tuple, bytes] = {}
        env = child_env()
        started = time.perf_counter()
        index = 0
        while tally.attempted < min_ops or time.perf_counter() - started < seconds:
            for call in self.script(ctx, cache_dir, index):
                out, why = self.invoke(call, env, tracer, tally)
                op = tally.attempted - 1
                if why is None and call.kind == "repeatable":
                    earlier = first_stdout.setdefault(tuple(call.argv), out)
                    if earlier != out:
                        why = "stdout differs from an identical earlier call"
                if why is not None:
                    tally.fail(op, f"{call.argv[0]}: {why}")
            tally.end_unit()
            index += 1
        return tally

    def invoke(self, call: Invocation, env, tracer, tally: Tally):
        """Run one invocation, record its wall time; return (stdout, failure or None)."""
        if tracer is None:
            cmd = [sys.executable, "-m", "hippomem.cli", *call.argv]
        else:
            fd, span_file = tempfile.mkstemp(suffix=".json", dir=tracer.workdir)
            os.close(fd)
            cmd = [sys.executable, str(TRACE_CLI), span_file, *call.argv]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=env,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            tally.record(time.perf_counter() - t0, call.tokens)
            return b"", "timed out"
        wall = time.perf_counter() - t0
        tally.record(wall, call.tokens)
        if tracer is not None and os.path.getsize(span_file):  # empty if import failed
            tracer.absorb_file(span_file)
        return proc.stdout, self.check(call, proc)

    @staticmethod
    def check(call: Invocation, proc) -> str | None:
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
        lines = proc.stdout.decode(errors="replace").strip().splitlines()
        if not lines or not lines[-1].startswith("SUMMARY "):
            return "no SUMMARY line"
        try:
            summary = json.loads(lines[-1][len("SUMMARY "):])
        except json.JSONDecodeError:
            return "unparsable SUMMARY"
        if summary.get("pass") is not True:
            return "SUMMARY pass is not true"
        if call.kind in ("cold", "warm"):
            hits = (summary.get("kernel_cache_hit"), summary.get("recon_cache_hit"))
            if hits != ((True, True) if call.kind == "warm" else (False, False)):
                return f"{call.kind} build-banks reported cache hits {hits}"
        return None

    def peak_rss_mb(self) -> float:
        # the largest child; the import-only set-up probes are smaller than any call
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {
    # stream's and attn's tails are p95 per 200 ops: the whole-run p99.9
    # (stream, min_ops 10000) and p99 (attn, 1000) spread past their bound
    # over seeds; DETAIL still records them
    "stream": (Stream, StreamSizes(min_ops=10000, traced_ops=512, tail_window=200)),
    "attn": (Attn, AttnSizes(min_ops=1000, traced_ops=256, tail_window=200)),
    # whole-run p95 (min_ops 200): a run is whole cycles of 40 ops
    "compress": (Compress, CompressSizes(min_ops=200, traced_ops=40)),
    "cli": (Cli, CliSizes(min_ops=40, traced_ops=8, trace_pairs=1)),  # whole-run p75
}


def make_workload(name: str, sizes: Sizes | None = None) -> Workload:
    cls, default = WORKLOADS[name]
    return cls(sizes if sizes is not None else default)
