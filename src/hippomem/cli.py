"""Command-line surface: bank building, compression, benchmark, attention demo.

Subcommands: build-banks, compress, bench-table, attn-demo. All randomness
flows from --seed; stdout and every output file are byte-identical across
reruns with the same flags. `main` times each subcommand and prints one
`[timing] <subcommand>: <seconds>s` line on stderr; no report holds a
timing. The last stdout line is a machine-readable JSON summary, and the
exit code is 0 iff every requested invariant check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import rng
from .attention import (
    AttentionConfig,
    BlockIO,
    forward_block,
    init_weights,
)
from .bank_cache import (
    load_or_build_kernel_bank,
    load_or_build_reconstruction_bank,
)
from .discretization import Scheme, history_kernel, zero_state
from .operators import basis_matrix, build_operator
from .reconstruction import (
    DEFAULT_DECAY,
    SamplingKind,
    SamplingStrategy,
    sample_points,
)
from .signal_bench import rows_to_csv, rows_to_json, run_table

_CACHE_ENV = "EMK_CACHE_DIR"
_SCHEMES = [s.value for s in Scheme]
_STRATEGIES = [k.value for k in SamplingKind]


class UsageError(ValueError):
    """Bad parameters; maps to exit code 2."""


def _summary(payload: dict) -> None:
    print("SUMMARY " + json.dumps(payload))


def _read_columns(path: str) -> np.ndarray:
    """Numeric text file: whitespace/comma delimited columns, '#' comments."""
    rows: list[list[float]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                parts = body.replace(",", " ").split()
                try:
                    row = [float(p) for p in parts]
                except ValueError as exc:
                    raise UsageError(f"{path}:{lineno}: not numeric: {body!r}") from exc
                # float() accepts nan and inf, which would compress to a NaN MSE
                if not all(map(math.isfinite, row)):
                    raise UsageError(f"{path}:{lineno}: not finite: {body!r}")
                rows.append(row)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise UsageError(f"{path}: no numeric rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise UsageError(f"{path}: ragged rows (expected {width} columns everywhere)")
    return np.asarray(rows, dtype=float)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _format_table(xs: np.ndarray, values: np.ndarray, header: str) -> str:
    lines = [header]
    for x, row in zip(xs, np.atleast_2d(values.T).T):
        cells = " ".join(f"{v:.12e}" for v in np.atleast_1d(row))
        lines.append(f"{x:.12e} {cells}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- build-banks

def _cmd_build_banks(args: argparse.Namespace) -> int:
    if args.max_blocks < 1:
        raise UsageError(f"--max-blocks must be >= 1, got {args.max_blocks}")
    op = build_operator(args.order)
    scheme = Scheme(args.scheme)
    strategy = SamplingStrategy(args.strategy, args.alpha)
    cache_dir = args.cache_dir

    kbank, kpath, khit = load_or_build_kernel_bank(
        cache_dir, op, args.block_length, scheme, args.max_blocks)
    rbank, rpath, rhit = load_or_build_reconstruction_bank(
        cache_dir, op, strategy, args.mem_length, args.block_length, args.max_blocks)

    for label, path, hit in (("kernel", kpath, khit), ("reconstruction", rpath, rhit)):
        size = os.path.getsize(path)
        state = "cache hit, no recomputation" if hit else "built"
        print(f"{label} bank: N={args.order} L={args.block_length} "
              f"max_blocks={args.max_blocks} bytes={size} ({state})")
    _summary({
        "cmd": "build-banks",
        "pass": True,
        "kernel_path": kpath,
        "kernel_bytes": os.path.getsize(kpath),
        "kernel_cache_hit": khit,
        "recon_path": rpath,
        "recon_bytes": os.path.getsize(rpath),
        "recon_cache_hit": rhit,
    })
    return 0


# ------------------------------------------------------------------- compress

def _cmd_compress(args: argparse.Namespace) -> int:
    data = _read_columns(args.input)
    length, channels = data.shape
    if length < 2:
        raise UsageError(f"{args.input}: need at least 2 rows, got {length}")
    op = build_operator(args.order)
    scheme = Scheme(args.scheme)
    strategy = SamplingStrategy(args.strategy, args.alpha)
    mem_length = min(64, length) if args.mem_length is None else args.mem_length
    if mem_length < 1:
        raise UsageError(f"--mem-length must be >= 1, got {mem_length}")

    state = history_kernel(op, length, scheme) @ data        # (N, D)
    grid = np.arange(length, dtype=float)
    full = basis_matrix(grid, float(length), args.order) @ state
    mse = float(np.mean((full - data) ** 2))
    pts = sample_points(strategy, float(length), mem_length)
    summary_rows = basis_matrix(pts, float(length), args.order) @ state

    chan_header = " ".join(f"ch{i}" for i in range(channels))
    if args.out:
        _write_text(args.out, _format_table(
            pts, summary_rows, f"# x {chan_header}"))
        print(f"wrote {mem_length} reconstruction rows to {args.out}")
    if args.full_out:
        _write_text(args.full_out, _format_table(
            grid, full, f"# x {chan_header}"))
        print(f"wrote full-grid reconstruction to {args.full_out}")
    print(f"MSE {mse:.10e}")
    _summary({
        "cmd": "compress",
        "pass": True,
        "length": length,
        "channels": channels,
        "order": args.order,
        "scheme": scheme.value,
        "mse": f"{mse:.10e}",
    })
    return 0


# ---------------------------------------------------------------- bench-table

def _cmd_bench_table(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    rows = run_table(base_seed=args.seed, seed_count=args.seeds, length=args.length)

    report = rows_to_json(rows) if args.format == "json" else rows_to_csv(rows)
    if args.out:
        _write_text(args.out, report)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(report, end="")
    _summary({
        "cmd": "bench-table",
        "pass": True,
        "rows": len(rows),
        "seeds": args.seeds,
        "mse": [f"{r.mse:.10e}" for r in rows],
    })
    return 0


# ------------------------------------------------------------------ attn-demo

def _state_checksum(*states) -> str:
    digest = hashlib.sha256()
    for state in states:
        digest.update(np.ascontiguousarray(state.coefficients, dtype="<f8").tobytes())
    return digest.hexdigest()


def _run_attention_pass(cfg: AttentionConfig, weights, inputs, kernel_bank,
                        recon_bank, n_blocks: int) -> dict:
    key_state = zero_state(cfg.hippo_order, cfg.model_dim)
    value_state = zero_state(cfg.hippo_order, cfg.model_dim)
    trace = []
    checksums = []
    row_sum_err = 0.0
    future_mass = 0.0
    for i in range(1, n_blocks + 1):
        io = BlockIO(hidden=inputs[i - 1], key_state=key_state,
                     value_state=value_state, block_index=i)
        res = forward_block(io, weights, cfg, kernel_bank, recon_bank)
        probs = res.probabilities
        mem_rows = probs.shape[2] - cfg.block_length
        mem_mass = float(probs[:, :, :mem_rows].sum(axis=2).mean()) if mem_rows else 0.0
        row_sum_err = max(row_sum_err, float(np.abs(probs.sum(axis=2) - 1.0).max()))
        tri = np.triu_indices(cfg.block_length, k=1)
        future_mass = max(future_mass, float(np.abs(probs[:, tri[0], mem_rows + tri[1]]).max()))
        key_state, value_state = res.key_state, res.value_state
        trace.append({
            "block": i,
            "memory_mass": mem_mass,
            "key_norm": float(np.linalg.norm(key_state.coefficients)),
            "value_norm": float(np.linalg.norm(value_state.coefficients)),
            "memory_keys": res.memory_keys,
        })
        checksums.append(_state_checksum(key_state, value_state))
    return {
        "trace": trace,
        "checksums": checksums,
        "row_sum_err": row_sum_err,
        "future_mass": future_mass,
        "final_checksum": checksums[-1],
    }


# attention probabilities of each query must sum to 1 within this
_ROW_SUM_TOL = 1e-12


def _cmd_attn_demo(args: argparse.Namespace) -> int:
    if args.blocks < 1:
        raise UsageError(f"--blocks must be >= 1, got {args.blocks}")
    scheme = Scheme(args.scheme)
    train_strategy = SamplingStrategy(args.train_strategy, args.alpha)
    eval_strategy = SamplingStrategy(args.eval_strategy or args.train_strategy, args.alpha)
    cfg = AttentionConfig(
        model_dim=args.heads * args.head_dim,
        head_count=args.heads,
        head_dim=args.head_dim,
        block_length=args.block_length,
        mem_length=args.mem_length,
        hippo_order=args.order,
        scheme=scheme,
        strategy=train_strategy,
    )
    op = build_operator(cfg.hippo_order)
    cache = args.cache_dir
    kernel_bank, _, _ = load_or_build_kernel_bank(
        cache, op, cfg.block_length, scheme, args.blocks)
    banks = {}
    for strat in {train_strategy, eval_strategy}:
        if cfg.mem_length > 0:
            banks[strat], _, _ = load_or_build_reconstruction_bank(
                cache, op, strat, cfg.mem_length, cfg.block_length, args.blocks)
        else:
            banks[strat] = None

    weights = init_weights(cfg, args.seed)
    inputs = [
        rng.normals(rng.derive(args.seed, 100 + i), cfg.block_length * cfg.model_dim)
        .reshape(cfg.block_length, cfg.model_dim)
        for i in range(args.blocks)
    ]
    run_a = _run_attention_pass(cfg, weights, inputs, kernel_bank,
                                banks[train_strategy], args.blocks)
    run_b = _run_attention_pass(dataclasses.replace(cfg, strategy=eval_strategy),
                                weights, inputs, kernel_bank,
                                banks[eval_strategy], args.blocks)

    states_match = run_a["checksums"] == run_b["checksums"]
    retrievals_differ = any(
        a["memory_keys"].shape != b["memory_keys"].shape
        or not np.array_equal(a["memory_keys"], b["memory_keys"])
        for a, b in zip(run_a["trace"], run_b["trace"])
    )
    checks = {
        "rows_sum_to_one": run_a["row_sum_err"] <= _ROW_SUM_TOL,
        "no_future_mass": run_a["future_mass"] == 0.0,
        "block1_memory_mass_zero": run_a["trace"][0]["memory_mass"] == 0.0,
        "states_strategy_independent": states_match,
    }
    lines = [
        f"config: heads={cfg.head_count} head_dim={cfg.head_dim} "
        f"L={cfg.block_length} L_mem={cfg.mem_length} N={cfg.hippo_order} "
        f"scheme={scheme.value} blocks={args.blocks}",
        f"retrieval: train={train_strategy.label()} eval={eval_strategy.label()}",
    ]
    for entry_a in run_a["trace"]:
        lines.append(
            f"block {entry_a['block']}: memory_mass={entry_a['memory_mass']:.6f} "
            f"key_norm={entry_a['key_norm']:.6f} value_norm={entry_a['value_norm']:.6f}"
        )
    # the bound, not the deviation itself: its last bits move with roundoff
    lines.append(f"max row-sum deviation: {'<=' if checks['rows_sum_to_one'] else '>'} "
                 f"{_ROW_SUM_TOL:g}")
    lines.append(f"max future in-block mass: {run_a['future_mass']:.3e}")
    lines.append(f"state checksum (train pass): {run_a['final_checksum']}")
    lines.append(f"state checksum (eval pass):  {run_b['final_checksum']}")
    lines.append(f"retrieved memory differs across strategies: {retrievals_differ}")
    for name, ok in checks.items():
        lines.append(f"check {name}: {'PASS' if ok else 'FAIL'}")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.out:
        _write_text(args.out, report)

    passed = all(checks.values())
    _summary({
        "cmd": "attn-demo",
        "pass": passed,
        "checks": checks,
        "train_strategy": train_strategy.label(),
        "eval_strategy": eval_strategy.label(),
        "states_match": states_match,
        "retrievals_differ": retrievals_differ,
        "state_checksum": run_a["final_checksum"],
    })
    return 0 if passed else 1


# -------------------------------------------------------------------- parsing

# Each shared flag's type and default, declared once. A --config file may
# set any of these except an output path; its values become subparser
# defaults, so precedence is flag > config > default.
_OPTIONS = {
    "order": dict(type=int, default=16, help="number of polynomial coefficients N"),
    "block_length": dict(type=int, default=64, help="tokens per block L"),
    "mem_length": dict(type=int, default=4, help="reconstruction rows L_mem"),
    "scheme": dict(choices=_SCHEMES, default="zoh", help="discretization scheme"),
    "strategy": dict(choices=_STRATEGIES, default="uniform", help="sampling strategy"),
    "alpha": dict(type=float, default=DEFAULT_DECAY,
                  help="exponential sampling decay in (0,1)"),
    "seed": dict(type=int, default=0, help="master seed; all randomness derives from it"),
    "seeds": dict(type=int, default=8, help="number of benchmark repetitions"),
    "max_blocks": dict(type=int, default=8, help="bank capacity in blocks"),
    "length": dict(type=int, default=1024, help="benchmark signal length"),
    "heads": dict(type=int, default=2, help="attention heads"),
    "head_dim": dict(type=int, default=16, help="per-head dimension (even)"),
    "blocks": dict(type=int, default=4, help="number of blocks to process"),
    "cache_dir": dict(help=f"bank cache directory (default ${_CACHE_ENV} or ./.bank_cache)"),
    "out": dict(help="output file path"),
    "format": dict(choices=["csv", "json"], default="csv", help="report format"),
}
_CONFIG_KEYS = _OPTIONS.keys() - {"out"}


def _load_config(path: str) -> dict[str, str]:
    """key = value lines as subparser defaults; dashes in keys become underscores."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {body!r}")
                key, value = body.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for key, value in values.items():
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}")
        # argparse checks a flag's choices, but never a default's
        choices = _OPTIONS[key].get("choices")
        if choices:
            values[key] = value.lower()
            if values[key] not in choices:
                raise UsageError(f"unknown {key} {value!r} in config; expected one of {choices}")
    return values


def _add_common(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        sub.add_argument("--" + name.replace("_", "-"), **_OPTIONS[name])


def _build_parser(config: dict[str, str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hippomem",
        description="Polynomial sequence compression: banks, reconstruction, "
                    "benchmark, attention demo.",
    )
    parser.add_argument("--config", default=None,
                        help="key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    cache_dir = os.environ.get(_CACHE_ENV, os.path.join(os.getcwd(), ".bank_cache"))

    p = sub.add_parser("build-banks", help="precompute and cache bank files")
    _add_common(p, "order", "block_length", "mem_length", "scheme", "strategy",
                "alpha", "max_blocks", "cache_dir")
    p.set_defaults(func=_cmd_build_banks, cache_dir=cache_dir)

    p = sub.add_parser("compress", help="compress a numeric column file and reconstruct")
    p.add_argument("input", help="text file, one row per time step")
    _add_common(p, "order", "scheme", "strategy", "alpha", "mem_length", "out")
    p.add_argument("--full-out", default=None,
                   help="also write the full-grid reconstruction here")
    # None: summarize at up to 64 points
    p.set_defaults(func=_cmd_compress, mem_length=None)

    p = sub.add_parser("bench-table", help="reconstruction-quality table")
    _add_common(p, "seed", "seeds", "length", "out", "format")
    p.set_defaults(func=_cmd_bench_table)

    p = sub.add_parser("attn-demo", help="multi-block attention forward-pass demo")
    _add_common(p, "order", "block_length", "mem_length", "scheme", "alpha", "seed",
                "heads", "head_dim", "blocks", "cache_dir", "out")
    p.add_argument("--train-strategy", choices=_STRATEGIES, default="uniform",
                   help="strategy used while processing blocks")
    p.add_argument("--eval-strategy", choices=_STRATEGIES, default=None,
                   help="strategy swapped in at retrieval time (default: the train strategy)")
    # toy attention shapes are smaller than the bank-building defaults
    p.set_defaults(func=_cmd_attn_demo, cache_dir=cache_dir, block_length=8)

    # argparse converts string defaults with each flag's own type
    for command in sub.choices.values():
        command.set_defaults(**config)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser({}).parse_args(argv)
    try:
        if args.config:
            args = _build_parser(_load_config(args.config)).parse_args(argv)
        started = time.perf_counter()
        code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"[timing] {args.command}: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
