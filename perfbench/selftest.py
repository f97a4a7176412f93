"""Self-test of the benchmark, at tiny sizes (about a minute).

usage: python3 perfbench/selftest.py

Checks, printing one PASS/FAIL line each and exiting non-zero on any FAIL:
  * every workload BENCHMARK.json names, untraced and traced, prints every
    metric BENCHMARK.json names for that mode with its unit (and no other),
    in a result line of exactly the four keys, and fails no op;
  * a deliberately corrupted output or reference makes ops fail on every
    workload, so the checks behind the error rate can fail;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads
from workloads import AttnSizes, CliSizes, CompressSizes, StreamSizes

TINY = {
    "stream": StreamSizes(min_ops=20, traced_ops=8, setup_repeats=1, trace_pairs=1,
                          order=8, block_length=4, channels=3, max_blocks=8, mem_length=4),
    "attn": AttnSizes(min_ops=20, traced_ops=8, setup_repeats=1, trace_pairs=1, head_count=2,
                      head_dim=4, block_length=4, mem_length=2, order=4, max_blocks=8),
    "compress": CompressSizes(min_ops=20, traced_ops=8, setup_repeats=1, trace_pairs=1,
                              order=8, min_length=16, max_length=48, strata=2),
    "cli": CliSizes(min_ops=20, traced_ops=8, tail_window=20, setup_repeats=1, trace_pairs=1,
                    data_rows=32, table_seeds=1, table_length=128),
}

FAILED: list[str] = []


def report(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}", flush=True)
    if not ok:
        FAILED.append(what)


def bench(workload: str, trace: int) -> dict:
    """One tiny run in this process; the parsed result line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)], sizes=TINY)
    if code != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_outputs(spec: dict) -> None:
    for name in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(name, trace)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            report(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and printed == wanted
                   and all(isinstance(v["value"], (int, float))
                           for v in result["metrics"].values()),
                   f"{name} trace={trace}: every {key} metric printed with its unit")
            report(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={trace}: {result['attempted']} ops, none failed")


@contextlib.contextmanager
def patched(owner, attr: str, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def corrupt_stream(original):
    def block_update(state, inputs, bank):
        out = original(state, inputs, bank)
        return dataclasses.replace(out, coefficients=out.coefficients + 1e-6)
    return block_update


def corrupt_reference(original):
    def reference_block(*args):
        output, *rest = original(*args)
        return (output + 1e-9, *rest)
    return reference_block


def corrupt_kernel(original):
    def history_kernel(op, length, scheme):
        return original(op, length, scheme) * (1.0 + 1e-6)
    return history_kernel


def corrupt_stdout(original):
    calls = []

    def invoke(self, call, env, tracer_, tally):
        out, why = original(self, call, env, tracer_, tally)
        calls.append(call)
        if len(calls) == 4:   # the repeated attn-demo call of the first pass
            out = b"#" + out[1:]
        return out, why
    return invoke


def check_corruption() -> None:
    import hippomem

    cases = [
        ("stream", "corrupted block_update output", hippomem, "block_update", corrupt_stream),
        ("attn", "corrupted reference attention", workloads, "reference_block",
         corrupt_reference),
        ("compress", "corrupted history_kernel output", hippomem, "history_kernel",
         corrupt_kernel),
        ("cli", "corrupted stdout of a repeated call", workloads.Cli, "invoke", corrupt_stdout),
    ]
    for name, what, owner, attr, make in cases:
        with patched(owner, attr, make):
            result = bench(name, 0)
        report(result["failed"] > 0 and not result["correct"],
               f"{name}: {what} fails {result['failed']}/{result['attempted']} ops")


def check_bare_directory() -> None:
    run.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(workloads.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stream",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=180)
        report(proc.returncode != 0 and not proc.stdout.strip(),
               f"without src/ the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_outputs(spec)
    check_corruption()
    check_bare_directory()
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
