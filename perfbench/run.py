"""hippomem benchmark: one command, four workloads, end-to-end and per-layer.

usage: python3 perfbench/run.py --workload {stream,attn,compress,cli}
                                --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; hippomem is imported from `src`
(nothing is installed). Every line but the last is for people: the metrics
with units, an `ENV` line recording the machine and code, and a `DETAIL`
line with the seed, the tail percentile and sample counts. The last line is

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

`--trace 0` measures the workload untraced for at least `--seconds` and
reports the end-to-end metrics. `--trace 1` is a separate run that reports
the per-layer metrics: it runs a fixed,
seed-determined amount of work in alternating untraced and traced passes, so
span counts repeat exactly and the difference is the tracing overhead.

BLAS is pinned to one thread for this process and every child. The error
rate of a run is failed / attempted; an op fails on an exception, a non-zero
exit or a failed output check. Claims are confirmed on CONFIRM_SEED, a seed
not used while tuning.
"""

from __future__ import annotations

import os

BLAS_PIN = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(BLAS_PIN)  # before numpy is imported, here or in a child

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import ROOT, SETUP_PROBE, SRC, child_env, nearest_rank  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"
CONFIRM_SEED = 7919
IMPORT_PROBES = 3

# The workloads and the names, units and bounds of every metric.
SPEC = ROOT / "BENCHMARK.json"


class BenchError(RuntimeError):
    """The benchmark cannot run here (as opposed to an op failing)."""


def _python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=ROOT, env=child_env(), timeout=workloads.CHILD_TIMEOUT_S,
                          **kwargs)
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}: {proc.stderr[-400:]}")
    return proc


def import_seconds(count: int) -> list[float]:
    """Walls of a bare `import hippomem.cli`, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import hippomem.cli; "
            "print(time.perf_counter() - t)")
    return [float(_python("-c", code).stdout) for _ in range(count)]


class SetupProbes:
    """setup_s samples from fresh interpreters, spread over the timed phase.

    A sample is a bare `import hippomem.cli` for `cli`, and setup_probe.py's
    import of hippomem plus the workload's set-up for the others. The host
    this was tuned on drifts between a fast and a slow mode for seconds at a
    time, so probes taken back to back all land in one mode. Probe k runs at
    the first unit boundary after (k + 1/2) / setup_repeats of `seconds`,
    never during an op; any still due when the timed phase ends run then.
    """

    def __init__(self, wl: workloads.Workload, seed: int, seconds: float):
        self.wl, self.seed = wl, seed
        self.interval = seconds / wl.sizes.setup_repeats
        self.samples: list[float] = []
        self.started = time.perf_counter()

    def probe(self) -> None:
        if self.wl.name == "cli":
            self.samples += import_seconds(1)
            return
        sizes = json.dumps(asdict(self.wl.sizes))
        out = _python(str(SETUP_PROBE), self.wl.name, str(self.seed), sizes).stdout
        self.samples.append(json.loads(out)["setup_s"])

    def between_units(self) -> None:
        while (len(self.samples) < self.wl.sizes.setup_repeats
               and time.perf_counter() - self.started
               >= (len(self.samples) + 0.5) * self.interval):
            self.probe()

    def finish(self) -> list[float]:
        while len(self.samples) < self.wl.sizes.setup_repeats:
            self.probe()
        return self.samples


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_breakdown() -> tuple[float, float]:
    """(numpy, scipy) cumulative import seconds under `-X importtime`.

    scipy is the sum over outermost `scipy.*` entries, so nested scipy
    modules are not counted twice.
    """
    stderr = _python("-X", "importtime", "-c", "import hippomem.cli").stderr
    entries = [(len(m[3]), m[4], int(m[2])) for m in map(_IMPORTTIME.match, stderr.splitlines())
               if m]
    numpy_us = scipy_us = 0
    stack: list[tuple[int, str]] = []   # enclosing entries; children print first
    for indent, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        if name == "numpy":
            numpy_us += cumulative
        if name.split(".")[0] == "scipy" and not any(
                n.split(".")[0] == "scipy" for _, n in stack):
            scipy_us += cumulative
        stack.append((indent, name))
    return numpy_us / 1e6, scipy_us / 1e6


def environment() -> dict:
    import numpy as np
    import scipy

    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpu.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, size = read(f"{base}/level"), read(f"{base}/size")
        if level in ("2", "3") and read(f"{base}/type") != "Instruction":
            caches[f"l{level}"] = size
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"blas": deps.get("name"), "blas_version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT)
        commit = git.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas,
        "cpu_model": model,
        **caches,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


def quartile(values, upper: bool) -> float:
    """Upper or lower quartile (inclusive method); a single value is its own."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2 if upper else 0]


def end_to_end(wl, tally, setup) -> dict[str, float]:
    """End-to-end metrics of an untraced run.

    The host this was tuned on switches for seconds at a time into a mode
    ~30% faster. A median over a run flips with the share of time spent in
    it, so each unit (a sequence, a cycle of T strata, or one script pass) is
    measured on its own. Throughput is the lower quartile, and p50 the upper
    quartile, of the per-unit values: the slower quartile of units, which
    boost reaches only when it lasts most of the run. setup_s is likewise
    the upper quartile of probes spread over the run. The tail is taken over
    the whole run (cli), or as the median over windows of tail_window ops.
    """
    n = wl.sizes.tail_window or tally.attempted
    windows = [tally.latencies[i:i + n] for i in range(0, tally.attempted - n + 1, n)]
    units = tally.units()
    return {
        "setup_s": quartile(setup, upper=True),
        "tokens_per_s": quartile((tokens / sum(lat) for lat, tokens
                                  in zip(units, tally.unit_tokens())), upper=False),
        "invocations_per_s": quartile((len(lat) / sum(lat) for lat in units), upper=False),
        "latency_p50_ms": quartile((statistics.median(lat) for lat in units), upper=True) * 1e3,
        "latency_tail_ms": statistics.median(
            nearest_rank(window, wl.sizes.tail) for window in windows) * 1e3,
        "peak_rss_mb": wl.peak_rss_mb(),
    }


def untraced_run(wl, hm, seed: int, seconds: float, workdir: Path):
    ctx = wl.setup(hm, seed, workdir)
    probes = SetupProbes(wl, seed, seconds)
    tally = wl.run(hm, ctx, seed, seconds, wl.sizes.min_ops,
                   between_units=probes.between_units)
    setup = probes.finish()
    whole_run = workloads.tail_percentile(wl.sizes.min_ops)
    detail = {"ops": tally.attempted, "tail_percentile": wl.sizes.tail,
              "whole_run_tail_percentile": whole_run,
              "whole_run_tail_ms": nearest_rank(tally.latencies, whole_run) * 1e3,
              "tail_windows": tally.attempted // (wl.sizes.tail_window or tally.attempted),
              "units": len(tally.unit_ends),
              "setup_samples": setup, "timed_phase_s": tally.busy}
    return tally, end_to_end(wl, tally, setup), detail


def traced_run(wl, hm, seed: int, workdir: Path, names: list[str]):
    measured = {"startup.import_s": statistics.median(import_seconds(IMPORT_PROBES))}
    measured["startup.import_numpy_s"], measured["startup.import_scipy_s"] = import_breakdown()
    tracer = Tracer(workdir)
    with tracer.installed():
        ctx = wl.setup(hm, seed, workdir)
    # alternate untraced and traced passes over the same fixed work, so the
    # overhead estimate is not one pass against another on a noisy machine
    plain, traced = [], []
    for _ in range(wl.sizes.trace_pairs):
        plain.append(wl.run(hm, ctx, seed, 0.0, wl.sizes.traced_ops))
        with tracer.installed():
            traced.append(wl.run(hm, ctx, seed, 0.0, wl.sizes.traced_ops, tracer=tracer))
    measured["trace.overhead_ratio"] = (statistics.median(t.busy for t in traced)
                                        / statistics.median(t.busy for t in plain) - 1.0)
    measured["cli.startup_share"] = (
        measured["startup.import_s"] / statistics.median(plain[0].latencies)
        if wl.name == "cli" else 0.0)
    trace_dir = WORK_ROOT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(str(trace_dir / f"{wl.name}-seed{seed}.json"), workload=wl.name, seed=seed)
    tally = workloads.Tally()
    for part in plain + traced:
        tally.extend(part)
    detail = {"ops_per_pass": plain[0].attempted, "trace_pairs": len(plain),
              "spans": len(tracer.spans)}
    return tally, layer_metrics(tracer.spans, measured, names), detail


def main(argv: list[str] | None = None, sizes: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hippomem" / "__init__.py").is_file():
        print(f"error: no hippomem sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC.read_text())
    wl = workloads.make_workload(args.workload, (sizes or {}).get(args.workload))
    # importing here first also compiles the bytecode the set-up probes load
    hm = importlib.import_module(wl.import_target)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT))
    try:
        units = {m["name"]: m["unit"]
                 for m in spec["per_layer" if args.trace else "end_to_end"]}
        if args.trace:
            tally, metrics, detail = traced_run(wl, hm, args.seed, workdir, list(units))
        else:
            tally, metrics, detail = untraced_run(wl, hm, args.seed, args.seconds, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{wl.name} {name} {value:.6g} {units[name]}")
    print(f"{wl.name} error_rate {tally.failed / tally.attempted:.6g} ratio")
    for why in tally.failures:
        print(f"{wl.name} failure {why}")
    print("ENV " + json.dumps(environment()))
    print("DETAIL " + json.dumps({"workload": wl.name, "seed": args.seed,
                                  "confirm_seed": CONFIRM_SEED, "trace": args.trace,
                                  "attempted": tally.attempted, "failed": tally.failed,
                                  **detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
