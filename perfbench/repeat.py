"""Run the benchmark over several seeds and summarise the spread of each metric.

usage: python3 perfbench/repeat.py [--workloads stream,attn,...] [--seeds 1-10]
                                   [--seconds S] [--out FILE]

For every workload and seed it runs `perfbench/run.py --trace 0` and takes the
last stdout line; then one `--trace 1` run on the first seed gives the
per-layer metrics. Per metric it reports the median and the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(Q3 - Q1) / median next to the metric's bound. `--out` writes all of it,
with every run's values and the machine record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("ENV "))
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("DETAIL "))
    return json.loads(lines[-1]), env, detail


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, env, detail = run_once(workload, seed, args.seconds)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()},
                         "detail": detail})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            worst = max(worst, spread / bound)
            print(f"  {workload:9s} {name:18s} median {med:12.5g}  spread {spread:6.3f}"
                  f"  bound {bound:.2f}{'  OVER A THIRD' if spread > bound / 3 else ''}",
                  flush=True)
        # not gated: the whole-run tail (the highest percentile with 10 ops
        # beyond it at min_ops), next to the windowed tail that is reported
        values = [r["detail"]["whole_run_tail_ms"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary["whole_run_tail_ms"] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": (q3 - q1) / med}
        print(f"  {workload:9s} {'whole_run_tail_ms':18s} median {med:12.5g}  spread "
              f"{(q3 - q1) / med:6.3f}  (p{runs[0]['detail']['whole_run_tail_percentile']:g},"
              f" DETAIL only)", flush=True)
        traced, env, _ = run_once(workload, args.seeds[0], args.seconds, trace=1)
        report["workloads"][workload] = {
            "summary": summary, "runs": runs,
            "per_layer": {"seed": args.seeds[0], "correct": traced["correct"],
                          **{k: v["value"] for k, v in traced["metrics"].items()}}}
        report["env"] = env
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
