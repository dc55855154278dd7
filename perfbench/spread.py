"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/spread.py --seeds 1-10 [--workloads family,zeta] [--baseline]

For each workload it runs ``run.py`` once per seed, one run at a time, and
prints for each end-to-end metric the median of the per-run values and
their spread: the distance between the first and third quartiles
(``statistics.quantiles(n=4)``) as a share of the median.  A spread is
steady when it is below a third of the metric's bound in BENCHMARK.json.
The exit code is 1 when a run was not correct or a spread is not steady.

``--baseline`` also makes one traced run per workload at the default seed
and writes ``perfbench/baseline.json``: the machine, the command lines, every
run's metrics, the spreads, the per-layer numbers and the map from each
per-layer metric to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

from tracing import PER_LAYER
from workloads import DEFAULT_SEED, WORKLOADS, variant_for_seed

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over the median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    steady = True
    report = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(name, seed, seconds, 0)
            steady &= result["correct"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{m: v["value"] for m, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4f}" for m, v in result["metrics"].items())
                + ("" if result["correct"] else " NOT CORRECT"), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            median, share = spread([r[metric] for r in runs])
            ok = share < bound / 3
            steady &= ok
            summary[metric] = {"median": median, "spread": share, "bound": bound}
            print(f"{name} {metric}: median {median:.4f}, spread {share:.4f} "
                  f"(bound {bound}){'' if ok else '  NOT STEADY'}", flush=True)
        report[name] = {"runs": runs, "summary": summary}

    if args.baseline:
        write_baseline(report, seeds, seconds)
    return 0 if steady else 1


def write_baseline(report: dict, seeds: list[int], seconds: int):
    workloads = {}
    for name, entry in report.items():
        workload = WORKLOADS[name]
        traced = run_once(name, DEFAULT_SEED, seconds, 1)
        workloads[name] = {
            "why": workload.why,
            "commands": [" ".join(argv) for argv in
                         workload.commands(variant_for_seed(workload, DEFAULT_SEED))],
            "variants": workload.variants,
            "end_to_end": entry["summary"],
            "runs": entry["runs"],
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "per_layer_correct": traced["correct"],
        }
    baseline = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": seeds,
        "layer_map": {name: {"unit": unit, "better": better, "moves": moves}
                      for name, (unit, better, moves) in PER_LAYER.items()},
        "workloads": workloads,
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as handle:
        json.dump(baseline, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(main())
