"""Run the benchmark over several seeds and summarise, or record, the result.

Usage (from the repository root)::

    python3 perfbench/record.py --runs 10
    python3 perfbench/record.py --runs 10 --trace-runs 1 --append LABEL

Each end-to-end metric gets its median, quartiles, run count and
spread: the quartile distance as a share of the median, which must
stay within the metric's bound in ``BENCHMARK.json``.  With
``--append`` the summary, host facts and per-layer medians are appended
to ``trajectory.json`` as one record named LABEL.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} failed "
            f"({proc.returncode}):\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "values": values,
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--append", metavar="LABEL")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    record: Dict[str, object] = {
        "label": args.append,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    seeds = range(1, args.runs + 1)
    for workload in names:
        values: Dict[str, List[float]] = {}
        for seed in seeds:
            detail, result = run_once(
                workload, seed, spec["run_seconds"], 0
            )
            record["host"] = detail["host"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {name: summarise(v) for name, v in values.items()}
        layers: Dict[str, List[float]] = {}
        for seed in list(seeds)[: args.trace_runs]:
            _, result = run_once(workload, seed, spec["run_seconds"], 1)
            for name, metric in result["metrics"].items():
                layers.setdefault(name, []).append(metric["value"])
        record["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {name: summarise(v) for name, v in layers.items()},
        }
        for name, stats in summary.items():
            flag = "" if stats["spread"] <= bounds[name] / 3 else "  WIDE"
            print(
                f"{workload:20s} {name:12s} median {stats['median']:.6g} "
                f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                f"spread {stats['spread']:.4f} / bound {bounds[name]}{flag}",
                flush=True,
            )
    if args.append:
        history = (
            json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        )
        history.append(record)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
