"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3-cold --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times operations with tracing off and reports the
end-to-end metrics, with host times rescaled to a reference host speed
measured in the same run (see :mod:`hostspeed`); ``--trace 1`` runs
operations untraced and under outside-in probes and reports the
per-layer ledger in raw host seconds.  Every
operation's outputs are checked against ``goldens.json`` (or, for
lint-repo, against zero violations).  The next-to-last stdout line is a
JSON record of host facts, raw per-metric sample statistics and the
reference unit time; the last is
the result: ``{"correct", "attempted", "failed", "metrics"}``.  Exit
status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from catalog import END_TO_END_NAMES, LAYER_NAMES, UNITS
from hostspeed import SHARE, SpeedProbe
import workloads

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Timed operations per run, at least.
MIN_OPS = 2
WORK_ROOT = workloads.ROOT / ".perfbench-work"


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    values = list(values)
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def host_facts() -> Dict[str, object]:
    commit: Optional[str] = None
    if (workloads.ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(workloads.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure(workload, seconds: float, min_ops: int, probe: SpeedProbe):
    """Timed operations, with calibration interleaved, until *seconds*."""
    ops: List[workloads.OpResult] = []
    started = time.perf_counter()
    while True:
        ops.append(workload.op(probe))
        elapsed = time.perf_counter() - started
        typical = statistics.median(op.wall_s for op in ops)
        if len(ops) >= min_ops and elapsed + typical > seconds:
            return ops


def run(args) -> Dict[str, object]:
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.quick, work_dir
        )
        probe = SpeedProbe()
        setups = []
        for _ in range(1 if args.quick else SETUP_REPS):
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
            probe.sample(SHARE * setups[-1])
        samples: Dict[str, List[float]] = {"setup_s": setups}
        if args.trace:
            traced = workload.trace()
            ops = traced.ops
            metrics = traced.metrics
        else:
            ops = measure(
                workload, args.seconds, 1 if args.quick else MIN_OPS, probe
            )
            samples.update(
                wall_s=[op.wall_s for op in ops],
                cpu_s=[op.cpu_s for op in ops],
                work_per_s=[op.work / op.wall_s for op in ops],
            )
            # Host times at reference speed (see hostspeed); work rates
            # scale inversely.
            factor = probe.factor
            metrics = {
                name: statistics.median(values)
                * (1 / factor if name == "work_per_s" else factor)
                for name, values in samples.items()
            }
            metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    names = LAYER_NAMES if args.trace else END_TO_END_NAMES
    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"metric set mismatch: {set(metrics) ^ set(names)}")
    problems = [problem for op in ops for problem in op.problems]
    failed = sum(op.failed for op in ops)
    return {
        "detail": {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "host": host_facts(),
            "raw_samples": {k: quartiles(v) for k, v in samples.items()},
            "reference_unit_s": probe.unit_s,
            "problems": problems,
        },
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": sum(op.attempted for op in ops),
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": UNITS[name]}
                for name in names
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down inputs and one set-up (the self-tests' smoke run)",
    )
    args = parser.parse_args(argv)
    if not workloads.program_available():
        print(
            f"perfbench: no program sources at {workloads.SRC}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(workloads.SRC))
    report = run(args)
    print(json.dumps(report["detail"]))
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
