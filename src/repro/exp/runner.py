"""Worker-side helpers for fanning spec lists out across processes.

The simulations of a sweep are independent, deterministic, and
CPU-bound, which makes them ideal :mod:`concurrent.futures` fan-out
material.  :class:`~repro.exp.supervise.SupervisedRunner` marshals each
unique :class:`~repro.exp.spec.RunSpec` to a worker as its canonical key
dict; :func:`execute_payload` executes it there (the result depends on
nothing but the spec) and marshals
the outcome back as its :meth:`~repro.exp.spec.Outcome.as_dict` view —
both directions are plain dicts of primitives, so the round trip is
deterministic and the parallel results are value-identical to a serial
run.

``jobs=1`` never touches a process pool: it executes in-process on
exactly the code path :meth:`RunSpec.execute` always takes, so serial
batches are bit-identical to ``spec.build().run()`` in-process.

Scheduling details that matter for wall-clock (implemented by
:class:`~repro.exp.supervise.SupervisedRunner` and
:func:`~repro.exp.batch.run_batch`):

* duplicate specs (a threshold sweep shares its Tlocal baseline across
  thresholds) are executed once and fanned back out to every position;
* unique specs are submitted heaviest-first (a static per-workload
  weight table — longest-processing-time order keeps the pool's tail
  short);
* in-flight work is bounded to ``2 × jobs`` futures so a huge grid
  neither floods the executor queue nor idles workers between waves;
* specs that share a :meth:`~repro.exp.spec.RunSpec.trace_key` share
  one op stream (:mod:`repro.sim.trace`): a serial batch records it
  once and replays it for the rest, and a pool worker keeps its most
  recent trace and replays it when its next spec has the same key.
"""

from __future__ import annotations

import os
from typing import Dict

from repro.exp.spec import RunSpec

#: Relative wall-clock weight per workload, for longest-first submission:
#: mean live ``spec.execute()`` ms over the full-scale Table 3 matrix on a
#: 2-CPU Linux host, Python 3.11 — Primes3 878, FFT 269, PlyTrace 157,
#: Primes2 75, IMatMult 70, Primes1 57, Gfetch 4, ParMult 2.  Distinct
#: weights keep a serial batch to one op trace at a time.  Unknown
#: workloads sort mid-pack.
WORKLOAD_WEIGHTS: Dict[str, int] = {
    "Primes3": 100,
    "FFT": 30,
    "PlyTrace": 18,
    "Primes2": 9,
    "IMatMult": 8,
    "Primes1": 7,
    "Gfetch": 2,
    "ParMult": 1,
}

#: Default weight for workloads not in the table.
_DEFAULT_WEIGHT = 25


def spec_weight(spec: RunSpec) -> int:
    """Heuristic relative cost of one spec (for submission ordering)."""
    weight = WORKLOAD_WEIGHTS.get(spec.workload, _DEFAULT_WEIGHT)
    if spec.fault_profile not in (None, "none"):
        weight += 5  # recovery paths lengthen the run a little
    return weight


#: A pool worker's op traces.  They must outlive one task, so they live
#: in the worker process's module state; :func:`warm_worker`, the pool
#: initializer, sets them, so every pool (hence every batch) starts with
#: none.  ``None`` outside workers.
_worker_traces = None


def execute_payload(
    payload: Dict[str, object], share_trace: bool = False
) -> Dict[str, object]:
    """Worker entry point: spec key dict in, outcome dict out.

    Module-level (picklable) on purpose; reconstructing the spec from
    its canonical key keeps the worker independent of parent-process
    object identity.  ``share_trace`` (another spec of the batch has
    this spec's trace key) lets a pool worker replay or record op traces.
    """
    traces = _worker_traces if share_trace else None
    return RunSpec.from_key(payload).execute(traces).as_dict()


def warm_worker() -> None:
    """Pool initializer: pre-import the simulator's hot modules.

    Under the default ``fork`` start method this is free (the parent
    already imported everything); under ``spawn`` it front-loads import
    cost into pool startup instead of the first simulation, so per-spec
    timings stay comparable across workers.  It also resets the worker's
    op-trace store.
    """
    global _worker_traces
    import repro.faults.chaos  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.workloads  # noqa: F401
    from repro.sim.trace import TraceStore

    _worker_traces = TraceStore()


def usable_cpus() -> int:
    """How many CPUs this process may run on (at least 1).

    Counts the scheduler affinity mask where the platform has one, so a
    ``taskset``- or cpuset-restricted host is not oversubscribed, and
    falls back to :func:`os.cpu_count` elsewhere (macOS).
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return max(1, len(affinity(0)))
    return max(1, os.cpu_count() or 1)
