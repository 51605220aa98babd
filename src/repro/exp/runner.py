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
  neither floods the executor queue nor idles workers between waves.
"""

from __future__ import annotations

import os
from typing import Dict

from repro.exp.spec import RunSpec

#: Rough relative wall-clock weight per workload (measured once on the
#: full-scale Table 3 matrix); only the *ordering* matters, for
#: longest-first submission.  Unknown workloads sort mid-pack.
WORKLOAD_WEIGHTS: Dict[str, int] = {
    "Primes1": 100,
    "FFT": 60,
    "Primes3": 40,
    "Primes2": 30,
    "IMatMult": 20,
    "PlyTrace": 15,
    "Gfetch": 8,
    "ParMult": 5,
}

#: Default weight for workloads not in the table.
_DEFAULT_WEIGHT = 25


def spec_weight(spec: RunSpec) -> int:
    """Heuristic relative cost of one spec (for submission ordering)."""
    weight = WORKLOAD_WEIGHTS.get(spec.workload, _DEFAULT_WEIGHT)
    if spec.fault_profile not in (None, "none"):
        weight += 5  # recovery paths lengthen the run a little
    return weight


def execute_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point: spec key dict in, outcome dict out.

    Module-level (picklable) on purpose; reconstructing the spec from
    its canonical key keeps the worker independent of parent-process
    object identity.
    """
    return RunSpec.from_key(payload).execute().as_dict()


def warm_worker() -> None:
    """Pool initializer: pre-import the simulator's hot modules.

    Under the default ``fork`` start method this is free (the parent
    already imported everything); under ``spawn`` it front-loads import
    cost into pool startup instead of the first simulation, so per-spec
    timings stay comparable across workers.
    """
    import repro.faults.chaos  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.workloads  # noqa: F401


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
