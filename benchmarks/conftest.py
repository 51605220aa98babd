"""Shared helpers for the benchmark suite.

Every table and figure in the paper has a bench module here; each bench
runs the experiment once (``benchmark.pedantic(rounds=1)`` — the
measurements are simulated time, so repeating them adds nothing), asserts
the *shape* against the paper's published numbers, and writes the rendered
artifact to ``benchmarks/_artifacts/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass
from typing import Dict, Optional

import pytest

from repro.core.numa_manager import NUMAManager
from repro.core.policies import MoveThresholdPolicy
from repro.core.policy import NUMAPolicy
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.obs import Telemetry, write_jsonl
from repro.vm.address_space import AddressSpace
from repro.vm.fault import FaultHandler
from repro.vm.page_pool import PagePool
from repro.vm.pmap import ACEPmap

ARTIFACTS = pathlib.Path(__file__).parent / "_artifacts"

#: Set (to anything but "0") to make the benches record telemetry and
#: drop ``<name>.telemetry.jsonl`` files alongside the text artifacts.
TELEMETRY_ENV = "REPRO_TELEMETRY"


def telemetry_enabled() -> bool:
    """Whether this bench run should emit telemetry artifacts."""
    return os.environ.get(TELEMETRY_ENV, "0") not in ("", "0")


def maybe_telemetry(sample_interval: int = 32) -> Optional[Telemetry]:
    """A fresh :class:`Telemetry` when opted in via the env var, else None.

    Benches pass the result straight to ``build_simulation`` or
    ``measure_placement`` (both accept ``telemetry=None``), so the
    default bench run stays telemetry-free and costs nothing extra.
    """
    if not telemetry_enabled():
        return None
    return Telemetry(sample_interval=sample_interval)


def save_telemetry(
    name: str,
    telemetry: Optional[Telemetry],
    meta: Optional[Dict[str, object]] = None,
) -> Optional[pathlib.Path]:
    """Write ``_artifacts/<name>.telemetry.jsonl``; no-op when not opted in."""
    if telemetry is None:
        return None
    ARTIFACTS.mkdir(exist_ok=True)
    path = ARTIFACTS / f"{name}.telemetry.jsonl"
    write_jsonl(telemetry.to_records(meta), path)
    return path


@dataclass
class BenchRig:
    """A wired machine + VM + NUMA stack for protocol microbenchmarks."""

    machine: Machine
    numa: NUMAManager
    pool: PagePool
    pmap: ACEPmap
    space: AddressSpace
    faults: FaultHandler


def make_bench_rig(
    n_processors: int = 2,
    policy: Optional[NUMAPolicy] = None,
    local_pages_per_cpu: int = 256,
    global_pages: int = 512,
) -> BenchRig:
    """Assemble a small stack for driving individual transitions."""
    config = MachineConfig(
        n_processors=n_processors,
        local_pages_per_cpu=local_pages_per_cpu,
        global_pages=global_pages,
    )
    machine = Machine(config)
    numa = NUMAManager(
        machine,
        policy if policy is not None else MoveThresholdPolicy(threshold=4),
        check_invariants=False,
    )
    pool = PagePool(numa)
    pmap = ACEPmap(numa)
    space = AddressSpace()
    faults = FaultHandler(machine, space, pool, pmap)
    return BenchRig(
        machine=machine,
        numa=numa,
        pool=pool,
        pmap=pmap,
        space=space,
        faults=faults,
    )


def save_artifact(name: str, text: str) -> pathlib.Path:
    """Write a rendered table/figure under benchmarks/_artifacts/."""
    ARTIFACTS.mkdir(exist_ok=True)
    path = ARTIFACTS / name
    path.write_text(text + "\n")
    return path


def assert_band(
    measured: Optional[float],
    paper: Optional[float],
    absolute: float,
    label: str,
) -> None:
    """Assert a measured value is within an absolute band of the paper's.

    ``None`` values (the paper's "na") must match in kind.
    """
    if paper is None:
        assert measured is None or absolute >= 1.0, (
            f"{label}: paper reports na, measured {measured}"
        )
        return
    assert measured is not None, f"{label}: measured na, paper {paper}"
    assert abs(measured - paper) <= absolute, (
        f"{label}: measured {measured:.3f} vs paper {paper:.3f} "
        f"(band ±{absolute})"
    )


def once(benchmark, func):
    """Run *func* exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


@pytest.fixture
def artifact_dir() -> pathlib.Path:
    ARTIFACTS.mkdir(exist_ok=True)
    return ARTIFACTS
