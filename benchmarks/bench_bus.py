"""Ablation A9 — checking Section 3.1's bus-contention assumption.

The paper's methodology "required that measurements ... be relatively
free of lock, bus or memory contention", which the authors ensured by
choosing applications; the simulator's exact traffic counts let us verify
it.  The bench computes IPC-bus utilization for every Table 3 application
at 7 processors (all should be comfortably below saturation except the
deliberately pathological Gfetch) and sweeps Gfetch across machine sizes
to show where the 80 MB/s bus would start to bite.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.analysis.bus import BusReport, analyze_bus
from repro.core.policies import MoveThresholdPolicy
from repro.machine.config import ace_config
from repro.sim.harness import build_simulation
from repro.workloads import TABLE_3_WORKLOADS
from repro.workloads.gfetch import Gfetch

from conftest import once, save_artifact

_reports: Dict[str, BusReport] = {}


@pytest.mark.parametrize("name", list(TABLE_3_WORKLOADS))
def test_bus_utilization_per_application(benchmark, name):
    def run() -> BusReport:
        config = ace_config(7)
        result = build_simulation(
            TABLE_3_WORKLOADS[name](),
            MoveThresholdPolicy(threshold=4),
            n_processors=7,
            check_invariants=False,
        ).run()
        return analyze_bus(result, config)

    report = once(benchmark, run)
    _reports[name] = report
    if name == "Gfetch":
        # Seven processors doing nothing but global fetches: the one
        # workload that genuinely loads the bus.
        assert report.utilization > 0.15
    else:
        assert report.utilization < 0.15, (
            f"{name}: bus utilization {report.utilization:.2f} breaks the "
            "paper's contention-free assumption"
        )


def test_bus_report(benchmark):
    assert len(_reports) == len(TABLE_3_WORKLOADS)

    def render() -> str:
        lines = [
            "IPC-bus utilization at 7 processors (Section 3.1 assumption)"
        ]
        for name, report in _reports.items():
            verdict = "ok" if report.contention_free else "LOADED"
            lines.append(
                f"  {name:10s} rho={report.utilization:5.3f}  "
                f"x{report.contention_factor:4.2f} est. stretch  {verdict}"
            )
        return "\n".join(lines)

    text = once(benchmark, render)
    save_artifact("bus.txt", text)
    print(f"\n{text}")


def test_gfetch_scaling_loads_the_bus(benchmark):
    """Utilization grows with processor count for a bus-bound program."""

    def sweep() -> Dict[int, float]:
        rhos = {}
        for n in (2, 4, 8):
            config = ace_config(n, enforce_backplane=True)
            result = build_simulation(
                Gfetch(total_fetches=240_000),
                MoveThresholdPolicy(threshold=4),
                machine_config=config,
                check_invariants=False,
            ).run()
            rhos[n] = analyze_bus(result, config).utilization
        return rhos

    rhos = once(benchmark, sweep)
    assert rhos[2] < rhos[4] < rhos[8]
    print(f"\nGfetch bus utilization by machine size: {rhos}")
