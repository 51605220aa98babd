"""Ablation A11 — the speedup view the paper avoided.

Section 3.1 chose total user time over elapsed time to dodge "concurrency
and serialization artifacts that show up in elapsed (wall clock) times
and speedup curves".  Those artifacts are measurable here: Primes1
(private data, tiny γ) speeds up almost linearly; Primes3 is capped near
n/γ; IMatMult pays its serialized initialization phase (Amdahl) on top of
γ; Gfetch collapses to n / (G/L).
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.analysis.speedup import SpeedupCurve, speedup_curve
from repro.exp.spec import RunSpec

from conftest import once, save_artifact

SIZES = (1, 2, 4, 7)

SPECS = {
    name: RunSpec(
        workload=name, workload_params=params, check_invariants=False
    )
    for name, params in (
        ("Primes1", {"limit": 60_000}),
        ("Primes3", {"limit": 300_000}),
        ("IMatMult", {"n": 96}),
        ("Gfetch", {"total_fetches": 120_000}),
    )
}

_curves: Dict[str, SpeedupCurve] = {}


@pytest.mark.parametrize("name", list(SPECS))
def test_speedup_curve(benchmark, name):
    curve = once(
        benchmark,
        lambda: speedup_curve(SPECS[name], processors=SIZES),
    )
    _curves[name] = curve
    speeds = [p.speedup for p in curve.points]
    assert speeds == sorted(speeds), f"{name}: speedup not monotone"


def test_speedup_shape(benchmark):
    assert len(_curves) == len(SPECS)

    def check() -> str:
        at7 = {name: c.point(7).speedup for name, c in _curves.items()}
        # Private-data code is near linear; the γ-limited codes are not.
        assert at7["Primes1"] > 6.0
        assert at7["Gfetch"] < 3.5  # ~ 7 / 2.3
        assert at7["Primes3"] < at7["Primes1"]
        # IMatMult: serialized initialization (Amdahl) costs visibly.
        assert at7["IMatMult"] < 6.8
        lines = ["Speedup at 7 processors (elapsed-time view)"]
        for name, curve in _curves.items():
            lines.append(curve.format())
        return "\n".join(lines)

    text = once(benchmark, check)
    save_artifact("speedup.txt", text)
    print(f"\n{text}")
