"""Self-tests for the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import catalog  # noqa: E402
import probes as layer_probes  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_UNIT_S, SpeedProbe  # noqa: E402
from ledger import Ledger, check_ledger  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_ledger_subtracts_nested_and_post_hoc_spans():
    clock = FakeClock()
    ledger = Ledger(clock)
    root = ledger.enter("root")  # [0, 10]
    clock.now = 1.0
    a = ledger.enter("a")  # [1, 4], holds b
    clock.now = 2.0
    b = ledger.enter("b")  # [2, 3]
    clock.now = 3.0
    ledger.exit(b)
    clock.now = 4.0
    ledger.exit(a)
    clock.now = 6.0
    d = ledger.enter("d")  # [6, 7], later claimed by post-hoc c
    clock.now = 7.0
    ledger.exit(d)
    clock.now = 8.0
    ledger.closed("c", 3.0)  # [5, 8], reported after it ended
    clock.now = 10.0
    wall = ledger.exit(root)
    assert wall == 10.0
    assert ledger.self_s == {"b": 1.0, "a": 2.0, "d": 1.0, "c": 2.0, "root": 4.0}
    assert check_ledger(ledger.self_s, wall) == []


def test_ledger_check_flags_negative_self_time_and_gaps():
    assert check_ledger({"a": 2.0, "root": -1.0}, 1.0) == [
        "negative self time root=-1.0"
    ]
    assert len(check_ledger({"a": 1.0}, 2.0)) == 1


def test_ledger_rejects_out_of_order_exit():
    ledger = Ledger()
    outer = ledger.enter("outer")
    ledger.enter("inner")
    with pytest.raises(RuntimeError):
        ledger.exit(outer)


def test_speed_probe_runs_whole_units():
    probe = SpeedProbe()
    probe.sample(0.0)
    assert probe.units == 1 and probe.seconds > 0
    assert probe.factor == pytest.approx(REFERENCE_UNIT_S / probe.seconds)


def test_golden_check_rejects_perturbed_outcome():
    from repro.exp import Outcome

    goldens = workloads.load_goldens()["outcome_sha256"]
    spec = workloads.table3_specs(quick=True)[0]
    outcome = spec.execute()

    class Row:
        def __init__(self, outcome):
            self.spec = spec
            self.outcome = outcome
            self.error = None

    assert workloads.verify_outcomes([Row(outcome)], goldens) == (0, [])
    data = outcome.as_dict()
    data["result"]["per_cpu"][0]["user_us"] += 1.0
    failed, problems = workloads.verify_outcomes(
        [Row(Outcome.from_dict(data))], goldens
    )
    assert failed == 1 and "differs from golden" in problems[0]


def test_probes_restore_every_original():
    from repro.exp.spec import RunSpec
    from repro.sim.engine import Engine

    build, run = RunSpec.__dict__["build"], Engine.__dict__["run"]
    probes = layer_probes.Probes(Ledger())
    layer_probes.install_exp(probes)
    layer_probes.install_sim(probes)
    assert RunSpec.__dict__["build"] is not build
    probes.restore()
    assert RunSpec.__dict__["build"] is build
    assert Engine.__dict__["run"] is run


def test_benchmark_json_matches_catalog():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in catalog.LAYERS
    ]


def run_benchmark(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_quick_smoke_run(workload, trace):
    proc = run_benchmark(
        HERE.parent, "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--quick",
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = catalog.LAYER_NAMES if trace else catalog.END_TO_END_NAMES
    assert list(result["metrics"]) == names
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in values.values())
        return
    assert values["ledger.other_s"] >= 0
    layer_s = {
        name: value for name, value in values.items()
        if name.endswith("_s") and not name.startswith("ledger.")
    }
    if workload == "report-warm":
        assert max(layer_s, key=layer_s.get) == "cli.import_s"
    if workload == "lint-repo":
        rules = sum(v for k, v in layer_s.items() if k.startswith("check.rule."))
        assert values["check.guards_s"] + rules > values["check.parse_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_benchmark(
        tmp_path, "--workload", "table3-cold", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
