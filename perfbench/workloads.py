"""The four benchmark workloads, their set-up and their correctness gates.

All four are closed loops driven by one client (this process) that
waits for each result before sending the next.  The program receives
only the generated inputs: spec lists for the batch workloads, CLI
arguments for the others.  ``--seed`` permutes spec submission order
(and the cache fill order of report-warm); goldens are keyed by spec
fingerprint, so every seed is checked against the same outcomes.

Workloads drive the program only through its public entry points
(``RunSpec``, ``run_batch``, ``ResultCache``, ``CacheDataset`` and the
``repro-numa`` CLI run as ``python -m repro.cli``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import probes as layer_probes
from catalog import LAYER_NAMES
from hostspeed import SHARE, SpeedProbe
from ledger import Ledger, check_ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"

#: Tournament entrants (registry name, parameter pairs) on 4socket32.
TOURNAMENT_ENTRANTS = (
    ("move-threshold", ()),
    ("adaptive-threshold", ()),
    ("bandwidth-aware", ()),
    ("bandit", (("seed", 0),)),
    ("reconsider", ()),
    ("decay", ()),
)
PAGE_TABLES = ("centralized", "replicated")
#: What the installed ``repro-numa`` console script runs.
CLI_ENTRY = "import sys; from repro.cli import main; sys.exit(main())"


def program_available() -> bool:
    """Whether the program's sources sit beside the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def cpu_seconds() -> float:
    """Host CPU of this process plus its reaped children (µs resolution)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def outcome_sha256(outcome) -> str:
    return hashlib.sha256(outcome.to_json().encode("utf-8")).hexdigest()


def load_goldens() -> Dict[str, object]:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def table3_specs(quick: bool) -> list:
    from repro.exp import flatten, table3_grid

    return flatten(table3_grid(quick=quick))


def tournament_specs(quick: bool) -> list:
    from repro.exp import RunSpec

    return [
        RunSpec(
            workload="FFT",
            quick=quick,
            policy=name,
            policy_params=params,
            n_processors=32,
            machine_name="4socket32",
            page_tables=page_tables,
            check_invariants=False,
        )
        for name, params in TOURNAMENT_ENTRANTS
        for page_tables in PAGE_TABLES
    ]


def report_fill_specs() -> list:
    """Quick Table 3 grid plus a quick tournament of every policy."""
    from repro.core.policies.registry import POLICY_ENTRIES
    from repro.exp import flatten, policy_tournament

    every_policy = [(name, ()) for name in POLICY_ENTRIES]
    return table3_specs(True) + flatten(
        policy_tournament(quick=True, policies=every_policy)
    )


def seeded_order(specs: Sequence, seed: int) -> list:
    order = list(specs)
    random.Random(seed).shuffle(order)
    return order


def verify_outcomes(rows, goldens: Dict[str, str]) -> Tuple[int, List[str]]:
    """Failed rows of a batch against per-fingerprint outcome goldens."""
    failed = 0
    problems: List[str] = []
    for row in rows:
        fp = row.spec.fingerprint()
        if row.outcome is None:
            failed += 1
            problems.append(f"{row.spec.label}: quarantined ({row.error})")
            continue
        expected = goldens.get(fp)
        if expected is None or outcome_sha256(row.outcome) != expected:
            failed += 1
            problems.append(f"{row.spec.label}: outcome differs from golden")
    return failed, problems


def simulated_refs(rows) -> int:
    total = 0
    for row in rows:
        refs = row.outcome.result.all_refs
        total += sum(refs.fetches.values()) + sum(refs.stores.values())
    return total


@dataclass
class OpResult:
    """One timed operation and what its correctness gate found."""

    wall_s: float
    cpu_s: float
    work: float
    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)


@dataclass
class TraceResult:
    metrics: Dict[str, float]
    ops: List[OpResult]


def layer_metrics(self_s: Dict[str, float], counts: Dict[str, float]):
    metrics = {name: 0.0 for name in LAYER_NAMES}
    for name, value in list(self_s.items()) + list(counts.items()):
        if name not in metrics:
            raise KeyError(f"ledger reported unknown metric {name!r}")
        metrics[name] += value
    hits = metrics["machine.tlb_hits"]
    lookups = hits + metrics["machine.tlb_misses"]
    metrics["machine.tlb_hit_ratio"] = hits / lookups if lookups else 0.0
    return metrics


class Workload:
    """Base: a seeded input, a repeatable set-up, a timed operation."""

    name = ""
    why = ""

    def __init__(self, seed: int, quick: bool, work_dir: Path) -> None:
        self.seed = seed
        self.quick = quick
        self.work_dir = work_dir

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.work_dir))

    def import_probe(self, module: str) -> None:
        """Import *module* in a fresh interpreter, as a user's run does."""
        subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            check=True,
            env=child_env(),
            cwd=self.work_dir,
        )

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, probe: SpeedProbe) -> OpResult:
        """One timed operation, with reference work sampled on *probe*."""
        raise NotImplementedError

    def trace(self) -> TraceResult:
        raise NotImplementedError


class BatchWorkload(Workload):
    """A cold ``run_batch`` over a seeded spec list into a fresh cache."""

    jobs = 1

    def base_specs(self) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        self.import_probe("repro.exp")
        self.specs = seeded_order(self.base_specs(), self.seed)
        self.unique = len({spec.fingerprint() for spec in self.specs})
        self.goldens = load_goldens()["outcome_sha256"]

    def _batch(
        self,
        jobs: int,
        keep_cache: bool = False,
        probe: Optional[SpeedProbe] = None,
    ):
        from repro.exp import ResultCache, run_batch

        cache_dir = self.fresh_dir()
        # A serial batch samples reference work between its specs, via
        # the public progress callback, so the samples spread over the
        # whole batch; the time they take is not charged to the batch.
        paused = {"wall": 0.0, "cpu": 0.0}
        last_end = [0.0]

        def calibrate(message: str) -> None:
            begin, cpu_begin = time.perf_counter(), cpu_seconds()
            probe.sample(SHARE * (begin - last_end[0]))
            last_end[0] = time.perf_counter()
            paused["wall"] += last_end[0] - begin
            paused["cpu"] += cpu_seconds() - cpu_begin

        interleave = probe is not None and jobs == 1
        cpu0 = cpu_seconds()
        started = last_end[0] = time.perf_counter()
        batch = run_batch(
            self.specs,
            jobs=jobs,
            cache=ResultCache(cache_dir),
            progress=calibrate if interleave else None,
        )
        wall = time.perf_counter() - started - paused["wall"]
        cpu = cpu_seconds() - cpu0 - paused["cpu"]
        if probe is not None and not interleave:
            probe.sample(SHARE * wall)
        failed, problems = verify_outcomes(batch.rows, self.goldens)
        if batch.executed != self.unique or batch.cache_hits != 0:
            failed = len(batch.rows)
            problems.append(
                f"cold batch executed {batch.executed} of {self.unique} "
                f"unique specs with {batch.cache_hits} cache hits"
            )
        work = simulated_refs(batch.rows) if not failed else 0.0
        result = OpResult(wall, cpu, work, len(batch.rows), failed, problems)
        if not keep_cache:
            shutil.rmtree(cache_dir)
            cache_dir = None
        return result, batch, cache_dir

    def op(self, probe: SpeedProbe) -> OpResult:
        return self._batch(self.jobs, probe=probe)[0]

    def extra_metrics(self, cache_dir: Path) -> Dict[str, float]:
        return {}

    def trace(self) -> TraceResult:
        """Untraced pooled and serial batches, then one traced serial batch.

        The traced batch runs serially so every layer executes in this
        process, under the probes.
        """
        pooled, _, cache_dir = self._batch(self.jobs, keep_cache=True)
        extra = self.extra_metrics(cache_dir)
        shutil.rmtree(cache_dir)
        ops = [pooled]
        serial = pooled
        if self.jobs != 1:
            serial = self._batch(1)[0]
            ops.append(serial)
        ledger = Ledger()
        probes = layer_probes.Probes(ledger)
        layer_probes.install_exp(probes)
        layer_probes.install_sim(probes)
        root = ledger.enter("root")
        try:
            traced, batch, _ = self._batch(1)
        finally:
            traced_wall = ledger.exit(root)
            probes.restore()
        ops.append(traced)
        self_s = dict(ledger.self_s)
        other = self_s.pop("root")
        traced.problems.extend(check_ledger(ledger.self_s, traced_wall))
        metrics = layer_metrics(self_s, probes.counts)
        outcomes = [row.outcome.result for row in batch.rows if row.outcome]
        metrics.update(extra)
        metrics.update(
            {
                "core.moves": sum(r.stats.moves for r in outcomes),
                "core.page_copies": sum(
                    r.stats.total_page_copies() for r in outcomes
                ),
                "exp.executed": batch.executed,
                "exp.cache_hits": batch.cache_hits,
                "exp.pool_efficiency": serial.wall_s
                / (pooled.wall_s * self.jobs),
                "ledger.wall_s": traced_wall,
                "ledger.other_s": other,
                "ledger.trace_overhead": traced_wall / serial.wall_s,
            }
        )
        return TraceResult(metrics, ops)


class Table3Cold(BatchWorkload):
    name = "table3-cold"
    why = (
        "full Table 3 grid (24 specs, serial) into an empty cache: op "
        "generation and engine dispatch dominate, fault handling is small"
    )

    def base_specs(self) -> list:
        return table3_specs(self.quick)

    def extra_metrics(self, cache_dir: Path) -> Dict[str, float]:
        from repro.analysis.cachereport import (
            CacheDataset,
            evaluation_from_dataset,
        )
        from repro.analysis.paper import TABLE_3

        join = evaluation_from_dataset(
            CacheDataset.load(cache_dir), quick=self.quick
        )
        errors = []
        for row in join.evaluation.rows:
            paper = TABLE_3[row.application]
            measured = row.params
            pairs = [
                (measured.beta, paper.beta),
                (measured.gamma, paper.gamma),
            ]
            if measured.alpha is not None and paper.alpha is not None:
                pairs.append((measured.alpha, paper.alpha))
            errors.extend(abs(m - p) for m, p in pairs)
        return {"analysis.table3_abs_err": sum(errors) / len(errors)}


class Tournament4Socket(BatchWorkload):
    name = "tournament-4socket"
    why = (
        "FFT on 4socket32, 6 policies x 2 page-table placements at jobs=2: "
        "fault handling, policy ticks and page tables dominate"
    )
    jobs = 2

    def base_specs(self) -> list:
        return tournament_specs(self.quick)


class CliWorkload(Workload):
    """One ``repro-numa`` invocation per operation, in a subprocess."""

    #: Probe set for :mod:`cli_probe` (``"report"`` or ``"lint"``).
    layers = ""
    #: Traced invocations averaged into one ledger.
    traced_runs = 2

    def arguments(self, out_dir: Path) -> List[str]:
        raise NotImplementedError

    def verify(self, proc, out_dir: Path) -> List[str]:
        raise NotImplementedError

    def work_units(self) -> float:
        return 1.0

    def _invoke(self, ledger_path: Optional[Path] = None) -> OpResult:
        out_dir = self.fresh_dir()
        args = self.arguments(out_dir)
        if ledger_path is None:
            command = [sys.executable, "-c", CLI_ENTRY, *args]
        else:
            command = [
                sys.executable, str(HERE / "cli_probe.py"), self.layers,
                str(ledger_path), "--", *args,
            ]
        cpu0 = cpu_seconds()
        started = time.perf_counter()
        proc = subprocess.run(
            command, capture_output=True, text=True, env=child_env(),
            cwd=out_dir,
        )
        wall = time.perf_counter() - started
        cpu = cpu_seconds() - cpu0
        problems = self.verify(proc, out_dir)
        shutil.rmtree(out_dir)
        return OpResult(
            wall, cpu, self.work_units(), 1, 1 if problems else 0, problems
        )

    def op(self, probe: SpeedProbe) -> OpResult:
        result = self._invoke()
        probe.sample(SHARE * result.wall_s)
        return result

    def trace(self) -> TraceResult:
        """Untraced and traced invocations, alternating; ledgers averaged."""
        untraced: List[OpResult] = []
        traced: List[OpResult] = []
        totals: Dict[str, float] = {}
        counts: Dict[str, float] = {}
        other = 0.0
        for index in range(self.traced_runs):
            untraced.append(self._invoke())
            ledger_path = self.work_dir / f"ledger-{index}.json"
            op = self._invoke(ledger_path)
            traced.append(op)
            data = json.loads(ledger_path.read_text(encoding="utf-8"))
            op.problems.extend(data["problems"])
            self_s = dict(data["self_s"])
            self_s.pop("root", None)
            self_s["cli.import_s"] = data["import_s"]
            for name, value in self_s.items():
                totals[name] = totals.get(name, 0.0) + value
            for name, value in data["counts"].items():
                counts[name] = counts.get(name, 0) + value
            op_other = op.wall_s - sum(self_s.values())
            if op_other < 0:
                op.problems.append(f"layers exceed traced wall by {-op_other}")
            other += op_other
        n = self.traced_runs
        metrics = layer_metrics(
            {k: v / n for k, v in totals.items()},
            {k: v / n for k, v in counts.items()},
        )
        traced_wall = sum(op.wall_s for op in traced) / n
        untraced_wall = sum(op.wall_s for op in untraced) / n
        metrics.update(
            {
                "ledger.wall_s": traced_wall,
                "ledger.other_s": other / n,
                "ledger.trace_overhead": traced_wall / untraced_wall,
            }
        )
        metrics.update(self.extra_metrics())
        return TraceResult(metrics, untraced + traced)

    def extra_metrics(self) -> Dict[str, float]:
        return {}


class ReportWarm(CliWorkload):
    name = "report-warm"
    why = (
        "repro-numa report --quick --from-cache over a filled cache: zero "
        "simulation, import and cache reads dominate"
    )
    layers = "report"
    traced_runs = 3

    def setup(self) -> None:
        from repro.exp import ResultCache, run_batch

        previous = getattr(self, "cache_dir", None)
        if previous is not None:
            shutil.rmtree(previous)
        specs = seeded_order(report_fill_specs(), self.seed)
        self.cache_dir = self.fresh_dir()
        batch = run_batch(specs, jobs=1, cache=ResultCache(self.cache_dir))
        unique = len({spec.fingerprint() for spec in specs})
        if batch.executed != unique or batch.quarantined:
            raise RuntimeError(
                f"cache fill executed {batch.executed} of {unique} specs"
            )
        self.golden = load_goldens()["report_sha256"]

    def arguments(self, out_dir: Path) -> List[str]:
        return [
            "report", "--quick", "--from-cache",
            "--cache-dir", str(self.cache_dir),
            "--out", str(out_dir / "REPORT.md"),
            "--json", str(out_dir / "manifest.jsonl"),
        ]

    def verify(self, proc, out_dir: Path) -> List[str]:
        if proc.returncode != 0:
            return [f"report exited {proc.returncode}: {proc.stderr[-500:]}"]
        problems = []
        records = [
            json.loads(line)
            for line in (out_dir / "manifest.jsonl").read_text().splitlines()
        ]
        summary = next(r for r in records if r.get("t") == "report_summary")
        if summary["executed"] != 0 or summary["cache_ratio"] != 1.0:
            problems.append(
                f"warm report executed {summary['executed']} specs, "
                f"cache ratio {summary['cache_ratio']}"
            )
        document = (out_dir / "REPORT.md").read_bytes()
        if hashlib.sha256(document).hexdigest() != self.golden:
            problems.append("report document differs from golden")
        return problems


class LintRepo(CliWorkload):
    name = "lint-repo"
    why = (
        "repro-numa lint (all 11 rules) over the live package: only the "
        "static checker runs; work is normalised by source lines"
    )
    layers = "lint"

    def setup(self) -> None:
        self.import_probe("repro.check")
        files = sorted((SRC / "repro").rglob("*.py"))
        self.files = len(files)
        self.lines = sum(
            path.read_text(encoding="utf-8").count("\n") for path in files
        )

    def work_units(self) -> float:
        return float(self.lines)

    def arguments(self, out_dir: Path) -> List[str]:
        return ["lint", "--format", "json"]

    def verify(self, proc, out_dir: Path) -> List[str]:
        summary = None
        for line in proc.stdout.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("t") == "lint_summary":
                summary = record
        if proc.returncode != 0 or summary is None:
            return [f"lint exited {proc.returncode}: {proc.stdout[-500:]}"]
        if summary["violations"] != 0:
            return [f"lint found {summary['violations']} violations"]
        if summary["files_checked"] != self.files:
            return [
                f"lint checked {summary['files_checked']} of "
                f"{self.files} files"
            ]
        return []

    def extra_metrics(self) -> Dict[str, float]:
        return {"check.files": self.files, "check.lines": self.lines}


WORKLOADS = {
    cls.name: cls for cls in (Table3Cold, Tournament4Socket, ReportWarm, LintRepo)
}
