"""Evaluation driver and table renderers for the paper's Tables 3 and 4.

:func:`run_evaluation` performs the paper's three-run methodology for a
set of applications; the ``format_*`` functions print the same rows the
paper reports, with the published numbers alongside for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.analysis import model as eqs
from repro.analysis.paper import TABLE_3, TABLE_4
from repro.sim.harness import PlacementMeasurement
from repro.workloads import TABLE_4_WORKLOADS


@dataclass(frozen=True)
class EvaluationRow:
    """One application's measurements and derived model parameters."""

    application: str
    measurement: PlacementMeasurement
    params: eqs.ModelParameters

    @property
    def delta_s(self) -> Optional[float]:
        """ΔS = Snuma − Sglobal, or ``None`` when negative (paper's na)."""
        delta = (
            self.measurement.numa.system_time_s
            - self.measurement.all_global.system_time_s
        )
        return delta if delta > 0 else None

    @property
    def delta_over_t(self) -> float:
        """ΔS / Tnuma (0 when ΔS is na, matching Table 4)."""
        delta = self.delta_s
        if delta is None:
            return 0.0
        return delta / self.measurement.t_numa_s


@dataclass(frozen=True)
class Evaluation:
    """The full application-mix evaluation (inputs to Tables 3 and 4)."""

    rows: List[EvaluationRow]
    n_processors: int
    threshold: int

    def row(self, application: str) -> EvaluationRow:
        """The row for one application."""
        for row in self.rows:
            if row.application == application:
                return row
        raise KeyError(application)


def _row_from_measurement(
    name: str, measurement: PlacementMeasurement
) -> EvaluationRow:
    """Solve the model for one application's three measured runs."""
    params = eqs.solve(
        measurement.t_global_s,
        measurement.t_numa_s,
        measurement.t_local_s,
        measurement.g_over_l,
    )
    return EvaluationRow(
        application=name, measurement=measurement, params=params
    )


def run_evaluation(
    *,
    apps: Optional[Sequence[str]] = None,
    n_processors: int = 7,
    threshold: int = 4,
    check_invariants: bool = False,
    quick: bool = False,
    jobs: int = 1,
    cache=None,
    registry=None,
    bus=None,
    progress=None,
) -> Evaluation:
    """Measure Tnuma/Tglobal/Tlocal and solve the model for each app.

    Invariant checking is off by default here purely for speed; the test
    suite runs the same workloads with it on.

    The evaluation is expressed as a declarative
    :func:`~repro.exp.grid.table3_grid` and executed by the batch
    orchestrator, which unlocks ``jobs`` worker processes, the on-disk
    result ``cache``, and ``batch_*`` telemetry
    (``registry``/``bus``/``progress`` pass straight through to
    :func:`~repro.exp.batch.run_batch`).  ``apps`` restricts the grid
    and ``quick`` selects the scaled-down workload instances.
    """
    from repro.exp.batch import run_batch
    from repro.exp.grid import flatten, table3_grid

    groups = table3_grid(
        apps=apps,
        n_processors=n_processors,
        threshold=threshold,
        quick=quick,
        check_invariants=check_invariants,
    )
    batch = run_batch(
        flatten(groups),
        jobs=jobs,
        cache=cache,
        registry=registry,
        bus=bus,
        progress=progress,
    )
    rows = []
    for index, group in enumerate(groups):
        tnuma, tglobal, tlocal = (
            row.outcome.result
            for row in batch.rows[3 * index: 3 * index + 3]
        )
        measurement = PlacementMeasurement(
            workload=group.application,
            g_over_l=group.tnuma.resolve_workload().g_over_l,
            numa=tnuma,
            all_global=tglobal,
            local=tlocal,
        )
        rows.append(_row_from_measurement(group.application, measurement))
    return Evaluation(rows=rows, n_processors=n_processors, threshold=threshold)


def _format_table(
    headers: Sequence[str], rows: Iterable[Sequence[str]], title: str
) -> str:
    """Plain-text table with a title, sized to its contents."""
    materialized = [list(headers)] + [list(r) for r in rows]
    widths = [
        max(len(row[col]) for row in materialized)
        for col in range(len(headers))
    ]
    lines = [title]
    for index, row in enumerate(materialized):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _fmt(value: Optional[float], digits: int = 2) -> str:
    if value is None:
        return "na"
    return f"{value:.{digits}f}"


def format_table3(evaluation: Evaluation, include_paper: bool = True) -> str:
    """Render Table 3: measured times and computed model parameters."""
    headers = ["Application", "Tglobal", "Tnuma", "Tlocal", "α", "β", "γ"]
    if include_paper:
        headers += ["α(paper)", "β(paper)", "γ(paper)"]
    rows = []
    for row in evaluation.rows:
        m = row.measurement
        cells = [
            row.application,
            f"{m.t_global_s:.1f}",
            f"{m.t_numa_s:.1f}",
            f"{m.t_local_s:.1f}",
            row.params.format_alpha(),
            _fmt(row.params.beta),
            _fmt(row.params.gamma),
        ]
        if include_paper:
            paper = TABLE_3.get(row.application.split("-")[0])
            if paper is None:
                cells += ["-", "-", "-"]
            else:
                cells += [
                    _fmt(paper.alpha),
                    _fmt(paper.beta),
                    _fmt(paper.gamma),
                ]
        rows.append(cells)
    return _format_table(
        headers,
        rows,
        "Table 3: measured user times (simulated seconds) and model "
        f"parameters ({evaluation.n_processors} processors, threshold "
        f"{evaluation.threshold})",
    )


def format_table4(evaluation: Evaluation, include_paper: bool = True) -> str:
    """Render Table 4: system-time overhead of NUMA management."""
    headers = ["Application", "Snuma", "Sglobal", "ΔS", "Tnuma", "ΔS/Tnuma"]
    if include_paper:
        headers += ["ΔS/Tnuma(paper)"]
    rows = []
    for row in evaluation.rows:
        if row.application not in TABLE_4_WORKLOADS:
            continue
        m = row.measurement
        cells = [
            row.application,
            f"{m.numa.system_time_s:.2f}",
            f"{m.all_global.system_time_s:.2f}",
            _fmt(row.delta_s, 2),
            f"{m.t_numa_s:.1f}",
            f"{row.delta_over_t * 100:.1f}%",
        ]
        if include_paper:
            paper = TABLE_4.get(row.application)
            cells += [
                f"{paper.delta_over_t * 100:.1f}%" if paper else "-"
            ]
        rows.append(cells)
    return _format_table(
        headers,
        rows,
        "Table 4: total system time (simulated seconds) on "
        f"{evaluation.n_processors} processors",
    )


def format_measured_alpha(evaluation: Evaluation) -> str:
    """Extra table the paper could not print: ground-truth α per app.

    The simulator observes every reference, so the model-recovered α of
    Table 3 can be validated against the directly measured fraction of
    local writable-data references.
    """
    headers = ["Application", "α(model)", "α(measured)", "moves", "pinned-ish"]
    rows = []
    for row in evaluation.rows:
        m = row.measurement.numa
        rows.append(
            [
                row.application,
                row.params.format_alpha(),
                "na" if m.measured_alpha is None else f"{m.measured_alpha:.2f}",
                str(m.stats.moves),
                str(m.stats.local_memory_fallbacks),
            ]
        )
    return _format_table(
        headers, rows, "Model-recovered vs directly measured α"
    )
