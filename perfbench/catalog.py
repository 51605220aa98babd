"""Every metric the benchmark reports, and what each one should move.

``BENCHMARK.json`` lists the same names; ``test_perfbench`` keeps the
two in step.  End-to-end metrics are measured with tracing off and are
reported on every workload; their host times are rescaled to the
reference speed of :mod:`hostspeed`.  Per-layer metrics come from the traced
run; a layer a workload leaves idle reports 0 there.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: The end-to-end metric (and workload) this one should move.
    moves: str


END_TO_END: List[EndToEnd] = [
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "median of three set-ups: fresh-interpreter import plus seeded "
        "spec list (batch workloads), a filled cache (report-warm), "
        "import plus line count (lint-repo)",
    ),
    EndToEnd(
        "wall_s", "s", "lower", 0.25,
        "median host wall seconds of one operation: a whole batch, or "
        "one CLI invocation including interpreter start and import",
    ),
    EndToEnd(
        "cpu_s", "s", "lower", 0.25,
        "median host CPU seconds of one operation, child processes "
        "included",
    ),
    EndToEnd(
        "work_per_s", "1/s", "higher", 0.25,
        "median work per host second: simulated references (batch "
        "workloads), reports (report-warm), source lines (lint-repo)",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.1,
        "peak resident set of the benchmark process plus its largest "
        "child",
    ),
]

_BATCH = "table3-cold and tournament-4socket"

LAYERS: List[Layer] = [
    Layer("workloads.gen_s", "s", "lower",
          "wall_s/cpu_s on table3-cold (large share), far less on "
          "tournament-4socket"),
    Layer("workloads.ops", "count", "lower",
          "none: fixed by the op streams"),
    Layer("sim.build_s", "s", "lower", f"wall_s on {_BATCH}"),
    Layer("sim.dispatch_s", "s", "lower", f"wall_s on {_BATCH}"),
    Layer("sim.rounds", "count", "lower", "none: simulated, deterministic"),
    Layer("machine.ref_batch_s", "s", "lower",
          "work_per_s on table3-cold"),
    Layer("machine.tlb_hits", "count", "higher",
          "none: simulated, deterministic"),
    Layer("machine.tlb_misses", "count", "lower",
          "none: simulated, deterministic"),
    Layer("machine.tlb_hit_ratio", "ratio", "higher",
          "none: simulated, deterministic"),
    Layer("machine.tlb_shootdowns", "count", "lower",
          "none: simulated, deterministic"),
    Layer("machine.pt_walks", "count", "lower",
          "none: simulated; nonzero on tournament-4socket only"),
    Layer("machine.pt_updates", "count", "lower",
          "none: simulated; nonzero on tournament-4socket only"),
    Layer("machine.pt_replica_shootdowns", "count", "lower",
          "none: simulated; nonzero on tournament-4socket only"),
    Layer("vm.fault_s", "s", "lower",
          "wall_s on tournament-4socket; little on table3-cold"),
    Layer("vm.faults", "count", "lower", "none: simulated, deterministic"),
    Layer("core.moves", "count", "lower", "none: simulated, deterministic"),
    Layer("core.page_copies", "count", "lower",
          "none: simulated, deterministic"),
    Layer("core.policy_tick_s", "s", "lower", "wall_s on tournament-4socket"),
    Layer("core.policy_ticks", "count", "lower",
          "none: simulated, deterministic"),
    Layer("exp.fingerprint_s", "s", "lower",
          "wall_s on report-warm and both batch workloads"),
    Layer("exp.cache_get_s", "s", "lower", f"wall_s on {_BATCH}"),
    Layer("exp.cache_put_s", "s", "lower", f"wall_s on {_BATCH}"),
    Layer("exp.executed", "count", "lower",
          "none: pinned to the unique spec count on cold batches"),
    Layer("exp.cache_hits", "count", "higher",
          "none: pinned to 0 on cold batches"),
    Layer("exp.pool_efficiency", "ratio", "higher",
          "wall_s on tournament-4socket (the only pooled batch)"),
    Layer("cli.import_s", "s", "lower", "wall_s on report-warm and lint-repo"),
    Layer("analysis.cache_load_s", "s", "lower", "wall_s on report-warm"),
    Layer("analysis.render_s", "s", "lower", "wall_s on report-warm"),
    Layer("analysis.table3_abs_err", "ratio", "lower",
          "none: mean |measured - paper| over Table 3 alpha/beta/gamma, "
          "deterministic; table3-cold only"),
    Layer("check.lint_paths_s", "s", "lower",
          "wall_s/work_per_s on lint-repo"),
    Layer("check.parse_s", "s", "lower", "wall_s/work_per_s on lint-repo"),
    Layer("check.guards_s", "s", "lower", "wall_s/work_per_s on lint-repo"),
    *[
        Layer(f"check.rule.RN{i:03d}_s", "s", "lower",
              "wall_s/work_per_s on lint-repo")
        for i in range(1, 12)
    ],
    Layer("check.files", "count", "lower", "none: input size of lint-repo"),
    Layer("check.lines", "count", "lower", "none: input size of lint-repo"),
    Layer("ledger.wall_s", "s", "lower",
          "none: traced wall time the self times add up to"),
    Layer("ledger.other_s", "s", "lower",
          "none: traced wall covered by no layer; keeps the ledger honest"),
    Layer("ledger.trace_overhead", "ratio", "lower",
          "none: traced wall / untraced wall of the same operation"),
]

LAYER_NAMES = [layer.name for layer in LAYERS]
END_TO_END_NAMES = [metric.name for metric in END_TO_END]
UNITS: Dict[str, str] = {
    **{m.name: m.unit for m in END_TO_END},
    **{m.name: m.unit for m in LAYERS},
}
