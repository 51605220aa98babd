"""Outside-in probes: ledger spans around the program's public entry points.

Nothing here edits the program.  A :class:`Probes` object replaces a
public function or method with a wrapper that opens a ledger span for
the call, and puts every original back on :meth:`Probes.restore`.  The
engine's public ``profiler`` slot receives a :class:`PhaseProfiler`
subclass that forwards its post-hoc phase durations into the same
ledger.  Counters come from what the program already exposes:
``Machine.tlb_counters()``, ``Machine.topology_counters()`` and the
return values of the wrapped calls.

The ``repro`` imports are deferred into the install functions, so a
traced CLI subprocess can time ``import repro.cli`` before any of them.
"""

from __future__ import annotations

import ast
import sys
from typing import Callable, Dict, List, Optional, Tuple

from ledger import Ledger

#: Engine profiler phases → ledger names.  ``fault_handling`` is left
#: out: it brackets exactly the ``FaultHandler.handle`` call, which is
#: wrapped directly as ``vm.fault_s``.
ENGINE_PHASES = {
    "reference_batch": "machine.ref_batch_s",
    "policy_tick": "core.policy_tick_s",
}


class Probes:
    """Installed wrappers plus the counters they collect."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self.counts: Dict[str, float] = {}
        self._undo: List[Tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _spanned(
        self,
        func: Callable,
        name: str,
        after: Optional[Callable] = None,
        drain: bool = False,
    ) -> Callable:
        ledger = self.ledger

        def wrapper(*args, **kwargs):
            frame = ledger.enter(name)
            try:
                result = func(*args, **kwargs)
                if drain:
                    # Generator-returning calls do their work while
                    # iterated; consume inside the span.
                    result = list(result)
            finally:
                ledger.exit(frame)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def method(self, cls: type, attr: str, name: str, **options) -> None:
        """Wrap ``cls.attr`` (plain method or classmethod)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._spanned(raw.__func__, name, **options))
        else:
            wrapped = self._spanned(raw, name, **options)
        self._set(cls, attr, wrapped)

    def function(self, func: Callable, name: str, **options) -> None:
        """Wrap *func* in every loaded ``repro`` module that binds it."""
        wrapped = self._spanned(func, name, **options)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, wrapped)


def install_exp(probes: Probes) -> None:
    """Result cache and spec identity (``exp``)."""
    from repro.exp.cache import ResultCache
    from repro.exp.spec import RunSpec

    probes.method(RunSpec, "fingerprint", "exp.fingerprint_s")
    probes.method(ResultCache, "get", "exp.cache_get_s")
    probes.method(ResultCache, "put", "exp.cache_put_s")


def install_sim(probes: Probes) -> None:
    """Spec build, engine dispatch, op generation, faults, engine phases."""
    from repro.obs.profiling import PhaseProfiler
    from repro.exp.spec import RunSpec
    from repro.sim.engine import Engine
    from repro.threads.cthreads import CThread
    from repro.vm.fault import FaultHandler

    ledger = probes.ledger
    machines: Dict[int, object] = {}

    class LedgerProfiler(PhaseProfiler):
        def add(self, name: str, seconds: float) -> None:
            metric = ENGINE_PHASES.get(name)
            if metric is not None:
                ledger.closed(metric, seconds)
                if name == "policy_tick":
                    probes.count("core.policy_ticks")

    def after_build(args, sim) -> None:
        sim.engine.profiler = LedgerProfiler()
        machines[id(sim.engine)] = sim.machine

    def after_run(args, rounds) -> None:
        probes.count("sim.rounds", rounds)
        machine = machines.pop(id(args[0]), None)
        if machine is None:
            return
        tlb = machine.tlb_counters()
        probes.count("machine.tlb_hits", tlb.get("hits", 0))
        probes.count("machine.tlb_misses", tlb.get("misses", 0))
        probes.count("machine.tlb_shootdowns", tlb.get("shootdowns", 0))
        pt = machine.topology_counters()
        probes.count(
            "machine.pt_walks",
            pt.get("pt_walks_socket", 0) + pt.get("pt_walks_global", 0),
        )
        probes.count("machine.pt_updates", pt.get("pt_updates", 0))
        probes.count(
            "machine.pt_replica_shootdowns", pt.get("pt_replica_shootdowns", 0)
        )

    def after_next(args, op) -> None:
        if op is not None:
            probes.count("workloads.ops")

    probes.method(RunSpec, "build", "sim.build_s", after=after_build)
    probes.method(Engine, "run", "sim.dispatch_s", after=after_run)
    probes.method(CThread, "next_op", "workloads.gen_s", after=after_next)
    probes.method(
        FaultHandler,
        "handle",
        "vm.fault_s",
        after=lambda args, frame: probes.count("vm.faults"),
    )


def install_analysis(probes: Probes) -> None:
    """Cache scan and report rendering (``analysis``)."""
    from repro.analysis.cachereport import CacheDataset
    from repro.analysis.repro_report import generate_cache_report

    probes.method(CacheDataset, "load", "analysis.cache_load_s")
    probes.function(generate_cache_report, "analysis.render_s")


def install_check(probes: Probes) -> None:
    """Parsing, guard inference, every lint rule (``check``)."""
    from repro.check import ALL_RULES, infer_guards, lint_paths

    probes.function(lint_paths, "check.lint_paths_s")
    probes.function(infer_guards, "check.guards_s")
    for rule in ALL_RULES:
        cls = type(rule)
        if "check" in cls.__dict__:
            probes.method(cls, "check", f"check.rule.{rule.id}_s", drain=True)
    probes._set(ast, "parse", probes._spanned(ast.parse, "check.parse_s"))
