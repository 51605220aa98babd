"""The declarative :class:`RunSpec`: one simulation, captured as data.

A spec pins everything that determines a run's simulated results —
workload (by registry name plus constructor parameters), policy and
move threshold, machine shape, processor/thread counts, fault profile
and seed, and the engine's fast-path switch — as a frozen, hashable
dataclass.  Because the simulator is deterministic, the spec *is* the
result's identity: :meth:`RunSpec.fingerprint` is a stable SHA-256 over
the spec's canonical JSON, the same in every process and on every
machine, which is what lets the on-disk
:class:`~repro.exp.cache.ResultCache` recognize work it has already
done and the :class:`~repro.exp.supervise.SupervisedRunner` marshal
specs to worker processes and results back without ambiguity.

A spec is pure data.  :meth:`RunSpec.build` resolves its registry
names and hands them to :func:`repro.sim.harness.build_simulation`, the
one wiring function every driver shares; :meth:`RunSpec.run` is
``build`` → :func:`~repro.sim.harness.run_engine` →
:func:`~repro.sim.harness.collect_result`.  Drivers that take in-memory
workload or policy instances (``run_once``, ``run_mix``, ``run_chaos``)
call ``build_simulation`` themselves rather than dressing the instances
up as a spec.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.core.policies import DEFAULT_MOVE_THRESHOLD
from repro.core.policies.registry import build_policy
from repro.core.policy import NUMAPolicy
from repro.errors import ConfigurationError
from repro.machine.config import MachineConfig, ace_config
from repro.sim import harness
from repro.sim.result import RunResult
from repro.workloads import TABLE_3_WORKLOADS
from repro.workloads.base import Workload

#: Version tag folded into every fingerprint.  Bump when a change to the
#: simulator alters what an identical spec would compute, so stale cache
#: entries (keyed by fingerprint) can never be returned for new code.
SPEC_SCHEMA = "repro-exp/v1"

#: Pair-tuple type for the frozen dict-like fields.
Pairs = Tuple[Tuple[str, object], ...]


def _freeze_pairs(value: Union[Pairs, Mapping[str, object]]) -> Pairs:
    """Normalize a mapping (or pair tuple) into a sorted pair tuple."""
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = tuple(value)
    return tuple(sorted((str(k), v) for k, v in items))


def resolve_workload(
    name: str, quick: bool = False, params: Pairs = ()
) -> Workload:
    """Build a workload instance from its registry name.

    ``params`` (constructor keyword arguments) take precedence; with no
    params, ``quick`` selects the scaled-down ``.small()`` instance,
    matching the CLI's ``--quick`` behaviour.  Lookup is
    case-insensitive, like the CLI's.
    """
    cls = None
    for known, factory in TABLE_3_WORKLOADS.items():
        if known.lower() == name.lower():
            cls = factory
            break
    if cls is None:
        raise ConfigurationError(
            f"unknown workload {name!r}; "
            f"choose from {', '.join(TABLE_3_WORKLOADS)}"
        )
    if params:
        return cls(**dict(params))
    if quick:
        return cls.small()
    return cls()


def resolve_policy(
    name: str, threshold: int, params: Pairs = ()
) -> NUMAPolicy:
    """Build a policy instance from its registry name.

    ``params`` are validated against the entry's schema; the spec's
    ``threshold`` fills a schema ``threshold`` parameter the params do
    not name, keeping the classic two-argument call parameterizing
    every threshold-taking policy.
    """
    return build_policy(name, threshold=threshold, params=dict(params))


@dataclass(frozen=True)
class RunSpec:
    """One simulation, captured declaratively.

    All fields are hashable primitives (mapping-shaped fields are stored
    as sorted pair tuples; passing a plain ``dict`` works and is
    normalized), so specs can be set members, dictionary keys, pickled
    to worker processes, and fingerprinted stably across processes.
    """

    #: Workload registry name (case-insensitive; see TABLE_3_WORKLOADS).
    workload: str
    #: Constructor keyword arguments for the workload, if not the default
    #: instance (e.g. ``{"limit": 20_000, "private_divisors": True}``).
    workload_params: Pairs = ()
    #: Use the scaled-down ``.small()`` instance (the CLI's ``--quick``).
    quick: bool = False
    #: Policy registry name (see
    #: :data:`repro.core.policies.registry.POLICY_ENTRIES`).
    policy: str = "move-threshold"
    #: Move threshold for policies that take one (the paper's boot-time
    #: parameter; ignored by the baselines).
    threshold: int = DEFAULT_MOVE_THRESHOLD
    #: Extra constructor parameters for the policy, validated against
    #: its registry schema (e.g. ``{"epsilon": 0.1, "seed": 7}`` for
    #: ``policy="bandit"``).  Values must be hashable JSON scalars.
    policy_params: Pairs = ()
    n_processors: int = 7
    #: Threads to run (None: one per processor).
    n_threads: Optional[int] = None
    #: :meth:`MachineConfig.scaled` overrides applied to the default
    #: ACE configuration (e.g. ``{"global_pages": 8192}``).
    machine: Pairs = ()
    #: Named machine from the topology registry
    #: (:data:`repro.machine.topology.MACHINE_REGISTRY`).  ``"ace"`` is
    #: the paper's flat machine; topology-bearing names pin their own
    #: processor count.  ``machine`` pair overrides apply on top.
    machine_name: str = "ace"
    #: Page-table placement on multi-level machines (``"centralized"``
    #: or ``"replicated"``); inert on the flat ACE.
    page_tables: str = "centralized"
    #: Named fault profile for chaos runs (None: no fault injection).
    fault_profile: Optional[str] = None
    #: Fault-plan RNG seed (meaningful only with a fault profile).
    fault_seed: int = 0
    #: Re-validate directory invariants after every protocol action.
    check_invariants: bool = True
    #: Engine software-TLB fast path (simulated results are identical
    #: either way).
    fast_path: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workload_params", _freeze_pairs(self.workload_params)
        )
        object.__setattr__(
            self, "policy_params", _freeze_pairs(self.policy_params)
        )
        object.__setattr__(self, "machine", _freeze_pairs(self.machine))

    # -- identity ------------------------------------------------------------

    def key(self) -> Dict[str, object]:
        """Canonical, JSON-friendly view of every field.

        ``machine_name``, ``page_tables`` and ``policy_params`` enter
        the key only when they differ from their defaults, so every
        fingerprint minted before the topology registry or the
        parameterized policy API existed is still the same spec —
        cached results stay valid without a schema bump.
        """
        key: Dict[str, object] = {
            "workload": self.workload,
            "workload_params": {k: v for k, v in self.workload_params},
            "quick": self.quick,
            "policy": self.policy,
            "threshold": self.threshold,
            "n_processors": self.n_processors,
            "n_threads": self.n_threads,
            "machine": {k: v for k, v in self.machine},
            "fault_profile": self.fault_profile,
            "fault_seed": self.fault_seed,
            "check_invariants": self.check_invariants,
            "fast_path": self.fast_path,
        }
        if self.policy_params:
            key["policy_params"] = {k: v for k, v in self.policy_params}
        if self.machine_name != "ace":
            key["machine_name"] = self.machine_name
        if self.page_tables != "centralized":
            key["page_tables"] = self.page_tables
        return key

    @classmethod
    def from_key(cls, data: Mapping[str, object]) -> "RunSpec":
        """Rebuild a spec from a :meth:`key` view (worker marshalling)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown RunSpec fields in key: {sorted(unknown)}"
            )
        return cls(**dict(data))

    def canonical_json(self) -> str:
        """Minified, key-sorted JSON of :meth:`key` — the hash input."""
        return json.dumps(self.key(), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        """Stable SHA-256 content address of this spec.

        Identical in every process and Python version (no reliance on
        ``hash()``), versioned by :data:`SPEC_SCHEMA` so a semantics
        change invalidates all previously cached results at once.
        """
        payload = f"{SPEC_SCHEMA}\n{self.canonical_json()}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable identity for progress lines."""
        policy = self.policy
        if self.policy_params:
            rendered = ",".join(f"{k}={v}" for k, v in self.policy_params)
            policy = f"{policy}({rendered})"
        elif policy == "move-threshold":
            policy = f"move-threshold({self.threshold})"
        parts = [self.workload, policy, f"{self.n_processors}p"]
        if self.machine_name != "ace":
            machine = self.machine_name
            if self.page_tables != "centralized":
                machine = f"{machine}:{self.page_tables}"
            parts.append(machine)
        if self.quick:
            parts.append("quick")
        if self.fault_profile is not None:
            parts.append(f"{self.fault_profile}#{self.fault_seed}")
        return "/".join(parts)

    # -- resolution ----------------------------------------------------------

    def resolve_workload(self) -> Workload:
        """Instantiate the spec's workload from the registry."""
        return resolve_workload(self.workload, self.quick, self.workload_params)

    def resolve_policy(self) -> NUMAPolicy:
        """Instantiate the spec's policy from the registry."""
        return resolve_policy(self.policy, self.threshold, self.policy_params)

    def resolve_machine_config(self) -> Optional[MachineConfig]:
        """The spec's machine, or None for the harness default ACE.

        A non-``ace`` :attr:`machine_name` resolves through the topology
        registry (which pins its own processor count); ``machine`` pair
        overrides and a non-default :attr:`page_tables` apply on top via
        :meth:`MachineConfig.scaled` either way.
        """
        overrides = dict(self.machine)
        if self.page_tables != "centralized":
            overrides["page_tables"] = self.page_tables
        if self.machine_name.lower() != "ace":
            from repro.machine.topology import resolve_machine

            config = resolve_machine(self.machine_name)
            return config.scaled(**overrides) if overrides else config
        if not overrides:
            return None
        return ace_config(self.n_processors, **overrides)

    def is_declarative(self) -> bool:
        """Whether the spec resolves from registries alone (cacheable)."""
        try:
            self.resolve_workload()
            self.resolve_policy()
            self.resolve_machine_config()
        except ConfigurationError:
            return False
        return True

    # -- execution -----------------------------------------------------------

    def build(self) -> harness.Simulation:
        """Wire the simulation this spec describes."""
        return harness.build_simulation(
            self.resolve_workload(),
            self.resolve_policy(),
            n_processors=self.n_processors,
            n_threads=self.n_threads,
            machine_config=self.resolve_machine_config(),
            check_invariants=self.check_invariants,
            fast_path=self.fast_path,
        )

    def run(self) -> RunResult:
        """Build, execute and collect one run."""
        sim = self.build()
        rounds = harness.run_engine(sim.engine, sim.threads)
        return harness.collect_result(sim, rounds)

    def execute(self) -> "Outcome":
        """Run the spec purely from its declarative fields.

        This is what cache misses and pool workers execute: the result
        depends on nothing but the spec.  Specs with a fault profile run
        under the chaos harness (sanitizer attached, recovery ledger
        collected) and yield a
        :class:`~repro.faults.chaos.ChaosReport`; plain specs yield a
        :class:`~repro.sim.result.RunResult`.
        """
        if self.fault_profile is not None:
            from repro.faults.chaos import run_chaos  # deferred: no cycle

            report = run_chaos(
                self.resolve_workload(),
                profile_name=self.fault_profile,
                seed=self.fault_seed,
                n_processors=self.n_processors,
                policy=self.resolve_policy(),
                machine_config=self.resolve_machine_config(),
            )
            return Outcome(chaos=report)
        return Outcome(result=self.run())


@dataclass(frozen=True)
class Outcome:
    """What executing one spec produced (exactly one side is set)."""

    result: Optional[RunResult] = None
    chaos: Optional["ChaosReport"] = field(default=None)  # noqa: F821

    @property
    def kind(self) -> str:
        """``"run"`` or ``"chaos"``."""
        return "chaos" if self.chaos is not None else "run"

    # Uniform metric accessors: the reporting layer derives tables from
    # mixed run/chaos caches, so the times every outcome has are exposed
    # without callers branching on :attr:`kind`.

    @property
    def user_time_us(self) -> float:
        """Total user time across processors, µs (either outcome kind)."""
        if self.result is not None:
            return self.result.user_time_us
        return self.chaos.user_time_us

    @property
    def system_time_us(self) -> float:
        """Total system time across processors, µs (either outcome kind)."""
        if self.result is not None:
            return self.result.system_time_us
        return self.chaos.system_time_us

    @property
    def elapsed_us(self) -> float:
        """User plus system time, µs — the report's elapsed metric."""
        return self.user_time_us + self.system_time_us

    @property
    def rounds(self) -> int:
        """Scheduling rounds the run took (either outcome kind)."""
        if self.result is not None:
            return self.result.rounds
        return self.chaos.rounds

    def as_dict(self) -> Dict[str, object]:
        """Deterministic JSON-friendly view (the cached payload)."""
        return {
            "kind": self.kind,
            "result": None if self.result is None else self.result.as_dict(),
            "chaos": None if self.chaos is None else self.chaos.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Outcome":
        """Rebuild an outcome from an :meth:`as_dict` view."""
        from repro.faults.chaos import ChaosReport  # deferred: no cycle

        result = data.get("result")
        chaos = data.get("chaos")
        return cls(
            result=None if result is None else RunResult.from_dict(result),
            chaos=None if chaos is None else ChaosReport.from_dict(chaos),
        )

    def to_json(self) -> str:
        """Canonical JSON (byte-identical for identical simulations)."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)
