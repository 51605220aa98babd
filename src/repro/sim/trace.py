"""Op traces: each thread's op stream, generated once and replayed.

A run's op streams depend only on what reaches ``Workload.build`` (the
:meth:`~repro.exp.spec.RunSpec.trace_key`), never on placement: which
threads the engine pulls from depends only on the kinds of ops already
pulled.  So a run can replay the streams an earlier run of its key
recorded instead of re-running the workload's generators (DESIGN.md §16).

An :class:`OpTrace` is dictionary-encoded: the run's distinct encoded
ops (:func:`repro.sim.ops.encode`) as typed-array columns — opcode, int
operand (vpage or side-table index), reads, writes, float operand — with
barrier names, Syscalls and freed objects' region names in a side table,
and per thread an array of row indices.  Replay maps each index array
over the rebuilt rows: one C-level lookup per op.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple,
)

from repro.errors import SimulationError
from repro.sim.ops import COMPUTE, FREE, MEM, EncodedOp, encode
from repro.threads.cthreads import CThread

if TYPE_CHECKING:
    from repro.sim.harness import Simulation


@dataclass(frozen=True)
class OpTrace:
    """Every thread's op stream for one trace key (see module docs)."""

    codes: array
    ints: array
    reads: array
    writes: array
    floats: array
    payloads: Tuple[object, ...]
    threads: Tuple[array, ...]

    def replay(self, sim: "Simulation") -> None:
        """Run *sim*'s threads on this trace instead of their generators.

        The workload's build still laid out *sim*'s memory; freed VM
        objects are re-bound to it by region name.
        """
        if len(sim.threads) != len(self.threads):
            raise SimulationError(
                f"op trace holds {len(self.threads)} thread streams but "
                f"the workload built {len(sim.threads)} threads"
            )
        regions = sim.context.regions
        rows: List[EncodedOp] = []
        for code, value, reads, writes, us in zip(
            self.codes, self.ints, self.reads, self.writes, self.floats
        ):
            if code == MEM:
                rows.append((MEM, value, reads, writes))
            elif code == COMPUTE:
                rows.append((COMPUTE, us, 0, 0))
            else:
                payload = self.payloads[value]
                if code == FREE:
                    payload = regions[payload].vm_object
                rows.append((code, payload, 0, 0))
        for thread, indices in zip(sim.threads, self.threads):
            thread.stream = map(rows.__getitem__, indices)


class TraceRecorder:
    """Records *sim*'s threads' encoded ops as the engine pulls them."""

    def __init__(self, sim: "Simulation") -> None:
        self._names = {
            id(r.vm_object): name for name, r in sim.context.regions.items()
        }
        self._rows: Dict[EncodedOp, int] = {}
        self._threads: List[array] = []
        self._replayable = True
        for thread in sim.threads:
            thread.stream = self._record(thread)

    def _record(self, thread: CThread) -> Iterator[EncodedOp]:
        indices = array("I")
        self._threads.append(indices)
        rows = self._rows
        next_op = thread.next_op
        while (op := next_op()) is not None:
            encoded = encode(op)
            key = encoded
            if encoded[0] == FREE:  # VM objects are recorded by region
                name = self._names.get(id(encoded[1]))
                self._replayable &= name is not None
                key = (FREE, name or f"unmapped {id(encoded[1])}", 0, 0)
            row = rows.get(key)
            if row is None:
                row = rows[key] = len(rows)
            indices.append(row)
            yield encoded

    def trace(self) -> Optional[OpTrace]:
        """The recorded streams; None if an op freed an unmapped object."""
        if not self._replayable:
            return None
        columns = [array(t) for t in "Bqqqd"]
        payloads: List[object] = []
        for code, operand, reads, writes in self._rows:
            if code == MEM:
                row = (code, operand, reads, writes, 0.0)
            elif code == COMPUTE:
                row = (code, 0, 0, 0, operand)
            else:
                row = (code, len(payloads), 0, 0, 0.0)
                payloads.append(operand)
            for column, value in zip(columns, row):
                column.append(value)
        return OpTrace(*columns, tuple(payloads), tuple(self._threads))


class TraceStore:
    """The op traces one batch keeps, by trace key.

    Given *pending* — the key of every spec the batch has yet to run —
    it keeps a trace exactly while a pending spec has its key (the
    serial runner).  Without, it keeps only its most recent trace (a
    pool worker).  Only completed runs :meth:`add` their trace.
    """

    def __init__(self, pending: Optional[Iterable[Hashable]] = None) -> None:
        self._traces: Dict[Hashable, OpTrace] = {}
        self._pending = None if pending is None else Counter(
            key for key in pending if key is not None
        )

    def __len__(self) -> int:
        return len(self._traces)

    def get(self, key: Optional[Hashable]) -> Optional[OpTrace]:
        """The stored trace for *key*, if any."""
        return None if key is None else self._traces.get(key)

    def wants(self, key: Optional[Hashable]) -> bool:
        """Whether a live run of *key* should record its trace."""
        if key is None or key in self._traces:
            return False
        return self._pending is None or self._pending[key] > 1

    def add(self, key: Hashable, trace: Optional[OpTrace]) -> None:
        """Keep *trace*, recorded by a completed run of *key*."""
        if trace is not None and self.wants(key):
            if self._pending is None:
                self._traces.clear()
            self._traces[key] = trace

    def done(self, key: Optional[Hashable]) -> None:
        """A spec of *key* finished for good; drop the trace if unneeded."""
        if self._pending is not None and key is not None:
            self._pending[key] -= 1
            if self._pending[key] <= 0:
                del self._pending[key]
                self._traces.pop(key, None)
