"""Baseline metrics: strict totals and invocation latencies.

Reproduces the paper's accounting conventions exactly:

* **Strict total** (Table 3): total transfer cycles plus total
  execution cycles — strict execution gets no overlap credit, so the
  base is the arithmetic sum.
* **Invocation latency** (Table 4): strict = the first class file's
  full transfer time; non-strict = the transfer time of the entry
  class's global data plus its first procedure; with data partitioning
  the global data shrinks to the needed-first chunk plus the entry
  method's GMD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..classfile import class_layout
from ..errors import SimulationError
from ..program import MethodId, Program
from ..transfer import (
    NetworkLink,
    TransferPolicy,
    build_class_plan,
)
from ..vm import ExecutionTrace

__all__ = [
    "StrictBaseline",
    "strict_baseline",
    "invocation_latency_cycles",
    "MethodInvocationLatency",
    "InvocationLatencyReport",
]


@dataclass(frozen=True)
class StrictBaseline:
    """The paper's Table 3 row for one program/link pair.

    Attributes:
        execution_cycles: Instructions × CPI.
        transfer_cycles: Full program transfer at link bandwidth.
        total_cycles: Their sum (the normalization denominator).
    """

    execution_cycles: float
    transfer_cycles: float
    total_cycles: float

    @property
    def percent_transfer(self) -> float:
        """Percent of strict execution time due to transfer."""
        return 100.0 * self.transfer_cycles / self.total_cycles


def program_wire_bytes(program: Program) -> int:
    """Strict wire size of the whole program."""
    return sum(
        class_layout(classfile).strict_size
        for classfile in program.classes
    )


def strict_baseline(
    program: Program,
    trace: ExecutionTrace,
    link: NetworkLink,
    cpi: float,
) -> StrictBaseline:
    """Compute the strict base case (Table 3's accounting)."""
    if not (math.isfinite(cpi) and cpi > 0):
        raise SimulationError(f"CPI must be finite and positive, got {cpi}")
    execution = trace.total_instructions * float(cpi)
    transfer = link.transfer_cycles(program_wire_bytes(program))
    return StrictBaseline(
        execution_cycles=execution,
        transfer_cycles=transfer,
        total_cycles=execution + transfer,
    )


@dataclass(frozen=True)
class MethodInvocationLatency:
    """Latency of one method's *first* invocation.

    Attributes:
        method: The method.
        latency: Time from session start until the method could begin
            executing, in the report's unit.
        demand_fetched: True when a first-use misprediction forced a
            demand fetch before this method could run.
    """

    method: MethodId
    latency: float
    demand_fetched: bool = False


@dataclass
class InvocationLatencyReport:
    """Per-method first-invocation latencies for one run.

    Both the cycle-exact simulator and the real network bridge populate
    this structure; ``unit`` says which clock was used (``"cycles"`` or
    ``"seconds"``), so the two can be printed side by side.

    :meth:`record` is the one way in.  Entries are indexed by method,
    so :meth:`record`, :meth:`latency_for` and ``in`` are O(1); the
    index takes no part in equality or ``repr``.
    """

    unit: str = "cycles"
    entries: List[MethodInvocationLatency] = field(default_factory=list)
    _by_method: Dict[MethodId, MethodInvocationLatency] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        given, self.entries = self.entries, []
        self._by_method = {}
        for entry in given:
            self.record(entry.method, entry.latency, entry.demand_fetched)

    def record(
        self,
        method: MethodId,
        latency: float,
        demand_fetched: bool = False,
    ) -> None:
        """Add one method's first-invocation latency.

        Raises:
            SimulationError: If ``method`` already has one.
        """
        if method in self._by_method:
            raise SimulationError(
                f"duplicate first-invocation latency for {method}"
            )
        entry = MethodInvocationLatency(
            method=method,
            latency=latency,
            demand_fetched=demand_fetched,
        )
        self._by_method[method] = entry
        self.entries.append(entry)

    def latency_for(self, method: MethodId) -> float:
        entry = self._by_method.get(method)
        if entry is None:
            raise SimulationError(f"no latency recorded for {method}")
        return entry.latency

    def methods(self) -> List[MethodId]:
        return [entry.method for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, method: MethodId) -> bool:
        return method in self._by_method


def invocation_latency_cycles(
    program: Program,
    link: NetworkLink,
    policy: TransferPolicy = TransferPolicy.STRICT,
    entry: Optional[MethodId] = None,
) -> float:
    """Cycles from invocation until the entry method may execute.

    Matches Table 4's three columns: pass
    :data:`~repro.transfer.TransferPolicy.STRICT`,
    ``NON_STRICT``, or ``DATA_PARTITIONED``.  The entry class is
    assumed to get the full bandwidth (nothing else is useful before
    execution begins).

    Note:
        For the non-strict policies, the program should already be
        restructured so the entry method leads its class file;
        otherwise the latency honestly includes the earlier methods'
        units, exactly as a real mis-laid-out class file would.
    """
    entry_id = entry or program.resolve_entry()
    entry_class = program.class_named(entry_id.class_name)
    plan = build_class_plan(entry_class, policy)
    if policy == TransferPolicy.STRICT:
        needed = plan.total_bytes
    else:
        needed = plan.prefix_bytes_through(entry_id.method_name)
    return link.transfer_cycles(needed)
