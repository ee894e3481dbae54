"""Execution traces and first-use profiles.

A :class:`TraceRecorder` instrument captures, in one VM run:

* the **execution trace** — maximal per-method instruction runs between
  control transfers, which the co-simulator replays against a transfer
  timeline;
* the **first-use profile** (paper §4.2) — the order in which methods
  are first invoked, and for each first use the *unique bytes* executed
  before it (the quantity the parallel transfer scheduler accumulates);
* per-method dynamic statistics (invocations, instructions, unique
  code bytes touched).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..bytecode import Instruction
from ..program import MethodId, Program
from .frame import Frame
from .instrument import Instrument

__all__ = [
    "TraceSegment",
    "ExecutionTrace",
    "MethodProfile",
    "FirstUseEvent",
    "FirstUseProfile",
    "TraceRecorder",
    "synthesize_profile",
    "merge_profiles",
]


@dataclass(frozen=True)
class TraceSegment:
    """A run of ``instructions`` dynamic instructions inside one method."""

    method: MethodId
    instructions: int


@dataclass
class ExecutionTrace:
    """Replayable execution history: ordered per-method segments."""

    segments: List[TraceSegment] = field(default_factory=list)

    @property
    def total_instructions(self) -> int:
        return sum(segment.instructions for segment in self.segments)

    def first_use_order(self) -> List[MethodId]:
        seen: Set[MethodId] = set()
        order: List[MethodId] = []
        for segment in self.segments:
            if segment.method not in seen:
                seen.add(segment.method)
                order.append(segment.method)
        return order

    def methods_used(self) -> Set[MethodId]:
        return {segment.method for segment in self.segments}

    def __len__(self) -> int:
        return len(self.segments)


@dataclass
class MethodProfile:
    """Dynamic statistics for one method."""

    invocations: int = 0
    dynamic_instructions: int = 0
    unique_bytes: int = 0


@dataclass(frozen=True)
class FirstUseEvent:
    """One method's first invocation.

    Attributes:
        method: The method first used.
        index: Position in the first-use order (0 = entry).
        dynamic_instructions_before: Instructions executed up to (not
            including) this first use.
        unique_bytes_before: Bytes of *distinct* instructions executed
            before this first use — the paper's "unique bytes" that the
            profile-guided transfer schedule accumulates (§5.1).
    """

    method: MethodId
    index: int
    dynamic_instructions_before: int
    unique_bytes_before: int


@dataclass
class FirstUseProfile:
    """A complete first-use profile from one (or more) training runs."""

    events: List[FirstUseEvent] = field(default_factory=list)
    method_stats: Dict[MethodId, MethodProfile] = field(
        default_factory=dict
    )
    total_instructions: int = 0

    @property
    def order(self) -> List[MethodId]:
        return [event.method for event in self.events]

    def event_for(self, method_id: MethodId) -> Optional[FirstUseEvent]:
        for event in self.events:
            if event.method == method_id:
                return event
        return None

    def was_executed(self, method_id: MethodId) -> bool:
        return method_id in self.method_stats


class TraceRecorder(Instrument):
    """Records the trace and first-use profile of a VM run.

    Attach to a VM, run it, then read :attr:`trace` and
    :attr:`profile`.
    """

    def __init__(self) -> None:
        self.trace = ExecutionTrace()
        self.profile = FirstUseProfile()
        self._segment_method: Optional[MethodId] = None
        self._segment_count = 0
        self._method_stack: List[MethodId] = []
        self._seen_sites: Set[Tuple[MethodId, int]] = set()
        self._unique_bytes = 0
        self._instructions = 0

    # -- segment management ----------------------------------------------

    def _flush_segment(self) -> None:
        if self._segment_method is not None and self._segment_count > 0:
            self.trace.segments.append(
                TraceSegment(self._segment_method, self._segment_count)
            )
        self._segment_count = 0

    def _start_segment(self, method_id: Optional[MethodId]) -> None:
        self._segment_method = method_id
        self._segment_count = 0

    # -- hooks ------------------------------------------------------------

    def on_method_entry(self, method_id: MethodId, frame: Frame) -> None:
        self._flush_segment()
        stats = self.profile.method_stats.setdefault(
            method_id, MethodProfile()
        )
        if stats.invocations == 0:
            self.profile.events.append(
                FirstUseEvent(
                    method=method_id,
                    index=len(self.profile.events),
                    dynamic_instructions_before=self._instructions,
                    unique_bytes_before=self._unique_bytes,
                )
            )
        stats.invocations += 1
        self._method_stack.append(method_id)
        self._start_segment(method_id)

    def on_method_exit(self, method_id: MethodId) -> None:
        self._flush_segment()
        if self._method_stack:
            self._method_stack.pop()
        caller = self._method_stack[-1] if self._method_stack else None
        self._start_segment(caller)

    def on_instruction(
        self, method_id: MethodId, instruction: Instruction, offset: int
    ) -> None:
        self._instructions += 1
        self._segment_count += 1
        stats = self.profile.method_stats[method_id]
        stats.dynamic_instructions += 1
        site = (method_id, offset)
        if site not in self._seen_sites:
            self._seen_sites.add(site)
            stats.unique_bytes += instruction.size
            self._unique_bytes += instruction.size

    def on_halt(self) -> None:
        self._flush_segment()
        self.profile.total_instructions = self._instructions


def synthesize_profile(program: Program, trace: ExecutionTrace) -> FirstUseProfile:
    """Build a :class:`FirstUseProfile` by replaying a trace.

    Used when a trace was produced by something other than the VM (the
    synthetic workload generator): first-use order and
    instructions-before come directly from the segments; unique bytes
    are approximated by each method's static code size, saturated by
    the instructions it actually executed (a method that ran at least
    its own length is assumed fully covered — the common case the
    paper's own accounting reflects).
    """
    profile = FirstUseProfile()
    instructions = 0
    unique_bytes = 0
    code_bytes: Dict[MethodId, int] = {}
    static_instructions: Dict[MethodId, int] = {}
    # One index per call: Program.method would scan every class for
    # each newly seen method.
    methods_by_id = dict(program.methods())
    for segment in trace.segments:
        method = segment.method
        if method not in code_bytes:
            info = methods_by_id.get(method)
            if info is None:
                info = program.method(method)  # raises the lookup error
            code_bytes[method] = info.code_bytes
            static_instructions[method] = max(1, len(info.instructions))
        stats = profile.method_stats.get(method)
        if stats is None:
            profile.events.append(
                FirstUseEvent(
                    method=method,
                    index=len(profile.events),
                    dynamic_instructions_before=instructions,
                    unique_bytes_before=unique_bytes,
                )
            )
            stats = MethodProfile()
            profile.method_stats[method] = stats
            stats.invocations = 1
        previously_covered = min(
            1.0,
            stats.dynamic_instructions / static_instructions[method],
        )
        stats.dynamic_instructions += segment.instructions
        now_covered = min(
            1.0,
            stats.dynamic_instructions / static_instructions[method],
        )
        gained = int(
            (now_covered - previously_covered) * code_bytes[method]
        )
        stats.unique_bytes += gained
        unique_bytes += gained
        instructions += segment.instructions
    profile.total_instructions = instructions
    return profile


def merge_profiles(profiles: List[FirstUseProfile]) -> FirstUseProfile:
    """Combine profiles from several training inputs (paper §4.2).

    "Since a program's execution path may be input dependent, we
    attempt to choose adequate sets of inputs" — merging realizes that:
    a method's merged first-use position is its average *fractional*
    position across the runs that executed it (methods seen by more
    inputs and seen earlier sort first), and its statistics accumulate.
    The merged events' instruction/byte counters are per-method means,
    re-monotonized so downstream consumers can rely on ordering.
    """
    if not profiles:
        raise ValueError("merge_profiles needs at least one profile")
    if len(profiles) == 1:
        return profiles[0]

    positions: Dict[MethodId, List[float]] = {}
    instructions_before: Dict[MethodId, List[int]] = {}
    bytes_before: Dict[MethodId, List[int]] = {}
    for profile in profiles:
        span = max(1, len(profile.events))
        for event in profile.events:
            positions.setdefault(event.method, []).append(
                event.index / span
            )
            instructions_before.setdefault(event.method, []).append(
                event.dynamic_instructions_before
            )
            bytes_before.setdefault(event.method, []).append(
                event.unique_bytes_before
            )

    def sort_key(method: MethodId):
        samples = positions[method]
        coverage = len(samples) / len(profiles)
        mean_position = sum(samples) / len(samples)
        # Methods most inputs executed come first; ties by position.
        return (-coverage, mean_position)

    merged = FirstUseProfile()
    running_instructions = 0
    running_bytes = 0
    for index, method in enumerate(sorted(positions, key=sort_key)):
        mean_instructions = int(
            sum(instructions_before[method])
            / len(instructions_before[method])
        )
        mean_bytes = int(
            sum(bytes_before[method]) / len(bytes_before[method])
        )
        running_instructions = max(
            running_instructions, mean_instructions
        )
        running_bytes = max(running_bytes, mean_bytes)
        merged.events.append(
            FirstUseEvent(
                method=method,
                index=index,
                dynamic_instructions_before=running_instructions,
                unique_bytes_before=running_bytes,
            )
        )
    for profile in profiles:
        for method, stats in profile.method_stats.items():
            merged_stats = merged.method_stats.setdefault(
                method, MethodProfile()
            )
            merged_stats.invocations += stats.invocations
            merged_stats.dynamic_instructions += (
                stats.dynamic_instructions
            )
            merged_stats.unique_bytes = max(
                merged_stats.unique_bytes, stats.unique_bytes
            )
        merged.total_instructions += profile.total_instructions
    return merged
