"""Profile-guided first-use ordering (paper §4.2).

A first-use profile records the order in which procedures were invoked
while running a *training* input.  Methods never executed by the
training input are placed after all profiled methods, in the static
estimator's order — exactly the paper's fallback rule.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ReorderError
from ..program import MethodId, Program
from ..vm import FirstUseProfile, TraceRecorder, VirtualMachine
from .first_use import FirstUseEntry, FirstUseOrder, laid_out_entries
from .static_estimator import estimate_first_use

__all__ = ["order_from_profile", "profile_program", "profile_first_use"]


def profile_program(
    program: Program,
    entry: Optional[MethodId] = None,
    args=(),
    max_instructions: int = 50_000_000,
) -> FirstUseProfile:
    """Run ``program`` under the profiler and return its profile."""
    recorder = TraceRecorder()
    machine = VirtualMachine(
        program,
        instruments=[recorder],
        max_instructions=max_instructions,
    )
    machine.run(entry=entry, args=args)
    return recorder.profile


def order_from_profile(
    program: Program,
    profile: FirstUseProfile,
    static_order: Optional[FirstUseOrder] = None,
) -> FirstUseOrder:
    """Build a total first-use order from a training profile.

    Args:
        program: The program being reordered.
        profile: A first-use profile (typically from the *train* input).
        static_order: Fallback order for unexecuted methods; computed
            from ``program`` when not supplied.

    Raises:
        ReorderError: If the profile mentions methods the program lacks.
    """
    # One index per call: Program.has_method would scan every class for
    # each event.
    defined = set(program.method_ids())
    for event in profile.events:
        if event.method not in defined:
            raise ReorderError(
                f"profile mentions unknown method {event.method}"
            )
    entries: List[FirstUseEntry] = [
        FirstUseEntry(
            method=event.method,
            bytes_before=event.unique_bytes_before,
            estimated=False,
        )
        for event in profile.events
    ]
    profiled = {event.method for event in profile.events}
    # Every profiled method's first use happens before the program ends,
    # so unexecuted methods sort after the total executed unique bytes.
    executed_bytes = sum(
        stats.unique_bytes for stats in profile.method_stats.values()
    )
    fallback = static_order or estimate_first_use(program)
    entries += laid_out_entries(
        program,
        [method for method in fallback.order if method not in profiled],
        bytes_before=executed_bytes,
    )
    order = FirstUseOrder(entries=entries, source="profile")
    order.validate_against(program)
    return order


def profile_first_use(
    program: Program,
    entry: Optional[MethodId] = None,
    args=(),
) -> FirstUseOrder:
    """Profile ``program`` and derive its first-use order in one step."""
    profile = profile_program(program, entry=entry, args=args)
    return order_from_profile(program, profile)
