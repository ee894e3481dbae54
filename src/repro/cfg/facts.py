"""Per-method control-flow facts, built once and passed on explicitly.

A whole-program entry point calls :func:`program_facts` once and hands
each method's CFG and loop nest to every later phase, as a compiler
hands each IR to the phases after it; nothing is cached.  A failed CFG
keeps its :class:`~repro.errors.CFGError` for each consumer to raise or
report.  Consumers check that facts were built from the very
instruction list they analyze, so stale facts fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bytecode import Instruction
from ..classfile import MethodInfo
from ..errors import CFGError
from ..program import MethodId, Program
from .graph import ControlFlowGraph, build_cfg
from .loops import LoopAnalysis, analyze_loops

__all__ = ["MethodFacts", "ProgramFacts", "method_facts", "program_facts"]


@dataclass(frozen=True)
class MethodFacts:
    """One method's CFG and loops, or the error that stopped the CFG."""

    method: MethodId
    code: List[Instruction]
    cfg: Optional[ControlFlowGraph]
    loops: Optional[LoopAnalysis]
    error: Optional[CFGError]

    def check(self, method_id: MethodId, method: MethodInfo) -> None:
        """Raise :class:`CFGError` unless built from ``method``'s code."""
        if self.method != method_id or self.code is not method.instructions:
            raise CFGError(
                f"facts of {self.method} passed for the code of {method_id}"
            )

    def require(self) -> Tuple[ControlFlowGraph, LoopAnalysis]:
        """``(cfg, loops)``; raises the stored error, naming the method."""
        if self.cfg is None or self.loops is None:
            raise CFGError(f"{self.method}: {self.error}")
        return self.cfg, self.loops


@dataclass(frozen=True)
class ProgramFacts:
    """:class:`MethodFacts` per method, in program order."""

    methods: Dict[MethodId, MethodFacts]

    def of(self, method_id: MethodId, method: MethodInfo) -> MethodFacts:
        """``method``'s facts, checked to describe its code."""
        facts = self.methods.get(method_id)
        if facts is None:
            raise CFGError(f"no facts were built for {method_id}")
        facts.check(method_id, method)
        return facts

    def failures(self, program: Program) -> List[MethodFacts]:
        """Checked facts of ``program``'s methods whose CFG failed."""
        checked = [
            self.of(method_id, method)
            for method_id, method in program.methods()
        ]
        return [facts for facts in checked if facts.error is not None]


def method_facts(method_id: MethodId, method: MethodInfo) -> MethodFacts:
    """Build one method's facts; a failed CFG is kept, never raised."""
    try:
        cfg = build_cfg(method.instructions)
    except CFGError as error:
        return MethodFacts(method_id, method.instructions, None, None, error)
    loops = analyze_loops(cfg)
    return MethodFacts(method_id, method.instructions, cfg, loops, None)


def program_facts(program: Program) -> ProgramFacts:
    """Build every method's facts, in program order."""
    return ProgramFacts(
        {
            method_id: method_facts(method_id, method)
            for method_id, method in program.methods()
        }
    )
