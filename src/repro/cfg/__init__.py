"""Control-flow analysis: basic blocks, CFGs, dominators, loops, calls."""

from .basic_blocks import BasicBlock, CallSite, partition_blocks
from .callgraph import CallEdge, CallGraph, build_call_graph
from .digraph import dominates, dominator_tree, reverse_postorder
from .digraph import shortest_paths, strongly_connected_components
from .facts import MethodFacts, ProgramFacts, method_facts, program_facts
from .graph import ControlFlowGraph, Edge, EdgeKind, build_cfg
from .graph import immediate_dominators
from .loops import LoopAnalysis, NaturalLoop, analyze_loops

__all__ = [
    "BasicBlock",
    "CallSite",
    "partition_blocks",
    "CallEdge",
    "CallGraph",
    "build_call_graph",
    "dominates",
    "dominator_tree",
    "immediate_dominators",
    "reverse_postorder",
    "shortest_paths",
    "strongly_connected_components",
    "MethodFacts",
    "ProgramFacts",
    "method_facts",
    "program_facts",
    "ControlFlowGraph",
    "Edge",
    "EdgeKind",
    "build_cfg",
    "LoopAnalysis",
    "NaturalLoop",
    "analyze_loops",
]
