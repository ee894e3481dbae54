"""repro.analyze — whole-program static analysis for non-strict transfer.

Three layers, each usable on its own:

* :mod:`~repro.analyze.dataflow` — an abstract-interpretation engine
  over :mod:`repro.bytecode`: a typed operand-stack/locals lattice with
  fixpoint iteration over basic blocks, upgrading verification from
  depth-only to full type checking and exposing per-instruction
  abstract states (:func:`analyze_method`);
* :mod:`~repro.analyze.transferplan` — stall/misprediction/deadlock
  proofs for a restructured program plus a parallel or interleaved
  schedule (:func:`analyze_transfer_plan`), cross-checked against the
  cycle-exact simulator;
* :mod:`~repro.analyze.lint` + :mod:`~repro.analyze.sarif` — a typed
  rule registry with JSON and SARIF 2.1.0 exporters behind the
  ``repro-inspect lint`` CLI.

Like :mod:`repro.observe`, every export resolves lazily (PEP 562) so
``import repro`` stays light.
"""

from __future__ import annotations

import importlib
from typing import Dict

_EXPORTS: Dict[str, str] = {
    # domain
    "AbstractState": "domain",
    "ValType": "domain",
    "join_types": "domain",
    "merge_states": "domain",
    # dataflow
    "DataflowIssue": "dataflow",
    "MethodDataflow": "dataflow",
    "analyze_method": "dataflow",
    "analyze_program": "dataflow",
    # workmodel
    "FirstUseLowerBounds": "workmodel",
    "first_use_lower_bounds": "workmodel",
    # interproc
    "BranchModel": "interproc",
    "InterprocAnalysis": "interproc",
    "MethodSummary": "interproc",
    "PruneResult": "interproc",
    "ResolvedCallSite": "interproc",
    "analyze_interproc": "interproc",
    "branch_probabilities": "interproc",
    "block_frequencies": "interproc",
    "prune_dead_methods": "interproc",
    # transferplan
    "DeadlockFinding": "transferplan",
    "MethodVerdict": "transferplan",
    "ScheduleHealth": "transferplan",
    "StallVerdict": "transferplan",
    "TransferPlanReport": "transferplan",
    "analyze_schedule": "transferplan",
    "analyze_transfer_plan": "transferplan",
    # lint
    "Finding": "lint",
    "LintContext": "lint",
    "LintReport": "lint",
    "LintRule": "lint",
    "Severity": "lint",
    "Span": "lint",
    "all_rules": "lint",
    "register_rule": "lint",
    "run_lint": "lint",
    # sarif
    "SARIF_SCHEMA_URI": "sarif",
    "SARIF_VERSION": "sarif",
    "sarif_dumps": "sarif",
    "to_json": "sarif",
    "to_sarif": "sarif",
    "validate_sarif": "sarif",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
