"""repro.sched — the transfer controller and its scoreboard issue engine.

The paper's transfer methodologies (strict §7, parallel §5.1,
interleaved §5.2) are *in-order* within a stream and assume a single
network link.  This package generalises them with the classic
scoreboard structure: transfer units are instructions, network links
are functional units, and hazard edges (a method unit needs its
class's global data; the greedy schedule's byte watermarks gate
starts) are data dependences.  Units issue out of order across any
number of possibly heterogeneous links; a unit's observable *arrival*
is its retire time — after its hazards — so execution semantics never
weaken.

Entry points:

* :class:`StripedController` — the co-simulator's only controller:
  one of :data:`POLICIES` over one or more links;
* :func:`run_striped` — multi-link twin of
  :func:`repro.core.run_nonstrict`;
* :class:`IssueEngine` / :class:`Scoreboard` — the engine room;
* :class:`LinkOutage` — schedule a link death mid-stripe (chaos
  testing: the survivors re-issue the dead link's unlanded units).

One link is a degenerate stripe: there the ``"strict"``,
``"parallel"`` and ``"interleaved"`` policies issue whole streams,
so the link's stream engine sees exactly the paper methodology's
request sequence, and their unrecorded runs take the batched cores
in :mod:`repro.core.fastsim` (bit-identical to the reference loop,
property-tested across all six paper workloads).
"""

from __future__ import annotations

from .engine import IssueEngine, LinkChannel, LinkOutage
from .scoreboard import IssueItem, ItemState, Scoreboard
from .striped import (
    POLICIES,
    StripedController,
    StripedEntry,
    run_striped,
    striped_sequence,
)

__all__ = [
    "IssueEngine",
    "IssueItem",
    "ItemState",
    "LinkChannel",
    "LinkOutage",
    "POLICIES",
    "Scoreboard",
    "StripedController",
    "StripedEntry",
    "run_striped",
    "striped_sequence",
]
