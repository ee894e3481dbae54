"""repro.sched — the transfer controller and its scoreboard.

The paper's transfer methodologies (strict §7, parallel §5.1,
interleaved §5.2) are *in-order* within a stream and assume a single
network link.  This package generalises them with the classic
scoreboard structure: transfer units are instructions, network links
are functional units, and hazard edges (a method unit needs its
class's global data) are data dependences.  Units issue out of order
across any number of possibly heterogeneous links; a unit's observable
*arrival* is its retire time — after its hazards — so execution
semantics never weaken.  The greedy schedule's byte watermarks hold a
parallel stream grain back until enough bytes have arrived
(:class:`StreamGrain`, compared with
:data:`~repro.sched.striped.WATERMARK_SLOP`); they are not board
state.

Entry points:

* :class:`StripedController` — the co-simulator's only controller:
  one of :data:`POLICIES` over one or more links;
* :func:`run_striped` — multi-link twin of
  :func:`repro.core.run_nonstrict`;
* :class:`Scoreboard` — issue state and hazards of transfer units;
* :func:`unit_grain_scoreboard` — the one-grain-per-unit board with
  its retire hazards, shared by the simulator's unit-grain policies
  and the pull-mode fetch client
  (:class:`repro.netserve.NonStrictFetcher`);
* :class:`LinkOutage` — schedule a link death mid-stripe (chaos
  testing: the survivors re-issue the dead link's unlanded units).

One link is a degenerate stripe: there the ``"strict"``,
``"parallel"`` and ``"interleaved"`` policies issue whole streams
(:class:`StreamGrain`, built once per controller), so the link sees
exactly the paper methodology's request sequence.  Every run, on any
link count and recorded or not, takes the one co-simulation core in
:mod:`repro.core.fastsim` (bit-identical to the oracle loop kept with
the tests, event streams included).
"""

from __future__ import annotations

from .scoreboard import IssueItem, ItemState, Scoreboard, unit_grain_scoreboard
from .striped import (
    POLICIES,
    LinkOutage,
    StreamGrain,
    StripedController,
    run_striped,
)

__all__ = [
    "IssueItem",
    "ItemState",
    "LinkOutage",
    "POLICIES",
    "Scoreboard",
    "StreamGrain",
    "StripedController",
    "run_striped",
    "unit_grain_scoreboard",
]
