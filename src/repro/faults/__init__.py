"""repro.faults — deterministic seeded fault injection.

The paper's premise is that mobile-code links are slow *and
unreliable*; this package makes the unreliability reproducible.  A
:class:`FaultPlan` is a pure-literal, seeded script of link
misbehaviour (cuts, corruption, drops, duplicates, stalls, jitter)
that plugs into :class:`repro.netserve.ClassFileServer`; the matching
lossy-link model for the cycle-exact simulator lives in
:func:`repro.transfer.lossy_link`.  The fetch client,
:class:`repro.netserve.NonStrictFetcher`, survives every injectable
fault on every link, whether it fetches over one endpoint or stripes
over several.
"""

from .injector import (
    ConnectionFaults,
    FaultInjector,
    FrameDirective,
    InjectedFault,
)
from .plan import FaultPlan
from .rng import derive_rng, derive_seed

__all__ = [
    "ConnectionFaults",
    "FaultInjector",
    "FaultPlan",
    "FrameDirective",
    "InjectedFault",
    "derive_rng",
    "derive_seed",
]
