"""Shared immutable session artifacts for fleet-scale serving.

Restructuring a program, building its transfer plans, materializing
payload bytes, and encoding UNIT frames and the ack's manifest rows is
identical work for every connection that negotiates the same
``(program, policy, strategy)`` triple.  :class:`ArtifactCache` does
that work once and shares the immutable result — a
:class:`SessionArtifact` — across all concurrent and future
connections, so a thousand-client fleet pays the planning cost
O(distinct configurations) instead of O(connections).

The cache is a size-bounded LRU.  Every lookup bumps a hit or miss
counter in its :class:`~repro.observe.MetricsRegistry` and every
eviction an eviction counter, with ``netserve_cache_entries`` /
``netserve_cache_bytes`` gauges tracking occupancy, so fleet runs can
prove their hit rate from the same metrics pipeline as everything else.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Tuple

from ..classfile import serialize
from ..observe.metrics import MetricsRegistry
from ..program import Program
from ..transfer import TransferUnit
from .protocol import UnitKey

__all__ = [
    "ArtifactKey",
    "SessionArtifact",
    "ArtifactCache",
    "program_fingerprint",
]

#: Cache key: (program fingerprint, transfer policy, reorder strategy).
ArtifactKey = Tuple[str, str, str]


def program_fingerprint(program: Program) -> str:
    """Stable content identity for a program's served classes.

    Hashes every class's canonical wire image plus the entry point, so
    two servers holding byte-identical programs share cache entries
    while any code change produces a different key.
    """
    digest = hashlib.sha256()
    for classfile in program.classes:
        digest.update(classfile.name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(serialize(classfile))
    digest.update(str(program.entry_point).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class SessionArtifact:
    """Everything one negotiated configuration needs, precomputed.

    Attributes:
        sequence: The full unit send order for the configuration.
        payloads: Payload bytes per unit (exactly ``unit.size`` each).
        frames: Pre-encoded ``UNIT`` wire frames per unit — what the
            send loop actually writes, so steady-state serving does no
            per-connection encoding at all.
        units: Every unit by its wire key, in ``sequence`` order — the
            one index the server resolves a client's keys in (RESUME's
            ``have``, DEMAND_FETCH's ``units``) and derives manifest
            rows from.
        manifest: The ``HELLO_ACK`` manifest rows over ``units``,
            JSON-encoded once (:func:`~.protocol.encode_manifest`); each
            session's ack wraps its own fields around them
            (:func:`~.protocol.encode_ack`).
        strategy: The *resolved* reorder strategy (after any
            profile-to-static fallback), echoed in acks.
        total_bytes: Sum of unit sizes (the ack's ``total_bytes``).
        wire_bytes: Sum of encoded frame sizes; what this entry
            charges against the cache's byte budget.
    """

    sequence: Tuple[TransferUnit, ...]
    payloads: Mapping[TransferUnit, bytes]
    frames: Mapping[TransferUnit, bytes]
    units: Mapping[UnitKey, TransferUnit]
    manifest: bytes
    strategy: str
    total_bytes: int
    wire_bytes: int


class ArtifactCache:
    """Size-bounded LRU over :class:`SessionArtifact` values.

    Args:
        max_entries: Upper bound on cached configurations.
        max_bytes: Optional upper bound on the sum of cached
            ``wire_bytes``.  The most recently used entry is never
            evicted, so a single oversized artifact still serves.
        metrics: Registry receiving the hit/miss/eviction counters and
            occupancy gauges; a private one is created when omitted.
    """

    def __init__(
        self,
        max_entries: int = 64,
        max_bytes: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1: {max_entries}"
            )
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._entries: "OrderedDict[ArtifactKey, SessionArtifact]" = (
            OrderedDict()
        )
        self._bytes = 0

    # -- metrics views ------------------------------------------------------

    @property
    def hits(self) -> int:
        return int(self.metrics.counter("netserve_cache_hits").value)

    @property
    def misses(self) -> int:
        return int(self.metrics.counter("netserve_cache_misses").value)

    @property
    def evictions(self) -> int:
        return int(
            self.metrics.counter("netserve_cache_evictions").value
        )

    @property
    def hit_rate(self) -> float:
        """Hits over lookups so far (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    @property
    def cached_bytes(self) -> int:
        return self._bytes

    def keys(self) -> List[ArtifactKey]:
        """Cached keys, least recently used first."""
        return list(self._entries)

    # -- core ---------------------------------------------------------------

    def get_or_build(
        self,
        key: ArtifactKey,
        builder: Callable[[], SessionArtifact],
    ) -> SessionArtifact:
        """Return the cached artifact for ``key``, building on miss.

        A hit refreshes the entry's recency; a miss runs ``builder``,
        stores the result, and evicts least-recently-used entries until
        both bounds hold again.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.metrics.counter("netserve_cache_hits").inc()
            return entry
        self.metrics.counter("netserve_cache_misses").inc()
        artifact = builder()
        self._entries[key] = artifact
        self._bytes += artifact.wire_bytes
        self._evict()
        self._update_gauges()
        return artifact

    def _evict(self) -> None:
        def over_budget() -> bool:
            if len(self._entries) > self.max_entries:
                return True
            return (
                self.max_bytes is not None
                and self._bytes > self.max_bytes
            )

        # Never evict the most recently used entry: it is the one the
        # current connection is about to serve from.
        while over_budget() and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.wire_bytes
            self.metrics.counter("netserve_cache_evictions").inc()

    def _update_gauges(self) -> None:
        self.metrics.gauge("netserve_cache_entries").set(
            len(self._entries)
        )
        self.metrics.gauge("netserve_cache_bytes").set(self._bytes)

    def clear(self) -> None:
        """Drop every entry (counters keep their history)."""
        self._entries.clear()
        self._bytes = 0
        self._update_gauges()
