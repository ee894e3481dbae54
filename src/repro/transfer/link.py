"""Network link models.

The paper evaluates a T1 line (1 Mb/s) and a 28.8K modem against a
500 MHz Alpha, quoting ≈3,815 cycles/byte and ≈134,698 cycles/byte
respectively (§6.1).  We use those exact constants so cycle counts are
directly comparable in shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..errors import TransferError

__all__ = [
    "NetworkLink",
    "LossyLink",
    "T1_LINK",
    "MODEM_LINK",
    "link_from_bandwidth",
    "links_from_bandwidths",
    "lossy_link",
]

#: Paper's CPU model: 500 MHz DEC Alpha 21164.
CPU_HZ = 500_000_000


@dataclass(frozen=True)
class NetworkLink:
    """A fixed-bandwidth link, measured in CPU cycles per byte.

    Attributes:
        name: Display name ("T1", "modem", ...).
        cycles_per_byte: CPU cycles needed to transfer one byte.
    """

    name: str
    cycles_per_byte: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cycles_per_byte) and self.cycles_per_byte > 0):
            raise TransferError(
                f"cycles_per_byte must be finite and positive, got "
                f"{self.cycles_per_byte}"
            )

    @property
    def bytes_per_cycle(self) -> float:
        return 1.0 / self.cycles_per_byte

    def transfer_cycles(self, size_bytes: float) -> float:
        """Cycles to move ``size_bytes`` at full bandwidth."""
        if size_bytes < 0:
            raise TransferError(f"negative transfer size {size_bytes}")
        return size_bytes * self.cycles_per_byte

    def transfer_seconds(self, size_bytes: float) -> float:
        """Wall-clock seconds on the paper's 500 MHz CPU."""
        return self.transfer_cycles(size_bytes) / CPU_HZ


def link_from_bandwidth(
    name: str, bits_per_second: float, cpu_hz: float = CPU_HZ
) -> NetworkLink:
    """Build a link from a bandwidth in bits/second."""
    if not (math.isfinite(bits_per_second) and bits_per_second > 0):
        raise TransferError(
            f"bandwidth must be finite and positive, got {bits_per_second}"
        )
    bytes_per_second = bits_per_second / 8.0
    return NetworkLink(
        name=name, cycles_per_byte=cpu_hz / bytes_per_second
    )


def links_from_bandwidths(
    bits_per_second: Sequence[float],
    cpu_hz: float = CPU_HZ,
    prefix: str = "link",
) -> Tuple[NetworkLink, ...]:
    """Build a validated heterogeneous link set from bandwidths.

    Each bandwidth (bits/second) becomes one :class:`NetworkLink` named
    deterministically from its position and rate
    (``"link0@1e+06bps"``), so sweep configurations, CLI ``--links``
    specs, and persisted benchmark rows all agree on link identity.

    Raises:
        TransferError: If the sequence is empty or any bandwidth is
            not finite and positive.
    """
    if not bits_per_second:
        raise TransferError("links_from_bandwidths needs >= 1 bandwidth")
    links = []
    for index, bps in enumerate(bits_per_second):
        if not (math.isfinite(bps) and bps > 0):
            raise TransferError(
                f"bandwidth must be finite and positive, got {bps} "
                f"at index {index}"
            )
        links.append(
            link_from_bandwidth(
                f"{prefix}{index}@{bps:g}bps", bps, cpu_hz=cpu_hz
            )
        )
    return tuple(links)


@dataclass(frozen=True)
class LossyLink(NetworkLink):
    """A link whose packets are lost and retransmitted.

    ``cycles_per_byte`` is the *effective* (loss-inflated) rate the
    simulator's links run at, so the cycle-exact simulator runs loss sweeps
    without any change to its event loop; the loss parameters are kept
    for reporting.  Build instances with :func:`lossy_link`.

    Attributes:
        loss_probability: Per-packet loss probability in ``[0, 1)``.
        retransmit_penalty_cycles: Extra cycles (timeout + resend
            turnaround) paid per lost packet, on top of resending it.
        mtu_bytes: Packet size the loss process acts on.
        base_cycles_per_byte: The fault-free link's rate.
    """

    loss_probability: float = 0.0
    retransmit_penalty_cycles: float = 0.0
    mtu_bytes: float = 1500.0
    base_cycles_per_byte: float = 0.0


def lossy_link(
    base: NetworkLink,
    loss_probability: float,
    retransmit_penalty_cycles: float = 0.0,
    mtu_bytes: float = 1500.0,
) -> NetworkLink:
    """Degrade ``base`` with packet loss and retransmission.

    Models ``mtu_bytes``-sized packets, each independently lost with
    ``loss_probability``; a lost packet is retransmitted (expected
    attempts ``1 / (1 - p)``) and every loss additionally costs
    ``retransmit_penalty_cycles`` of timeout/turnaround latency.  The
    expected cost folds into one effective cycles-per-byte rate::

        cpb' = cpb / (1 - p) + (p / (1 - p)) * penalty / mtu

    With ``loss_probability == 0`` the base link is returned unchanged,
    so sweeps can start at a true zero point.
    """
    if not 0.0 <= loss_probability < 1.0:
        raise TransferError(
            f"loss probability must be in [0, 1): {loss_probability}"
        )
    if retransmit_penalty_cycles < 0:
        raise TransferError(
            f"retransmit penalty must be >= 0: "
            f"{retransmit_penalty_cycles}"
        )
    if mtu_bytes <= 0:
        raise TransferError(f"mtu must be positive: {mtu_bytes}")
    if loss_probability == 0.0:
        return base
    survival = 1.0 - loss_probability
    effective = (
        base.cycles_per_byte / survival
        + (loss_probability / survival)
        * retransmit_penalty_cycles
        / mtu_bytes
    )
    return LossyLink(
        name=f"{base.name}+loss{loss_probability:g}",
        cycles_per_byte=effective,
        loss_probability=loss_probability,
        retransmit_penalty_cycles=retransmit_penalty_cycles,
        mtu_bytes=mtu_bytes,
        base_cycles_per_byte=base.cycles_per_byte,
    )


#: T1 link: paper's ≈3,815 cycles per byte (1 Mb/s at 500 MHz).
T1_LINK = NetworkLink("T1", 3815.0)

#: 28.8 Kbaud modem: paper's ≈134,698 cycles per byte.
MODEM_LINK = NetworkLink("modem", 134698.0)
