"""Link model constants and conversions."""

import pytest

from repro.errors import TransferError
from repro.transfer import (
    CPU_HZ,
    MODEM_LINK,
    T1_LINK,
    NetworkLink,
    link_from_bandwidth,
    links_from_bandwidths,
)


def test_paper_constants():
    assert T1_LINK.cycles_per_byte == 3815.0
    assert MODEM_LINK.cycles_per_byte == 134698.0


def test_transfer_cycles():
    assert T1_LINK.transfer_cycles(1000) == 3_815_000
    assert MODEM_LINK.transfer_cycles(1) == 134_698


def test_transfer_seconds_on_500mhz_alpha():
    # 1 KB over the modem: 134698 * 1024 cycles / 500 MHz ≈ 0.276 s.
    assert MODEM_LINK.transfer_seconds(1024) == pytest.approx(
        134698 * 1024 / CPU_HZ
    )


def test_link_from_bandwidth_roundtrip():
    t1ish = link_from_bandwidth("t1ish", 1_000_000)  # 1 Mb/s
    # 500e6 cycles/s / 125000 B/s = 4000 cycles per byte.
    assert t1ish.cycles_per_byte == pytest.approx(4000.0)


def test_bytes_per_cycle_inverse():
    assert T1_LINK.bytes_per_cycle == pytest.approx(1 / 3815.0)


def test_invalid_links_rejected():
    with pytest.raises(TransferError):
        NetworkLink("bad", 0)
    with pytest.raises(TransferError):
        link_from_bandwidth("bad", -5)
    with pytest.raises(TransferError):
        T1_LINK.transfer_cycles(-1)


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", _NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "build",
    [
        lambda value: NetworkLink("bad", value),
        lambda value: link_from_bandwidth("bad", value),
        lambda value: links_from_bandwidths((value, 1_000_000)),
        lambda value: links_from_bandwidths((1_000_000, value)),
    ],
    ids=["NetworkLink", "link_from_bandwidth", "first-of-set", "second-of-set"],
)
def test_non_finite_rates_rejected(build, value):
    """``x <= 0`` lets NaN through: a NaN rate made a link every
    simulation loop could spin on forever."""
    with pytest.raises(TransferError, match="finite"):
        build(value)
