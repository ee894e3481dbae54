"""Transfer model: links, units, the schedule and plan transforms.

:func:`transfer_layout` plans a program's units once; the one controller
that moves them over links is :class:`repro.sched.StripedController`.
"""

from .compression import (
    class_compression_ratio,
    compress_plan,
    compress_plans,
    program_compression_ratios,
)
from .interleaved import build_interleaved_file
from .layout import TransferLayout, transfer_layout
from .link import (
    CPU_HZ,
    MODEM_LINK,
    T1_LINK,
    LossyLink,
    NetworkLink,
    link_from_bandwidth,
    links_from_bandwidths,
    lossy_link,
)
from .schedule import ScheduledStart, TransferSchedule, build_schedule
from .units import (
    ClassTransferPlan,
    TransferPolicy,
    TransferUnit,
    UnitKind,
    build_class_plan,
    build_program_plans,
)

__all__ = [
    "class_compression_ratio",
    "compress_plan",
    "compress_plans",
    "program_compression_ratios",
    "build_interleaved_file",
    "TransferLayout",
    "transfer_layout",
    "CPU_HZ",
    "MODEM_LINK",
    "T1_LINK",
    "LossyLink",
    "NetworkLink",
    "link_from_bandwidth",
    "links_from_bandwidths",
    "lossy_link",
    "ScheduledStart",
    "TransferSchedule",
    "build_schedule",
    "ClassTransferPlan",
    "TransferPolicy",
    "TransferUnit",
    "UnitKind",
    "build_class_plan",
    "build_program_plans",
]
