"""Transfer model: links, units, streams, the schedule and plan transforms.

The one controller that moves these units over links is
:class:`repro.sched.StripedController`.
"""

from .compression import (
    class_compression_ratio,
    compress_plan,
    compress_plans,
    program_compression_ratios,
)
from .interleaved import build_interleaved_file
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
from .streams import Stream, StreamEngine
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
    "Stream",
    "StreamEngine",
    "ClassTransferPlan",
    "TransferPolicy",
    "TransferUnit",
    "UnitKind",
    "build_class_plan",
    "build_program_plans",
]
