"""netserve: a real asyncio class-file server and non-strict fetcher.

The simulator (:mod:`repro.core`) models transfer in CPU cycles; this
package moves the same :class:`~repro.transfer.TransferUnit` streams
over real TCP sockets, with bandwidth pacing and §5.1 demand-fetch
priority, so the model can be validated against wall-clock transfers.
"""

from .bridge import NetworkRunResult, fetch_and_run, run_networked
from .cache import ArtifactCache, SessionArtifact, program_fingerprint
from .client import LinkState, NonStrictFetcher
from .loadgen import (
    CellResult,
    LoadCell,
    SweepReport,
    run_cell,
    run_sweep,
    sweep_cells,
    write_bench_json,
)
from .payloads import (
    DELIMITER_FILLER,
    build_class_payloads,
    build_program_payloads,
    fit_payload,
)
from .protocol import (
    FRAME_OVERHEAD,
    MAGIC,
    PROTOCOL_VERSION,
    Frame,
    FrameKind,
    decode_frame,
    demand_fetch_frame,
    encode_frame,
    eof_frame,
    error_frame,
    hello_ack_frame,
    hello_frame,
    read_frame,
    read_raw_frame,
    resume_ack_frame,
    resume_frame,
    salvage_unit_key,
    unit_frame,
    unit_kind_from_code,
    unit_wire_key,
)
from .server import REORDER_STRATEGIES, ClassFileServer, TokenBucket
from .striped import StripedResilientFetcher
from .stats import (
    ConnectionStats,
    FetchStats,
    ServerStats,
    format_fetch_stats,
)

__all__ = [
    "NetworkRunResult",
    "fetch_and_run",
    "run_networked",
    "ArtifactCache",
    "SessionArtifact",
    "program_fingerprint",
    "NonStrictFetcher",
    "CellResult",
    "LoadCell",
    "SweepReport",
    "run_cell",
    "run_sweep",
    "sweep_cells",
    "write_bench_json",
    "DELIMITER_FILLER",
    "build_class_payloads",
    "build_program_payloads",
    "fit_payload",
    "FRAME_OVERHEAD",
    "MAGIC",
    "PROTOCOL_VERSION",
    "Frame",
    "FrameKind",
    "decode_frame",
    "demand_fetch_frame",
    "encode_frame",
    "eof_frame",
    "error_frame",
    "hello_ack_frame",
    "hello_frame",
    "read_frame",
    "read_raw_frame",
    "resume_ack_frame",
    "resume_frame",
    "salvage_unit_key",
    "unit_frame",
    "unit_kind_from_code",
    "unit_wire_key",
    "REORDER_STRATEGIES",
    "ClassFileServer",
    "TokenBucket",
    "LinkState",
    "StripedResilientFetcher",
    "ConnectionStats",
    "FetchStats",
    "ServerStats",
    "format_fetch_stats",
]
