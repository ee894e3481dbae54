"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at the API boundary.  Subsystems raise the most
specific subclass that applies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class BytecodeError(ReproError):
    """Malformed bytecode: bad opcode, bad operand, truncated stream."""


class AssemblyError(BytecodeError):
    """Error while assembling textual or builder-based bytecode."""


class ClassFileError(ReproError):
    """Malformed or inconsistent class file structure."""


class ConstantPoolError(ClassFileError):
    """Invalid constant pool index, tag, or entry layout."""


class VerificationError(ReproError):
    """A class file or method failed the verifier's structural checks."""


class LinkError(ReproError):
    """Symbolic reference resolution failed during (incremental) linking."""


class VMError(ReproError):
    """Runtime error inside the bytecode interpreter."""


class StackUnderflowError(VMError):
    """An instruction popped more operands than the stack holds."""


class CFGError(ReproError):
    """Control-flow graph construction or analysis failure."""


class ReorderError(ReproError):
    """First-use estimation or class file restructuring failure."""


class TransferError(ReproError):
    """Invalid transfer plan, schedule, or transfer run state."""


class ProtocolError(TransferError):
    """The netserve wire protocol was violated by a peer."""


class FrameCorruptionError(ProtocolError):
    """A frame failed validation: bad magic, bad CRC, malformed body."""


class TruncatedFrameError(ProtocolError):
    """A frame ended before its declared length (more bytes needed)."""


class StreamDecodeError(ProtocolError):
    """Mid-stream decoding failed, with unit context attached.

    Wraps a lower-level :class:`ProtocolError` so the caller learns
    *where* in the unit stream decoding broke: the most recent
    successfully decoded unit (if any) and the stream byte offset at
    which the failing frame began.
    """

    def __init__(
        self,
        message: str,
        class_name: "str | None" = None,
        method_name: "str | None" = None,
        byte_offset: int = 0,
    ) -> None:
        super().__init__(message)
        self.class_name = class_name
        self.method_name = method_name
        self.byte_offset = byte_offset


class ServerBusyError(ProtocolError):
    """The server's admission control turned the connection away.

    Raised when a session handshake receives an ``ERROR`` frame with
    ``code: "busy"`` (the server is at ``max_connections``).  Unlike
    other protocol errors this one is *transient*: the resilient
    fetcher retries it with backoff instead of failing the fetch.
    """


class ConnectionLostError(TransferError):
    """The peer disappeared mid-stream (reset, abort, or silent close)."""


class ResilienceExhaustedError(TransferError):
    """Every recovery path failed: reconnects, resume, and the strict
    whole-file fallback."""


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed or self-contradictory."""


class SimulationError(ReproError):
    """Co-simulation reached an inconsistent state (e.g. deadlock)."""


class CompileError(ReproError):
    """Mini-language front end error (lexing, parsing, or codegen)."""


class WorkloadError(ReproError):
    """Workload specification or synthesis failure."""


class AnalysisError(ReproError):
    """Static analysis was asked something it cannot answer."""
