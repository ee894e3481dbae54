"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces the public layer functions the journeys call
(as the calling module imports them) with thin wrappers.  Each wrapper
records one span — name, start, end, parent span, session id and an
optional amount such as bytes or segments — in memory; nothing is
written until the run ends.  The same wrappers can add a busy-wait
proportional to the wrapped call's own duration (``handicap``), which
is how the discrimination self-test slows exactly one layer.

Coroutine methods are not wrapped: the journeys time their own awaits
(connect, entry wait, drain, close) and record those as spans directly
through :meth:`Tracer.span`.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import fastsim, metrics as core_metrics, nonstrict, simulation
from repro.netserve import cache as netcache
from repro.netserve import client, resilient, server, striped
from repro.sched import Scoreboard

_PARENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "reprobench_parent", default=-1
)
#: Session id of the journey step running in this context.
SESSION: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "reprobench_session", default=None
)

Span = Tuple[str, float, float, int, Optional[int], float]


def _frame_bytes(args: tuple, result: Any) -> float:
    return float(len(args[0]))


def _encoded_bytes(args: tuple, result: Any) -> float:
    return float(len(result))


def _segments(args: tuple, result: Any) -> float:
    return float(len(args[0].trace.segments))


#: (span name, owner, attribute, amount) for every wrapped function.
#: Server-side names are patched where ``repro.netserve.server`` and the
#: fetch clients import them, so only the serving path is affected.
TARGETS: Tuple[Tuple[str, Any, str, Optional[Callable]], ...] = (
    ("reorder.restructure", nonstrict, "apply_restructure", None),
    ("transfer.controller_build", nonstrict, "ParallelController", None),
    ("transfer.controller_build", nonstrict, "InterleavedController", None),
    ("core.simulate", simulation.Simulator, "run", _segments),
    ("core.compile_trace", fastsim, "compile_trace", None),
    ("core.strict_baseline", core_metrics, "strict_baseline", None),
    ("netserve.fingerprint", server, "program_fingerprint", None),
    ("reorder.order", server, "estimate_first_use", None),
    ("reorder.order", server, "textual_first_use", None),
    ("reorder.order", server, "weighted_first_use", None),
    ("reorder.restructure", server, "restructure", None),
    ("transfer.plans", server, "build_program_plans", None),
    ("transfer.plans", server, "build_interleaved_file", None),
    ("netserve.payloads", server, "build_program_payloads", None),
    ("protocol.encode", server, "encode_frame", _encoded_bytes),
    ("protocol.decode", client, "decode_frame", _frame_bytes),
    ("protocol.decode", resilient, "decode_frame", _frame_bytes),
    ("protocol.decode", striped, "decode_frame", _frame_bytes),
    ("sched.scoreboard.ready_items", Scoreboard, "ready_items", None),
    ("sched.scoreboard.mark_issued", Scoreboard, "mark_issued", None),
    ("sched.scoreboard.mark_landed", Scoreboard, "mark_landed", None),
    ("sched.scoreboard.requeue", Scoreboard, "requeue", None),
)

#: Functions only counted (no span): called too often to time.
COUNTED: Tuple[Tuple[str, Any, str], ...] = (
    ("server.unit_wire_key", server, "unit_wire_key"),
)


def _spin_until(deadline: float) -> None:
    while time.perf_counter() < deadline:
        pass


class Tracer:
    """Installs layer wrappers; records spans and injected busy time.

    Args:
        record: Keep spans.  With ``False`` only the handicapped
            functions are wrapped, so an untraced run pays nothing
            for the layers it does not slow.
        handicap: Span name -> fraction.  After each call of that
            layer the wrapper busy-waits ``fraction`` times the call's
            own duration, inside the span.
    """

    def __init__(
        self,
        record: bool = True,
        handicap: Optional[Dict[str, float]] = None,
    ) -> None:
        self.record = record
        self.handicap = dict(handicap or {})
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: (time, seconds) of every busy-wait a handicap added.
        self.injected: List[Tuple[float, float]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        for name, owner, attr, amount in TARGETS:
            if self.record or name in self.handicap:
                self._patch(owner, attr, self._wrap(name, getattr(owner, attr), amount))
        if self.record:
            for name, owner, attr in COUNTED:
                self._patch(owner, attr, self._count(name, getattr(owner, attr)))
            original = netcache.ArtifactCache.get_or_build
            build = self._wrap_builder

            def get_or_build(cache: Any, key: Any, builder: Callable) -> Any:
                return original(cache, key, build(builder))

            self._patch(netcache.ArtifactCache, "get_or_build", get_or_build)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(
        self, name: str, original: Callable, amount: Optional[Callable]
    ) -> Callable:
        spans = self.spans
        fraction = self.handicap.get(name, 0.0)
        injected = self.injected
        record = self.record

        @functools.wraps(original, updated=())
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = -1
            if record:
                index = len(spans)
                spans.append(("", 0.0, 0.0, -1, None, 0.0))
            token = _PARENT.set(index)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                if fraction:
                    _spin_until(end + fraction * (end - start))
                    busy_end = time.perf_counter()
                    injected.append((busy_end, busy_end - end))
                    end = busy_end
                _PARENT.reset(token)
                if record:
                    spans[index] = (
                        name,
                        start,
                        end,
                        _PARENT.get(),
                        SESSION.get(),
                        amount(args, result) if amount and result is not None else 0.0,
                    )

        return wrapper

    def _wrap_builder(self, builder: Callable) -> Callable:
        return self._wrap("netserve.artifact_build", builder, None)

    def _count(self, name: str, original: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    # -- journey-level spans ----------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block of the benchmark's own code as one span."""
        if not self.record:
            yield
            return
        index = len(self.spans)
        self.spans.append(("", 0.0, 0.0, -1, None, 0.0))
        parent = _PARENT.get()
        token = _PARENT.set(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            _PARENT.reset(token)
            self.spans[index] = (name, start, end, parent, SESSION.get(), 0.0)

    # -- aggregation ------------------------------------------------------

    def injected_since(self, since: float) -> float:
        """Busy-wait seconds a handicap added at or after ``since``."""
        return sum(seconds for at, seconds in self.injected if at >= since)

    def totals(
        self, since: float = float("-inf"), until: float = float("inf")
    ) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, amount.

        Only spans starting in ``[since, until)`` count.  Self time is
        a span's duration minus the union of its children's intervals,
        clipped to the span.
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0 and name:
                children[parent].append((start, end))
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "seconds": 0.0, "self_seconds": 0.0, "amount": 0.0}
        )
        for index, (name, start, end, _, _, amount) in enumerate(self.spans):
            if not name or not since <= start < until:
                continue
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(index, ())):
                low = max(child_start, cursor)
                high = min(child_end, end)
                if high > low:
                    covered += high - low
                    cursor = high
            row = out[name]
            row["calls"] += 1
            row["seconds"] += end - start
            row["self_seconds"] += (end - start) - covered
            row["amount"] += amount
        return dict(out)
