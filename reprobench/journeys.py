"""The four benchmark workloads: set-up, measured loop, output checks.

Every workload builds its inputs from the paper-calibrated synthetic
programs (their per-name generator seeds, so every run serves and
simulates the same bytes) and lets ``seed`` drive every draw: the
order of the sweep's grid rows and the order of each serving round.
Rounds are balanced — each round visits every configuration of the
workload's mix once, in a seeded shuffle — so runs with different seeds
do the same work in a different order.

The journeys drive only public APIs: :mod:`repro.workloads`,
:mod:`repro.reorder`, :mod:`repro.vm`, :mod:`repro.core`,
:mod:`repro.transfer` and :mod:`repro.netserve`; :mod:`repro.sched`
runs inside the striped fetcher.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import random
import statistics
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro import reorder, vm
from repro.core import metrics as core_metrics
from repro.core import nonstrict, simulation
from repro.netserve import (
    ArtifactCache,
    ClassFileServer,
    NonStrictFetcher,
    StripedResilientFetcher,
    program_fingerprint,
    unit_wire_key,
)
from repro.program import MethodId, Program
from repro.transfer import MODEM_LINK, T1_LINK
from repro.workloads import synthetic
from repro.workloads.spec import PAPER_BENCHMARKS

from tracing import SESSION, Tracer

#: Set-up is repeated this often per run; ``setup_s`` is the median.
SETUP_REPS = 3

ALL_PROGRAMS: Tuple[str, ...] = tuple(spec.name for spec in PAPER_BENCHMARKS)
LINKS = (("T1", T1_LINK), ("modem", MODEM_LINK))
ORDERINGS = ("SCG", "Train", "Test")
#: Figure 6's four configurations: (method, max_streams, partitioned).
CONFIGS: Tuple[Tuple[str, Optional[int], bool], ...] = (
    ("parallel", 4, False),
    ("parallel", 4, True),
    ("interleaved", None, False),
    ("interleaved", None, True),
)

#: Closed-loop clients on serve-warm: one per core of the reference host.
WARM_CLIENTS = 2
#: Sessions between the closed-loop clients' meetings (probe points).
BARRIER_EVERY = 6
#: Serve-warm and serve-striped policy mix: 2/3 non-strict, 1/3 partitioned.
PUSH_MIX = ("non_strict", "non_strict", "data_partitioned")
COLD_PROGRAMS = ("Hanoi", "TestDes", "JHLZip", "BIT", "JavaCup")
COLD_POLICIES = ("non_strict", "data_partitioned", "strict")
COLD_STRATEGIES = ("static", "textual", "weighted")
STRIPED_PROGRAMS = ("Hanoi", "TestDes", "JHLZip")

FINGERPRINT_PATH = Path(__file__).with_name("sweep_expected.json")

#: Seconds the speed probe's loop takes on the reference host when it
#: is quiet (a 2-vCPU Intel Xeon VM, CPython 3.11).  Reported times are
#: scaled by this over the probe's median time, to PROBE_EXPONENT.
REFERENCE_PROBE_S = 0.0024
#: Under load the probe slows more than the workloads do (by 1.6-1.9x
#: where they slow by 1.3-1.5x on the reference host), so the slow-down
#: it reads is applied to this power.  0.8 gave the smallest run-to-run
#: spread over ten seeds of all four workloads on a loaded host.
PROBE_EXPONENT = 0.8


class SpeedProbe:
    """Times a fixed piece of pure-Python work now and then in a run.

    The work hashes tuples into a dict and sorts the result, which
    tracks the program's own slow-downs (object allocation, dict
    lookups) better than plain arithmetic does.

    The host's speed drifts, within a second, when other tenants load
    it.  The probe's median time around an interval says how much
    slower than the reference host that interval ran, so a time
    measured over it can be scaled back.  The median, not the mean: a
    single hypervisor stall stretches a 3 ms probe far more than it
    stretches the op around it.
    """

    ITERATIONS = 12_000
    #: Seconds between probes, at most one per gap between ops.
    EVERY = 0.1
    #: Probes this close (seconds) to an interval describe its speed.
    NEAR = 1.0

    def __init__(self) -> None:
        self.times: List[float] = []
        #: perf_counter() at the end of each probe, aligned with times.
        self.stamps: List[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        start = time.perf_counter()
        counts: Dict[Tuple[int, str], int] = {}
        for i in range(self.ITERATIONS):
            key = (i & 1023, "probe")
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        self._last = time.perf_counter()
        self.times.append(self._last - start)
        self.stamps.append(self._last)

    def maybe(self) -> None:
        """Probe unless the last probe was less than ``EVERY`` ago."""
        if time.perf_counter() - self._last >= self.EVERY:
            self.probe()

    @property
    def spent(self) -> float:
        return sum(self.times)

    @property
    def scale(self) -> float:
        """Multiply a time measured in this run by this factor to get
        reference-host time."""
        if not self.times:
            return 1.0
        return (REFERENCE_PROBE_S / statistics.median(self.times)) ** PROBE_EXPONENT

    def scale_over(self, start: float, end: float) -> float:
        """:attr:`scale` from the probes near ``[start, end]`` only."""
        low = bisect.bisect_left(self.stamps, start - self.NEAR)
        high = bisect.bisect_right(self.stamps, end + self.NEAR)
        near = self.times[low:high]
        if not near:
            return self.scale
        return (REFERENCE_PROBE_S / statistics.median(near)) ** PROBE_EXPONENT


@dataclass
class Outcome:
    """What one workload run measured, before metrics are derived."""

    workload: str
    engine: str
    setup_s: List[float] = field(default_factory=list)
    #: perf_counter() at the start of the first and end of the last set-up.
    setup_window: Tuple[float, float] = (0.0, 0.0)
    #: Per successful measured op: latency_ms, complete_ms and extras.
    samples: List[Dict[str, Any]] = field(default_factory=list)
    #: Whole journeys (sweeps) completed in the measured window, in ms;
    #: empty for serving workloads, whose journey is one fetch.
    journeys_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    measure_start: float = 0.0
    measure_end: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Per-layer values the journey measures itself (not from spans).
    layer: Dict[str, float] = field(default_factory=dict)
    teardown_errors: List[str] = field(default_factory=list)
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    _probed: float = 0.0

    def start_measuring(self) -> float:
        self.measure_start = time.perf_counter()
        self._probed = self.probe.spent
        return time.process_time()

    def stop_measuring(self, cpu0: float) -> None:
        """Close the measured window; probe time is not counted."""
        probed = self.probe.spent - self._probed
        self.measure_end = time.perf_counter()
        self.wall_s = self.measure_end - self.measure_start - probed
        self.cpu_s = time.process_time() - cpu0 - probed

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 50:
            self.errors.append(message)


def generate(name: str) -> Any:
    """A fresh (uncached) paper-calibrated workload."""
    return synthetic.generate_workload.__wrapped__(name)


def timed_setup(outcome: Outcome, build: Callable[[], Any]) -> Any:
    """Run ``build`` SETUP_REPS times; keep the last result."""
    state = None
    first = time.perf_counter()
    for _ in range(SETUP_REPS):
        state = None
        outcome.probe.probe()
        start = time.perf_counter()
        state = build()
        outcome.setup_s.append(time.perf_counter() - start)
    outcome.probe.probe()
    outcome.setup_window = (first, time.perf_counter())
    return state


async def timed_setup_async(outcome: Outcome, build: Callable[[], Awaitable[Any]]) -> List[Any]:
    """Async twin of :func:`timed_setup`; returns every repetition's state."""
    states = []
    first = time.perf_counter()
    for _ in range(SETUP_REPS):
        outcome.probe.probe()
        start = time.perf_counter()
        states.append(await build())
        outcome.setup_s.append(time.perf_counter() - start)
    outcome.probe.probe()
    outcome.setup_window = (first, time.perf_counter())
    return states


# ---------------------------------------------------------------------------
# sweep: the Figure 6 grid through the simulator
# ---------------------------------------------------------------------------

Row = Tuple[str, ...]


def sweep_rows(names: Sequence[str]) -> List[Row]:
    """Strict baselines plus every Figure 6 configuration."""
    rows: List[Row] = []
    for name in names:
        for link, _ in LINKS:
            rows.append(("strict", name, link))
            for ordering in ORDERINGS:
                for method, streams, partitioned in CONFIGS:
                    rows.append(
                        (method, name, link, ordering, str(streams), str(partitioned))
                    )
    return rows


def _sweep_setup(tracer: Tracer, names: Sequence[str]) -> Dict[str, Any]:
    bundles = {}
    for name in names:
        with tracer.span("workloads.generate"):
            workload = generate(name)
        program = workload.program
        with tracer.span("reorder.first_use"):
            scg = reorder.estimate_first_use(program)
        orders = {"SCG": scg}
        for label, trace in (("Train", workload.train_trace), ("Test", workload.test_trace)):
            with tracer.span("vm.synthesize_profile"):
                profile = vm.synthesize_profile(program, trace)
            with tracer.span("reorder.first_use"):
                orders[label] = reorder.order_from_profile(
                    program, profile, static_order=scg
                )
        bundles[name] = (workload, orders)
    return bundles


def _run_row(row: Row, bundles: Dict[str, Any]) -> Any:
    workload, orders = bundles[row[1]]
    link = dict(LINKS)[row[2]]
    if row[0] == "strict":
        return core_metrics.strict_baseline(
            workload.program, workload.test_trace, link, workload.cpi
        )
    method, _, _, ordering, streams, partitioned = row
    return nonstrict.run_nonstrict(
        workload.program,
        workload.test_trace,
        orders[ordering],
        link,
        workload.cpi,
        method=method,
        max_streams=None if streams == "None" else int(streams),
        data_partitioning=partitioned == "True",
    )


def row_key(row: Row) -> str:
    return "/".join(row)


def sweep_fingerprint(results: Dict[Row, Any]) -> Dict[str, List[float]]:
    """Rounded cycles, stalls and normalized % per grid row."""
    out: Dict[str, List[float]] = {}
    for row, result in results.items():
        if row[0] == "strict":
            out[row_key(row)] = [round(result.total_cycles)]
            continue
        base = results[("strict", row[1], row[2])]
        out[row_key(row)] = [
            round(result.total_cycles),
            result.stall_count,
            round(result.normalized_to(base.total_cycles), 4),
        ]
    return out


def load_fingerprint() -> Dict[str, List[float]]:
    return json.loads(FINGERPRINT_PATH.read_text())["rows"]


def run_sweep(
    seed: int,
    seconds: float,
    tracer: Tracer,
    names: Sequence[str] = ALL_PROGRAMS,
) -> Outcome:
    """Whole sweeps in seeded row order until ``seconds`` have passed."""
    outcome = Outcome("sweep", simulation.resolve_engine(None))
    bundles = timed_setup(outcome, lambda: _sweep_setup(tracer, names))
    expected = load_fingerprint()
    rows = sweep_rows(names)
    rng = random.Random(seed)
    cpu0 = outcome.start_measuring()
    while True:
        order = list(rows)
        rng.shuffle(order)
        results: Dict[Row, Any] = {}
        sweep_start = time.perf_counter()
        probed = outcome.probe.spent
        for row in order:
            outcome.attempted += 1
            outcome.probe.maybe()
            start = time.perf_counter()
            try:
                results[row] = _run_row(row, bundles)
            except Exception as error:  # noqa: BLE001 - counted as a failure
                outcome.fail(f"{row_key(row)}: {type(error).__name__}: {error}")
                continue
            end = time.perf_counter()
            outcome.samples.append(
                {
                    "row": row_key(row),
                    "t0": start,
                    "t1": end,
                    "latency_ms": (end - start) * 1e3,
                }
            )
        outcome.journeys_ms.append(
            (time.perf_counter() - sweep_start - outcome.probe.spent + probed) * 1e3
        )
        if len(results) == len(rows):
            for key, value in sweep_fingerprint(results).items():
                if expected.get(key) != value:
                    outcome.fail(f"{key}: got {value}, expected {expected.get(key)}")
        if time.perf_counter() - outcome.measure_start >= seconds:
            break
    outcome.stop_measuring(cpu0)
    return outcome


# ---------------------------------------------------------------------------
# serving: shared pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """What a correct fetch of one served artifact holds."""

    keys: frozenset
    class_bytes: Dict[str, bytes]


def expected_from(
    cache: ArtifactCache, fingerprint: str, policy: str, strategy: str
) -> Expected:
    """Read the served artifact back out of the cache (a hit)."""

    def missing() -> Any:
        raise LookupError(f"artifact not cached: {policy}/{strategy}")

    artifact = cache.get_or_build((fingerprint, policy, strategy), missing)
    by_class: Dict[str, List[bytes]] = defaultdict(list)
    for unit in artifact.sequence:
        by_class[unit.class_name].append(artifact.payloads[unit])
    return Expected(
        keys=frozenset(unit_wire_key(unit) for unit in artifact.sequence),
        class_bytes={name: b"".join(parts) for name, parts in by_class.items()},
    )


def verify(fetcher: NonStrictFetcher, expected: Expected) -> Optional[str]:
    """None when every planned unit landed and every class reassembles."""
    landed = {unit_wire_key(unit) for unit, _ in fetcher.unit_log}
    if landed != expected.keys:
        return f"{len(expected.keys - landed)} planned units missing"
    for name, data in expected.class_bytes.items():
        if fetcher.class_bytes(name) != data:
            return f"class {name} reassembled wrong"
    return None


async def timed_fetch(fetcher: NonStrictFetcher, tracer: Tracer, layer: str) -> Dict[str, Any]:
    """One session, timed from just before ``connect()``."""
    start = time.perf_counter()
    try:
        with tracer.span(f"{layer}.connect"):
            manifest = await fetcher.connect()
        connected = time.perf_counter()
        entry = MethodId(*manifest["entry"])
        with tracer.span(f"{layer}.entry_wait"):
            await fetcher.wait_for_method(entry, demand=False)
        invoked = time.perf_counter()
        with tracer.span(f"{layer}.drain"):
            await fetcher.wait_until_complete()
        done = time.perf_counter()
        arrival = fetcher.arrival_time(entry)
    finally:
        closing = time.perf_counter()
        with tracer.span(f"{layer}.close"):
            await fetcher.aclose()
        closed = time.perf_counter()
    return {
        "t0": start,
        "t1": done,
        "latency_ms": (invoked - start) * 1e3,
        "complete_ms": (done - start) * 1e3,
        "connect_ms": (connected - start) * 1e3,
        "entry_wait_ms": (invoked - connected) * 1e3,
        "drain_ms": (done - invoked) * 1e3,
        "close_ms": (closed - closing) * 1e3,
        "arrival_ms": arrival * 1e3,
        "payload_bytes": fetcher.stats.payload_bytes,
        "units_received": fetcher.stats.units_received,
    }


async def checked_session(
    outcome: Outcome,
    label: str,
    run: Callable[[], Awaitable[Tuple[NonStrictFetcher, Dict[str, Any]]]],
    expected: Callable[[], Expected],
    measured: bool,
) -> None:
    """Run one session, check its output, record it."""
    outcome.attempted += 1
    try:
        fetcher, sample = await run()
        problem = verify(fetcher, expected())
    except Exception as error:  # noqa: BLE001 - counted as a failure
        outcome.fail(f"{label}: {type(error).__name__}: {error}")
        return
    if problem is not None:
        outcome.fail(f"{label}: {problem}")
        return
    if measured:
        sample["session"] = label
        outcome.samples.append(sample)


async def closed_loop(
    clients: int,
    make_round: Callable[[], List[Any]],
    session: Callable[[Any], Awaitable[None]],
    seconds: float,
    probe: SpeedProbe,
) -> None:
    """``clients`` closed-loop workers over balanced rounds.

    A new round starts only while the measured time has not run out,
    so every run is made of whole rounds.  The workers meet after every
    ``BARRIER_EVERY`` sessions.  The speed probe runs only while no
    session is in flight, so it never delays one; with several clients
    that happens only at those meetings, which is why they are frequent.
    """
    start = time.perf_counter()
    in_flight = 0

    async def worker(queue: deque) -> None:
        nonlocal in_flight
        while queue:
            if not in_flight:
                probe.maybe()
            spec = queue.popleft()
            in_flight += 1
            try:
                await session(spec)
            finally:
                in_flight -= 1

    while time.perf_counter() - start < seconds:
        specs = make_round()
        for first in range(0, len(specs), BARRIER_EVERY):
            queue = deque(specs[first : first + BARRIER_EVERY])
            await asyncio.gather(*(worker(queue) for _ in range(clients)))


def shuffled_rounds(rng: random.Random, mix: Sequence[Any]) -> Callable[[], List[Any]]:
    def make_round() -> List[Any]:
        specs = list(mix)
        rng.shuffle(specs)
        return specs

    return make_round


def watch_loop_errors(outcome: Outcome) -> None:
    """Count event-loop exception-handler calls (teardown errors)."""

    def handler(loop: asyncio.AbstractEventLoop, context: Dict[str, Any]) -> None:
        exception = context.get("exception")
        detail = f"{type(exception).__name__}: " if exception else ""
        outcome.teardown_errors.append(detail + str(context.get("message")))

    asyncio.get_running_loop().set_exception_handler(handler)


class ServerWindow:
    """Server-side counters over the connections a window opened."""

    def __init__(self, servers: Sequence[ClassFileServer]) -> None:
        self.marks = [(server, len(server.stats.connections)) for server in servers]

    def connections(self) -> List[Any]:
        return [
            conn
            for server, mark in self.marks
            for conn in server.stats.connections[mark:]
        ]


def server_layers(outcome: Outcome, connections: Sequence[Any], sessions: int) -> None:
    """Fill the ``server.*`` per-layer values from connection stats."""
    sessions = max(sessions, 1)
    durations = [conn.duration for conn in connections if conn.duration is not None]
    demands = sum(conn.demand_fetches for conn in connections)
    wire = sum(conn.bytes_sent for conn in connections)
    payload = sum(sample["payload_bytes"] for sample in outcome.samples)
    pull_ms = sum(
        conn.duration * 1e3
        for conn in connections
        if conn.pull_sessions and conn.duration is not None
    )
    outcome.layer.update(
        {
            "server.session_ms": statistics.fmean(durations) * 1e3 if durations else 0.0,
            "server.frames_per_fetch": sum(conn.frames_sent for conn in connections) / sessions,
            "server.wire_bytes_per_fetch": wire / sessions,
            "server.wire_overhead_ratio": wire / payload if payload else 0.0,
            "server.demand_frames_per_fetch": demands / sessions,
            "server.ms_per_demand": pull_ms / demands if demands else 0.0,
            "server.demand_frames": float(demands),
        }
    )


def client_layers(outcome: Outcome, prefix: str) -> None:
    """Mean connect / entry wait / drain / close over measured sessions."""
    samples = outcome.samples
    if not samples:
        return
    for key in ("connect_ms", "entry_wait_ms", "drain_ms", "close_ms"):
        outcome.layer[f"{prefix}.{key}"] = statistics.fmean(s[key] for s in samples)
    if prefix == "client":
        outcome.layer["client.entry_arrival_ms"] = statistics.fmean(
            s["arrival_ms"] for s in samples
        )


def cache_ratio(outcome: Outcome, hits: int, misses: int) -> None:
    lookups = hits + misses
    outcome.layer["netserve.cache_hit_ratio"] = hits / lookups if lookups else 0.0


# ---------------------------------------------------------------------------
# serve-warm: push-mode fetches from a warm artifact cache
# ---------------------------------------------------------------------------


async def _serve_warm(
    seed: int, seconds: float, tracer: Tracer, names: Sequence[str]
) -> Outcome:
    outcome = Outcome("serve-warm", simulation.resolve_engine(None))
    watch_loop_errors(outcome)
    configs = [(name, policy) for name in names for policy in sorted(set(PUSH_MIX))]

    async def build() -> Any:
        programs = {}
        for name in names:
            with tracer.span("workloads.generate"):
                programs[name] = generate(name).program
        cache = ArtifactCache()
        servers = {name: ClassFileServer(program, cache=cache) for name, program in programs.items()}
        endpoints = {name: await server.start() for name, server in servers.items()}
        expected: Dict[Tuple[str, str], Expected] = {}
        fingerprints = {name: program_fingerprint(p) for name, p in programs.items()}
        for name, policy in configs:
            fetcher = NonStrictFetcher(*endpoints[name], policy=policy)
            await checked_session(
                outcome,
                f"prebuild {name}/{policy}",
                lambda: _push(fetcher, tracer),
                lambda: expected.setdefault(
                    (name, policy),
                    expected_from(cache, fingerprints[name], policy, "static"),
                ),
                measured=False,
            )
        return cache, servers, endpoints, expected

    states = await timed_setup_async(outcome, build)
    for _, old_servers, _, _ in states[:-1]:
        for server in old_servers.values():
            await server.aclose()
    cache, servers, endpoints, expected = states[-1]
    rng = random.Random(seed)
    mix = [(name, policy) for name in names for policy in PUSH_MIX]
    counter = iter(range(1 << 62))

    async def session(spec: Tuple[str, str]) -> None:
        name, policy = spec
        number = next(counter)
        SESSION.set(number)
        fetcher = NonStrictFetcher(*endpoints[name], policy=policy)
        await checked_session(
            outcome,
            f"{number}:{name}/{policy}",
            lambda: _push(fetcher, tracer),
            lambda: expected[spec],
            measured=True,
        )

    try:
        window = ServerWindow(list(servers.values()))
        hits, misses = cache.hits, cache.misses
        cpu0 = outcome.start_measuring()
        await closed_loop(
            WARM_CLIENTS, shuffled_rounds(rng, mix), session, seconds, outcome.probe
        )
        outcome.stop_measuring(cpu0)
        cache_ratio(outcome, cache.hits - hits, cache.misses - misses)
        server_layers(outcome, window.connections(), len(outcome.samples))
        client_layers(outcome, "client")
    finally:
        for server in servers.values():
            await server.aclose()
    return outcome


async def _push(fetcher: NonStrictFetcher, tracer: Tracer) -> Tuple[NonStrictFetcher, Dict[str, Any]]:
    return fetcher, await timed_fetch(fetcher, tracer, "client")


def run_serve_warm(
    seed: int,
    seconds: float,
    tracer: Tracer,
    names: Sequence[str] = ALL_PROGRAMS,
) -> Outcome:
    return asyncio.run(_serve_warm(seed, seconds, tracer, names))


# ---------------------------------------------------------------------------
# serve-cold: every session plans from scratch on a fresh server
# ---------------------------------------------------------------------------


async def _serve_cold(
    seed: int, seconds: float, tracer: Tracer, names: Sequence[str]
) -> Outcome:
    outcome = Outcome("serve-cold", simulation.resolve_engine(None))
    watch_loop_errors(outcome)

    def build() -> Dict[str, Program]:
        programs = {}
        for name in names:
            with tracer.span("workloads.generate"):
                programs[name] = generate(name).program
        return programs

    programs = timed_setup(outcome, build)
    fingerprints = {name: program_fingerprint(p) for name, p in programs.items()}
    rng = random.Random(seed)
    mix = [
        (name, policy, strategy)
        for name in names
        for policy in COLD_POLICIES
        for strategy in COLD_STRATEGIES
    ]
    counter = iter(range(1 << 62))
    connections: List[Any] = []
    lookups = [0, 0]

    async def session(spec: Tuple[str, str, str], measured: bool = True) -> None:
        name, policy, strategy = spec
        number = next(counter)
        SESSION.set(number)
        cache = ArtifactCache()
        server = ClassFileServer(programs[name], cache=cache)
        host, port = await server.start()
        fetcher = NonStrictFetcher(host, port, policy=policy, strategy=strategy)
        counted: Dict[str, int] = {}

        async def run() -> Tuple[NonStrictFetcher, Dict[str, Any]]:
            sample = await timed_fetch(fetcher, tracer, "client")
            counted.update(hits=cache.hits, misses=cache.misses)
            return fetcher, sample

        try:
            await checked_session(
                outcome,
                f"{number}:{name}/{policy}/{strategy}",
                run,
                lambda: expected_from(cache, fingerprints[name], policy, strategy),
                measured,
            )
        finally:
            await server.aclose()
        if measured:
            lookups[0] += counted.get("hits", 0)
            lookups[1] += counted.get("misses", 0)
            connections.extend(server.stats.connections)

    # Warm-up: one static non-strict session per program.
    for name in names:
        await session((name, "non_strict", "static"), measured=False)
    cpu0 = outcome.start_measuring()
    await closed_loop(1, shuffled_rounds(rng, mix), session, seconds, outcome.probe)
    outcome.stop_measuring(cpu0)
    cache_ratio(outcome, lookups[0], lookups[1])
    server_layers(outcome, connections, len(outcome.samples))
    client_layers(outcome, "client")
    return outcome


def run_serve_cold(
    seed: int,
    seconds: float,
    tracer: Tracer,
    names: Sequence[str] = COLD_PROGRAMS,
) -> Outcome:
    return asyncio.run(_serve_cold(seed, seconds, tracer, names))


# ---------------------------------------------------------------------------
# serve-striped: pull-mode striped fetches over two endpoints
# ---------------------------------------------------------------------------


async def _serve_striped(
    seed: int, seconds: float, tracer: Tracer, names: Sequence[str]
) -> Outcome:
    outcome = Outcome("serve-striped", simulation.resolve_engine(None))
    watch_loop_errors(outcome)
    policies = sorted(set(PUSH_MIX))

    def striped_fetcher(endpoints: Any, policy: str, scope: str) -> StripedResilientFetcher:
        return StripedResilientFetcher(endpoints, policy=policy, seed=seed, rng_scope=scope)

    async def pull(fetcher: StripedResilientFetcher) -> Tuple[NonStrictFetcher, Dict[str, Any]]:
        sample = await timed_fetch(fetcher, tracer, "striped")
        sample["manifest_units"] = len(fetcher.manifest.get("sequence", []))
        return fetcher, sample

    async def build() -> Any:
        programs = {}
        for name in names:
            with tracer.span("workloads.generate"):
                programs[name] = generate(name).program
        cache = ArtifactCache()
        servers = {
            name: [ClassFileServer(program, cache=cache) for _ in range(2)]
            for name, program in programs.items()
        }
        endpoints = {
            name: [await server.start() for server in pair]
            for name, pair in servers.items()
        }
        expected: Dict[Tuple[str, str], Expected] = {}
        fingerprints = {name: program_fingerprint(p) for name, p in programs.items()}
        for name in names:
            for policy in policies:
                await checked_session(
                    outcome,
                    f"prebuild {name}/{policy}",
                    lambda: pull(striped_fetcher(endpoints[name], policy, "prebuild")),
                    lambda: expected.setdefault(
                        (name, policy),
                        expected_from(cache, fingerprints[name], policy, "static"),
                    ),
                    measured=False,
                )
        return cache, servers, endpoints, expected

    states = await timed_setup_async(outcome, build)
    for _, old_servers, _, _ in states[:-1]:
        for pair in old_servers.values():
            for server in pair:
                await server.aclose()
    cache, servers, endpoints, expected = states[-1]
    rng = random.Random(seed)
    mix = [(name, policy) for name in names for policy in PUSH_MIX]
    counter = iter(range(1 << 62))

    async def session(spec: Tuple[str, str]) -> None:
        name, policy = spec
        number = next(counter)
        SESSION.set(number)
        await checked_session(
            outcome,
            f"{number}:{name}/{policy}",
            lambda: pull(striped_fetcher(endpoints[name], policy, f"s{number}")),
            lambda: expected[spec],
            measured=True,
        )

    all_servers = [server for pair in servers.values() for server in pair]
    try:
        window = ServerWindow(all_servers)
        hits, misses = cache.hits, cache.misses
        cpu0 = outcome.start_measuring()
        await closed_loop(1, shuffled_rounds(rng, mix), session, seconds, outcome.probe)
        outcome.stop_measuring(cpu0)
        cache_ratio(outcome, cache.hits - hits, cache.misses - misses)
        server_layers(outcome, window.connections(), len(outcome.samples))
        client_layers(outcome, "striped")
        received = sum(s["units_received"] for s in outcome.samples)
        needed = sum(s["manifest_units"] for s in outcome.samples)
        outcome.layer["striped.useful_unit_ratio"] = needed / received if received else 0.0
    finally:
        for server in all_servers:
            await server.aclose()
    return outcome


def run_serve_striped(
    seed: int,
    seconds: float,
    tracer: Tracer,
    names: Sequence[str] = STRIPED_PROGRAMS,
) -> Outcome:
    return asyncio.run(_serve_striped(seed, seconds, tracer, names))


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "sweep": run_sweep,
    "serve-warm": run_serve_warm,
    "serve-cold": run_serve_cold,
    "serve-striped": run_serve_striped,
}
