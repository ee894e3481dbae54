"""Print one SHA-256 over the event streams of recorded simulations.

For each of the six paper workloads on the T1 link, the recorded runs
are ``run_strict`` and ``run_nonstrict`` under ``interleaved``,
``parallel`` and ``parallel`` with ``max_streams=4``, each of the
non-strict ones without and with data partitioning (strict transfer
sends whole class files, which have no global data to partition).
Then come the striped runs of ``run_striped``: ``round_robin`` on the
T1 link, and ``interleaved`` and ``parallel`` on two links (57.6 and
28.8 kbit/s), the first once more with the slower link dying a quarter
of the way into sending the program over it.  Each run's
``TraceRecorder.events`` are hashed as JSONL, in emission order.

The digest depends on every event's name, timestamp and payload and on
their order, so two runs under different ``PYTHONHASHSEED`` values
must print the same line: a difference means some step of the
simulation or of its event emission follows set or dict order that
string hashing decides.

Run:  PYTHONPATH=src python benchmarks/trace_digest.py
"""

from __future__ import annotations

import hashlib

from repro.core import program_wire_bytes, run_nonstrict, run_strict
from repro.harness import BENCHMARK_NAMES
from repro.observe import TraceRecorder, to_jsonl
from repro.reorder import estimate_first_use
from repro.sched import LinkOutage, run_striped
from repro.transfer import T1_LINK, links_from_bandwidths
from repro.workloads.synthetic import generate_workload

#: ``run_nonstrict`` options: (method, max_streams).
NONSTRICT = (("interleaved", None), ("parallel", None), ("parallel", 4))

TWO_LINKS = links_from_bandwidths((57_600, 28_800))


def trace_digest() -> str:
    digest = hashlib.sha256()

    def add(recorder: TraceRecorder) -> None:
        digest.update(to_jsonl(recorder.events).encode())

    for name in BENCHMARK_NAMES:
        workload = generate_workload(name)
        program, trace, cpi = (
            workload.program,
            workload.test_trace,
            workload.cpi,
        )
        recorder = TraceRecorder(clock="cycles")
        run_strict(program, trace, T1_LINK, cpi, recorder=recorder)
        add(recorder)
        order = estimate_first_use(program)
        for method, max_streams in NONSTRICT:
            for data_partitioning in (False, True):
                recorder = TraceRecorder(clock="cycles")
                run_nonstrict(
                    program,
                    trace,
                    order,
                    T1_LINK,
                    cpi,
                    method=method,
                    max_streams=max_streams,
                    data_partitioning=data_partitioning,
                    recorder=recorder,
                )
                add(recorder)
        outage = LinkOutage(
            program_wire_bytes(program) * TWO_LINKS[1].cycles_per_byte / 4,
            link_index=1,
        )
        for links, policy, outages in (
            ((T1_LINK,), "round_robin", ()),
            (TWO_LINKS, "interleaved", ()),
            (TWO_LINKS, "parallel", ()),
            (TWO_LINKS, "interleaved", (outage,)),
        ):
            recorder = TraceRecorder(clock="cycles")
            run_striped(
                program,
                trace,
                order,
                links,
                cpi,
                policy=policy,
                outages=outages,
                recorder=recorder,
            )
            add(recorder)
    return digest.hexdigest()


if __name__ == "__main__":
    print(trace_digest())
