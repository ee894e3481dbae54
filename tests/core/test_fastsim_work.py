"""Work counts of the batched core's watermark releases, counted in
tests.

A ``parallel`` run scans its pending grains' watermarks whenever
enough bytes have flowed.  Every grain's watermark classes are a
prefix of the controller's ``watermark_order``, so a scan reads each
class's delivered bytes at most once: O(classes) per scan, not
O(classes²).  The reads are counted by patching the core's stream
record here; the library counts nothing.
"""

import sys

from repro.core import fastsim, run_nonstrict
from repro.harness import bundle
from repro.transfer import T1_LINK


def _observable(result):
    return (
        result.total_cycles,
        tuple((stall.method, stall.start, stall.duration) for stall in result.stalls),
        tuple(
            (entry.method, entry.latency, entry.demand_fetched)
            for entry in result.latencies.entries
        ),
    )


def test_parallel_release_reads_each_class_once_per_scan(monkeypatch):
    item = bundle("Jess")
    workload = item.workload

    def run():
        return run_nonstrict(
            workload.program,
            workload.test_trace,
            item.scg,
            T1_LINK,
            workload.cpi,
            method="parallel",
        )

    expected = run()
    reads_per_scan = []
    scan = [None]

    class CountedStream(fastsim._FastStream):
        __slots__ = ("_delivered",)

        @property
        def delivered(self):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "release":
                if caller is not scan[0]:
                    scan[0] = caller  # held, so no later scan reuses it
                    reads_per_scan.append(0)
                reads_per_scan[-1] += 1
            return self._delivered

        @delivered.setter
        def delivered(self, value):
            self._delivered = value

    monkeypatch.setattr(fastsim, "_FastStream", CountedStream)
    result = run()
    assert _observable(result) == _observable(expected)
    assert len(reads_per_scan) > 10
    assert max(reads_per_scan) <= len(workload.program.classes)
