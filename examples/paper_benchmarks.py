#!/usr/bin/env python3
"""Explore one of the paper's six benchmarks in depth.

Generates the calibrated synthetic equivalent of a paper benchmark,
shows its statistics against the published numbers, and walks one
configuration through the co-simulator with full detail (stalls,
demand fetches, terminated bytes).

Run:  python examples/paper_benchmarks.py [BIT|Hanoi|JavaCup|Jess|JHLZip|TestDes]
"""

import sys

from repro import MODEM_LINK, T1_LINK, strict_baseline
from repro.classfile import class_layout
from repro.core import Simulator
from repro.harness import bundle
from repro.reorder import restructure
from repro.sched import StripedController


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "Jess"
    item = bundle(name)
    workload = item.workload
    spec = workload.spec
    program = workload.program

    print(f"=== {spec.name}: {spec.description} ===")
    total_kb = (
        sum(
            class_layout(classfile).strict_size
            for classfile in program.classes
        )
        / 1024
    )
    print(
        f"classes: {len(program.classes)} (paper {spec.total_files}); "
        f"methods: {program.method_count} (paper {spec.total_methods}); "
        f"wire size: {total_kb:.0f} KB"
    )
    print(
        f"dynamic instructions: "
        f"{workload.test_trace.total_instructions:,} test / "
        f"{workload.train_trace.total_instructions:,} train; "
        f"CPI {spec.cpi}"
    )
    used = workload.test_trace.methods_used()
    print(
        f"methods used by the test input: {len(used)} of "
        f"{program.method_count}"
    )

    for link in (T1_LINK, MODEM_LINK):
        base = strict_baseline(
            program, workload.test_trace, link, workload.cpi
        )
        print(f"\n--- {link.name}: strict = {base.total_cycles/1e6:,.0f}"
              f" Mcycles ({base.percent_transfer:.1f}% transfer) ---")
        for label, order in (
            ("SCG  ", item.scg),
            ("Train", item.train),
            ("Test ", item.test),
        ):
            target = restructure(program, order)
            interleaved = Simulator(
                target,
                workload.test_trace,
                StripedController(
                    target, order, (link,), policy="interleaved",
                ),
                workload.cpi,
            ).run()
            parallel = Simulator(
                target,
                workload.test_trace,
                StripedController(
                    target, order, (link,),
                    policy="parallel", max_streams=4,
                ),
                workload.cpi,
            ).run()
            demand_fetches = sum(
                entry.demand_fetched for entry in parallel.latencies.entries
            )
            print(
                f"  {label} interleaved: "
                f"{interleaved.normalized_to(base.total_cycles):5.1f}% "
                f"({interleaved.stall_count:4} stalls, "
                f"{interleaved.bytes_terminated/1024:6.1f} KB cut off) | "
                f"parallel(4): "
                f"{parallel.normalized_to(base.total_cycles):5.1f}% "
                f"({demand_fetches} demand fetches)"
            )


if __name__ == "__main__":
    main()
