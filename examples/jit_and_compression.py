#!/usr/bin/env python3
"""The paper's two outlooks, realized: JIT overlap and compression.

Section 2.1 frames compression as a complementary latency-avoidance
technique; §8 closes by proposing to overlap JIT compilation with
transfer.  This example runs both extensions on a paper benchmark and
stacks them against the plain configurations.

Run:  python examples/jit_and_compression.py [benchmark] [--modem]
"""

import sys

from repro import strict_baseline
from repro.core import (
    JitModel,
    Simulator,
    simulate_jit_overlap,
    strict_jit_total,
)
from repro.harness import bundle
from repro.reorder import restructure
from repro.sched import StripedController
from repro.transfer import MODEM_LINK, T1_LINK, program_compression_ratios

JIT = JitModel(compile_cycles_per_byte=600.0, compiled_cpi=60.0)


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "Jess"
    link = MODEM_LINK if "--modem" in sys.argv else T1_LINK
    item = bundle(name)
    workload = item.workload
    program = workload.program
    trace = workload.test_trace
    target = restructure(program, item.test)

    base = strict_baseline(program, trace, link, workload.cpi)
    print(f"=== {name} over {link.name} ===")
    print(
        f"strict (interpreted):        "
        f"{base.total_cycles/1e6:10,.0f} Mcycles  (100.0%)"
    )

    def interleaved(**options):
        controller = StripedController(
            target, item.test, (link,), policy="interleaved", **options,
        )
        return Simulator(target, trace, controller, workload.cpi).run()

    plain = interleaved()
    print(
        f"non-strict interleaved:      "
        f"{plain.total_cycles/1e6:10,.0f} Mcycles  "
        f"({plain.normalized_to(base.total_cycles):5.1f}%)"
    )

    compressed = interleaved(ratios=program_compression_ratios(target))
    print(
        f"  + zlib-compressed units:   "
        f"{compressed.total_cycles/1e6:10,.0f} Mcycles  "
        f"({compressed.normalized_to(base.total_cycles):5.1f}%)"
    )

    strict_jit = strict_jit_total(program, trace, link, JIT)
    print(
        f"strict JIT (xfer+compile+run):"
        f"{strict_jit/1e6:9,.0f} Mcycles  (100.0% of JIT base)"
    )
    overlapped = simulate_jit_overlap(
        program, trace, item.test, link, JIT
    )
    print(
        f"non-strict JIT overlap:      "
        f"{overlapped.total_cycles/1e6:10,.0f} Mcycles  "
        f"({100 * overlapped.total_cycles / strict_jit:5.1f}% of JIT "
        f"base; {100 * overlapped.overlap_fraction:.0f}% of "
        "compilation hidden in stalls)"
    )


if __name__ == "__main__":
    main()
