"""Micro-benchmarks of the substrates (throughput, not paper tables)."""

from repro.bytecode import assemble, decode, encode
from repro.classfile import deserialize, serialize
from repro.core import Simulator
from repro.reorder import estimate_first_use, restructure
from repro.sched import StripedController
from repro.transfer import T1_LINK, TransferPolicy, transfer_layout
from repro.vm import VirtualMachine
from repro.workloads import fibonacci_program
from repro.workloads.synthetic import generate_workload


def test_vm_dispatch_rate(benchmark):
    program = fibonacci_program(16)

    def run():
        return VirtualMachine(program).run().instructions_executed

    instructions = benchmark(run)
    assert instructions > 10_000


def test_serializer_roundtrip_throughput(benchmark):
    classfile = generate_workload("JHLZip").program.classes[0]
    image = serialize(classfile)

    def roundtrip():
        return serialize(deserialize(image))

    assert benchmark(roundtrip) == image


def test_bytecode_codec_throughput(benchmark):
    instructions = assemble(
        "\n".join(["iconst 7", "pop"] * 500 + ["return"])
    )

    def codec():
        return decode(encode(instructions))

    assert benchmark(codec) == instructions


def test_static_estimator_runtime(benchmark):
    program = generate_workload("JHLZip").program

    def estimate():
        return len(estimate_first_use(program))

    assert benchmark(estimate) == program.method_count


def test_stream_engine_event_rate(benchmark):
    """The co-simulation core's one-link lane: JHLZip's interleaved
    file on T1, replayed against its Test trace."""
    workload = generate_workload("JHLZip")
    order = estimate_first_use(workload.program)
    layout = transfer_layout(
        restructure(workload.program, order), TransferPolicy.NON_STRICT, order
    )
    controller = StripedController(layout, (T1_LINK,), policy="interleaved")
    simulator = Simulator(workload.test_trace, controller, workload.cpi)

    result = benchmark(simulator.run)
    assert len(result.latencies.entries) == len(
        workload.test_trace.methods_used()
    )
