"""The server sends what the simulator simulates.

A session artifact's send sequence, and its key index, must hold the
units the co-simulator's controller moves for the same program, order
and unit policy, in the same order: strict sessions are the
``"strict"`` policy's whole files, non-strict and data-partitioned
sessions the one-link ``"interleaved"`` policy's virtual interleaved
file.
"""

import pytest

from repro.harness import BENCHMARK_NAMES, bundle
from repro.netserve import ClassFileServer, unit_wire_key
from repro.reorder import (
    estimate_first_use,
    order_from_profile,
    restructure,
    textual_first_use,
    weighted_first_use,
)
from repro.sched import StripedController
from repro.transfer import T1_LINK, TransferPolicy, transfer_layout
from repro.vm import synthesize_profile

#: Each reorder strategy's order, as a server with a profile builds it.
ORDERS = {
    "static": lambda program, profile: estimate_first_use(program),
    "textual": lambda program, profile: textual_first_use(program),
    "profile": order_from_profile,
    "weighted": lambda program, profile: weighted_first_use(
        program, profile=profile
    ),
}


@pytest.mark.parametrize("strategy", sorted(ORDERS))
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_artifact_is_the_simulated_layout(name, strategy):
    workload = bundle(name).workload
    program = workload.program
    profile = synthesize_profile(program, workload.train_trace)
    server = ClassFileServer(program, profile=profile)
    order = ORDERS[strategy](program, profile)
    target = restructure(program, order)
    for policy in TransferPolicy:
        artifact = server._plan_session(policy, strategy)
        assert artifact.strategy == strategy
        layout = transfer_layout(target, policy, order)
        controller = StripedController(
            layout,
            (T1_LINK,),
            policy=(
                "strict" if policy == TransferPolicy.STRICT else "interleaved"
            ),
        )
        assert artifact.sequence == controller.sequence, policy
        # The one key index holds every unit under its wire key, in
        # send order.
        assert list(artifact.units.values()) == list(artifact.sequence)
        assert list(artifact.units) == [
            unit_wire_key(unit) for unit in artifact.sequence
        ]


#: The server-module function that computes each strategy's order.
ORDER_FUNCTIONS = {
    "static": "estimate_first_use",
    "textual": "textual_first_use",
    "profile": "order_from_profile",
    "weighted": "weighted_first_use",
}


@pytest.mark.parametrize("strategy", sorted(ORDER_FUNCTIONS))
def test_each_strategy_is_ordered_once_per_server(monkeypatch, strategy):
    """Every unit policy of one strategy lays out the same order, so a
    server computes it once, however many artifacts it builds."""
    from repro.netserve import server as server_module

    workload = bundle("Hanoi").workload
    program = workload.program
    server = ClassFileServer(
        program, profile=synthesize_profile(program, workload.train_trace)
    )
    name = ORDER_FUNCTIONS[strategy]
    order_function = getattr(server_module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return order_function(*args, **kwargs)

    monkeypatch.setattr(server_module, name, counted)
    for policy in TransferPolicy:
        server._plan_session(policy, strategy)
    assert server.artifact_cache.misses == len(TransferPolicy)
    assert len(calls) == 1
