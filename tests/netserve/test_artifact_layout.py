"""The server sends what the simulator simulates.

A session artifact's send sequence, and each class's units, must be the
ones the co-simulator's controller moves for the same program, order
and unit policy: strict sessions are the ``"strict"`` policy's whole
files, non-strict and data-partitioned sessions the one-link
``"interleaved"`` policy's virtual interleaved file.
"""

import pytest

from repro.harness import BENCHMARK_NAMES, bundle
from repro.netserve import ClassFileServer
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
        assert set(artifact.units_by_class) == set(layout.plans)
        for class_name, plan in layout.plans.items():
            assert artifact.units_by_class[class_name] == plan.units
