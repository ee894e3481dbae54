"""Print one SHA-256 over every frame a ``ClassFileServer`` would serve.

For each of the six paper workloads, under every transfer policy and
the ``static``, ``textual`` and ``weighted`` reorder strategies, the
server plans the session exactly as it does for a negotiated fetch and
the artifact's pre-encoded ``UNIT`` frames are hashed in send order.

The digest depends on every served byte and on the send order, so two
runs under different ``PYTHONHASHSEED`` values must print the same
line: a difference means some planning step follows set or dict order
that string hashing decides.

Run:  PYTHONPATH=src python benchmarks/artifact_digest.py
"""

from __future__ import annotations

import hashlib

from repro.harness import BENCHMARK_NAMES
from repro.netserve import ClassFileServer
from repro.transfer import TransferPolicy
from repro.workloads.synthetic import generate_workload

STRATEGIES = ("static", "textual", "weighted")


def artifact_digest() -> str:
    digest = hashlib.sha256()
    for name in BENCHMARK_NAMES:
        server = ClassFileServer(generate_workload(name).program)
        for policy in TransferPolicy:
            for strategy in STRATEGIES:
                artifact = server._plan_session(policy, strategy)
                for unit in artifact.sequence:
                    digest.update(artifact.frames[unit])
    return digest.hexdigest()


if __name__ == "__main__":
    print(artifact_digest())
