"""Print SHA-256 digests of everything a ``ClassFileServer`` would serve.

For each of the six paper workloads, under every transfer policy and
the ``static``, ``textual`` and ``weighted`` reorder strategies, the
server plans the session exactly as it does for a negotiated fetch.
Three digests are taken over the artifacts, in send order:

* ``frames``: every pre-encoded ``UNIT`` frame, so it moves with the
  wire format as well (the protocol version byte, the unit header);
* ``payloads``: every unit's payload bytes, so it moves only when the
  served bytes or their order do;
* ``manifests``: every artifact's encoded manifest rows, the bytes each
  ``HELLO_ACK`` carries as its ``sequence``.

Each digest depends on every byte it covers and on the send order, so
two runs under different ``PYTHONHASHSEED`` values must print the same
lines: a difference means some planning step follows set or dict order
that string hashing decides.

Run:  PYTHONPATH=src python benchmarks/artifact_digest.py
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.harness import BENCHMARK_NAMES
from repro.netserve import ClassFileServer
from repro.transfer import TransferPolicy
from repro.workloads.synthetic import generate_workload

STRATEGIES = ("static", "textual", "weighted")


def artifact_digests() -> Tuple[str, str, str]:
    """The (frames, payloads, manifests) digests over all 54 artifacts."""
    frames = hashlib.sha256()
    payloads = hashlib.sha256()
    manifests = hashlib.sha256()
    for name in BENCHMARK_NAMES:
        server = ClassFileServer(generate_workload(name).program)
        for policy in TransferPolicy:
            for strategy in STRATEGIES:
                artifact = server._plan_session(policy, strategy)
                for unit in artifact.sequence:
                    frames.update(artifact.frames[unit])
                    payloads.update(artifact.payloads[unit])
                manifests.update(artifact.manifest)
    return frames.hexdigest(), payloads.hexdigest(), manifests.hexdigest()


if __name__ == "__main__":
    frame_digest, payload_digest, manifest_digest = artifact_digests()
    print(f"frames {frame_digest}")
    print(f"payloads {payload_digest}")
    print(f"manifests {manifest_digest}")
