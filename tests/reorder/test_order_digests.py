"""Pinned first-use orders on the six paper workloads.

Each digest is the SHA-256 of the order's method sequence, one
``Class.method`` per line.  Refactors of the analyses behind the orders
(CFGs, loops, dataflow, the interprocedural pass) must not move a
single method, so any drift here is a behaviour change.
"""

import hashlib

import pytest

from repro.harness.experiments import BENCHMARK_NAMES, bundle
from repro.reorder import FirstUseOrder, estimate_first_use, weighted_first_use

#: Per workload: the ``static`` order, the profile-less ``weighted``
#: order, and the ``weighted`` order built from the train profile.
PINNED = {
    "BIT": (
        "1e66817807a3662fb8505b7d15bfebee12dfa328727628527303e7f035f617dd",
        "4e59298fdfcb84c8c8be450aaff4b0e0ede13bd3a14b580c215b15fb2e5ec569",
        "e87095ef0ca0681e3b5b25ad2c224aafc22793b2b720e3dce251ade214c49bbb",
    ),
    "Hanoi": (
        "d0c11759e8ca61987bd930ca21f9db36f45a65f91c2b02663b76bf5c1b64bebf",
        "0c7bd426924a3eea43aa39d689be1160560879fb24d0bff0d48c3538cf198567",
        "554891edb852448f113bb7a8b713bd2e3439b3f8a64f389e4be25a93eb2a311d",
    ),
    "JavaCup": (
        "6286fbc6c1ea157c5b57a2d8a5dfb573d5d2d7cf6bbf0729cb4bb89b9c9a7513",
        "8448ee54224b18edf8137c943bca5f480bfa08432165753286c802ef7be70516",
        "e6ac810ccaeffc4c845c0a506723e3b508fa1d0e28ba78a6cc80fa088ad225ff",
    ),
    "Jess": (
        "a9b1546b5bb31aedfa5387fb860ec31411303eeb13bf3b0587364af5b75f9fb2",
        "7242f55519a87928e2b18a750d612b6a41df28212ecba408fa281044799f8e7a",
        "9d50d8c16169c7debfb0f7f414b5583244abeef49ebecdee5b58aa90a5d45389",
    ),
    "JHLZip": (
        "e3a775510ad30fa775323359056694116d01048993b7b47291204d43965ba5c0",
        "4322463232d335441175ff6c6ee89c31c5326f1e4f5a99275e813c162be6a831",
        "b796d2f2d7bda0a094d4c573b331761d340e0111e4632edbc897fc80c2ef2cf8",
    ),
    "TestDes": (
        "4ea81bf12428771e48f4d45978dc4e744b757fcdb01e69f201065ee4aff74364",
        "acb37264ab24cb44c1d49e7cfd0bd78d1c2305c56dbdf696e9b2115b10ca4885",
        "76bc4983212deae7710a18c2d0aa181bd9c89d371b7995ae072dc7167ebccb05",
    ),
}


def _digest(order: FirstUseOrder) -> str:
    sequence = "\n".join(str(method) for method in order.order)
    return hashlib.sha256(sequence.encode()).hexdigest()


def test_every_workload_is_pinned():
    assert sorted(PINNED) == sorted(BENCHMARK_NAMES)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_orders_match_pinned_digests(name):
    item = bundle(name)
    program = item.workload.program
    static, weighted, weighted_train = PINNED[name]
    assert _digest(estimate_first_use(program)) == static
    assert _digest(weighted_first_use(program)) == weighted
    # bundle() builds this one from the train profile at the
    # workload's CPI.
    assert _digest(item.weighted) == weighted_train
