"""Pinned byte accounting on the six paper workloads.

Each class is laid out, partitioned and planned from scratch on every
call, through a constant pool that keeps its byte total and Utf8 index
as entries are added.  Those shortcuts must not move a byte: for every
workload, in file order and restructured by its SCG order, these
SHA-256 digests pin every class's wire image, its ``class_layout`` and
``partition_class``, the program's plans under each transfer policy
(and with per-block delimiters), and ``program_fingerprint``, the key
of the serving artifact cache.  Any drift here is a behaviour change.
"""

import hashlib

import pytest

from repro.classfile import class_layout, serialize
from repro.datapart import partition_class
from repro.harness.experiments import BENCHMARK_NAMES, bundle
from repro.netserve.cache import program_fingerprint
from repro.reorder import restructure
from repro.transfer import TransferPolicy, build_program_plans

#: Per workload and layout: the digest of each accounting result.
PINNED = {
    "BIT": {
        "file": {
            "serialize": "0e2ffbdd6f98e404db4bd7474c89529d15be391a6a2d17f54b9bba49189ffec8",
            "layout": "9b670cafb9e9e117aa2af5bb34cd682e8fa9836f1499e1a9e0c615587eeb8671",
            "partition": "3fc9b47e60f6fa4f705aa6a982d322c5f792b8c3c4c63f925d8bf1466c6e0ca9",
            "strict": "902e2369fe81b056084087daceb66734d0ec032589b92462d1fc74e53ce373d4",
            "non_strict": "49a677ad8dc4be892840d54b3f4a06b21a240449b333317b05de559c6113ed2d",
            "data_partitioned": "0c65a63d128fedbb48fe2289d49ae9f1cf96e88dca7f62087f1eee594b5a1d12",
            "non_strict_blocks": "f4a438d104b41bf3dc561cd5fea700f288989b2ba30c53ce1da724a221598a07",
            "fingerprint": "9a76dbb17260ef1c",
        },
        "scg": {
            "serialize": "536e099bec53ccc0d1cee80626552fce1e8bd7541892c75acfc0b9f68573a10e",
            "layout": "d7b451fbbbe03e25cda64eb5d3b80b6de1f49d2a2feab4d6ae27383ff81b3352",
            "partition": "2efcc45a163ead661dce10e64ab84a53f67f20cdc830267df5d35c997d189e5a",
            "strict": "d95eaee0292cf8e14d4349c483ac4a92a4f3294e74d96ad299d3f14922b4dba2",
            "non_strict": "c0a7cb31019b388a3ecbb10e5e2b3020abd42bd6878a9470f3e067fff0145fd9",
            "data_partitioned": "4167c3dc8a2242c53781017d892dbe7320c4a24998ba0057c3fc35c368961f02",
            "non_strict_blocks": "01af34eb5d8f907db87ceccaf951b402f40094e849fe324cf2f03a1b0ad05f95",
            "fingerprint": "631db177701c7b42",
        },
    },
    "Hanoi": {
        "file": {
            "serialize": "5abc385332cf8e95aece184dae24292fb42579bc95f47b193482e110d06ad659",
            "layout": "dd68020c8ffebfabe49bd44276ab59eb32088b76b233fbaa384022259f575b17",
            "partition": "cb83ee2cb3548f4dd2f4d06d6745ed2edf0cb77e96f3f68348c7725fa6570313",
            "strict": "2fb27270b2a8d4e5e8536b0cd9e49cabc29b6de46aa4d18ea6aa095eadbbf686",
            "non_strict": "4e367ec9ddbcb067d695986ca90a6cc95e9c1c6656d9c9bfbd2b41fdda36dfb3",
            "data_partitioned": "32ce5abf8261b2730b693b67d9971b1c660b9a4640993b48eb99c5e03055c4fb",
            "non_strict_blocks": "4667a0a3814aba5e83de32775b35fea01516788044a30a8d998527a99f49f084",
            "fingerprint": "c461ef68886ed6fe",
        },
        "scg": {
            "serialize": "bf7255595499900751cb60b62be417c7a928f7fa8a521ff4b80104f9325d9fb3",
            "layout": "77b97b49f7218dcf3fe1cdcb30fd85472d5882f5f565bfcb18910445ace8a6cd",
            "partition": "bbed72d2322a5b7edd4c29dba9679ff4bb7b1e6a85ebad04a19dc694f437d8f4",
            "strict": "2fb27270b2a8d4e5e8536b0cd9e49cabc29b6de46aa4d18ea6aa095eadbbf686",
            "non_strict": "130888ab4e6c0f7de135111e6e1fa8e36e93b02f7e1162a1d59869be8f49bf85",
            "data_partitioned": "915c8fe8ac59378d31c239cf3d14da4fcdacaad51205e54bb26d5377894b5e7a",
            "non_strict_blocks": "b2b55325ae02d416778c6461874e17c0f712ea7c367e42b75a27ca2e9b96f8a2",
            "fingerprint": "5b2bb265ddaf3172",
        },
    },
    "JavaCup": {
        "file": {
            "serialize": "deed04ca98a34e525ae8dae364da91c6750a7565d3294c5ad6f4137bf6be2fda",
            "layout": "9b2acb0e7d4d282a1acd2058ad8cb60aff1c2c3c30c1a93a4ea4da4175d206a2",
            "partition": "63a8fb11192bac82250e76277c18d8081a4548338da564b402214d45d3e0f3f5",
            "strict": "3c864b675c17351cdf352c09f20994b655d6afe8d00fe804d15aefa2ac384546",
            "non_strict": "d5ad3d424c29181460e856b1e396f5e2474f585f5469fc5ddbacb44dd4462345",
            "data_partitioned": "e0631e6ec99f7fc315838678ed4cc69f62f9088012dbb863b6cd12752971e5cf",
            "non_strict_blocks": "5b73a9d7dc09805aa7c95efbbf2caa58b5ebb6791ca261a673e6f9d6397b45c6",
            "fingerprint": "b193b58e280ddb6e",
        },
        "scg": {
            "serialize": "8df468f211b22ded07fbb3369c85ad9793d6144759c894b91e9c85f6ae2300d4",
            "layout": "d45668a22a8e20afff9aa5712d7cfd5761285ef217a4a346f85c768ab0242626",
            "partition": "62e386ed76bc1c70daf101faafbc323499becec9d1e7a60ce281abe47ee2984c",
            "strict": "a06f3941e670a5006b342e149b74ee1ee6cddca25ba7f27dfa77a3dd686cc91f",
            "non_strict": "763cc1c8ea4af57413540eea8aac676f28e26705c5ade0821c3fec7ee525cb68",
            "data_partitioned": "c1ac8e441cfd8324f8f59077adb596e91be6b43d5c2a1dce3b6a2a19ae689c65",
            "non_strict_blocks": "30aa780c522044b3309e6f61788b106dfb224474f50d1d3ad1aecf5bb4892d50",
            "fingerprint": "3a3b5b6cf232254a",
        },
    },
    "Jess": {
        "file": {
            "serialize": "51c53b6951550f4ce8e06071f52523ba5de71e5ebf8acec0b027789334c16a6f",
            "layout": "59eee9af8a1d83241bdf901b307de792efac91460855ab8f903b7b50fabacfd9",
            "partition": "1b83d10a3fc4d527635e0135e505ea215146d20308fffdd1cdf5cad0fa72c06e",
            "strict": "d1832349d508acaa154dbe621f671b87b0256444d54bd210a5f5db23f8400f7c",
            "non_strict": "b4df5587f39f28aad09cbf1678b4b06b960891900d01671f1d8e70a24910b0d5",
            "data_partitioned": "4981351477979e998663446235b022ca8a05b87ca1aa89da6e70cf1e59561a93",
            "non_strict_blocks": "befcc90979f2d662702259249931fbf650744d61b8bd37d72c9d49cbb9748d81",
            "fingerprint": "cf2fda66512a9ee4",
        },
        "scg": {
            "serialize": "e29d383ecfc01767123ddcd6d6a3e8746abbeed85f89e804c68132de7e2f60ff",
            "layout": "f7b8dc5a00385ebd46e059fcc8cdced6f4394760a200679a2aaa3b3f5140a4d2",
            "partition": "ddd51ae0ceb229bb9f373f753e1fb26470b16c069baafddedebe27b5e922a85e",
            "strict": "b506411e478632da70deec1bc4bcbe10c05227112c27a84e687d95416a15b7d5",
            "non_strict": "d2347aabdc1d76b028a3ed1d790a9b32ba14a64f798c1541b2613f00bb6b86e9",
            "data_partitioned": "1220b963a545a2141f99f20148513bbbc42808402ffd72b42f06c77fcaba17e8",
            "non_strict_blocks": "c7ff7b86366343761573be8f033b9d65399e4bee70e6751b14a7abc9c4f04b7e",
            "fingerprint": "ddd2a4949b10d607",
        },
    },
    "JHLZip": {
        "file": {
            "serialize": "699c4855c91c03a90a6959b98dd3f78e9163d607c1c6cdc392394146e6d8a4dd",
            "layout": "ad937ef2d33763f496a7cf8c0f0798975e6d44aa5f4fa7f964f05ced44fd2688",
            "partition": "ced5094c693c6b4489ba15c50a946684264648f0210566e7bfce3f12c410cf22",
            "strict": "fc4831452ad7fed7e68255ebaa0c1f629a91a4c00b80a4bd3578ecbc590f6a26",
            "non_strict": "7cf1a95409f169489dbbaa089631f74f58ea1779ab83830d9f029fc4b92a3484",
            "data_partitioned": "77d4b9db3cdda79a71d460d7c84f22545ca76d13469491cf82f582dbe40d6266",
            "non_strict_blocks": "b4209438ce9d697880ccfea4e479123c9572a2efe7f688fee188672fe35ba8ce",
            "fingerprint": "12858fa4da858159",
        },
        "scg": {
            "serialize": "9a89b1c55de4463ae23f0b51629ff023515994885c2a5843fa8768379cef9e14",
            "layout": "cc0e5debf668a44830728fb82ed048382b29b8d5b183d34343581ec5194cfb9e",
            "partition": "1049b53428c86f862579fb7ad40c07ed5cc4e487a255929ecebfa0e4683b4a22",
            "strict": "e68698f7e6db83984e757323f3c1dc995fabb329c7575ff1ab003e28c598f1bc",
            "non_strict": "16882c76f79f69b18269b0dae5eba1c884f7d768bab7fbb3c1d766dc4c664a6f",
            "data_partitioned": "5a3dd92ba3d4f574b2da83acf04a888c5462f337f57d007d25a7b13cbbf38d2e",
            "non_strict_blocks": "f4e52d0696a736032ea15aadf8b28517c2a681c2616f50b7b804165610748c93",
            "fingerprint": "d6477b9d1cda542a",
        },
    },
    "TestDes": {
        "file": {
            "serialize": "69171c27c31043d1eb2e951e24e5e239b7a5439a24bf61ce19c02b59f0bec023",
            "layout": "f769ae0089cfe1ec76d52222ab8911d7582306b1ccc462ea23793c22a0fc7020",
            "partition": "c7f38be5036b487552c09e3a7ba3c4f9af3e2864b81dd671f10b7efc8e7f5327",
            "strict": "b8de6f094951e0badce8f3224c9aa38843923832df21ad26e81a0f8d865fd64d",
            "non_strict": "bd7408a826bbb833ce7e28dfd98d24f2f517f80ecb494303e237cc078ee4916f",
            "data_partitioned": "2e058ea4d2b4d0513a963d2e58aa776f209246d41add3988f27be9af7dc3b2bc",
            "non_strict_blocks": "67d56ef5e6772f03495339a275b1f7f0a952b19f14e450fa45106021fc77bb07",
            "fingerprint": "a1788bc24b5b7f17",
        },
        "scg": {
            "serialize": "c83136a23f45674152e6c3647d0d4937d0cbd9d751b8d0ecc43aa05b652cf44c",
            "layout": "49e4ed4eff2cf5f4be52b3e9f11dd009c16affba6afa7a819a6c84db97759330",
            "partition": "ea862c4b1124738d382d8800b39cb33ae7538073847286817f31821f4111042d",
            "strict": "b8de6f094951e0badce8f3224c9aa38843923832df21ad26e81a0f8d865fd64d",
            "non_strict": "001ea0a65d61449fe01b4a817be46fd76b714487c0a1d563de55724644f2a7b5",
            "data_partitioned": "445e994d1afac3043db6b0f4f966f0c528d8f320efc95af1591ef6b95b7ff74f",
            "non_strict_blocks": "23c5b1a2cc06677f77e58aa69a06c0041d79617f2d31aaca46690035d3da4c52",
            "fingerprint": "457c93bae64411ec",
        },
    },
}


def _digest(parts):
    """SHA-256 over length-prefixed byte strings."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(4, "big"))
        digest.update(part)
    return digest.hexdigest()


def _digests(program):
    classes = program.classes
    digests = {
        "serialize": _digest(serialize(cf) for cf in classes),
        "layout": _digest(repr(class_layout(cf)).encode() for cf in classes),
        "partition": _digest(
            repr(partition_class(cf, class_layout(cf))).encode()
            for cf in classes
        ),
        "non_strict_blocks": _digest(
            [
                repr(
                    build_program_plans(
                        program,
                        TransferPolicy.NON_STRICT,
                        block_delimiters=True,
                    )
                ).encode()
            ]
        ),
        "fingerprint": program_fingerprint(program),
    }
    for policy in TransferPolicy:
        digests[policy.value] = _digest(
            [repr(build_program_plans(program, policy)).encode()]
        )
    return digests


def test_every_workload_is_pinned():
    assert sorted(PINNED) == sorted(BENCHMARK_NAMES)


@pytest.mark.parametrize("layout", ["file", "scg"])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_accounting_matches_pinned_digests(name, layout):
    item = bundle(name)
    program = item.workload.program
    if layout == "scg":
        program = restructure(program, item.scg)
    assert _digests(program) == PINNED[name][layout]
