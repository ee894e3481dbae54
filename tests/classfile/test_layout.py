"""Layout accounting must agree with the serializer byte-for-byte."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode import Instruction, Opcode
from repro.classfile import (
    METHOD_DELIMITER_SIZE,
    Attribute,
    ClassFile,
    ClassFileBuilder,
    FieldInfo,
    MethodInfo,
    class_layout,
    deserialize,
    global_data_breakdown,
    intern_names,
    serialize,
)
from repro.classfile import members
from repro.errors import ClassFileError
from repro.workloads.synthetic import generate_workload


def build_class(method_count=3, local_data=b"", field_count=2):
    builder = ClassFileBuilder("app/L")
    for index in range(field_count):
        builder.add_field(f"field{index}")
    for index in range(method_count):
        builder.add_method(
            f"m{index}",
            "()V",
            [
                Instruction(Opcode.ICONST, (index,)),
                Instruction(Opcode.POP),
                Instruction(Opcode.RETURN),
            ],
            local_data=local_data,
        )
    return builder.build()


def test_layout_total_matches_serialized_length():
    classfile = build_class()
    layout = class_layout(classfile)
    assert layout.strict_size == len(serialize(classfile))


def test_nonstrict_size_adds_one_delimiter_per_method():
    classfile = build_class(method_count=4)
    layout = class_layout(classfile)
    assert (
        layout.nonstrict_size
        == layout.strict_size + 4 * METHOD_DELIMITER_SIZE
    )


def test_local_plus_structural_overhead_equals_total():
    classfile = build_class(local_data=b"\xaa" * 20)
    layout = class_layout(classfile)
    assert layout.local_bytes + layout.global_bytes == layout.strict_size
    # Local data payload must be inside the local byte count.
    assert layout.local_bytes >= 20 * 3


def test_method_size_lookup():
    classfile = build_class()
    layout = class_layout(classfile)
    assert layout.method_size("m1") == classfile.method("m1").size
    with pytest.raises(ClassFileError):
        layout.method_size("missing")


def test_method_sizes_in_file_order():
    classfile = build_class()
    reordered = classfile.reordered(["m2", "m0", "m1"])
    layout = class_layout(reordered)
    assert [name for name, _ in layout.method_sizes] == ["m2", "m0", "m1"]


def test_reordering_does_not_change_sizes():
    classfile = build_class()
    before = class_layout(classfile)
    after = class_layout(classfile.reordered(["m2", "m0", "m1"]))
    assert before.strict_size == after.strict_size
    assert before.global_size == after.global_size


def test_global_breakdown_percentages_sum():
    classfile = build_class()
    breakdown = global_data_breakdown(classfile)
    of_global = breakdown.percent_of_global()
    assert sum(of_global.values()) == pytest.approx(100.0)
    of_pool = breakdown.percent_of_pool()
    # Tag percentages cover the entry bytes; the 2-byte count header is
    # the only part not attributed to a tag.
    assert sum(of_pool.values()) == pytest.approx(
        100.0 * (breakdown.constant_pool - 2) / breakdown.constant_pool
    )


def test_utf8_dominates_pool_like_the_paper():
    # Paper Table 8: Utf8 strings are the largest pool component for
    # real programs.  Our builder-produced classes (all names interned)
    # show the same shape.
    classfile = build_class(method_count=8, field_count=6)
    breakdown = global_data_breakdown(classfile)
    of_pool = breakdown.percent_of_pool()
    assert of_pool["Utf8"] == max(of_pool.values())


@settings(max_examples=25, deadline=None)
@given(
    method_count=st.integers(1, 6),
    field_count=st.integers(0, 5),
    local_size=st.integers(0, 64),
)
def test_layout_serializer_agreement_property(
    method_count, field_count, local_size
):
    classfile = build_class(
        method_count=method_count,
        field_count=field_count,
        local_data=b"\x00" * local_size,
    )
    layout = class_layout(classfile)
    assert layout.strict_size == len(serialize(classfile))
    assert layout.global_size + layout.local_bytes <= layout.strict_size


def hand_built_class():
    """A class made without the builder: its pool starts empty."""
    return ClassFile(
        name="app/Raw",
        interfaces=("app/Iface",),
        fields=(
            FieldInfo("count", attributes=(Attribute("Note", b"n"),)),
        ),
        methods=[
            MethodInfo(
                "run",
                "(I)I",
                [
                    Instruction(Opcode.LOAD, (0,)),
                    Instruction(Opcode.IRETURN),
                ],
                local_data=b"\x01\x02",
                attributes=(Attribute("Extra", b"xyz"),),
            ),
            MethodInfo("idle", "()V", [Instruction(Opcode.RETURN)]),
        ],
        attributes=(Attribute("SourceFile", b"Raw.src"),),
    )


@pytest.mark.parametrize(
    "lay_out",
    [class_layout, global_data_breakdown, intern_names],
    ids=["class_layout", "global_data_breakdown", "intern_names"],
)
def test_layout_interns_every_name_serialize_needs(lay_out):
    classfile = hand_built_class()
    assert len(classfile.constant_pool) == 0
    lay_out(classfile)
    interned = list(classfile.constant_pool)
    image = serialize(classfile)
    # serialize adds nothing beyond the layout's interning pass ...
    assert list(classfile.constant_pool) == interned
    # ... which leaves the pool exactly as serialize alone would.
    reference = hand_built_class()
    serialize(reference)
    assert list(reference.constant_pool) == interned
    assert class_layout(classfile).strict_size == len(image)
    assert deserialize(image).name == "app/Raw"


def test_intern_names_twice_adds_nothing():
    classfile = hand_built_class()
    intern_names(classfile)
    interned = list(classfile.constant_pool)
    intern_names(classfile)
    assert list(classfile.constant_pool) == interned


def test_layout_sums_each_method_once(monkeypatch):
    """One code-size sum per method: size and local bytes share it."""
    classfile = generate_workload("Jess").program.class_named("jess/C72")
    expected = [(method.name, method.size) for method in classfile.methods]
    sums = []
    code_size = members.code_size

    def counting_code_size(instructions):
        sums.append(len(instructions))
        return code_size(instructions)

    monkeypatch.setattr(members, "code_size", counting_code_size)
    layout = class_layout(classfile)
    assert len(classfile.methods) == 16
    assert len(sums) == 16
    assert list(layout.method_sizes) == expected
