"""GMD partitioning: exact accounting and first-use attribution."""

import pytest

from repro.bytecode import Opcode, assemble
from repro.classfile import (
    CODE_ATTRIBUTE,
    LOCAL_DATA_ATTRIBUTE,
    ClassFileBuilder,
    ConstantPool,
    MethodRefEntry,
    Utf8Entry,
    class_layout,
)
from repro.datapart import (
    DataPartition,
    method_pool_references,
    partition_class,
    partition_program,
    pool_references_by_method,
    reference_closure,
    setup_pool_references,
)
from repro.errors import ClassFileError, ConstantPoolError
from repro.harness import BENCHMARK_NAMES, bundle
from repro.reorder import restructure
from repro.workloads import figure1_program


def partition_of(classfile):
    return partition_class(classfile, class_layout(classfile))


def test_partition_accounts_for_every_global_byte():
    program = figure1_program()
    for classfile in program.classes:
        layout = class_layout(classfile)
        partition = partition_class(classfile, layout)
        assert partition.total_global_bytes == layout.global_bytes


def test_percentages_sum_to_100():
    for classfile in figure1_program().classes:
        percentages = partition_of(classfile).percentages()
        assert sum(percentages.values()) == pytest.approx(100.0)


def test_entry_attributed_to_first_user():
    """A constant used by two methods lands in the earlier one's GMD."""
    builder = ClassFileBuilder("Share")
    shared_index = builder.add_string_constant(
        "a shared constant string payload"
    )
    builder.add_method(
        "first", "()V", assemble(f"ldc {shared_index}\npop\nreturn")
    )
    builder.add_method(
        "second", "()V", assemble(f"ldc {shared_index}\npop\nreturn")
    )
    partition = partition_of(builder.build())
    assert partition.gmd_size("first") > partition.gmd_size("second")


def test_unused_entries_detected():
    builder = ClassFileBuilder("Waste")
    builder.add_string_constant("never referenced by any method at all")
    builder.add_method("main", "()V", assemble("return"))
    partition = partition_of(builder.build())
    assert partition.unused_bytes > 0


def test_no_unused_when_everything_referenced():
    builder = ClassFileBuilder("Tight")
    index = builder.add_string_constant("used!")
    builder.add_method(
        "main", "()V", assemble(f"ldc {index}\npop\nreturn")
    )
    partition = partition_of(builder.build())
    assert partition.unused_bytes == 0


def test_gmd_order_follows_file_order():
    program = figure1_program()
    reordered = program.class_named("A").reordered(
        ["Bar_A", "main", "Foo_A"]
    )
    partition = partition_of(reordered)
    assert [name for name, _ in partition.gmd_sizes] == [
        "Bar_A",
        "main",
        "Foo_A",
    ]


def test_reordering_moves_shared_bytes_to_new_first_user():
    program = figure1_program()
    classfile = program.class_named("A")
    original = partition_of(classfile)
    reordered = partition_of(
        classfile.reordered(["Bar_A", "main", "Foo_A"])
    )
    # Totals are invariant under reordering.
    assert (
        original.total_global_bytes == reordered.total_global_bytes
    )
    assert original.unused_bytes == reordered.unused_bytes
    assert original.first_bytes == reordered.first_bytes


def test_gmd_lookup_unknown_method_raises():
    partition = partition_of(figure1_program().classes[0])
    with pytest.raises(ClassFileError):
        partition.gmd_size("missing")


def test_setup_references_include_class_and_fields():
    classfile = figure1_program().class_named("A")
    pool = classfile.constant_pool
    setup = setup_pool_references(classfile)
    assert pool.find_utf8("A") in setup
    assert pool.find_utf8("a_total") in setup


def test_method_references_include_call_chain():
    classfile = figure1_program().class_named("A")
    pool = classfile.constant_pool
    main = classfile.method("main")
    refs = method_pool_references(classfile, main)
    # main calls B.Bar_B, so the Utf8 for "Bar_B" must be reachable.
    assert pool.find_utf8("Bar_B") in refs
    assert pool.find_utf8("main") in refs


def test_reference_closure_transitive():
    classfile = figure1_program().class_named("A")
    pool = classfile.constant_pool
    method_ref_index = next(
        index
        for index, entry in pool.entries()
        if type(entry).__name__ == "MethodRefEntry"
    )
    closure = reference_closure(pool, {method_ref_index})
    # MethodRef -> Class -> Utf8 and -> NameAndType -> 2x Utf8.
    assert len(closure) >= 5


def test_partition_program_covers_all_classes():
    partitions = partition_program(figure1_program())
    assert set(partitions) == {"A", "B"}


# -- the one-pass attribution against a brute-force oracle -------------


def brute_force_method_references(classfile, method):
    """A method's pool references, scanning the whole pool per method."""
    pool = classfile.constant_pool
    roots = {
        instruction.operand
        for instruction in method.instructions
        if instruction.opcode
        in (Opcode.LDC, Opcode.CALL, Opcode.GETSTATIC, Opcode.PUTSTATIC)
    }
    names = [method.name, method.descriptor, CODE_ATTRIBUTE]
    if method.local_data:
        names.append(LOCAL_DATA_ATTRIBUTE)
    names.extend(attribute.name for attribute in method.attributes)
    for name in names:
        index = pool.find_utf8(name)
        if index is not None:
            roots.add(index)
    for index, entry in pool.entries():
        if isinstance(entry, MethodRefEntry) and pool.member_ref(index) == (
            classfile.name,
            method.name,
            method.descriptor,
        ):
            roots.add(index)
    return reference_closure(pool, roots)


def brute_force_partition(classfile):
    global_size = class_layout(classfile).global_size
    sizes = {
        index: entry.size
        for index, entry in classfile.constant_pool.entries()
    }
    setup = setup_pool_references(classfile)
    assigned = set(setup)
    gmd_sizes = []
    for method in classfile.methods:
        fresh = brute_force_method_references(classfile, method) - assigned
        assigned |= fresh
        gmd_sizes.append((method.name, sum(sizes[i] for i in fresh)))
    setup_bytes = sum(sizes[i] for i in setup)
    return DataPartition(
        class_name=classfile.name,
        first_bytes=setup_bytes + global_size - sum(sizes.values()),
        setup_pool_bytes=setup_bytes,
        gmd_sizes=tuple(gmd_sizes),
        unused_bytes=sum(sizes[i] for i in set(sizes) - assigned),
    )


@pytest.mark.parametrize("restructured", [False, True], ids=["file", "scg"])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_partition_matches_brute_force_attribution(name, restructured):
    workload = bundle(name)
    program = workload.workload.program
    if restructured:
        program = restructure(program, workload.scg)
    for classfile in program.classes:
        assert partition_class(
            classfile, class_layout(classfile)
        ) == brute_force_partition(classfile)
        expected = [
            brute_force_method_references(classfile, method)
            for method in classfile.methods
        ]
        assert pool_references_by_method(classfile) == expected
        assert [
            method_pool_references(classfile, method)
            for method in classfile.methods
        ] == expected


def test_partition_resolves_each_method_ref_at_most_once(monkeypatch):
    resolved = []
    member_ref = ConstantPool.member_ref

    def counting_member_ref(pool, index):
        resolved.append(index)
        return member_ref(pool, index)

    monkeypatch.setattr(ConstantPool, "member_ref", counting_member_ref)
    for classfile in bundle("Jess").workload.program.classes:
        layout = class_layout(classfile)
        method_refs = {
            index
            for index, entry in classfile.constant_pool.entries()
            if isinstance(entry, MethodRefEntry)
        }
        resolved.clear()
        partition_class(classfile, layout)
        assert len(resolved) == len(set(resolved))
        assert set(resolved) <= method_refs


def test_partition_encodes_no_utf8(monkeypatch):
    """Entry sizes come from the pool's record: partitioning every Jess
    class encodes no Utf8 string."""
    program = bundle("Jess").workload.program
    layouts = [
        (classfile, class_layout(classfile))
        for classfile in program.classes
    ]
    encodes = []
    encoded = Utf8Entry.encoded

    def counting_encoded(entry):
        encodes.append(entry.value)
        return encoded.fget(entry)

    monkeypatch.setattr(Utf8Entry, "encoded", property(counting_encoded))
    for classfile, layout in layouts:
        partition_class(classfile, layout)
    assert len(encodes) == 0


def test_malformed_method_ref_raises_constant_pool_error():
    builder = ClassFileBuilder("Broken")
    builder.add_method("main", "()V", assemble("return"))
    classfile = builder.build()
    # A MethodRef whose NameAndType index points at a Utf8 entry.
    classfile.constant_pool.add(
        MethodRefEntry(
            classfile.constant_pool.add_class("Broken"),
            classfile.constant_pool.add_utf8("main"),
        )
    )
    with pytest.raises(ConstantPoolError):
        partition_class(classfile, class_layout(classfile))


def test_partition_rejects_another_class_layout():
    program = figure1_program()
    with pytest.raises(ClassFileError, match="layout of 'B'"):
        partition_class(
            program.class_named("A"),
            class_layout(program.class_named("B")),
        )
