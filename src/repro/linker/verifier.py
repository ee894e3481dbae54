"""Class file verification, incremental at procedure granularity (§3.1).

The JVM's five verification steps map onto our model as:

1. **File structure** — magic, version, well-formed tables (the
   deserializer enforces this; :func:`verify_structure` re-checks an
   in-memory class).
2. **Global data** — every constant pool reference index is in range
   and of the right type; field descriptors parse.
3. **Per-procedure static checks** — performed *as each procedure
   transfers*: bytecode decodes, branch targets hit instruction
   boundaries, CALL/LDC/GETSTATIC operands resolve to the right pool
   entry types, and the operand stack is statically consistent (no
   underflow, consistent depth at joins, within ``max_stack``).
   Step 3 delegates to the typed abstract-interpretation engine in
   :mod:`repro.analyze.dataflow`, so it also rejects *definite type
   errors* (e.g. arithmetic on a string, ``ARRAYLEN`` of an int) that
   the old depth-only walk accepted — a strict superset of checks.
4. **Runtime checks** — performed as procedures execute (the VM's
   bounds/type checks).

Non-strict execution needs steps 1–2 to run once the global data has
arrived and step 3 to run per method on arrival; the
:class:`IncrementalVerifier` in :mod:`repro.linker.linker` drives that
ordering.
"""

from __future__ import annotations

from ..classfile import (
    ClassFile,
    ClassEntry,
    FieldRefEntry,
    StringEntry,
    MethodInfo,
    MethodRefEntry,
    NameAndTypeEntry,
    Utf8Entry,
)
from ..errors import VerificationError
from ..program import MethodId

__all__ = [
    "verify_structure",
    "verify_global_data",
    "verify_method",
    "verify_class",
]


def verify_structure(classfile: ClassFile) -> None:
    """Step 1: structural sanity of the class file object."""
    if not classfile.name:
        raise VerificationError("class has no name")
    names = [method.name for method in classfile.methods]
    if len(names) != len(set(names)):
        raise VerificationError(
            f"{classfile.name}: duplicate method names"
        )
    field_names = [field.name for field in classfile.fields]
    if len(field_names) != len(set(field_names)):
        raise VerificationError(
            f"{classfile.name}: duplicate field names"
        )


def verify_global_data(classfile: ClassFile) -> None:
    """Step 2: the constant pool is internally consistent."""
    pool = classfile.constant_pool
    size = len(pool)

    def check_index(index: int, expected: type, context: str) -> None:
        if not 1 <= index <= size:
            raise VerificationError(
                f"{classfile.name}: {context} index {index} out of "
                f"range [1, {size}]"
            )
        entry = pool.get(index)
        if not isinstance(entry, expected):
            raise VerificationError(
                f"{classfile.name}: {context} index {index} holds "
                f"{type(entry).__name__}, expected {expected.__name__}"
            )

    for index, entry in pool.entries():
        if isinstance(entry, ClassEntry):
            check_index(entry.name_index, Utf8Entry, f"Class@{index}")
        elif isinstance(entry, StringEntry):
            check_index(entry.utf8_index, Utf8Entry, f"String@{index}")
        elif isinstance(entry, (FieldRefEntry, MethodRefEntry)):
            check_index(
                entry.class_index, ClassEntry, f"MemberRef@{index}"
            )
            check_index(
                entry.name_and_type_index,
                NameAndTypeEntry,
                f"MemberRef@{index}",
            )
        elif isinstance(entry, NameAndTypeEntry):
            check_index(
                entry.name_index, Utf8Entry, f"NameAndType@{index}"
            )
            check_index(
                entry.descriptor_index, Utf8Entry, f"NameAndType@{index}"
            )
    for field in classfile.fields:
        if field.descriptor not in ("I", "A"):
            raise VerificationError(
                f"{classfile.name}.{field.name}: bad field descriptor "
                f"{field.descriptor!r}"
            )


def verify_method(classfile: ClassFile, method: MethodInfo) -> None:
    """Step 3: static checks on one procedure's bytecode.

    Delegates to the typed abstract-interpretation engine
    (:func:`repro.analyze.dataflow.analyze_method`): operand-stack
    depth safety (no underflow, within ``max_stack``, consistent at
    joins), operand well-formedness (pool entry kinds, local slots,
    SYS codes, branch targets), descriptor agreement at returns, and —
    beyond the historical depth-only walk — definite operand *type*
    errors that are guaranteed to fault at runtime.

    Raises:
        VerificationError: On the first violated check.
    """
    # Imported here: repro.analyze also serves non-verifier callers and
    # pulls in the cfg layer; the linker package stays light to import.
    from ..analyze.dataflow import analyze_method
    from ..cfg import method_facts

    facts = method_facts(MethodId(classfile.name, method.name), method)
    dataflow = analyze_method(classfile, method, facts)
    if not dataflow.ok:
        raise VerificationError(dataflow.issues[0].message)


def verify_class(classfile: ClassFile) -> None:
    """All static steps (1–3) for a whole class, strict-style."""
    verify_structure(classfile)
    verify_global_data(classfile)
    for method in classfile.methods:
        verify_method(classfile, method)
