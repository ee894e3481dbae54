"""The mobile program: a set of class files plus an entry point.

Every subsystem (VM, CFG analysis, reordering, transfer, simulation)
operates on :class:`Program`.  Methods are identified by
:class:`MethodId` — ``(class_name, method_name)`` — since the model has
no overloading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .classfile import ClassFile, MethodInfo
from .errors import ClassFileError

__all__ = ["MethodId", "Program"]


class MethodId(NamedTuple):
    """Identity of a method within a program: a named
    ``(class_name, method_name)`` pair that hashes, compares and sorts
    in C as the plain tuple does, and equals it."""

    class_name: str
    method_name: str

    def __str__(self) -> str:
        return f"{self.class_name}.{self.method_name}"


@dataclass
class Program:
    """A mobile program: class files in transfer order plus ``main``.

    Attributes:
        classes: Class files; list order is the default (strict)
            transfer order, with the entry class customarily first.
        entry_point: The method where remote execution begins.
    """

    classes: List[ClassFile] = field(default_factory=list)
    entry_point: Optional[MethodId] = None

    def __post_init__(self) -> None:
        names = [classfile.name for classfile in self.classes]
        if len(names) != len(set(names)):
            raise ClassFileError(f"duplicate class names in {names!r}")
        if self.entry_point is None and self.classes:
            first = self.classes[0]
            if first.has_method("main"):
                self.entry_point = MethodId(first.name, "main")

    # -- lookup ----------------------------------------------------------

    def class_named(self, name: str) -> ClassFile:
        for classfile in self.classes:
            if classfile.name == name:
                return classfile
        raise ClassFileError(f"no class {name!r} in program")

    def has_class(self, name: str) -> bool:
        return any(classfile.name == name for classfile in self.classes)

    def method(self, method_id: MethodId) -> MethodInfo:
        return self.class_named(method_id.class_name).method(
            method_id.method_name
        )

    def has_method(self, method_id: MethodId) -> bool:
        return self.has_class(method_id.class_name) and self.class_named(
            method_id.class_name
        ).has_method(method_id.method_name)

    def resolve_entry(self) -> MethodId:
        """The entry point, validated to exist.

        Raises:
            ClassFileError: If no entry point is set or it is missing.
        """
        if self.entry_point is None:
            raise ClassFileError("program has no entry point")
        if not self.has_method(self.entry_point):
            raise ClassFileError(
                f"entry point {self.entry_point} does not exist"
            )
        return self.entry_point

    # -- iteration --------------------------------------------------------

    def method_ids(self) -> Iterator[MethodId]:
        """All methods, class by class, in file order."""
        for classfile in self.classes:
            for method in classfile.methods:
                yield MethodId(classfile.name, method.name)

    def methods(self) -> Iterator[Tuple[MethodId, MethodInfo]]:
        for classfile in self.classes:
            for method in classfile.methods:
                yield MethodId(classfile.name, method.name), method

    @property
    def class_names(self) -> List[str]:
        return [classfile.name for classfile in self.classes]

    @property
    def method_count(self) -> int:
        return sum(len(classfile.methods) for classfile in self.classes)

    # -- restructuring -----------------------------------------------------

    def restructured(
        self, method_orders: Dict[str, List[str]]
    ) -> "Program":
        """A copy with per-class method orders applied.

        Args:
            method_orders: Class name → new method-name order.  Classes
                not mentioned keep their current order.
        """
        classes = [
            classfile.reordered(method_orders[classfile.name])
            if classfile.name in method_orders
            else classfile
            for classfile in self.classes
        ]
        return Program(classes=classes, entry_point=self.entry_point)

    def with_class_order(self, class_order: Iterable[str]) -> "Program":
        """A copy with classes permuted into ``class_order``."""
        order = list(class_order)
        if sorted(order) != sorted(self.class_names):
            raise ClassFileError(
                f"class order {order!r} is not a permutation of "
                f"{self.class_names!r}"
            )
        by_name = {classfile.name: classfile for classfile in self.classes}
        return Program(
            classes=[by_name[name] for name in order],
            entry_point=self.entry_point,
        )
