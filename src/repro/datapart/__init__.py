"""Global data partitioning (GMD) — paper §7.3."""

from .gmd import DataPartition, partition_class, partition_program
from .usage import (
    method_pool_references,
    pool_references_by_method,
    reference_closure,
    setup_pool_references,
)

__all__ = [
    "DataPartition",
    "partition_class",
    "partition_program",
    "method_pool_references",
    "pool_references_by_method",
    "reference_closure",
    "setup_pool_references",
]
