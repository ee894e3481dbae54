"""Experiment harness: regenerate every paper table and figure."""

from .experiments import (
    BENCHMARK_NAMES,
    ORDERINGS,
    all_experiments,
    bundle,
    figure6_summary,
    table10_data_partitioning,
    table2_statistics,
    table3_base_case,
    table4_invocation_latency,
    table5_parallel_t1,
    table6_parallel_modem,
    table7_interleaved,
    table8_global_data,
    table9_data_breakdown,
)
from .results import ResultTable

__all__ = [
    "BENCHMARK_NAMES",
    "ORDERINGS",
    "all_experiments",
    "bundle",
    "figure6_summary",
    "table10_data_partitioning",
    "table2_statistics",
    "table3_base_case",
    "table4_invocation_latency",
    "table5_parallel_t1",
    "table6_parallel_modem",
    "table7_interleaved",
    "table8_global_data",
    "table9_data_breakdown",
    "ResultTable",
]
