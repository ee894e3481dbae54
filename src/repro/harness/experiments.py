"""Experiment definitions: one function per paper table/figure.

Every experiment runs on the calibrated synthetic six-benchmark suite
(:mod:`repro.workloads.synthetic`).  Heavy shared work — workload
generation, first-use orders, strict baselines, transfer layouts — is
computed once per process through :func:`bundle` and its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..classfile import class_layout, global_data_breakdown
from ..core import (
    Simulator,
    invocation_latency_cycles,
    strict_baseline,
)
from ..datapart import partition_class
from ..reorder import (
    FirstUseOrder,
    estimate_first_use,
    order_from_profile,
    restructure,
    weighted_first_use,
)
from ..sched import StripedController
from ..transfer import (
    MODEM_LINK,
    T1_LINK,
    NetworkLink,
    TransferLayout,
    TransferPolicy,
    transfer_layout,
)
from ..vm import synthesize_profile
from ..workloads.spec import PAPER_BENCHMARKS
from ..workloads.synthetic import SyntheticWorkload, generate_workload
from .results import ResultTable

__all__ = [
    "BENCHMARK_NAMES",
    "bundle",
    "table2_statistics",
    "table3_base_case",
    "table4_invocation_latency",
    "table5_parallel_t1",
    "table6_parallel_modem",
    "table7_interleaved",
    "table8_global_data",
    "table9_data_breakdown",
    "table10_data_partitioning",
    "figure6_summary",
    "all_experiments",
]

BENCHMARK_NAMES: Tuple[str, ...] = tuple(
    spec.name for spec in PAPER_BENCHMARKS
)

_LINKS: Tuple[Tuple[str, NetworkLink], ...] = (
    ("T1", T1_LINK),
    ("modem", MODEM_LINK),
)

#: Ordering labels as the paper uses them.
ORDERINGS = ("SCG", "Train", "Test")


@dataclass
class Bundle:
    """All shared per-benchmark artifacts."""

    workload: SyntheticWorkload
    scg: FirstUseOrder
    train: FirstUseOrder
    test: FirstUseOrder
    weighted: FirstUseOrder

    @property
    def name(self) -> str:
        return self.workload.name

    def order(self, label: str) -> FirstUseOrder:
        return {
            "SCG": self.scg,
            "Train": self.train,
            "Test": self.test,
            "weighted": self.weighted,
        }[label]


@lru_cache(maxsize=None)
def bundle(name: str) -> Bundle:
    """Workload plus its four first-use orders, cached per process."""
    workload = generate_workload(name)
    scg = estimate_first_use(workload.program)
    train_profile = synthesize_profile(
        workload.program, workload.train_trace
    )
    train = order_from_profile(
        workload.program,
        train_profile,
        static_order=scg,
    )
    test = order_from_profile(
        workload.program,
        synthesize_profile(workload.program, workload.test_trace),
        static_order=scg,
    )
    weighted = weighted_first_use(
        workload.program, profile=train_profile, cpi=workload.cpi
    )
    return Bundle(
        workload=workload,
        scg=scg,
        train=train,
        test=test,
        weighted=weighted,
    )


@lru_cache(maxsize=None)
def _baseline(name: str, link_name: str):
    item = bundle(name)
    link = dict(_LINKS)[link_name]
    return strict_baseline(
        item.workload.program,
        item.workload.test_trace,
        link,
        item.workload.cpi,
    )


@lru_cache(maxsize=None)
def _layout(
    name: str, ordering: str, data_partitioning: bool
) -> TransferLayout:
    """The restructured program's units, as ``run_nonstrict`` plans them.

    Neither the link nor the parallel/interleaved choice changes a
    layout, so each of these serves every table cell that sends it.
    """
    item = bundle(name)
    order = item.order(ordering)
    return transfer_layout(
        restructure(item.workload.program, order),
        TransferPolicy.DATA_PARTITIONED
        if data_partitioning
        else TransferPolicy.NON_STRICT,
        order,
    )


@lru_cache(maxsize=None)
def _normalized(
    name: str,
    link_name: str,
    ordering: str,
    method: str,
    max_streams: Optional[int],
    data_partitioning: bool,
) -> float:
    """Normalized execution time (percent of strict) for one config."""
    item = bundle(name)
    controller = StripedController(
        _layout(name, ordering, data_partitioning),
        (dict(_LINKS)[link_name],),
        policy=method,
        max_streams=max_streams,
    )
    result = Simulator(
        item.workload.test_trace, controller, item.workload.cpi
    ).run()
    base = _baseline(name, link_name)
    return result.normalized_to(base.total_cycles)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table2_statistics() -> ResultTable:
    """Table 2: general statistics of the benchmarks."""
    table = ResultTable(
        key="table2",
        title=(
            "Table 2: General statistics of the (synthetic) benchmarks"
        ),
        columns=[
            "Program",
            "Total Files",
            "Size KB",
            "Dyn Instrs (K, test)",
            "Dyn Instrs (K, train)",
            "Static Instrs (K)",
            "% Executed",
            "Total Methods",
            "Instrs/Method",
        ],
    )
    for name in BENCHMARK_NAMES:
        item = bundle(name)
        program = item.workload.program
        layouts = [
            class_layout(classfile) for classfile in program.classes
        ]
        static_instructions = sum(
            len(method.instructions) for _, method in program.methods()
        )
        used = item.workload.test_trace.methods_used()
        used_instructions = sum(
            len(program.method(method).instructions) for method in used
        )
        table.add_row(
            name,
            len(program.classes),
            sum(layout.strict_size for layout in layouts) / 1024,
            item.workload.test_trace.total_instructions / 1000,
            item.workload.train_trace.total_instructions / 1000,
            static_instructions / 1000,
            100.0 * used_instructions / static_instructions,
            program.method_count,
            static_instructions / program.method_count,
        )
    table.notes.append(
        "Size calibrated to Table 3's transfer cycles (the paper's own "
        "Table 2 sizes imply ~2x fewer wire bytes than its Table 3)."
    )
    return table


def table3_base_case() -> ResultTable:
    """Table 3: CPI, execution/transfer cycles, % transfer per link."""
    table = ResultTable(
        key="table3",
        title="Table 3: Base case statistics (strict execution)",
        columns=[
            "Program",
            "CPI",
            "Exec Mcycles",
            "T1 Transfer Mcycles",
            "T1 Total Mcycles",
            "T1 % Transfer",
            "Modem Transfer Mcycles",
            "Modem Total Mcycles",
            "Modem % Transfer",
        ],
    )
    for name in BENCHMARK_NAMES:
        t1 = _baseline(name, "T1")
        modem = _baseline(name, "modem")
        table.add_row(
            name,
            bundle(name).workload.cpi,
            t1.execution_cycles / 1e6,
            t1.transfer_cycles / 1e6,
            t1.total_cycles / 1e6,
            t1.percent_transfer,
            modem.transfer_cycles / 1e6,
            modem.total_cycles / 1e6,
            modem.percent_transfer,
        )
    table.add_average_row()
    return table


def table4_invocation_latency() -> ResultTable:
    """Table 4: invocation latency, strict vs non-strict vs partitioned."""
    table = ResultTable(
        key="table4",
        title=(
            "Table 4: Invocation latency (Mcycles; % decrease vs strict)"
        ),
        columns=[
            "Program",
            "T1 Strict",
            "T1 NonStrict",
            "T1 NS %dec",
            "T1 DataPart",
            "T1 DP %dec",
            "Modem Strict",
            "Modem NonStrict",
            "Modem NS %dec",
            "Modem DataPart",
            "Modem DP %dec",
        ],
    )
    for name in BENCHMARK_NAMES:
        item = bundle(name)
        target = restructure(item.workload.program, item.scg)
        cells: List[float] = []
        for _, link in _LINKS:
            strict = invocation_latency_cycles(
                target, link, TransferPolicy.STRICT
            )
            nonstrict = invocation_latency_cycles(
                target, link, TransferPolicy.NON_STRICT
            )
            partitioned = invocation_latency_cycles(
                target, link, TransferPolicy.DATA_PARTITIONED
            )
            cells.extend(
                [
                    strict / 1e6,
                    nonstrict / 1e6,
                    100.0 * (1 - nonstrict / strict),
                    partitioned / 1e6,
                    100.0 * (1 - partitioned / strict),
                ]
            )
        table.add_row(name, *cells)
    table.add_average_row()
    return table


def _parallel_table(link_name: str, key: str) -> ResultTable:
    limits: Tuple[Tuple[str, Optional[int]], ...] = (
        ("One", 1),
        ("Two", 2),
        ("Four", 4),
        ("Inf", None),
    )
    columns = ["Program"]
    for ordering in ORDERINGS:
        for label, _ in limits:
            columns.append(f"{ordering} {label}")
    table = ResultTable(
        key=key,
        title=(
            f"Table {'5' if link_name == 'T1' else '6'}: Normalized "
            f"execution time, parallel file transfer, {link_name} link"
        ),
        columns=columns,
    )
    for name in BENCHMARK_NAMES:
        cells: List[float] = []
        for ordering in ORDERINGS:
            for _, max_streams in limits:
                cells.append(
                    _normalized(
                        name,
                        link_name,
                        ordering,
                        "parallel",
                        max_streams,
                        False,
                    )
                )
        table.add_row(name, *cells)
    table.add_average_row()
    return table


def table5_parallel_t1() -> ResultTable:
    """Table 5: parallel transfer over T1, limits 1/2/4/inf."""
    return _parallel_table("T1", "table5")


def table6_parallel_modem() -> ResultTable:
    """Table 6: parallel transfer over the modem, limits 1/2/4/inf."""
    return _parallel_table("modem", "table6")


def table7_interleaved() -> ResultTable:
    """Table 7: interleaved transfer, both links, three orderings."""
    columns = ["Program"]
    for link_name, _ in _LINKS:
        for ordering in ORDERINGS:
            columns.append(f"{link_name} {ordering}")
    table = ResultTable(
        key="table7",
        title=(
            "Table 7: Normalized execution time, interleaved file "
            "transfer"
        ),
        columns=columns,
    )
    for name in BENCHMARK_NAMES:
        cells: List[float] = []
        for link_name, _ in _LINKS:
            for ordering in ORDERINGS:
                cells.append(
                    _normalized(
                        name, link_name, ordering, "interleaved",
                        None, False,
                    )
                )
        table.add_row(name, *cells)
    table.add_average_row()
    return table


def table8_global_data() -> ResultTable:
    """Table 8: breakdown of global data and the constant pool."""
    table = ResultTable(
        key="table8",
        title=(
            "Table 8: Breakdown of global data and constant pool "
            "(percent of containing structure)"
        ),
        columns=[
            "Program",
            "CPool",
            "Field",
            "Attrib",
            "Intfc",
            "Utf8",
            "Ints",
            "Float",
            "Long",
            "Double",
            "String",
            "Class",
            "FRef",
            "MRef",
            "NandT",
            "IMRef",
        ],
    )
    for name in BENCHMARK_NAMES:
        program = bundle(name).workload.program
        pool_bytes = 0
        field_bytes = 0
        attribute_bytes = 0
        interface_bytes = 0
        tag_bytes: Dict[str, float] = {}
        for classfile in program.classes:
            breakdown = global_data_breakdown(classfile)
            pool_bytes += breakdown.constant_pool
            field_bytes += breakdown.fields
            attribute_bytes += breakdown.attributes
            interface_bytes += breakdown.interfaces
            for label, percent in breakdown.percent_of_pool().items():
                tag_bytes[label] = tag_bytes.get(label, 0.0) + (
                    percent / 100.0 * breakdown.constant_pool
                )
        total = (
            pool_bytes + field_bytes + attribute_bytes + interface_bytes
        ) or 1
        table.add_row(
            name,
            100.0 * pool_bytes / total,
            100.0 * field_bytes / total,
            100.0 * attribute_bytes / total,
            100.0 * interface_bytes / total,
            *[
                100.0 * tag_bytes.get(label, 0.0) / (pool_bytes or 1)
                for label in (
                    "Utf8",
                    "Ints",
                    "Float",
                    "Long",
                    "Double",
                    "String",
                    "Class",
                    "FRef",
                    "MRef",
                    "NandT",
                    "IMRef",
                )
            ],
        )
    table.add_average_row()
    return table


def table9_data_breakdown() -> ResultTable:
    """Table 9: local vs global data, and the global-data split."""
    table = ResultTable(
        key="table9",
        title=(
            "Table 9: Breakdown of class file data (local vs global; "
            "global split by first use)"
        ),
        columns=[
            "Program",
            "Local KB",
            "Global KB",
            "% Needed First",
            "% In Methods",
            "% Unused",
        ],
    )
    for name in BENCHMARK_NAMES:
        program = bundle(name).workload.program
        local_bytes = 0
        first = methods = unused = 0
        for classfile in program.classes:
            layout = class_layout(classfile)
            local_bytes += layout.local_bytes
            partition = partition_class(classfile, layout)
            first += partition.first_bytes
            methods += partition.method_bytes
            unused += partition.unused_bytes
        global_bytes = first + methods + unused
        table.add_row(
            name,
            local_bytes / 1024,
            global_bytes / 1024,
            100.0 * first / global_bytes,
            100.0 * methods / global_bytes,
            100.0 * unused / global_bytes,
        )
    table.add_average_row()
    table.notes.append(
        "KB columns are wire-scaled (see Table 2 note); the percentage "
        "split matches the paper's Table 9."
    )
    return table


def table10_data_partitioning() -> ResultTable:
    """Table 10: data partitioning with parallel(4) and interleaved."""
    columns = ["Program"]
    for method_label in ("Par4", "Intl"):
        for link_name, _ in _LINKS:
            for ordering in ORDERINGS:
                columns.append(
                    f"{method_label} {link_name} {ordering}"
                )
    table = ResultTable(
        key="table10",
        title=(
            "Table 10: Normalized execution time with global data "
            "partitioning (parallel limit 4, interleaved)"
        ),
        columns=columns,
    )
    for name in BENCHMARK_NAMES:
        cells: List[float] = []
        for method, max_streams in (("parallel", 4), ("interleaved", None)):
            for link_name, _ in _LINKS:
                for ordering in ORDERINGS:
                    cells.append(
                        _normalized(
                            name,
                            link_name,
                            ordering,
                            method,
                            max_streams,
                            True,
                        )
                    )
        table.add_row(name, *cells)
    table.add_average_row()
    return table


def figure6_summary() -> ResultTable:
    """Figure 6: average normalized execution time, all configurations."""
    table = ResultTable(
        key="figure6",
        title=(
            "Figure 6: Average normalized execution time (percent of "
            "strict; lower is better)"
        ),
        columns=[
            "Configuration",
            "T1 SCG",
            "T1 Train",
            "T1 Test",
            "Modem SCG",
            "Modem Train",
            "Modem Test",
        ],
    )
    configurations = (
        ("Parallel File Transfer", "parallel", 4, False),
        ("PFC Data Partitioned", "parallel", 4, True),
        ("Interleaved File Transfer", "interleaved", None, False),
        ("IFC Data Partitioned", "interleaved", None, True),
    )
    for label, method, max_streams, partitioned in configurations:
        cells: List[float] = []
        for link_name, _ in _LINKS:
            for ordering in ORDERINGS:
                values = [
                    _normalized(
                        name,
                        link_name,
                        ordering,
                        method,
                        max_streams,
                        partitioned,
                    )
                    for name in BENCHMARK_NAMES
                ]
                cells.append(sum(values) / len(values))
        table.add_row(label, *cells)
    return table


def all_experiments() -> List[ResultTable]:
    """Every table and figure, in paper order."""
    return [
        table2_statistics(),
        table3_base_case(),
        table4_invocation_latency(),
        table5_parallel_t1(),
        table6_parallel_modem(),
        table7_interleaved(),
        table8_global_data(),
        table9_data_breakdown(),
        table10_data_partitioning(),
        figure6_summary(),
    ]
