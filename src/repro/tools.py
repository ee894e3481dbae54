"""repro-inspect: a command-line toolbox over stored programs.

Subcommands (all operate on a program directory written by
:func:`repro.storage.save_program`):

* ``disasm DIR CLASS [METHOD]`` — disassemble a method (or list them);
* ``layout DIR`` — per-class byte layout (global vs per-method units);
* ``partition DIR`` — Table-9-style global data split per class;
* ``order DIR`` — the static first-use order;
* ``verify DIR`` — run the full verifier over every class;
* ``lint DIR`` (or ``lint --workload NAME``) — run every static
  analysis rule (typed dataflow, transfer-plan stall/deadlock proofs,
  dead methods) and export findings as SARIF 2.1.0 / JSON; exits
  nonzero when a finding at or above ``--fail-on`` is present;
* ``interproc DIR`` (or ``interproc --workload NAME``) — summarize the
  interprocedural weighted call-graph analysis: reachable vs dead
  methods, devirtualized (monomorphic) call-site share, the
  top-weighted call edges, and dead-method prune savings;
* ``simulate DIR TRACE --link {t1,modem} --cpi N`` — co-simulate a
  stored trace against strict and non-strict transfer; with
  ``--links SPEC`` (comma-separated ``t1``/``modem``/bits-per-second
  tokens) the non-strict run stripes transfer units across every
  listed link through :mod:`repro.sched` under ``--sched-policy``;
  ``--loss`` applies to every simulated link, and the strict baseline
  runs on the first;
* ``trace DIR TRACE --out trace.json`` — run one traced configuration
  (simulated cycles, or ``--netserve`` for real sockets) and export
  the unified event stream as a Chrome-loadable trace, JSON-lines,
  and/or an ASCII ``--timeline``;
* ``serve DIR --port N --bandwidth B`` — serve the program's transfer
  units over real TCP (see :mod:`repro.netserve`);
* ``fetch HOST PORT [TRACE]`` — fetch a served program non-strictly
  and, with a trace, replay it against the real arrivals;
* ``loadtest DIR`` (or ``loadtest --workload NAME``) — run a
  fleet-scale sweep of clients × bandwidth × fault plans against an
  in-process server and report p50/p99/p999 first-invocation latency
  plus plan-cache hit rates; ``--out BENCH_serve.json`` persists the
  run table (see :mod:`repro.netserve.loadgen`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .classfile import class_layout
from .core import run_nonstrict, run_strict, strict_baseline
from .datapart import partition_class
from .errors import ReproError
from .linker import verify_class
from .reorder import estimate_first_use
from .sched import POLICIES as _SCHED_POLICIES
from .storage import load_program, load_trace
from .transfer import MODEM_LINK, T1_LINK, lossy_link

__all__ = ["main"]

_LINKS = {"t1": T1_LINK, "modem": MODEM_LINK}


def _parse_links(spec: str):
    """Parse a ``--links`` spec into a tuple of network links.

    Each comma-separated token is a named link (``t1``, ``modem``) or
    a bandwidth in bits/second (e.g. ``57600``).
    """
    from .transfer import link_from_bandwidth

    links = []
    for index, raw in enumerate(spec.split(",")):
        token = raw.strip()
        if token in _LINKS:
            links.append(_LINKS[token])
            continue
        try:
            bps = float(token)
        except ValueError:
            raise ReproError(
                f"bad --links token {token!r}: expected "
                f"{'/'.join(sorted(_LINKS))} or a bits-per-second number"
            ) from None
        links.append(
            link_from_bandwidth(f"link{index}@{bps:g}bps", bps)
        )
    if not links:
        raise ReproError("--links needs at least one link")
    return tuple(links)


def _cmd_disasm(arguments) -> int:
    from .bytecode import disassemble

    program = load_program(arguments.directory)
    classfile = program.class_named(arguments.class_name)
    if arguments.method is None:
        for method in classfile.methods:
            print(
                f"{method.name}{method.descriptor}  "
                f"[{len(method.instructions)} instructions, "
                f"{method.size} bytes]"
            )
        return 0
    method = classfile.method(arguments.method)
    print(f"; {classfile.name}.{method.name}{method.descriptor}")
    print(disassemble(method.instructions), end="")
    return 0


def _cmd_layout(arguments) -> int:
    program = load_program(arguments.directory)
    for classfile in program.classes:
        layout = class_layout(classfile)
        print(
            f"{classfile.name}: {layout.strict_size} bytes "
            f"(global {layout.global_size}, "
            f"{len(layout.method_sizes)} methods)"
        )
        if arguments.verbose:
            for name, size in layout.method_sizes:
                print(f"  {name}: {size} bytes")
    return 0


def _cmd_partition(arguments) -> int:
    print(
        f"{'class':30} {'first':>8} {'methods':>8} {'unused':>8}"
    )
    program = load_program(arguments.directory)
    for classfile in program.classes:
        partition = partition_class(classfile, class_layout(classfile))
        percentages = partition.percentages()
        print(
            f"{classfile.name:30} "
            f"{percentages['needed_first']:7.1f}% "
            f"{percentages['in_methods']:7.1f}% "
            f"{percentages['unused']:7.1f}%"
        )
    return 0


def _cmd_order(arguments) -> int:
    program = load_program(arguments.directory)
    order = estimate_first_use(program)
    for position, entry in enumerate(order.entries):
        print(
            f"{position:4}  {entry.method}  "
            f"(bytes before: {entry.bytes_before})"
        )
    return 0


def _cmd_verify(arguments) -> int:
    program = load_program(arguments.directory)
    failures = 0
    for classfile in program.classes:
        try:
            verify_class(classfile)
            print(f"OK    {classfile.name}")
        except ReproError as error:
            failures += 1
            print(f"FAIL  {classfile.name}: {error}")
    return 1 if failures else 0


def _cmd_lint(arguments) -> int:
    import json

    from .analyze import Severity, run_lint, sarif_dumps, to_json
    from .observe import MetricsRegistry

    if (arguments.directory is None) == (arguments.workload is None):
        print(
            "error: give either a program directory or --workload NAME",
            file=sys.stderr,
        )
        return 2
    trace = None
    if arguments.workload is not None:
        from .workloads.spec import benchmark_spec
        from .workloads.synthetic import paper_workload

        workload = paper_workload(benchmark_spec(arguments.workload))
        program = workload.program
        trace = workload.test_trace
        cpi = workload.cpi if arguments.cpi is None else arguments.cpi
    else:
        program = load_program(arguments.directory)
        cpi = 30.0 if arguments.cpi is None else arguments.cpi
    if arguments.trace:
        trace = load_trace(arguments.trace)

    metrics = MetricsRegistry()
    report = run_lint(
        program,
        link=_LINKS[arguments.link],
        cpi=cpi,
        trace=trace,
        metrics=metrics,
    )
    severities = {
        severity.value: count
        for severity, count in sorted(
            report.by_severity().items(), key=lambda kv: kv[0].value
        )
    }
    model = "trace" if trace is not None else "static"
    print(
        f"analyzed {report.methods_analyzed} methods in "
        f"{report.runtime_seconds * 1e3:.1f} ms ({model} model)"
    )
    for note in report.notes:
        print(f"note: {note}")
    for finding in report.findings:
        print(
            f"{finding.severity.value:7s} {finding.rule_id:22s} "
            f"{finding.span.qualified_name}: {finding.message}"
        )
    print(f"findings: {severities or 'none'}")
    if arguments.sarif:
        Path(arguments.sarif).write_text(sarif_dumps(report))
        print(f"sarif:    {arguments.sarif}")
    if arguments.json:
        Path(arguments.json).write_text(
            json.dumps(to_json(report), indent=2, sort_keys=True)
        )
        print(f"json:     {arguments.json}")
    # --fail-on names the least severe level that still fails the run;
    # "note" is SARIF's name for INFO-level findings.
    failing = {
        "error": (Severity.ERROR,),
        "warning": (Severity.ERROR, Severity.WARNING),
        "note": (Severity.ERROR, Severity.WARNING, Severity.INFO),
    }[arguments.fail_on]
    return (
        1
        if any(finding.severity in failing for finding in report.findings)
        else 0
    )


def _cmd_interproc(arguments) -> int:
    import json

    from .analyze import analyze_interproc, analyze_program, prune_dead_methods
    from .cfg import program_facts

    if (arguments.directory is None) == (arguments.workload is None):
        print(
            "error: give either a program directory or --workload NAME",
            file=sys.stderr,
        )
        return 2
    if arguments.workload is not None:
        from .workloads.spec import benchmark_spec
        from .workloads.synthetic import paper_workload

        program = paper_workload(
            benchmark_spec(arguments.workload)
        ).program
    else:
        program = load_program(arguments.directory)

    facts = program_facts(program)
    analysis = analyze_interproc(program, facts, analyze_program(program, facts))
    pruned = prune_dead_methods(program, analysis)
    total = len(list(program.method_ids()))
    feasible = [site for site in analysis.call_sites if site.feasible]
    monomorphic = analysis.monomorphic_sites
    share = 100.0 * len(monomorphic) / len(feasible) if feasible else 0.0
    top_edges = sorted(
        analysis.edge_weights.items(),
        key=lambda item: (-item[1], str(item[0].caller), str(item[0].callee)),
    )[: arguments.top]

    payload = {
        "entry": str(analysis.entry),
        "methods": total,
        "reachable": len(analysis.reachable),
        "dead": len(analysis.dead),
        "call_sites": len(analysis.call_sites),
        "feasible_sites": len(feasible),
        "monomorphic_sites": len(monomorphic),
        "monomorphic_pct": round(share, 1),
        "torn_sites": len(analysis.torn_sites),
        "external_sites": len(analysis.external_sites),
        "prune_bytes_saved": pruned.bytes_saved,
        "pruned_methods": [str(m) for m in pruned.pruned],
        "top_edges": [
            {
                "caller": str(edge.caller),
                "callee": str(edge.callee),
                "weight": round(weight, 3),
            }
            for edge, weight in top_edges
        ],
    }
    if arguments.json:
        Path(arguments.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True)
        )
        print(f"json:     {arguments.json}")
        return 0
    print(f"entry:             {payload['entry']}")
    print(
        f"reachable:         {payload['reachable']}/{total} methods "
        f"({payload['dead']} dead)"
    )
    print(
        f"call sites:        {payload['call_sites']} "
        f"({payload['feasible_sites']} feasible, "
        f"{payload['monomorphic_sites']} monomorphic = {share:.1f}%, "
        f"{payload['torn_sites']} torn, "
        f"{payload['external_sites']} external)"
    )
    print(
        f"prune savings:     {pruned.bytes_saved} bytes across "
        f"{len(pruned.pruned)} methods"
    )
    if top_edges:
        print(f"top {len(top_edges)} weighted call edges:")
        for edge, weight in top_edges:
            print(
                f"  {weight:12.1f}  {edge.caller} -> {edge.callee}"
            )
    return 0


def _cmd_simulate(arguments) -> int:
    from .sched import run_striped

    program = load_program(arguments.directory)
    trace = load_trace(arguments.trace)
    if arguments.links:
        links = _parse_links(arguments.links)
        policy = arguments.sched_policy
    else:
        links = (_LINKS[arguments.link],)
        policy = arguments.method
    if arguments.loss:
        links = tuple(
            lossy_link(
                link,
                arguments.loss,
                retransmit_penalty_cycles=arguments.retransmit_penalty,
            )
            for link in links
        )
        for link in links:
            print(
                f"lossy link:        {link.name} "
                f"({link.cycles_per_byte:,.0f} cycles/byte effective)"
            )
    order = estimate_first_use(program)
    # Normalise against strict transfer over the first simulated link.
    base = strict_baseline(program, trace, links[0], arguments.cpi)
    result = run_striped(
        program,
        trace,
        order,
        links,
        arguments.cpi,
        policy=policy,
        max_streams=arguments.streams,
        data_partitioning=arguments.partition,
    )
    if arguments.links:
        print(
            f"striped links:     "
            f"{', '.join(one.name for one in links)} "
            f"(policy {policy})"
        )
    print(f"strict total:      {base.total_cycles:,.0f} cycles")
    print(f"non-strict total:  {result.total_cycles:,.0f} cycles")
    print(
        f"normalized:        "
        f"{result.normalized_to(base.total_cycles):.1f}%"
    )
    print(f"stalls:            {result.stall_count}")
    print(f"bytes terminated:  {result.bytes_terminated:,.0f}")
    return 0


def _cmd_trace(arguments) -> int:
    from .observe import (
        TraceRecorder,
        chrome_trace_json,
        render_timeline,
        to_jsonl,
    )

    program = load_program(arguments.directory)
    trace = load_trace(arguments.trace)

    if arguments.netserve:
        recorder = TraceRecorder(clock="seconds")
        result = _traced_netserve_run(
            program, trace, arguments, recorder
        )
        latencies = result.latencies
        print("mode:              netserve (wall clock, seconds)")
        print(
            f"wall time:         {result.wall_seconds * 1e3:.1f} ms"
        )
        print(f"stalls:            {result.stall_count}")
    else:
        recorder = TraceRecorder(clock="cycles")
        link = _LINKS[arguments.link]
        if arguments.policy == "strict":
            result = run_strict(
                program, trace, link, arguments.cpi, recorder=recorder
            )
        else:
            order = estimate_first_use(program)
            result = run_nonstrict(
                program,
                trace,
                order,
                link,
                arguments.cpi,
                method=arguments.method,
                data_partitioning=(
                    arguments.policy == "data_partitioned"
                ),
                recorder=recorder,
            )
        latencies = result.latencies
        print("mode:              simulated (cycle clock)")
        print(
            f"total:             {result.total_cycles:,.0f} cycles"
        )
        print(f"stalls:            {result.stall_count}")

    print(f"events:            {len(recorder.events)}")
    unit = latencies.unit
    for entry in latencies.entries:
        marker = " (demand)" if entry.demand_fetched else ""
        if unit == "seconds":
            shown = f"{entry.latency * 1e3:.1f} ms"
        else:
            shown = f"{entry.latency:,.0f} cycles"
        print(f"  first invoke {entry.method}: {shown}{marker}")

    if arguments.out:
        Path(arguments.out).write_text(
            chrome_trace_json(recorder, indent=2)
        )
        print(f"chrome trace:      {arguments.out}")
    if arguments.jsonl:
        Path(arguments.jsonl).write_text(
            to_jsonl(recorder.sorted_events())
        )
        print(f"jsonl events:      {arguments.jsonl}")
    if arguments.timeline:
        print(render_timeline(recorder, width=arguments.width))
    return 0


def _traced_netserve_run(program, trace, arguments, recorder):
    """One in-process server + traced fetch over a real socket."""
    import asyncio

    from .netserve import ClassFileServer, fetch_and_run

    async def scenario():
        server = ClassFileServer(
            program,
            bandwidth=arguments.bandwidth,
            once=True,
        )
        host, port = await server.start()
        try:
            result, _ = await fetch_and_run(
                host,
                port,
                trace,
                arguments.cpi,
                policy=arguments.policy,
                recorder=recorder,
            )
        finally:
            await server.aclose()
        return result

    return asyncio.run(scenario())


def _cmd_serve(arguments) -> int:
    import asyncio
    import json

    from .faults import FaultPlan
    from .netserve import ClassFileServer

    program = load_program(arguments.directory)
    fault_plan = None
    if arguments.faults:
        try:
            fault_plan = FaultPlan.from_dict(
                json.loads(arguments.faults)
            )
        except json.JSONDecodeError as error:
            print(f"error: --faults is not JSON: {error}", file=sys.stderr)
            return 2

    async def run_server() -> None:
        server = ClassFileServer(
            program,
            host=arguments.host,
            port=arguments.port,
            bandwidth=arguments.bandwidth,
            burst=arguments.burst,
            once=arguments.once,
            fault_plan=fault_plan,
        )
        host, port = await server.start()
        print(f"serving {arguments.directory} on {host}:{port}")
        if arguments.port_file:
            Path(arguments.port_file).write_text(str(port))
        try:
            await server.serve_until_done()
        except asyncio.CancelledError:
            pass
        finally:
            await server.aclose()
        for conn in server.stats.connections:
            print(
                f"{conn.peer}: policy={conn.policy} "
                f"units={conn.units_sent} bytes={conn.bytes_sent} "
                f"demand_fetches={conn.demand_fetches}"
            )

    try:
        asyncio.run(run_server())
    except KeyboardInterrupt:
        print("interrupted")
    return 0


def _parse_endpoints(raw: str) -> List[Tuple[str, int]]:
    """Parse ``host:port,host:port`` into endpoint tuples."""
    endpoints: List[Tuple[str, int]] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        host, separator, port = token.rpartition(":")
        if not separator or not host:
            raise ReproError(
                f"--links expects host:port entries: {token!r}"
            )
        try:
            endpoints.append((host, int(port)))
        except ValueError:
            raise ReproError(
                f"--links has a non-integer port: {token!r}"
            ) from None
    if not endpoints:
        raise ReproError("--links is empty")
    return endpoints


def _cmd_fetch(arguments) -> int:
    import asyncio

    from .netserve import (
        NonStrictFetcher,
        format_fetch_stats,
        run_networked,
    )

    trace = (
        load_trace(arguments.trace) if arguments.trace else None
    )
    links = _parse_endpoints(arguments.links) if arguments.links else []

    async def run_fetch() -> None:
        fetcher = NonStrictFetcher(
            arguments.host,
            arguments.port,
            links=links,
            policy=arguments.policy,
            strategy=arguments.strategy,
            demand_timeout=arguments.timeout,
            connect_timeout=arguments.connect_timeout,
            max_reconnects=arguments.max_reconnects,
            deadline=arguments.deadline,
            hedge_delay=arguments.hedge_delay,
            stall_timeout=arguments.stall_timeout,
        )
        await fetcher.connect()
        try:
            if trace is not None:
                result = await run_networked(
                    fetcher, trace, arguments.cpi
                )
                print(
                    f"wall time:         "
                    f"{result.wall_seconds * 1e3:.1f} ms"
                )
                print(
                    f"invocation latency: "
                    f"{result.invocation_latency * 1e3:.1f} ms"
                )
                for entry in result.latencies.entries:
                    marker = " (demand)" if entry.demand_fetched else ""
                    print(
                        f"  {entry.method}: "
                        f"{entry.latency * 1e3:.1f} ms{marker}"
                    )
            await fetcher.wait_until_complete()
        finally:
            await fetcher.aclose()
        print(format_fetch_stats(fetcher.stats))

    asyncio.run(run_fetch())
    return 0


def _parse_float_list(raw: str, option: str) -> List[Optional[float]]:
    """Parse a comma list of floats; ``none`` means unpaced."""
    values: List[Optional[float]] = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() in ("none", "unpaced"):
            values.append(None)
            continue
        try:
            values.append(float(token))
        except ValueError:
            raise ReproError(
                f"{option} expects comma-separated numbers "
                f"(or 'none'): {token!r}"
            ) from None
    if not values:
        raise ReproError(f"{option} is empty")
    return values


def _cmd_loadtest(arguments) -> int:
    import asyncio
    import dataclasses
    import json

    from .faults import FaultPlan
    from .netserve.loadgen import (
        format_report,
        run_sweep,
        sweep_cells,
        write_bench_json,
    )

    if (arguments.directory is None) == (arguments.workload is None):
        print(
            "error: give either a program directory or --workload NAME",
            file=sys.stderr,
        )
        return 2
    if arguments.workload is not None:
        from .workloads.spec import benchmark_spec
        from .workloads.synthetic import paper_workload

        program = paper_workload(
            benchmark_spec(arguments.workload)
        ).program
    else:
        program = load_program(arguments.directory)

    try:
        clients = [
            int(token)
            for token in arguments.clients.split(",")
            if token.strip()
        ]
    except ValueError:
        print(
            f"error: --clients expects comma-separated integers: "
            f"{arguments.clients!r}",
            file=sys.stderr,
        )
        return 2
    bandwidths = _parse_float_list(arguments.bandwidth, "--bandwidth")
    fault_plans: List[Optional[FaultPlan]] = [None]
    if arguments.faults:
        try:
            fault_plans.append(
                FaultPlan.from_dict(json.loads(arguments.faults))
            )
        except json.JSONDecodeError as error:
            print(
                f"error: --faults is not JSON: {error}", file=sys.stderr
            )
            return 2
    link_sets: List[Optional[Tuple[Optional[float], ...]]] = [None]
    if arguments.links:
        link_sets = [
            tuple(_parse_float_list(arguments.links, "--links"))
        ]
    elif arguments.striped or arguments.link_faults:
        print(
            "error: --striped/--link-faults need --links",
            file=sys.stderr,
        )
        return 2
    link_fault_plans: Optional[Tuple[Optional[FaultPlan], ...]] = None
    if arguments.link_faults:
        try:
            raw_plans = json.loads(arguments.link_faults)
        except json.JSONDecodeError as error:
            print(
                f"error: --link-faults is not JSON: {error}",
                file=sys.stderr,
            )
            return 2
        if not isinstance(raw_plans, list):
            print(
                "error: --link-faults expects a JSON list "
                "(null = clean link)",
                file=sys.stderr,
            )
            return 2
        link_fault_plans = tuple(
            None if plan is None else FaultPlan.from_dict(plan)
            for plan in raw_plans
        )

    cells = sweep_cells(
        clients,
        bandwidths,
        policy=arguments.policy,
        strategy=arguments.strategy,
        fault_plans=fault_plans,
        link_sets=link_sets,
        striped=arguments.striped,
    )
    if link_fault_plans is not None:
        cells = [
            dataclasses.replace(
                cell, link_fault_plans=link_fault_plans
            )
            if cell.links is not None
            else cell
            for cell in cells
        ]
    report = asyncio.run(
        run_sweep(
            program,
            cells,
            max_connections=arguments.max_connections,
            per_connection_bandwidth=(
                arguments.per_connection_bandwidth
            ),
            connect_timeout=arguments.connect_timeout,
        )
    )
    print(format_report(report))
    if arguments.out:
        target = write_bench_json(report, arguments.out)
        print(f"bench:  {target}")
    failed = sum(cell.failed for cell in report.cells)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-inspect",
        description="Inspect and simulate stored repro programs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    disasm = commands.add_parser("disasm", help="disassemble a method")
    disasm.add_argument("directory")
    disasm.add_argument("class_name")
    disasm.add_argument("method", nargs="?")
    disasm.set_defaults(handler=_cmd_disasm)

    layout = commands.add_parser("layout", help="byte layout per class")
    layout.add_argument("directory")
    layout.add_argument("--verbose", action="store_true")
    layout.set_defaults(handler=_cmd_layout)

    partition = commands.add_parser(
        "partition", help="global data split per class"
    )
    partition.add_argument("directory")
    partition.set_defaults(handler=_cmd_partition)

    order = commands.add_parser(
        "order", help="static first-use order"
    )
    order.add_argument("directory")
    order.set_defaults(handler=_cmd_order)

    verify = commands.add_parser("verify", help="verify every class")
    verify.add_argument("directory")
    verify.set_defaults(handler=_cmd_verify)

    lint = commands.add_parser(
        "lint",
        help="run static analysis rules; nonzero exit on errors",
    )
    lint.add_argument(
        "directory",
        nargs="?",
        default=None,
        help="stored program directory (or use --workload)",
    )
    lint.add_argument(
        "--workload",
        default=None,
        metavar="NAME",
        help="lint a bundled synthetic workload (BIT, Hanoi, JavaCup, "
        "Jess, JHLZip, TestDes) with its test trace",
    )
    lint.add_argument(
        "--trace",
        default=None,
        help="stored execution trace enabling the precise interval "
        "replay (guaranteed-misprediction proofs)",
    )
    lint.add_argument(
        "--link", choices=sorted(_LINKS), default="t1"
    )
    lint.add_argument(
        "--cpi",
        type=float,
        default=None,
        help="cycles per instruction (default: the workload's "
        "calibrated CPI, or 30)",
    )
    lint.add_argument(
        "--sarif",
        default=None,
        metavar="PATH",
        help="write findings as SARIF 2.1.0 here",
    )
    lint.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write findings as plain JSON here",
    )
    lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "note"),
        default="error",
        help="least severe finding level that exits nonzero "
        "(default: error; 'note' = SARIF's name for info)",
    )
    lint.set_defaults(handler=_cmd_lint)

    interproc = commands.add_parser(
        "interproc",
        help="interprocedural summary: reachability, devirtualization, "
        "weighted call edges, prune savings",
    )
    interproc.add_argument(
        "directory",
        nargs="?",
        default=None,
        help="stored program directory (or use --workload)",
    )
    interproc.add_argument(
        "--workload",
        default=None,
        metavar="NAME",
        help="analyze a bundled synthetic workload (BIT, Hanoi, "
        "JavaCup, Jess, JHLZip, TestDes)",
    )
    interproc.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many weighted call edges to show",
    )
    interproc.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the summary as JSON here instead of text",
    )
    interproc.set_defaults(handler=_cmd_interproc)

    simulate = commands.add_parser(
        "simulate", help="co-simulate a stored trace"
    )
    simulate.add_argument("directory")
    simulate.add_argument("trace")
    simulate.add_argument(
        "--link", choices=sorted(_LINKS), default="t1"
    )
    simulate.add_argument("--cpi", type=float, default=100.0)
    simulate.add_argument(
        "--method",
        choices=("interleaved", "parallel"),
        default="interleaved",
    )
    simulate.add_argument("--streams", type=int, default=None)
    simulate.add_argument("--partition", action="store_true")
    simulate.add_argument(
        "--links",
        default=None,
        help="stripe across multiple links: comma-separated t1/modem "
        "names or bits-per-second numbers (e.g. '57600,modem,modem'); "
        "overrides --link/--method for the non-strict run",
    )
    simulate.add_argument(
        "--sched-policy",
        choices=_SCHED_POLICIES,
        default="deadline",
        help="transfer policy for --links (strict runs on one link)",
    )
    simulate.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="per-packet loss probability in [0, 1) applied to every "
        "simulated link (expected-value retransmission model)",
    )
    simulate.add_argument(
        "--retransmit-penalty",
        type=float,
        default=0.0,
        help="extra cycles per lost packet (timeout + turnaround)",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    traced = commands.add_parser(
        "trace",
        help="run one traced configuration and export its events",
    )
    traced.add_argument("directory")
    traced.add_argument("trace")
    traced.add_argument(
        "--policy",
        choices=("strict", "non_strict", "data_partitioned"),
        default="non_strict",
    )
    traced.add_argument(
        "--method",
        choices=("interleaved", "parallel"),
        default="interleaved",
        help="transfer methodology (simulated mode only)",
    )
    traced.add_argument(
        "--link", choices=sorted(_LINKS), default="t1"
    )
    traced.add_argument("--cpi", type=float, default=100.0)
    traced.add_argument(
        "--netserve",
        action="store_true",
        help="measure over a real localhost socket instead of the "
        "cycle-exact simulator",
    )
    traced.add_argument(
        "--bandwidth",
        type=float,
        default=None,
        help="netserve pacing cap in bytes/second (default: unpaced)",
    )
    traced.add_argument(
        "--out",
        default=None,
        help="write a Chrome-loadable trace (chrome://tracing) here",
    )
    traced.add_argument(
        "--jsonl",
        default=None,
        help="write the raw event stream as JSON-lines here",
    )
    traced.add_argument(
        "--timeline",
        action="store_true",
        help="print an ASCII per-method timeline",
    )
    traced.add_argument(
        "--width",
        type=int,
        default=60,
        help="timeline width in columns",
    )
    traced.set_defaults(handler=_cmd_trace)

    serve = commands.add_parser(
        "serve", help="serve transfer units over TCP"
    )
    serve.add_argument("directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument(
        "--bandwidth",
        type=float,
        default=None,
        help="pacing cap in bytes/second (default: unpaced)",
    )
    serve.add_argument(
        "--burst",
        type=float,
        default=256.0,
        help="token-bucket burst size in bytes",
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help="exit after the first connection finishes",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file (for scripting)",
    )
    serve.add_argument(
        "--faults",
        default=None,
        metavar="JSON",
        help="fault-injection plan as a JSON object "
        '(e.g. \'{"seed": 7, "cut_after_bytes": [4000]}\'; '
        "see repro.faults.FaultPlan)",
    )
    serve.set_defaults(handler=_cmd_serve)

    fetch = commands.add_parser(
        "fetch", help="fetch a served program over TCP"
    )
    fetch.add_argument("host")
    fetch.add_argument("port", type=int)
    fetch.add_argument("trace", nargs="?", default=None)
    fetch.add_argument(
        "--policy",
        choices=("strict", "non_strict", "data_partitioned"),
        default="non_strict",
    )
    fetch.add_argument(
        "--strategy",
        choices=("static", "textual", "profile", "weighted"),
        default="static",
    )
    fetch.add_argument("--cpi", type=float, default=100.0)
    fetch.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="demand-fetch timeout in seconds",
    )
    fetch.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        help="seconds allowed for connect + session handshake",
    )
    fetch.add_argument(
        "--max-reconnects",
        type=int,
        default=4,
        help="reconnect budget per link before the strict whole-file "
        "fallback (0 = fall back on the first failure)",
    )
    fetch.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="overall fetch deadline in seconds, recoveries included",
    )
    fetch.add_argument(
        "--links",
        default=None,
        metavar="HOST:PORT,...",
        help="extra endpoints to stripe the fetch across (the "
        "positional host/port is link 0); any at all make the fetch "
        "a pull stripe",
    )
    fetch.add_argument(
        "--hedge-delay",
        type=float,
        default=0.25,
        help="seconds a striped demand fetch waits before hedging "
        "onto a second link",
    )
    fetch.add_argument(
        "--stall-timeout",
        type=float,
        default=5.0,
        help="seconds without a frame before a striped link is "
        "declared stalled and recycled",
    )
    fetch.set_defaults(handler=_cmd_fetch)

    loadtest = commands.add_parser(
        "loadtest",
        help="fleet-scale latency sweep against an in-process server",
    )
    loadtest.add_argument(
        "directory",
        nargs="?",
        default=None,
        help="stored program directory (or use --workload)",
    )
    loadtest.add_argument(
        "--workload",
        default=None,
        metavar="NAME",
        help="sweep a bundled synthetic workload (BIT, Hanoi, JavaCup, "
        "Jess, JHLZip, TestDes)",
    )
    loadtest.add_argument(
        "--clients",
        default="1,8,32",
        help="comma-separated concurrent client counts (one cell each)",
    )
    loadtest.add_argument(
        "--bandwidth",
        default="none",
        help="comma-separated shared-link rates in bytes/second "
        "('none' = unpaced)",
    )
    loadtest.add_argument(
        "--policy",
        choices=("strict", "non_strict", "data_partitioned"),
        default="non_strict",
    )
    loadtest.add_argument(
        "--strategy",
        choices=("static", "textual", "profile", "weighted"),
        default="static",
    )
    loadtest.add_argument(
        "--faults",
        default=None,
        metavar="JSON",
        help="fault-injection plan as JSON; adds a faulted cell per "
        "clients × bandwidth combination",
    )
    loadtest.add_argument(
        "--links",
        default=None,
        metavar="BW,BW,...",
        help="per-link bandwidths ('none' = unpaced); one server "
        "endpoint per link, workers striped round-robin",
    )
    loadtest.add_argument(
        "--striped",
        action="store_true",
        help="with --links, every worker is one pull-mode fetch over "
        "all endpoints at once",
    )
    loadtest.add_argument(
        "--link-faults",
        default=None,
        metavar="JSON",
        help="JSON list of per-link fault plans (null = clean link); "
        "length must match --links",
    )
    loadtest.add_argument(
        "--max-connections",
        type=int,
        default=None,
        help="server admission limit (rejections counted per cell)",
    )
    loadtest.add_argument(
        "--per-connection-bandwidth",
        type=float,
        default=None,
        help="additional per-connection cap in bytes/second",
    )
    loadtest.add_argument(
        "--connect-timeout",
        type=float,
        default=30.0,
        help="per-client handshake timeout in seconds",
    )
    loadtest.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the sweep run table here (BENCH_serve.json)",
    )
    loadtest.set_defaults(handler=_cmd_loadtest)

    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
