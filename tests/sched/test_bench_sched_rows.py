"""The committed ``BENCH_sched.json`` rows are what the library computes.

``benchmarks/bench_sched.py`` writes 48 rows: six workloads × two
orders (SCG, Train) × four link sets, all through
:func:`repro.sched.run_striped`.  The two single links run
``round_robin`` and the 2- and 4-link stripes ``interleaved``.  These
rows are the only pin of one-link ``round_robin`` and of the 4-link
stripe, so each must equal a fresh sweep on every field the benchmark
writes: a change that moves one of their cycles, stalls or latencies
fails in the tier-1 suite, not only when the benchmark is regenerated.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import bench_sched  # noqa: E402


def test_committed_sched_rows_match_the_sweep():
    committed = json.loads(bench_sched.BENCH_PATH.read_text())
    _, payload = bench_sched.sched_sweep()
    assert len(committed["rows"]) == 48
    assert {
        (row["config"], row["policy"]) for row in committed["rows"]
    } == {
        ("1x28.8k", "round_robin"),
        ("1x57.6k", "round_robin"),
        ("2-link 57.6+28.8", "interleaved"),
        ("4-link 57.6+2x28.8+14.4", "interleaved"),
    }
    assert payload == committed
