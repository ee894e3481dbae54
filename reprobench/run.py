"""Run one benchmark workload and print its metrics.

    python3 reprobench/run.py --workload serve-warm --seed 1 --seconds 6 --trace 0

Builds nothing: the program is the pure-Python package under ``src/``
of the checkout this script sits in.  With ``--trace 0`` the last line
of standard output is a JSON object carrying every end-to-end metric;
with ``--trace 1`` the layer wrappers are installed and the same line
carries every per-layer metric instead.  Each run also leaves a
run-table folder under ``reprobench/runs/`` (see README.md).

``--write-fingerprint`` recomputes ``sweep_expected.json`` (the sweep's
committed cycle fingerprint) instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Each of these silently changes the measured program.
FORBIDDEN_ENV = ("REPRO_SIM_ENGINE", "REPRO_FASTSIM_NUMPY", "REPRO_PERF_HANDICAP")


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("sweep", "serve-warm", "serve-cold", "serve-striped"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fingerprint", action="store_true")
    return parser.parse_args(argv)


def refuse(message: str) -> None:
    print(f"reprobench: {message}", file=sys.stderr)
    raise SystemExit(2)


def main(argv: list) -> None:
    args = parse_args(argv)
    present = [name for name in FORBIDDEN_ENV if name in os.environ]
    if present:
        refuse(
            f"refusing to run with {', '.join(present)} set: it changes the "
            "measured program; unset it and run again"
        )
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        refuse(f"no program sources at {ROOT / 'src' / 'repro'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import report  # noqa: E402 - needs the paths above

    if args.write_fingerprint:
        report.write_fingerprint()
        return
    result = report.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
