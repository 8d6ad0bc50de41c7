"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload stream --seed 43 --seconds 12 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there.  The report goes to standard output — a human-readable table (every
metric with its unit and sample count), then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, their timings calibrated to one host speed
(``calibrate.py``; the raw set-up times and throughput are printed above
the table), ``--trace 1`` the per-layer metrics of a traced run.  Failed
checks are listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"


def parse_arguments(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("stream", "explore", "recover"))
    parser.add_argument("--seed", type=int, default=43)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seconds <= 0:
        parser.error("--seconds must be positive")
    return arguments


def main(argv: list[str] | None = None) -> int:
    arguments = parse_arguments(argv)
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SOURCES / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCES), str(ROOT)]

    from perfbench.harness import run

    report = run(arguments.workload, arguments.seed, arguments.seconds, bool(arguments.trace))
    failures = report["failures"]
    if not report["attempted"]:
        failures.append("no operation ran")
    for failure in failures:
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)

    print(
        f"workload {report['workload']}  seed {report['seed']}  "
        f"inputs {json.dumps(report['inputs'])}"
    )
    print(f"set-ups, one per round, raw (s): {', '.join(f'{v:.3f}' for v in report['setup_seconds'])}")
    print(f"host speed factor per round: {', '.join(f'{v:.3f}' for v in report['factors'])}")
    if "raw" in report:
        raw = report["raw"]
        print(f"raw: setup_s {raw['setup_s']:.4f} s, throughput_per_s {raw['throughput_per_s']:.4f}")
    print(f"peak RSS after input generation, before set-up: {report['inputs_rss_mb']:.1f} MB")
    print(
        f"timed units: {report['units']}  attempted: {report['attempted']}  "
        f"oracle checks: {report['checks']}  failed: {len(failures)}"
    )
    if "tail" in report:
        print("beyond latency_p95_ms: {} samples from {} distinct units".format(*report["tail"]))
    print(f"{'metric':42} {'value':>14} {'unit':>6} {'samples':>8}")
    for name, (value, unit, samples) in report["metrics"].items():
        print(f"{name:42} {value:14.4f} {unit:>6} {samples:8d}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": max(report["attempted"], len(failures)),
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in report["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
