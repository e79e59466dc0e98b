"""End-to-end benchmark of the distributed Infomap reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload web-p1 --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics with a reconciliation of layer spans against wall
time.  Every returned clustering is checked (codelength recomputed,
NMI recomputed); the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, with the host stamp and, when traced, every span, is written
to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.

Exits with code 2, printing no result, when the checkout holds no
``src/repro`` package to measure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def _print_metrics(report, units: dict[str, str]) -> None:
    for name, unit in units.items():
        value = report.metrics.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<30} {shown:>14} {unit}")


def _print_reconciliation(report) -> None:
    print("reconciliation (traced wall = top-level layer spans + unattributed):")
    for row in report.reconciliation:
        layers = " + ".join(
            f"{k} {v:.3f}" for k, v in sorted(row["top_level_s"].items())
        )
        print(
            f"  input {row['instance']}: wall {row['wall_s']:.3f} s = "
            f"{layers} + unattributed {row['unattributed_s']:.3f}"
        )
        if "rank_phase_sum_s" in row:
            print(
                f"    slowest rank's dist.* phases {row['rank_phase_sum_s']:.3f}"
                f" s = ranks' total_seconds_max "
                f"{row['rank_total_seconds_max']:.3f} s"
            )


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure  # needs src/ on the path

    if args.workload not in measure.WORKLOADS:
        names = ", ".join(measure.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2

    trace = bool(args.trace)
    # A SIGTERM unwinds through the ``finally`` below, so the ranks and
    # the resource tracker are stopped on that path out too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        with measure.scratch_dir(ROOT) as workdir:
            report = measure.run_workload(
                args.workload, args.seed, args.seconds, trace, workdir
            )
    finally:
        measure.stop_children()
    units = measure.PER_LAYER_UNITS if trace else measure.END_TO_END_UNITS

    print(f"workload {report.workload} seed {report.seed} trace {args.trace}")
    print("host " + json.dumps(report.host, sort_keys=True))
    print(
        f"{len(report.reps)} timed sections after {len(report.setup_times)} "
        f"set-ups; calls attempted {report.attempted}, failed {report.failed}"
    )
    for err in report.errors:
        print(err.rstrip(), file=sys.stderr)
    _print_metrics(report, units)
    if trace:
        _print_reconciliation(report)

    record = {
        "workload": report.workload,
        "seed": report.seed,
        "trace": args.trace,
        "host": report.host,
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": report.metrics,
        "setup_times_s": report.setup_times,
        "errors": report.errors,
        "reconciliation": report.reconciliation,
        "spans": [
            {"instance": r.instance, "traced": r.traced, "spans": r.rec.dump()}
            for r in report.reps if r.traced
        ],
    }
    out = ROOT / ".perfbench" / (
        f"{report.workload}-seed{report.seed}-trace{args.trace}.json"
    )
    out.write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
