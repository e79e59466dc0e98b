"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's tables/figures through
its driver in ``repro.bench.experiments`` and prints the rendered rows
(`pytest benchmarks/ --benchmark-only -s` shows them).  Drivers are
deterministic, so a single measured round per benchmark suffices; the
value under test is the experiment's *content*, the timing is a bonus.

Guards import :data:`SMOKE` and :func:`bench_path` from here
(``from conftest import ...``).
"""

import os
from pathlib import Path

import pytest

#: ``REPRO_BENCH_SMOKE=1`` selects the reduced smoke profile
#: (``scripts/check.sh`` runs the guards this way).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def bench_path(name: str) -> Path:
    """Where a guard writes its ``BENCH_<name>.json`` report.

    Full-profile runs write the tracked file at the repository root.
    Smoke runs write into the gitignored ``.bench_smoke/`` instead, so
    a gate run never overwrites full-profile records with smoke numbers.
    """
    root = Path(__file__).resolve().parents[1]
    if SMOKE:
        root = root / ".bench_smoke"
        root.mkdir(exist_ok=True)
    return root / f"BENCH_{name}.json"


def pytest_collection_modifyitems(config, items):
    """Skip throughput/observability guards unless ``--run-bench``.

    The guards (frames-vs-pickle wire speedup, swap-cycle rounds/sec,
    tracing overhead) take tens of seconds and measure wall-clock
    ratios, so they don't belong in the default tier-1 sweep;
    ``pytest benchmarks/ --run-bench`` opts in.
    """
    if config.getoption("--run-bench"):
        return
    skip = pytest.mark.skip(reason="needs --run-bench")
    guards = (
        "throughput_guard", "obs_guard", "procs_guard", "rebalance_guard",
        "ingest_guard", "incremental_guard", "live_guard", "overlap_guard",
    )
    for item in items:
        if any(g in item.keywords for g in guards):
            item.add_marker(skip)


@pytest.fixture
def run_once(benchmark):
    """Run an experiment driver exactly once under pytest-benchmark."""

    def _run(fn, *args, **kwargs):
        return benchmark.pedantic(
            fn, args=args, kwargs=kwargs, rounds=1, iterations=1,
            warmup_rounds=0,
        )

    return _run
