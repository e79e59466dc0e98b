"""Tests of the benchmark itself (a few minutes; not tier-1).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.core.result import ClusteringResult  # noqa: E402
from repro.core.sequential import sequential_infomap  # noqa: E402
from repro.graph.generators import ring_of_cliques  # noqa: E402

#: Counts that must repeat exactly for one seed (layer metrics of the
#: traced run) and the end-to-end quality figures.
REPEATING_LAYER_COUNTS = (
    "dist.rounds_stage1",
    "dist.edge_scans",
    "simmpi.bytes",
    "simmpi.messages",
    "seq.warm_edges_scanned",
)
UNUSED_SEED = 424242


def _run(name: str, seed: int, trace: bool, tmp_path: Path) -> measure.Report:
    # Two inputs give one traced input; one input keeps untraced runs short.
    return measure.run_workload(
        name, seed, 1, trace, tmp_path, instances=2 if trace else 1
    )


def _final_quality(report: measure.Report) -> list[tuple[float, float]]:
    return [(r.results[-1].codelength, r.nmis[-1]) for r in report.reps]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_for_one_seed(name: str, tmp_path: Path) -> None:
    first = _run(name, 3, True, tmp_path)
    second = _run(name, 3, True, tmp_path)
    assert first.correct and second.correct, first.errors + second.errors
    for key in REPEATING_LAYER_COUNTS:
        assert first.metrics[key] == second.metrics[key], key
    # Tracing never changes a result: untraced and traced passes agree too.
    quality = _final_quality(first)
    assert len(set(quality)) == 1
    assert quality == _final_quality(second)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_unused_seed_passes_the_check(name: str, tmp_path: Path) -> None:
    report = _run(name, UNUSED_SEED, False, tmp_path)
    assert report.correct, report.errors
    assert report.failed == 0 and report.attempted > 0
    assert set(report.metrics) == set(measure.END_TO_END_UNITS)
    assert all(v > 0 for v in report.metrics.values()), report.metrics


def test_declared_metrics_match_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    assert declared == {**measure.END_TO_END_UNITS, **measure.PER_LAYER_UNITS}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- failures are counted, never dropped ------------------------------------

def _tiny_workload(run) -> workloads.Workload:
    return workloads.Workload("tiny", 1, 1, lambda seed, d: None, run)


@pytest.fixture(scope="module")
def tiny():
    lg = ring_of_cliques(6, 5)
    return workloads.Instance(labels=lg.labels, graph=lg.graph)


def _solve(inst, rec, emit, tamper=None, sleep=0.0):
    with rec.span(spans.ROOT):
        time.sleep(sleep)
        res = sequential_infomap(inst.graph)
    emit(inst.graph, tamper(res) if tamper else res, None)


def test_good_call_passes(tiny) -> None:
    rep = measure.run_rep(_tiny_workload(_solve), tiny, 0, False, 10.0)
    assert rep.ok and rep.nmis[0] > 0.99


def test_wrong_codelength_fails_the_check(tiny) -> None:
    def tamper(res: ClusteringResult) -> ClusteringResult:
        res.codelength += 1e-6
        return res

    wl = _tiny_workload(lambda i, r, e: _solve(i, r, e, tamper=tamper))
    rep = measure.run_rep(wl, tiny, 0, False, 10.0)
    assert rep.failed == 1 and "codelength" in rep.errors[0]


def test_unassigned_vertex_fails_the_check(tiny) -> None:
    def tamper(res: ClusteringResult) -> ClusteringResult:
        res.membership = res.membership.copy()
        res.membership[0] = -1
        return res

    wl = _tiny_workload(lambda i, r, e: _solve(i, r, e, tamper=tamper))
    assert measure.run_rep(wl, tiny, 0, False, 10.0).failed == 1


def test_exception_and_timeout_count_as_failed(tiny) -> None:
    def boom(inst, rec, emit):
        raise RuntimeError("solver crashed")

    assert measure.run_rep(_tiny_workload(boom), tiny, 0, False, 10.0).failed == 1
    slow = _tiny_workload(lambda i, r, e: _solve(i, r, e, sleep=5.0))
    t0 = time.perf_counter()
    rep = measure.run_rep(slow, tiny, 0, False, 0.5)
    assert time.perf_counter() - t0 < 3.0
    assert rep.failed == 1 and "exceeded" in rep.errors[0]
    assert measure.run_rep(slow, tiny, 0, False, 0.0).failed == 1


def test_independent_nmi_matches_library() -> None:
    from repro.metrics.nmi import nmi

    rng = np.random.default_rng(0)
    a, b = rng.integers(0, 7, 500), rng.integers(0, 4, 500)
    assert workloads.independent_nmi(a, b) == pytest.approx(nmi(a, b), abs=1e-12)


def test_patching_is_undone() -> None:
    import repro.core.distributed as dist
    from repro.core.flow import FlowNetwork

    before = (dist.run_spmd, FlowNetwork.__dict__["from_graph"])
    rec = spans.SpanRecorder()
    with rec.patched():
        assert dist.run_spmd is not before[0]
    assert (dist.run_spmd, FlowNetwork.__dict__["from_graph"]) == before


def test_stop_children_leaves_no_process(tmp_path: Path) -> None:
    import multiprocessing
    from multiprocessing import resource_tracker

    report = measure.run_workload("social-p2", 5, 1, False, tmp_path,
                                  instances=1)
    assert report.correct, report.errors
    assert resource_tracker._resource_tracker._pid is not None
    measure.stop_children()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


# -- the command --------------------------------------------------------------

def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "web-p1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
