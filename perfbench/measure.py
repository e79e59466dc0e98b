"""Runs one workload and turns its calls and spans into metrics.

``--trace 0`` gives the end-to-end metrics: every input is set up, then
timed untraced, pass after pass, while the run's time budget lasts.
``--trace 1`` gives the per-layer metrics: on the first half of the
inputs it runs the timed section once untraced and once with every
layer entry point wrapped (alternating which goes first), so the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np
from repro.core.result import ClusteringResult
from repro.graph.graph import Graph

from spans import SpanRecorder
from workloads import WORKLOADS, CheckError, Instance, Workload, check

#: A timed section (one input) that runs longer than this is stopped
#: and counted as failed; a healthy one takes 3-20 s.
INSTANCE_LIMIT_S = 90.0
#: No timed section runs past this many seconds after measuring began,
#: so a run that hangs still exits well within three minutes; inputs
#: left unrun count as failed.
RUN_LIMIT_S = 140.0

#: Set-up timings a run takes its ``setup_s`` median over, at least.
SETUP_SAMPLES = 6

#: Stage-1 rounds count as useful when they lower L by at least this
#: share of |L|.
USEFUL_ROUND_RTOL = 1e-4

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "codelength_bits": "bits",
    "nmi": "ratio",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "update_p50_s": "s",
    "update_p90_s": "s",
}

PER_LAYER_UNITS = {
    "graph.read_s": "s",
    "graph.delta_apply_s": "s",
    "flow.build_s": "s",
    "partition.delegate_s": "s",
    "partition.views_s": "s",
    "partition.num_hubs": "count",
    "partition.entries_imbalance": "ratio",
    "partition.ghosts_max": "count",
    "simmpi.launch_s": "s",
    "simmpi.bytes": "bytes",
    "simmpi.messages": "count",
    "simmpi.collectives": "count",
    "simmpi.encode_s": "s",
    "simmpi.decode_s": "s",
    "simmpi.wait_s": "s",
    "simmpi.hidden_s": "s",
    "dist.find_best_s": "s",
    "dist.edge_scans": "count",
    "dist.rounds_stage1": "count",
    "dist.rounds_total": "count",
    "dist.moves": "count",
    "dist.useful_round_frac": "ratio",
    "dist.delegates_s": "s",
    "dist.swap_s": "s",
    "dist.other_s": "s",
    "dist.measurement_s": "s",
    "dist.levels": "count",
    "seq.cold_s": "s",
    "seq.sweeps": "count",
    "seq.levels": "count",
    "seq.warm_solve_s": "s",
    "seq.warm_edges_scanned": "count",
    "seq.dirty_frac": "ratio",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_frac": "ratio",
}

_PHASES = {
    "dist.find_best_s": "find_best_module",
    "dist.delegates_s": "broadcast_delegates",
    "dist.swap_s": "swap_boundary_info",
    "dist.other_s": "other",
    "dist.measurement_s": "measurement",
}


@dataclass
class Rep:
    """One timed section over one input: its spans and checked results."""

    instance: int
    traced: bool
    attempted: int
    rec: SpanRecorder = field(default_factory=SpanRecorder)
    results: list[ClusteringResult] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    nmis: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Calls that raised, timed out, never ran, or failed the check."""
        return self.attempted - len(self.nmis)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    @property
    def latencies(self) -> list[float]:
        return [self.rec.duration(i) for i in self.rec.roots()]

    @property
    def wall(self) -> float:
        return sum(self.latencies)


@dataclass
class Report:
    workload: str
    seed: int
    attempted: int
    failed: int
    metrics: dict[str, float]
    setup_times: list[float]
    reps: list[Rep]
    reconciliation: list[dict[str, Any]]
    host: dict[str, Any]
    errors: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


@contextmanager
def _deadline(seconds: float) -> Iterator[None]:
    def _expire(signum: int, frame: Any) -> None:
        raise TimeoutError(f"timed section exceeded {seconds:.1f} s")

    old = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def host_stamp() -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (a rank)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_rep(
    wl: Workload, inst: Instance, index: int, traced: bool, limit_s: float
) -> Rep:
    rep = Rep(index, traced, wl.calls_per_instance)
    if limit_s <= 0:
        rep.errors.append(f"input {index} not run: run time limit reached")
        return rep

    def emit(graph: Graph, res: ClusteringResult, event: Any) -> None:
        # Runs between timed calls, outside every span, and unpatched:
        # the check's own FlowNetwork.from_graph must not be traced.
        with rep.rec.paused():
            try:
                rep.nmis.append(check(graph, res, inst.labels))
            except CheckError as exc:
                rep.errors.append(f"check failed: {exc}")
                return
        rep.results.append(res)
        rep.events.append(event)

    try:
        with _deadline(min(limit_s, INSTANCE_LIMIT_S)):
            if traced:
                with rep.rec.patched():
                    wl.run(inst, rep.rec, emit)
            else:
                wl.run(inst, rep.rec, emit)
    except Exception:  # a failing call is counted by Rep.failed, not fatal
        rep.errors.append(traceback.format_exc())
    finally:
        # A deadline that fires inside run_spmd skips its reaping.
        stop_ranks()
    return rep


def stop_ranks() -> None:
    """Terminate and wait for every rank process still alive."""
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()


def stop_children() -> None:
    """Stop every process the run started, and wait for each to end.

    Besides the ranks, the procs backend's shared-memory segments start
    multiprocessing's resource tracker, which would otherwise outlive
    this process by the time it takes to notice the exit.
    """
    stop_ranks()
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    instances: "int | None" = None,
) -> Report:
    """Set up, time and check one workload; see the module docstring."""
    wl = WORKLOADS[name]
    host = host_stamp()
    count = instances if instances is not None else wl.instances
    if trace:
        count = max(1, math.ceil(count / 2))

    # Each input is set up until there are SETUP_SAMPLES timings; a
    # repeat from the same generator state rebuilds the same input.
    setup_times: list[float] = []
    inputs: list[Instance] = []
    for i in range(count):
        for _ in range(math.ceil(SETUP_SAMPLES / count)):
            t0 = time.perf_counter()
            rng = np.random.default_rng([seed, i])
            inst = wl.setup(rng, i, workdir)
            setup_times.append(time.perf_counter() - t0)
        inputs.append(inst)

    reps: list[Rep] = []
    t_start = time.perf_counter()

    def rep(i: int, traced: bool) -> Rep:
        left = RUN_LIMIT_S - (time.perf_counter() - t_start)
        return run_rep(wl, inputs[i], i, traced, left)

    if trace:
        for i in range(count):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                reps.append(rep(i, traced))
    else:
        while True:
            t_pass = time.perf_counter()
            reps.extend(rep(i, False) for i in range(count))
            now = time.perf_counter()
            if now - t_start + (now - t_pass) > seconds:
                break

    if trace:
        metrics, recon = _layer_metrics(reps)
    else:
        metrics, recon = _end_to_end(reps, setup_times, count), []
    host["loadavg_after"] = list(os.getloadavg())
    errors = [e for r in reps for e in r.errors]
    return Report(
        workload=name,
        seed=seed,
        attempted=sum(r.attempted for r in reps),
        failed=sum(r.failed for r in reps),
        metrics=metrics,
        setup_times=setup_times,
        reps=reps,
        reconciliation=recon,
        host=host,
        errors=errors,
    )


# -- end-to-end --------------------------------------------------------------

def _end_to_end(
    reps: list[Rep], setup_times: list[float], count: int
) -> dict[str, float]:
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    out: dict[str, float] = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - failed / attempted,
    }
    good = [r for r in reps if r.ok]
    per_input = [[r for r in good if r.instance == i] for i in range(count)]
    per_input = [rs for rs in per_input if rs]
    if not per_input:
        return out
    out["wall_s"] = statistics.fmean(
        statistics.median(r.wall for r in rs) for rs in per_input
    )
    # Solver outputs are deterministic: the first pass stands for all.
    out["codelength_bits"] = statistics.fmean(
        rs[0].results[-1].codelength for rs in per_input
    )
    out["nmi"] = statistics.fmean(rs[0].nmis[-1] for rs in per_input)
    lat: list[float] = []
    for r in good:
        # A stream's first call is its cold solve, not an update; on the
        # single-call workloads the solve is how new input is absorbed.
        lat.extend(r.latencies[1:] if r.attempted > 1 else r.latencies)
    p50, p90 = np.percentile(lat, [50, 90])
    out["update_p50_s"] = float(p50)
    out["update_p90_s"] = float(p90)
    return out


# -- per-layer ----------------------------------------------------------------

def _slowest_rank_phases(res: Any) -> dict[str, float]:
    """Phase seconds of the rank that sets ``total_seconds_max``.

    Taking every phase from one rank makes them sum to the ranks' total;
    per-phase maxima over ranks would not.
    """
    timers = res.extras["per_rank_timer"]
    return max(
        (t["seconds"] for t in timers), key=lambda s: sum(s.values())
    )


def _dist_layers(res: Any, spmd_s: float) -> dict[str, float]:
    ex = res.extras
    phases = _slowest_rank_phases(res)
    snap = ex["comm_snapshot"]
    entries = ex["entries_per_rank"]
    rounds1 = int(ex["stage1_rounds"])
    hist = ex["codelength_history"][: rounds1 + 1]
    useful = sum(
        1 for a, b in zip(hist, hist[1:])
        if a - b >= USEFUL_ROUND_RTOL * abs(b)
    )

    def ledger(key: str) -> float:  # busiest rank, like the phase seconds
        return float(max(sum(s[key].values()) for s in snap))

    out = {
        "partition.num_hubs": float(ex["num_hubs"]),
        "partition.entries_imbalance": max(entries) / statistics.fmean(entries),
        "partition.ghosts_max": float(max(ex["ghosts_per_rank"])),
        "simmpi.launch_s": spmd_s - ex["total_seconds_max"],
        "simmpi.bytes": float(ex["total_comm_bytes"]),
        "simmpi.messages": float(sum(s["p2p_messages_sent"] for s in snap)),
        "simmpi.collectives": float(sum(s["collective_calls"] for s in snap)),
        "simmpi.encode_s": ledger("encode_seconds_by_phase"),
        "simmpi.decode_s": ledger("decode_seconds_by_phase"),
        "simmpi.wait_s": ledger("wait_seconds_by_phase"),
        "simmpi.hidden_s": ledger("overlap_seconds_by_phase"),
        "dist.edge_scans": float(ex["total_work_max"]),
        "dist.rounds_stage1": float(rounds1),
        "dist.rounds_total": float(sum(lv.sweeps for lv in res.levels)),
        "dist.moves": float(sum(lv.moves for lv in res.levels)),
        "dist.useful_round_frac": useful / rounds1 if rounds1 else 0.0,
        "dist.levels": float(len(res.levels)),
    }
    for metric, phase in _PHASES.items():
        out[metric] = float(phases.get(phase, 0.0))
    return out


def _seq_layers(rep: Rep) -> dict[str, float]:
    rec = rep.rec
    solves = rec.per_call("seq.solve")
    cold = rep.results[0]
    updates = rep.events[1:]
    return {
        "graph.delta_apply_s": statistics.median(
            rec.per_call("graph.delta_apply")
        ),
        "seq.cold_s": solves[0],
        "seq.sweeps": float(sum(lv.sweeps for lv in cold.levels)),
        "seq.levels": float(len(cold.levels)),
        "seq.warm_solve_s": statistics.median(solves[1:]),
        "seq.warm_edges_scanned": statistics.fmean(
            e["work"].get("edges_scanned", 0) for e in updates
        ),
        "seq.dirty_frac": statistics.fmean(
            e["dirty_fraction"] for e in updates
        ),
    }


def _reconcile(rep: Rep) -> dict[str, Any]:
    """Layer spans plus the unattributed rest against the traced wall."""
    rec = rep.rec
    wall = rep.wall
    top = {}
    for i in rec.top_level():
        name = rec.spans[i].name
        top[name] = top.get(name, 0.0) + rec.duration(i)
    unattributed = wall - sum(top.values())
    row: dict[str, Any] = {
        "instance": rep.instance,
        "wall_s": wall,
        "top_level_s": top,
        "unattributed_s": unattributed,
        "self_s": rec.self_times(),
    }
    res = rep.results[-1]
    if res.method == "distributed":
        phases = _slowest_rank_phases(res)
        row["rank_phase_sum_s"] = sum(
            phases.get(p, 0.0) for p in _PHASES.values()
        )
        row["rank_total_seconds_max"] = res.extras["total_seconds_max"]
    return row


def _layer_metrics(reps: list[Rep]) -> tuple[dict[str, float], list]:
    traced = {r.instance: r for r in reps if r.traced and r.ok}
    plain = {r.instance: r for r in reps if not r.traced and r.ok}
    rows: list[dict[str, float]] = []
    recon: list[dict[str, Any]] = []
    for rep in traced.values():
        rec = rep.rec
        row = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        row["graph.read_s"] = rec.total("graph.read")
        row["flow.build_s"] = rec.total("flow.build")
        row["partition.delegate_s"] = rec.total("partition.delegate")
        row["partition.views_s"] = rec.total("partition.views")
        res = rep.results[-1]
        if res.method == "distributed":
            row.update(_dist_layers(res, rec.total("simmpi.run_spmd")))
        else:
            row.update(_seq_layers(rep))
        r = _reconcile(rep)
        recon.append(r)
        row["bench.unattributed_s"] = r["unattributed_s"]
        rows.append(row)
    if not rows:
        return {}, recon
    metrics = {k: statistics.fmean(r[k] for r in rows) for k in PER_LAYER_UNITS}
    overheads = [
        traced[i].wall / plain[i].wall - 1.0 for i in traced if i in plain
    ]
    if overheads:
        metrics["bench.trace_overhead_frac"] = statistics.median(overheads)
    else:
        del metrics["bench.trace_overhead_frac"]
    return metrics, recon


@contextmanager
def scratch_dir(root: Path) -> Iterator[Path]:
    """A temporary directory inside the checkout, removed on exit."""
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        yield Path(tmp)
