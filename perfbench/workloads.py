"""The three benchmark workloads: seeded inputs, timed calls, checks.

Each workload sets up ``instances`` inputs from the run's seed (see
:func:`stand_in`), then runs its timed section once per input.  The
solver only ever sees the generated inputs, with a default
``InfomapConfig`` apart from ranks and backend.  Why each workload
exists, and which layer it isolates, is in ``README.md`` next to this
file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.core import distributed as dist
from repro.core.config import InfomapConfig
from repro.core.flow import FlowNetwork
from repro.core.incremental import IncrementalSession
from repro.core.mapequation import ModuleStats
from repro.core.result import ClusteringResult
from repro.graph import io as gio
from repro.graph.builder import from_edge_array
from repro.graph.datasets import DATASET_SPECS
from repro.graph.delta import GraphDelta, apply_delta
from repro.graph.graph import Graph
from repro.metrics.nmi import nmi

from spans import ROOT, SpanRecorder

#: Relative agreement required between the solver's codelength and an
#: independent recomputation (measured agreement is ~1e-13).
CODELENGTH_RTOL = 1e-9
NMI_ATOL = 1e-9

STREAM_BATCHES = 100
STREAM_MAX_OPS = 10  # per kind: at most 10 inserts and 10 deletes a batch


class CheckError(Exception):
    """A returned clustering failed the benchmark's correctness check."""


@dataclass
class Instance:
    labels: np.ndarray
    graph: "Graph | None" = None
    path: "Path | None" = None
    deltas: list[GraphDelta] = field(default_factory=list)


#: Receives each timed call's input graph, its result and, for a stream
#: update, the session's batch event, right after the call returns.
Emit = Callable[[Graph, ClusteringResult, "dict[str, Any] | None"], None]


@dataclass(frozen=True)
class Workload:
    """Set-up of input *index* from a seeded generator, and its timed run."""

    name: str
    instances: int
    calls_per_instance: int
    setup: Callable[[np.random.Generator, int, Path], Instance]
    run: Callable[[Instance, SpanRecorder, Emit], None]


def stand_in(
    name: str, index: int, rng: np.random.Generator
) -> tuple[Graph, np.ndarray]:
    """Input *index*: stand-in *name* with its vertex ids permuted by *rng*.

    The graph structure comes from dataset seed ``index + 1``, so every
    run measures the same K structures and the work stays comparable
    between runs; the run seed, through *rng*, permutes every vertex id,
    which changes the vertex order, the rank ownership and every byte
    the solver reads.  Building the stand-in from the run seed instead
    made peak RSS and wall time spread by ~12% between runs, half of it
    from graph size (edge counts vary by 20% between dataset seeds).
    Returns the graph and its planted labels: uk2007 hides its labels as
    a dataset only because the paper's crawl has no ground truth.
    """
    spec = replace(DATASET_SPECS[name], ground_truth=True)
    ds = spec.build(seed=index + 1, scale=1.0)
    g = ds.graph
    perm = rng.permutation(g.num_vertices)
    src, dst, w = g.edge_array()
    graph = from_edge_array(perm[src], perm[dst], w, num_vertices=g.num_vertices)
    labels = np.empty_like(ds.labels)
    labels[perm] = ds.labels
    return graph, labels


# -- web-p1 -----------------------------------------------------------------

def _setup_web(rng: np.random.Generator, index: int, workdir: Path) -> Instance:
    graph, labels = stand_in("uk2007", index, rng)
    path = workdir / f"uk2007-{index}.txt"
    gio.write_edgelist(graph, path)
    return Instance(labels=labels, path=path)


def _run_web(inst: Instance, rec: SpanRecorder, emit: Emit) -> None:
    with rec.span(ROOT):
        g = gio.read_edgelist(inst.path)
        res = dist.distributed_infomap(g, 1, InfomapConfig(), backend="serial")
    emit(g, res, None)


# -- social-p2 --------------------------------------------------------------

def _setup_social(
    rng: np.random.Generator, index: int, workdir: Path
) -> Instance:
    graph, labels = stand_in("youtube", index, rng)
    return Instance(labels=labels, graph=graph)


def _run_social(inst: Instance, rec: SpanRecorder, emit: Emit) -> None:
    with rec.span(ROOT):
        res = dist.distributed_infomap(
            inst.graph, 2, InfomapConfig(), backend="procs"
        )
    emit(inst.graph, res, None)


# -- stream-seq -------------------------------------------------------------

def make_deltas(
    graph: Graph, labels: np.ndarray, rng: np.random.Generator, batches: int
) -> list[GraphDelta]:
    """Batches of edits, each inside one planted community.

    Each batch deletes 1-10 present intra-community edges whose
    endpoints keep at least two edges, and inserts 1-10 absent
    intra-community pairs.  Batches are generated against the graph as the earlier batches left
    it, so every delete names a present edge and every insert an absent
    one when the stream is replayed in order.
    """
    comms = np.unique(labels)
    # Communities are visited in shuffled rounds rather than drawn
    # independently, so every stream holds nearly the same mix of small
    # and large (hub-holding) communities, and a run's update percentiles
    # depend on the solver more than on which communities the seed drew.
    order = np.concatenate(
        [rng.permutation(comms) for _ in range(-(-batches // comms.size))]
    )
    out: list[GraphDelta] = []
    for c in order[:batches]:
        members = np.flatnonzero(labels == c)
        src, dst, _w = graph.edge_array()
        intra = (labels[src] == c) & (labels[dst] == c) & (src != dst)
        present = set(zip(src[intra].tolist(), dst[intra].tolist()))
        deg = graph.degrees()
        dels: list[tuple[int, int]] = []
        n_del = int(rng.integers(1, STREAM_MAX_OPS + 1))
        for e in rng.permutation(np.flatnonzero(intra)).tolist():
            if len(dels) == n_del:
                break
            u, v = int(src[e]), int(dst[e])
            if deg[u] > 2 and deg[v] > 2:
                dels.append((u, v))
                deg[u] -= 1
                deg[v] -= 1
        ins: set[tuple[int, int]] = set()
        n_ins = int(rng.integers(1, STREAM_MAX_OPS + 1))
        for _try in range(50 * n_ins):
            if len(ins) == n_ins:
                break
            a, b = sorted(rng.choice(members, 2, replace=False).tolist())
            if (a, b) not in present:
                ins.add((a, b))
        du = np.asarray(dels, dtype=np.int64).reshape(-1, 2)
        iu = np.asarray(sorted(ins), dtype=np.int64).reshape(-1, 2)
        delta = GraphDelta.build(
            insert=(iu[:, 0], iu[:, 1], np.ones(len(iu))),
            delete=(du[:, 0], du[:, 1]),
        )
        graph = apply_delta(graph, delta)
        out.append(delta)
    return out


def _setup_stream(
    rng: np.random.Generator, index: int, workdir: Path
) -> Instance:
    graph, labels = stand_in("youtube", index, rng)
    deltas = make_deltas(graph, labels, rng, STREAM_BATCHES)
    return Instance(labels=labels, graph=graph, deltas=deltas)


def _run_stream(inst: Instance, rec: SpanRecorder, emit: Emit) -> None:
    session = IncrementalSession(inst.graph, InfomapConfig(), nranks=1)
    with rec.span(ROOT):
        res = session.solve()
    emit(session.graph, res, None)
    for delta in inst.deltas:
        with rec.span(ROOT):
            res = session.update(delta)
        emit(session.graph, res, session.events[-1])


# Input counts: each run measures several inputs because solve time
# varies by up to 1.6x between structures of one stand-in (rounds and
# edge counts differ), and the host's own noise is +-15% per solve.  One
# pass over the inputs takes 25-30 s on a 2-CPU host.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("web-p1", 6, 1, _setup_web, _run_web),
        Workload("social-p2", 6, 1, _setup_social, _run_social),
        Workload("stream-seq", 2, 1 + STREAM_BATCHES, _setup_stream,
                 _run_stream),
    )
}


# -- correctness ------------------------------------------------------------

def independent_nmi(a: np.ndarray, b: np.ndarray) -> float:
    """Arithmetic-mean NMI from the joint label counts."""
    n = a.size
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    pairs, joint = np.unique(np.stack([ia, ib]), axis=1, return_counts=True)
    pa = np.bincount(ia) / n
    pb = np.bincount(ib) / n
    pij = joint / n
    ha = -float(np.sum(pa * np.log(pa)))
    hb = -float(np.sum(pb * np.log(pb)))
    if ha == 0.0 and hb == 0.0:
        return 1.0
    mi = float(np.sum(pij * np.log(pij / (pa[pairs[0]] * pb[pairs[1]]))))
    return mi / ((ha + hb) / 2.0)


def check(g: Graph, res: ClusteringResult, labels: np.ndarray) -> float:
    """Verify one returned clustering; return its NMI against *labels*."""
    memb = np.asarray(res.membership)
    n = g.num_vertices
    if memb.shape != (n,) or labels.shape != (n,):
        raise CheckError(
            f"membership shape {memb.shape}, labels {labels.shape}, n={n}"
        )
    if memb.min(initial=0) < 0:
        raise CheckError("a vertex has no module")
    recomputed = ModuleStats.from_membership(
        FlowNetwork.from_graph(g), memb
    ).codelength()
    if not math.isclose(res.codelength, recomputed, rel_tol=CODELENGTH_RTOL):
        raise CheckError(
            f"reported codelength {res.codelength!r} != recomputed "
            f"{recomputed!r}"
        )
    score = nmi(memb, labels)
    again = independent_nmi(memb, labels)
    if not abs(score - again) <= NMI_ATOL:
        raise CheckError(f"nmi {score!r} != recomputed {again!r}")
    return score
