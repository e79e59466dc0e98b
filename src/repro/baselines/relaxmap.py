"""RelaxMap-like shared-memory parallel Infomap (Bae et al. 2013).

RelaxMap parallelizes Infomap's inner loop across threads that share
one module table, accepting *relaxed* (stale) reads and re-checking a
move's gain at commit time.  This re-implementation keeps exactly that
semantics — batch evaluation against a frozen table, sequential commit
with gain re-validation — which is deterministic and GIL-friendly while
exercising the same staleness/recheck trade-off the real system has.
Used as the shared-memory reference point in the baseline comparisons.
"""

from __future__ import annotations

import numpy as np

from ..core.config import InfomapConfig
from ..core.flow import FlowNetwork
from ..core.mapequation import ModuleStats, plogp
from ..core.moves import best_move
from ..core.result import ClusteringResult, LevelRecord
from ..graph.graph import Graph

__all__ = ["relaxmap"]


def relaxmap(
    graph: Graph,
    nworkers: int = 4,
    config: InfomapConfig | None = None,
) -> ClusteringResult:
    """Run the RelaxMap-like algorithm with *nworkers* logical workers.

    Each sweep splits the (shuffled) vertex order into ``nworkers``
    interleaved streams; every stream evaluates its vertices against
    the table as frozen at sweep start (the relaxed read), then commits
    are applied in stream-interleaved order, each re-validated against
    the live table and dropped if no longer improving (the RelaxMap
    re-check).
    """
    cfg = config or InfomapConfig()
    if nworkers < 1:
        raise ValueError(f"nworkers must be >= 1, got {nworkers}")
    rng = np.random.default_rng(cfg.seed)
    network = FlowNetwork.from_graph(graph)
    node_term0 = -float(plogp(network.node_flow).sum())

    n0 = graph.num_vertices
    global_membership = np.arange(n0, dtype=np.int64)
    levels: list[LevelRecord] = []
    converged = False
    final_codelength = float("nan")

    for level in range(cfg.max_levels):
        n = network.graph.num_vertices
        membership = np.arange(n, dtype=np.int64)
        stats = ModuleStats.from_membership(
            network, membership, node_term=node_term0
        )
        l_before = stats.codelength()

        order = np.arange(n)
        sweeps = 0
        moves_total = 0
        for sweeps in range(1, cfg.max_sweeps + 1):
            if cfg.shuffle:
                rng.shuffle(order)
            # Relaxed evaluation: all workers read the sweep-start table.
            frozen = stats.copy()
            frozen_membership = membership.copy()
            proposals = []
            for w in range(nworkers):
                for u in order[w::nworkers].tolist():
                    prop = best_move(
                        network, frozen_membership, frozen, u,
                        min_improvement=cfg.min_improvement,
                    )
                    if prop.is_move:
                        proposals.append(prop)
            # Commit with re-validation against the live table.
            moves = 0
            for prop in proposals:
                u = prop.vertex
                live = best_move(
                    network, membership, stats, u,
                    min_improvement=cfg.min_improvement,
                )
                if live.is_move:
                    stats.apply_move(
                        old=live.current, new=live.target,
                        p_u=live.p_u, x_u=live.x_u,
                        d_old=live.d_old, d_new=live.d_new,
                    )
                    membership[u] = live.target
                    moves += 1
            moves_total += moves
            if moves == 0:
                break

        l_after = stats.codelength()
        coarse, community_of = network.coarsen(membership)
        levels.append(
            LevelRecord(
                level=level,
                num_vertices=n,
                num_modules=coarse.graph.num_vertices,
                codelength_before=l_before,
                codelength_after=l_after,
                sweeps=sweeps,
                moves=moves_total,
            )
        )
        global_membership = community_of[global_membership]
        final_codelength = l_after
        if moves_total == 0 or l_before - l_after < cfg.threshold:
            converged = True
            break
        if coarse.graph.num_vertices == n:
            converged = True
            break
        network = coarse

    return ClusteringResult(
        membership=np.unique(global_membership, return_inverse=True)[1],
        codelength=final_codelength,
        levels=levels,
        method="relaxmap",
        converged=converged,
        extras={"nworkers": nworkers},
    )
