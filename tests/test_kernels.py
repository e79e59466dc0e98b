"""Move kernels: exact equivalence with the scalar paths.

The batched engine in :mod:`repro.core.kernels` is *decision-equivalent
by construction*: the sequential sweep guards snapshot scoring with a
drift bound and falls back to the scalar evaluator whenever the bound
cannot certify the decision.  The distributed solver's compiled sweep
(:mod:`repro.core.sweepkernel`) commits the scalar loop's move sequence
outright.  These tests pin both contracts down end to end: same graph +
same config, with the scalar reference sweeps of
:mod:`tests.sweep_reference` patched in or not, must give *identical*
memberships and *bitwise-identical* codelength histories.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    FlowNetwork,
    InfomapConfig,
    ModuleStats,
    aggregate_block_flows,
    distributed_infomap,
    drift_guard_bound,
    neighbor_module_flows,
    score_block_stats,
    sequential_infomap,
)
import repro.core.distributed as distributed_mod
import repro.core.sequential as sequential_mod
from repro.graph import (
    barabasi_albert,
    from_edges,
    planted_partition,
    powerlaw_planted_partition,
    ring_of_cliques,
)
from repro.graph.graph import gather_rows

from .sweep_reference import ReferenceSweep, sweep_scalar


# ---------------------------------------------------------------------------
# Unit tests of the kernel building blocks
# ---------------------------------------------------------------------------
class TestGatherRows:
    def test_matches_per_row_slices(self):
        g = powerlaw_planted_partition(200, 5, mu=0.3, seed=0).graph
        rng = np.random.default_rng(1)
        block = rng.choice(g.num_vertices, size=37, replace=False)
        entries, owner = gather_rows(g.indptr, block)
        expected = np.concatenate(
            [np.arange(g.indptr[v], g.indptr[v + 1]) for v in block]
        )
        np.testing.assert_array_equal(entries, expected)
        deg = g.indptr[block + 1] - g.indptr[block]
        np.testing.assert_array_equal(
            owner, np.repeat(np.arange(block.size), deg)
        )

    def test_empty_block(self):
        g = ring_of_cliques(3, 4).graph
        entries, owner = gather_rows(g.indptr, np.empty(0, dtype=np.int64))
        assert entries.size == 0 and owner.size == 0

    def test_isolated_rows(self):
        indptr = np.array([0, 0, 2, 2], dtype=np.int64)
        entries, owner = gather_rows(indptr, np.array([0, 1, 2]))
        np.testing.assert_array_equal(entries, [0, 1])
        np.testing.assert_array_equal(owner, [1, 1])


class TestAggregateBlockFlows:
    def test_matches_scalar_neighbor_module_flows(self):
        lg = planted_partition(6, 20, 0.35, 0.02, seed=5)
        net = FlowNetwork.from_graph(lg.graph)
        g = net.graph
        rng = np.random.default_rng(7)
        membership = rng.integers(0, 9, size=g.num_vertices).astype(np.int64)
        block = rng.choice(g.num_vertices, size=48, replace=False)
        agg = aggregate_block_flows(
            g.indptr, g.indices, g.weights, block, membership,
            net.node_flow, id_space=g.num_vertices,
        )
        for i, u in enumerate(block.tolist()):
            mods, flows, x_u = neighbor_module_flows(net, membership, int(u))
            a, b = int(agg.seg_ptr[i]), int(agg.seg_ptr[i + 1])
            np.testing.assert_array_equal(agg.seg_mods[a:b], mods)
            # Bitwise: both sides aggregate with np.bincount over the
            # same entry order and total in ascending-module order.
            np.testing.assert_array_equal(agg.seg_flows[a:b], flows)
            assert float(agg.x_u[i]) == x_u
            d_old = 0.0
            hit = np.flatnonzero(mods == membership[u])
            if hit.size:
                d_old = float(flows[hit[0]])
            assert float(agg.d_old[i]) == d_old

    def test_block_scores_match_scalar_deltas(self):
        from repro.core.mapequation import delta_codelength

        lg = ring_of_cliques(5, 6)
        net = FlowNetwork.from_graph(lg.graph)
        n = net.graph.num_vertices
        membership = np.arange(n, dtype=np.int64)
        stats = ModuleStats.from_membership(net, membership)
        block = np.arange(n, dtype=np.int64)
        agg, score = score_block_stats(net, membership, stats, block)
        for i in range(n):
            a, b = int(agg.seg_ptr[i]), int(agg.seg_ptr[i + 1])
            mods = agg.seg_mods[a:b]
            cand = mods != membership[i]
            deltas = delta_codelength(
                stats,
                old=int(membership[i]),
                new=mods[cand],
                p_u=float(agg.p_u[i]),
                x_u=float(agg.x_u[i]),
                d_old=float(agg.d_old[i]),
                d_new=agg.seg_flows[a:b][cand],
            )
            assert float(score.best_delta[i]) == float(np.min(deltas))
            assert int(score.best_target[i]) == int(
                mods[cand][int(np.argmin(deltas))]
            )


class TestDriftGuardBound:
    def test_zero_drift_is_exactly_zero(self):
        assert drift_guard_bound(0.0, 0.25, 1.0, 1.0) == 0.0

    def test_precondition_failure_returns_inf(self):
        assert math.isinf(drift_guard_bound(1e-3, 0.3, 1.0, 1.2))

    def test_bound_dominates_actual_shift(self):
        # |plogp(S+c) - plogp(S) - (plogp(S0+c) - plogp(S0))| <= bound
        # for |c| <= 2 x_u, sampled over a grid.
        from repro.core.mapequation import plogp

        x_u, s0, s_now = 0.01, 0.9, 0.87
        bound = drift_guard_bound(s_now - s0, x_u, s0, s_now)
        for c in np.linspace(-2 * x_u, 2 * x_u, 41):
            shift = abs(
                (plogp(s_now + c) - plogp(s_now))
                - (plogp(s0 + c) - plogp(s0))
            )
            assert shift <= bound + 1e-15


class TestSortedRowsFastPath:
    def test_builder_graphs_are_sorted(self):
        g = ring_of_cliques(4, 5).graph
        assert g.sorted_rows
        for u in range(g.num_vertices):
            row = g.indices[g.indptr[u]:g.indptr[u + 1]]
            assert np.all(row[:-1] <= row[1:])

    def test_lookup_matches_linear_scan(self):
        g = planted_partition(4, 10, 0.5, 0.05, seed=11).graph
        assert g.sorted_rows
        unsorted = dataclasses.replace(g, sorted_rows=False)
        rng = np.random.default_rng(3)
        for _ in range(200):
            u, v = rng.integers(0, g.num_vertices, size=2)
            assert g.has_edge(int(u), int(v)) == unsorted.has_edge(
                int(u), int(v)
            )
            assert g.edge_weight(int(u), int(v)) == unsorted.edge_weight(
                int(u), int(v)
            )

    def test_flow_network_preserves_sortedness(self):
        g = ring_of_cliques(3, 4).graph
        net = FlowNetwork.from_graph(g)
        assert net.graph.sorted_rows == g.sorted_rows


# ---------------------------------------------------------------------------
# End-to-end equivalence: batch vs scalar must be indistinguishable
# ---------------------------------------------------------------------------
def _graph_cases():
    return [
        ring_of_cliques(6, 5).graph,
        planted_partition(5, 24, 0.4, 0.02, seed=2).graph,
        barabasi_albert(300, 3, seed=4),
        powerlaw_planted_partition(400, 8, mu=0.25, seed=6).graph,
    ]


def _sequential_run(graph, cfg, sweep):
    """``sequential_infomap`` with *sweep* in place of ``_sweep_batched``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sequential_mod, "_sweep_batched", sweep)
        return sequential_infomap(graph, cfg)


class TestSequentialEquivalence:
    @pytest.mark.parametrize("gi", range(4))
    @pytest.mark.parametrize("seed", [0, 13])
    def test_identical_membership_and_codelength(self, gi, seed):
        g = _graph_cases()[gi]
        cfg = InfomapConfig(seed=seed)
        scalar = _sequential_run(g, cfg, sweep_scalar)
        batch = sequential_infomap(g, cfg)
        np.testing.assert_array_equal(batch.membership, scalar.membership)
        assert batch.codelength == scalar.codelength  # bitwise

    def test_tiny_blocks_still_equivalent(self):
        g = planted_partition(4, 12, 0.5, 0.05, seed=9).graph
        cfg = InfomapConfig(seed=1)
        scalar = _sequential_run(g, cfg, sweep_scalar)
        for bs in (1, 2, 7, 64):
            batch = _sequential_run(
                g, cfg,
                functools.partial(sequential_mod._sweep_batched, block_size=bs),
            )
            np.testing.assert_array_equal(
                batch.membership, scalar.membership
            )
            assert batch.codelength == scalar.codelength

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(2, 6),
        size=st.integers(4, 16),
    )
    def test_property_random_planted(self, seed, k, size):
        g = planted_partition(k, size, 0.5, 0.03, seed=seed).graph
        # Small/sparse draws can come out edgeless, where flow (and hence
        # the codelength) is undefined — discard those, don't crash.
        assume(g.total_weight > 0)
        cfg = InfomapConfig(seed=seed % 7)
        scalar = _sequential_run(g, cfg, sweep_scalar)
        batch = _sequential_run(
            g, cfg,
            functools.partial(sequential_mod._sweep_batched, block_size=128),
        )
        np.testing.assert_array_equal(batch.membership, scalar.membership)
        assert batch.codelength == scalar.codelength


def _reference_run(monkeypatch, graph, nranks, cfg):
    """``distributed_infomap`` with the scalar reference sweep."""
    with monkeypatch.context() as m:
        m.setattr(distributed_mod, "SweepKernel", ReferenceSweep)
        return distributed_infomap(graph, nranks, cfg)


def _assert_same_run(a, b):
    np.testing.assert_array_equal(a.membership, b.membership)
    assert a.codelength == b.codelength  # bitwise
    assert a.extras["codelength_history"] == b.extras["codelength_history"]


class TestDistributedEquivalence:
    """Compiled sweep vs the scalar reference loop, whole solves."""

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    @pytest.mark.parametrize("min_label", [True, False])
    def test_identical_membership_and_codelength(
        self, nranks, min_label, monkeypatch
    ):
        g = planted_partition(5, 20, 0.4, 0.02, seed=3).graph
        cfg = InfomapConfig(seed=5, min_label=min_label)
        _assert_same_run(
            distributed_infomap(g, nranks, cfg),
            _reference_run(monkeypatch, g, nranks, cfg),
        )

    def test_delegates_forced_low_d_high(self, monkeypatch):
        # d_high=2 turns nearly every vertex into a hub with delegates,
        # exercising the boundary/ghost-module and hub-consensus paths.
        g = powerlaw_planted_partition(300, 6, mu=0.25, seed=8).graph
        cfg = InfomapConfig(seed=2, d_high=2)
        _assert_same_run(
            distributed_infomap(g, 4, cfg),
            _reference_run(monkeypatch, g, 4, cfg),
        )

    def test_scale_free_multirank(self, monkeypatch):
        g = barabasi_albert(400, 3, seed=12)
        cfg = InfomapConfig(seed=0)
        _assert_same_run(
            distributed_infomap(g, 3, cfg),
            _reference_run(monkeypatch, g, 3, cfg),
        )

    @pytest.mark.parametrize(
        "extra",
        [
            {"move_rule": "max_flow"},
            {"delegate_consensus": "min_local", "d_high": 3},
        ],
    )
    def test_other_rules_and_consensus(self, extra, monkeypatch):
        g = powerlaw_planted_partition(300, 6, mu=0.25, seed=8).graph
        cfg = InfomapConfig(seed=2, **extra)
        _assert_same_run(
            distributed_infomap(g, 3, cfg),
            _reference_run(monkeypatch, g, 3, cfg),
        )


class TestBatchSmoke4Ranks:
    def test_batch_path_runs_under_four_ranks(self, monkeypatch):
        """Tier-1 smoke: the compiled sweep runs under four ranks,
        converges to a sane partition and matches the reference."""
        lg = powerlaw_planted_partition(600, 10, mu=0.2, seed=21)
        cfg = InfomapConfig(seed=1)
        res = distributed_infomap(lg.graph, 4, cfg)
        assert res.num_modules > 1
        assert res.codelength > 0.0
        _assert_same_run(res, _reference_run(monkeypatch, lg.graph, 4, cfg))
