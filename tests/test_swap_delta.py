"""Cross-round delta-swap protocol: change detection + replace caches."""

import numpy as np
import pytest

from repro.core import FlowNetwork
from repro.core.swap import LocalModuleState
from repro.graph import ring_of_cliques
from repro.partition import delegate_partition, local_views_delegate

from .swap_helpers import table_row


@pytest.fixture
def states():
    lg = ring_of_cliques(6, 5)
    net = FlowNetwork.from_graph(lg.graph)
    dp = delegate_partition(lg.graph, 3, d_high=5)
    views = local_views_delegate(net, dp)
    return views, [LocalModuleState(v) for v in views]


class TestPrepareSwapDelta:
    def test_first_round_ships_everything(self, states):
        views, sts = states
        st = sts[0]
        own = st.contribution()
        out = st.prepare_swap_delta(own)
        shipped = {int(m) for b in out.values() for m in b[0].tolist()}
        boundary_mods = {
            int(st.module_of[bl]) for bl in views[0].boundary_local
        }
        assert boundary_mods <= shipped | set()

    def test_second_round_without_changes_ships_nothing(self, states):
        _views, sts = states
        st = sts[0]
        own = st.contribution()
        st.prepare_swap_delta(own)
        again = st.prepare_swap_delta(st.contribution())
        assert all(b[0].size == 0 for b in again.values()) or again == {}

    def test_changed_module_reshipped(self, states):
        views, sts = states
        r = next(i for i, v in enumerate(views) if v.boundary_local.size)
        st = sts[r]
        st.prepare_swap_delta(st.contribution())
        bl = int(views[r].boundary_local[0])
        old_mod = int(st.module_of[bl])
        st.module_of[bl] = 987654  # move the boundary vertex
        out = st.prepare_swap_delta(st.contribution())
        shipped = {int(m) for b in out.values() for m in b[0].tolist()}
        assert 987654 in shipped
        # The vacated module's contribution changed too (lost mass) —
        # it must be refreshed wherever it was previously sent.
        assert old_mod in shipped

    def test_moved_hub_modules_always_announced(self, states):
        _views, sts = states
        st = sts[0]
        st.prepare_swap_delta(st.contribution())
        out = st.prepare_swap_delta(st.contribution(),
                                    moved_hub_modules={424242})
        for b in out.values():
            assert 424242 in b[0].tolist()


class TestApplyAndRebuild:
    def test_replace_semantics_idempotent(self, states):
        _views, sts = states
        st = sts[0]
        ids = np.array([111], dtype=np.int64)
        batch = (ids, np.array([0.3]), np.array([0.1]),
                 np.array([2], dtype=np.int64))
        st.apply_swap_delta({1: batch})
        st.apply_swap_delta({1: batch})  # repeat must not double
        st.rebuild_table_from_caches(st.contribution())
        _q, p, n = table_row(st, 111)
        assert p == pytest.approx(0.3)
        assert n == 2

    def test_contributions_from_two_peers_add(self, states):
        _views, sts = states
        st = sts[0]
        mk = lambda v: (np.array([5], dtype=np.int64), np.array([v]),
                        np.array([v / 2]), np.array([1], dtype=np.int64))
        st.apply_swap_delta({1: mk(0.2)})
        st.apply_swap_delta({2: mk(0.3)})
        st.rebuild_table_from_caches(st.contribution())
        # Module 5 is also a local singleton (vertex 5's own module), so
        # the table holds own + both peers' shares.
        own = st.contribution()
        base = float(own.sum_p[own.mod_ids == 5].sum())
        assert table_row(st, 5)[1] == pytest.approx(base + 0.5)

    def test_update_replaces_stale_value(self, states):
        _views, sts = states
        st = sts[0]
        ids = np.array([777], dtype=np.int64)
        st.apply_swap_delta({1: (ids, np.array([0.9]), np.array([0.4]),
                                 np.array([9], dtype=np.int64))})
        st.apply_swap_delta({1: (ids, np.array([0.1]), np.array([0.05]),
                                 np.array([1], dtype=np.int64))})
        st.rebuild_table_from_caches(st.contribution())
        _q, p, n = table_row(st, 777)
        assert p == pytest.approx(0.1)
        assert n == 1


class TestMembershipSyncDelta:
    def test_only_changes_after_first_round(self, states):
        views, sts = states
        st = sts[0]
        first = st.prepare_membership_sync_delta()
        # First round announces every boundary vertex once.
        n_first = sum(b[0].size for b in first.values())
        assert n_first >= views[0].boundary_local.size
        second = st.prepare_membership_sync_delta()
        assert sum(b[0].size for b in second.values()) == 0

    def test_changed_vertex_resent_once(self, states):
        views, sts = states
        r = next(i for i, v in enumerate(views) if v.boundary_local.size)
        st = sts[r]
        st.prepare_membership_sync_delta()
        bl = int(views[r].boundary_local[0])
        st.module_of[bl] = 31337
        out = st.prepare_membership_sync_delta()
        gid = int(views[r].global_of[bl])
        found = [
            (g, m)
            for b in out.values()
            for g, m in zip(b[0].tolist(), b[1].tolist())
            if g == gid
        ]
        assert found and all(m == 31337 for _g, m in found)
        # And quiesces again.
        again = st.prepare_membership_sync_delta()
        assert sum(b[0].size for b in again.values()) == 0


class TestEquivalenceWithAlwaysSend:
    def test_delta_and_literal_swap_reach_same_result(self):
        """End-to-end: delta_swap on/off must yield identical partitions
        (same information, fewer bytes)."""
        from repro.core import InfomapConfig, distributed_infomap
        from repro.graph import powerlaw_planted_partition

        lg = powerlaw_planted_partition(500, 8, mu=0.2, seed=11)
        on = distributed_infomap(lg.graph, 3, InfomapConfig(delta_swap=True))
        off = distributed_infomap(lg.graph, 3,
                                  InfomapConfig(delta_swap=False))
        assert on.codelength == pytest.approx(off.codelength, rel=0.03)
        assert on.extras["total_comm_bytes"] < off.extras["total_comm_bytes"]
