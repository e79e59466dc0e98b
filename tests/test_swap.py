"""Algorithm 3 / List 1: contributions, the swap protocol, dedup."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core import FlowNetwork, InfomapConfig, ModuleStats
from repro.core.swap import LocalModuleState
from repro.core.sweepkernel import SweepKernel
from repro.graph import powerlaw_planted_partition, ring_of_cliques
from repro.partition import delegate_partition, local_views_delegate

from .swap_helpers import table_row


def swap_batch(*records: tuple) -> tuple[np.ndarray, ...]:
    """Column batch from ``(mod_id, sum_pr, exit_pr, members, is_sent)``
    records, in the form :meth:`LocalModuleState.prepare_swap` ships."""
    ids, sp, ex, nm, snt = zip(*records)
    return (
        np.array(ids, dtype=np.int64), np.array(sp, dtype=np.float64),
        np.array(ex, dtype=np.float64), np.array(nm, dtype=np.int64),
        np.array(snt, dtype=bool),
    )


@pytest.fixture
def world():
    lg = ring_of_cliques(6, 5)
    net = FlowNetwork.from_graph(lg.graph)
    dp = delegate_partition(lg.graph, 3, d_high=5)
    views = local_views_delegate(net, dp)
    states = [LocalModuleState(v) for v in views]
    return lg, net, dp, views, states


class TestContribution:
    def test_sum_over_ranks_is_exact(self, world):
        """Σ_ranks Contribution == global ModuleStats, any membership."""
        lg, net, _dp, views, states = world
        # Move everything into its planted community to make it
        # non-trivial; propagate to every rank's local view.
        for st, v in zip(states, views):
            st.module_of = lg.labels[v.global_of].astype(np.int64).copy()
        agg_p: dict[int, float] = {}
        agg_q: dict[int, float] = {}
        agg_m: dict[int, int] = {}
        for st in states:
            c = st.contribution()
            for i, m in enumerate(c.mod_ids.tolist()):
                agg_p[m] = agg_p.get(m, 0.0) + c.sum_p[i]
                agg_q[m] = agg_q.get(m, 0.0) + c.exit[i]
                agg_m[m] = agg_m.get(m, 0) + int(c.members[i])
        truth = ModuleStats.from_membership(net, lg.labels)
        for m in range(6):
            assert agg_p[m] == pytest.approx(truth.sum_p[m])
            assert agg_q[m] == pytest.approx(truth.exit[m])
            assert agg_m[m] == truth.members[m]

    def test_singleton_contributions(self, world):
        _lg, net, _dp, _views, states = world
        truth = ModuleStats.from_membership(
            net, np.arange(net.graph.num_vertices)
        )
        agg_q: dict[int, float] = {}
        for st in states:
            c = st.contribution()
            for i, m in enumerate(c.mod_ids.tolist()):
                agg_q[m] = agg_q.get(m, 0.0) + c.exit[i]
        for m, q in agg_q.items():
            assert q == pytest.approx(truth.exit[m])


class TestRebuildTable:
    def test_ghost_singletons_seeded(self, world):
        _lg, _net, _dp, views, states = world
        st = states[0]
        own = st.contribution()
        st.rebuild_table(own, [])
        v = views[0]
        for gi in range(v.num_owned + v.num_hubs, v.num_local):
            gid = int(v.global_of[gi])
            q, p, _n = table_row(st, gid)
            assert p == pytest.approx(float(v.flow[gi]))
            assert q == pytest.approx(float(v.exit0[gi]))

    def test_received_contributions_added(self, world):
        st = world[4][0]
        own = st.contribution()
        batch = swap_batch((10**6, 0.1, 0.05, 3, False))
        st.rebuild_table(own, [batch])
        _q, p, n = table_row(st, 10**6)
        assert p == pytest.approx(0.1)
        assert n == 3

    def test_is_sent_dedup_skips_numbers(self, world):
        """The List-1 mechanism: duplicate records add nothing."""
        st = world[4][0]
        own = st.contribution()
        batch = swap_batch(
            (10**6, 0.1, 0.05, 3, False),
            (10**6, 0.1, 0.05, 3, True),  # repeat, flagged
        )
        st.rebuild_table(own, [batch])
        assert table_row(st, 10**6)[1] == pytest.approx(0.1)  # not 0.2

    def test_without_is_sent_flag_would_double_add(self, world):
        """Control for the previous test: unflagged repeats DO double —
        demonstrating why the paper's dedup exists (Figure 3)."""
        st = world[4][0]
        own = st.contribution()
        batch = swap_batch(
            (10**6, 0.1, 0.05, 3, False),
            (10**6, 0.1, 0.05, 3, False),
        )
        st.rebuild_table(own, [batch])
        assert table_row(st, 10**6)[1] == pytest.approx(0.2)

    def test_array_wire_format_equivalent(self, world):
        """Full-swap column batches and delta-swap caches carrying the
        same contributions rebuild the same table, bit for bit."""
        lg, _net, _dp, views, states = world
        for st, v in zip(states, views):
            st.module_of = lg.labels[v.global_of].astype(np.int64).copy()
        owns = [st.contribution() for st in states]
        full = [st.prepare_swap(own) for st, own in zip(states, owns)]
        delta = [st.prepare_swap_delta(own) for st, own in zip(states, owns)]
        for dest, st in enumerate(states):
            srcs = [s for s in range(len(states)) if dest in full[s]]
            st.rebuild_table(owns[dest], [full[s][dest] for s in srcs])
            via_full = copy.deepcopy(st.table_arrays())
            st.apply_swap_delta(
                {s: delta[s][dest] for s in srcs if dest in delta[s]}
            )
            st.rebuild_table_from_caches(owns[dest])
            via_delta = st.table_arrays()
            assert via_delta.sum_p.sum() > owns[dest].sum_p.sum()  # peers
            for col in ("mod_ids", "exit", "sum_p", "members"):
                assert (
                    getattr(via_full, col).tobytes()
                    == getattr(via_delta, col).tobytes()
                ), col


class TestPrepareSwap:
    def test_batches_target_neighbor_ranks_only(self, world):
        _lg, _net, _dp, views, states = world
        st = states[0]
        own = st.contribution()
        batches = st.prepare_swap(own)
        assert set(batches) <= set(views[0].neighbor_ranks.tolist())

    def test_repeat_modules_flagged_is_sent(self, world):
        """Two boundary vertices in one module ⇒ second record flagged."""
        lg, _net, _dp, views, states = world
        st = states[0]
        v = views[0]
        # Put every owned vertex into one module to force repeats.
        st.module_of[: v.num_owned] = 0
        own = st.contribution()
        batches = st.prepare_swap(own)
        for ids, sp, _ex, _nm, snt in batches.values():
            seen = set()
            for m, sum_pr, is_sent in zip(ids.tolist(), sp, snt):
                if m in seen:
                    assert is_sent
                    assert sum_pr == 0.0
                else:
                    assert not is_sent
                seen.add(m)

    def test_moved_hub_modules_broadcast_everywhere(self, world):
        _lg, _net, _dp, _views, states = world
        st = states[0]
        own = st.contribution()
        batches = st.prepare_swap(own, moved_hub_modules={42})
        for ids, *_cols in batches.values():
            assert 42 in ids.tolist()

    def test_array_and_record_forms_agree(self, world):
        """The full swap's first record per module (``is_sent`` False)
        is the record the first delta swap ships, in the same order."""
        st = world[4][1]
        own = st.contribution()
        full = st.prepare_swap(own, moved_hub_modules={42})
        delta = st.prepare_swap_delta(own, moved_hub_modules={42})
        assert {d for d, b in full.items() if b[0].size} == set(delta)
        for dest, (ids, sp, ex, nm, snt) in full.items():
            if not ids.size:
                continue
            for a, b in zip((ids, sp, ex, nm), delta[dest]):
                np.testing.assert_array_equal(a[~snt], b)


class TestMembershipSync:
    def test_roundtrip_between_states(self, world):
        _lg, _net, _dp, views, states = world
        sender = states[0]
        v0 = views[0]
        if v0.boundary_local.size == 0:
            pytest.skip("no boundary on rank 0 in this fixture")
        # Move a boundary vertex, then sync to the ghosting rank.
        bl = int(v0.boundary_local[0])
        dest = int(v0.boundary_ranks[0][0])
        sender.module_of[bl] = 12345
        msgs = sender.prepare_membership_sync()
        assert dest in msgs
        receiver = states[dest]
        vr = views[dest]
        changed = receiver.apply_membership_sync([msgs[dest]])
        gid = int(v0.global_of[bl])
        (li,) = np.flatnonzero(vr.global_of == gid)
        assert li >= vr.num_owned + vr.num_hubs  # a ghost slot
        assert receiver.module_of[li] == 12345
        assert li in changed

    def test_unchanged_ghosts_not_reported(self, world):
        _lg, _net, _dp, _views, states = world
        sender = states[0]
        msgs = sender.prepare_membership_sync()
        for dest, payload in msgs.items():
            changed = states[dest].apply_membership_sync([payload])
            assert changed == []  # all still singleton == initial

    def test_unsorted_ghost_segment_rejected(self, world):
        _lg, _net, _dp, views, _states = world
        v = next(v for v in views if v.num_ghosts > 1)
        gs = v.ghost_slice()
        global_of = v.global_of.copy()
        global_of[gs] = global_of[gs][::-1]
        with pytest.raises(ValueError, match="ghost segment"):
            LocalModuleState(dataclasses.replace(v, global_of=global_of))


def _commit(st, rows):
    """One committing kernel sweep over *rows*; returns the targets."""
    kernel = SweepKernel(st.lg, InfomapConfig(min_label=False))
    targets, _deltas, _work = kernel.sweep(
        st, np.empty(0, np.int64), np.asarray(rows), commit=True
    )
    return targets


class TestApplyLocalMove:
    """Committed moves, applied to the table by the sweep kernel."""

    def test_table_updates_match_manual(self, world):
        _lg, _net, _dp, views, states = world
        st = states[0]
        v = views[0]
        own = st.contribution()
        st.rebuild_table(own, [])
        st.sum_exit_global = own.total_exit()
        li = 0
        old = int(st.module_of[li])
        nbrs, flows = v.neighbors_of(li)
        nonself = nbrs != li
        p_u, x_u = float(v.flow[li]), float(flows[nonself].sum())
        q_old, p_old, n_old = table_row(st, old)
        (new,) = _commit(st, [li])
        assert new >= 0 and st.module_of[li] == new
        d_new = float(flows[nonself & (st.module_of[nbrs] == new)].sum())
        assert table_row(st, old) == pytest.approx(
            (q_old - x_u, p_old - p_u, n_old - 1)
        )
        # The target was a singleton (ghost-seeded or owned) module.
        q_new, p_new, n_new = table_row(st, new)
        assert n_new == 2
        assert q_new + 2.0 * d_new - x_u == pytest.approx(
            float(v.exit0[np.flatnonzero(v.global_of == new)[0]])
        )
        assert p_new - p_u == pytest.approx(
            float(v.flow[np.flatnonzero(v.global_of == new)[0]])
        )

    def test_noop_move_ignored(self, world):
        st = world[4][0]
        own = st.contribution()
        st.rebuild_table(own, [])
        st.sum_exit_global = own.total_exit()
        rows = np.arange(st.lg.num_owned)
        for _ in range(20):
            if (_commit(st, rows) < 0).all():
                break
        before = copy.deepcopy(st)
        assert (_commit(st, rows) < 0).all()  # nothing left to move
        np.testing.assert_array_equal(st.module_of, before.module_of)
        for col in ("mod_ids", "exit", "sum_p", "members"):
            np.testing.assert_array_equal(
                getattr(st.table_arrays(), col),
                getattr(before.table_arrays(), col),
            )
        assert st.sum_exit_global == before.sum_exit_global
