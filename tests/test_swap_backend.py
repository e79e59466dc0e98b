"""Module-table and swap-wire contracts after the dict-backend retirement.

The sorted-column :class:`TableArrays` is the only representation; the
contracts the old array-vs-dict suite proved now hold between *copy
modes* of the runtime instead: the typed frame codec (the default
transport) and the pickle oracle must be indistinguishable from
outside — identical memberships, bitwise-equal codelength
trajectories, byte-exact decoded wire columns — and the protocol
itself must be deterministic (same churn schedule ⇒ same wires, same
rebuilt tables, bitwise).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.distributed as distributed_mod
from repro.core import FlowNetwork, InfomapConfig, distributed_infomap
from repro.core.swap import LocalModuleState
from repro.core.sweepkernel import SweepKernel
from repro.graph import (
    barabasi_albert,
    powerlaw_planted_partition,
    ring_of_cliques,
)
from repro.partition import delegate_partition, local_views_delegate
from repro.simmpi import decode_frame, encode_frame, payload_nbytes, run_spmd

from .swap_helpers import table_row
from .sweep_reference import ReferenceSweep


def _assert_cols_equal(a, b):
    """Exact (dtype + bitwise value) equality of wire column tuples."""
    assert len(a) == len(b)
    for ca, cb in zip(a, b):
        assert ca.dtype == cb.dtype
        np.testing.assert_array_equal(ca, cb)


def _assert_tables_equal(sa, sb):
    """Bitwise-identical table snapshots across two states."""
    ta = sa.table_arrays()
    tb = sb.table_arrays()
    np.testing.assert_array_equal(ta.mod_ids, tb.mod_ids)
    np.testing.assert_array_equal(ta.exit, tb.exit)
    np.testing.assert_array_equal(ta.sum_p, tb.sum_p)
    np.testing.assert_array_equal(ta.members, tb.members)
    assert sa.sum_exit_global == sb.sum_exit_global


class TestEndToEndCopyModeEquivalence:
    """Frames vs pickle: identical memberships, bitwise codelengths."""

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    @pytest.mark.parametrize("min_label", [True, False])
    def test_planted_partition(self, nranks, min_label):
        lg = powerlaw_planted_partition(300, 6, mu=0.1, seed=11)
        base = InfomapConfig(seed=5, min_label=min_label)
        res = {}
        for mode in ("frames", "pickle"):
            res[mode] = distributed_infomap(
                lg.graph, nranks, base, copy_mode=mode
            )
        f, p = res["frames"], res["pickle"]
        np.testing.assert_array_equal(f.membership, p.membership)
        assert f.codelength == p.codelength  # bitwise, not approx
        assert (
            f.extras["codelength_history"] == p.extras["codelength_history"]
        )

    def test_scale_free_with_delegates(self):
        g = barabasi_albert(400, 3, seed=3)
        base = InfomapConfig(seed=9, d_high=2)
        f = distributed_infomap(g, 3, base, copy_mode="frames")
        p = distributed_infomap(g, 3, base, copy_mode="pickle")
        np.testing.assert_array_equal(f.membership, p.membership)
        assert f.codelength == p.codelength
        assert (
            f.extras["codelength_history"] == p.extras["codelength_history"]
        )

    def test_equivalence_holds_with_and_without_batching(self, monkeypatch):
        # Both copy modes of the compiled sweep must also match a solve
        # on the one-vertex-at-a-time reference sweep.
        lg = ring_of_cliques(8, 6)
        base = InfomapConfig(seed=2)
        f = distributed_infomap(lg.graph, 4, base, copy_mode="frames")
        p = distributed_infomap(lg.graph, 4, base, copy_mode="pickle")
        with monkeypatch.context() as m:
            m.setattr(distributed_mod, "SweepKernel", ReferenceSweep)
            ref = distributed_infomap(lg.graph, 4, base, copy_mode="pickle")
        for other in (p, ref):
            np.testing.assert_array_equal(f.membership, other.membership)
            assert f.codelength == other.codelength
            assert (
                f.extras["codelength_history"]
                == other.extras["codelength_history"]
            )


def _paired_states(seed=0):
    """Two independent state sets per rank over the same local views."""
    lg = powerlaw_planted_partition(90, 6, mu=0.15, seed=seed)
    net = FlowNetwork.from_graph(lg.graph)
    dp = delegate_partition(lg.graph, 3, d_high=6)
    views = local_views_delegate(net, dp)
    one = [LocalModuleState(v) for v in views]
    two = [LocalModuleState(v) for v in views]
    return views, one, two


class TestProtocolDeterminism:
    """Random membership-churn schedules through the full protocol.

    Two independent state sets driven by the same schedule must emit
    byte-identical wires and converge to bitwise-equal tables — and
    every real wire must survive a frame codec round trip unchanged.
    """

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_wire_tables_and_sync_match(self, seed):
        rng = np.random.default_rng(seed)
        views, one, two = _paired_states(seed % 7)
        nranks = len(views)
        for _round in range(3):
            # Identical random churn on both state sets' memberships.
            for r, v in enumerate(views):
                if v.num_owned == 0:
                    continue
                n_moves = int(rng.integers(0, max(v.num_owned // 3, 2)))
                movers = rng.integers(0, v.num_owned, size=n_moves)
                targets = v.global_of[
                    rng.integers(0, v.num_local, size=n_moves)
                ]
                one[r].module_of[movers] = targets
                two[r].module_of[movers] = targets
            hub_mods = (
                set(
                    int(m)
                    for m in rng.choice(
                        views[0].global_of, size=2, replace=False
                    )
                )
                if rng.random() < 0.5 else None
            )

            owns_1 = [s.contribution() for s in one]
            owns_2 = [s.contribution() for s in two]
            for ca, cb in zip(owns_1, owns_2):
                np.testing.assert_array_equal(ca.mod_ids, cb.mod_ids)
                np.testing.assert_array_equal(ca.sum_p, cb.sum_p)
                np.testing.assert_array_equal(ca.exit, cb.exit)
                np.testing.assert_array_equal(ca.members, cb.members)

            # Full (Algorithm 3 literal) wire: byte-identical columns,
            # and a lossless frame round trip for every real payload.
            full_1 = [
                one[r].prepare_swap(owns_1[r], hub_mods)
                for r in range(nranks)
            ]
            full_2 = [
                two[r].prepare_swap(owns_2[r], hub_mods)
                for r in range(nranks)
            ]
            for wa, wb in zip(full_1, full_2):
                assert sorted(wa) == sorted(wb)
                for dest in wa:
                    _assert_cols_equal(wa[dest], wb[dest])
                    _assert_cols_equal(
                        decode_frame(encode_frame(wa[dest])), wa[dest]
                    )

            # Delta wire: byte-identical columns and destinations.
            delta_1 = [
                one[r].prepare_swap_delta(owns_1[r], hub_mods)
                for r in range(nranks)
            ]
            delta_2 = [
                two[r].prepare_swap_delta(owns_2[r], hub_mods)
                for r in range(nranks)
            ]
            for wa, wb in zip(delta_1, delta_2):
                assert sorted(wa) == sorted(wb)
                for dest in wa:
                    _assert_cols_equal(wa[dest], wb[dest])
                    _assert_cols_equal(
                        decode_frame(encode_frame(wa[dest])), wa[dest]
                    )

            # Route the deltas, rebuild, compare tables bitwise.  One
            # state set applies the original columns, the other the
            # frame-decoded copies: the rebuilt tables must agree.
            for dest in range(nranks):
                inbox_1 = {
                    src: delta_1[src][dest]
                    for src in range(nranks) if dest in delta_1[src]
                }
                inbox_2 = {
                    src: decode_frame(encode_frame(delta_2[src][dest]))
                    for src in range(nranks) if dest in delta_2[src]
                }
                one[dest].apply_swap_delta(inbox_1)
                two[dest].apply_swap_delta(inbox_2)
                one[dest].rebuild_table_from_caches(owns_1[dest])
                two[dest].rebuild_table_from_caches(owns_2[dest])
                _assert_tables_equal(one[dest], two[dest])

            # Membership sync: identical wire, identical ghost updates.
            sync_1 = [s.prepare_membership_sync_delta() for s in one]
            sync_2 = [s.prepare_membership_sync_delta() for s in two]
            for wa, wb in zip(sync_1, sync_2):
                assert sorted(wa) == sorted(wb)
                for dest in wa:
                    _assert_cols_equal(wa[dest], wb[dest])
            for dest in range(nranks):
                in_1 = [
                    sync_1[src][dest]
                    for src in range(nranks) if dest in sync_1[src]
                ]
                in_2 = [
                    decode_frame(encode_frame(sync_2[src][dest]))
                    for src in range(nranks) if dest in sync_2[src]
                ]
                ch_1 = one[dest].apply_membership_sync(in_1)
                ch_2 = two[dest].apply_membership_sync(in_2)
                assert ch_1 == ch_2
                np.testing.assert_array_equal(
                    one[dest].module_of, two[dest].module_of
                )

    def test_full_rebuild_from_wire_matches(self):
        """rebuild_table over exchanged full batches is bitwise equal
        whether the batches arrive raw or through the frame codec."""
        views, one, two = _paired_states(3)
        nranks = len(views)
        owns_1 = [s.contribution() for s in one]
        owns_2 = [s.contribution() for s in two]
        full_1 = [one[r].prepare_swap(owns_1[r]) for r in range(nranks)]
        full_2 = [two[r].prepare_swap(owns_2[r]) for r in range(nranks)]
        for dest in range(nranks):
            # Ascending source order, like Communicator.exchange yields.
            batches_1 = [
                full_1[src][dest]
                for src in range(nranks)
                if src != dest and dest in full_1[src]
            ]
            batches_2 = [
                decode_frame(encode_frame(full_2[src][dest]))
                for src in range(nranks)
                if src != dest and dest in full_2[src]
            ]
            one[dest].rebuild_table(owns_1[dest], batches_1)
            two[dest].rebuild_table(owns_2[dest], batches_2)
            one[dest].sum_exit_global = sum(c.total_exit() for c in owns_1)
            two[dest].sum_exit_global = sum(c.total_exit() for c in owns_2)
            _assert_tables_equal(one[dest], two[dest])


class TestSwapMeterInvariant:
    """Metered swap bytes == encoded wire size, per copy mode."""

    @pytest.mark.parametrize("mode", ["frames", "pickle"])
    def test_metered_bytes_match_encoded_columns(self, mode):
        def prog(comm):
            lg = ring_of_cliques(8, 5)
            net = FlowNetwork.from_graph(lg.graph)
            dp = delegate_partition(lg.graph, comm.size, d_high=5)
            views = local_views_delegate(net, dp)
            state = LocalModuleState(views[comm.rank])
            own = state.contribution()
            wire = state.prepare_swap(own)
            # Handshake outside the metered phase so "swaptest" holds
            # exactly the point-to-point column traffic (exchange()'s
            # internal counts-allreduce would land in the phase too).
            dests = [sorted(w) for w in comm.allgather(sorted(wire))]
            n_in = sum(
                comm.rank in d
                for src, d in enumerate(dests) if src != comm.rank
            )
            comm.set_phase("swaptest")
            for dest in sorted(wire):
                comm.send(wire[dest], dest, tag=7)
            for _ in range(n_in):
                comm.recv(tag=7)
            comm.set_phase("other")
            if mode == "frames":
                physical = sum(
                    len(encode_frame(v)) for v in wire.values()
                )
            else:
                physical = sum(
                    len(pickle.dumps(v, pickle.HIGHEST_PROTOCOL))
                    for v in wire.values()
                )
            logical = sum(payload_nbytes(v) for v in wire.values())
            return physical, logical

        res = run_spmd(prog, 3, copy_mode=mode)
        for r in range(3):
            physical, logical = res.results[r]
            st = res.ledger.for_rank(r)
            assert st.bytes_by_phase["swaptest"] == physical
            assert st.logical_bytes_by_phase["swaptest"] == logical

    def test_logical_bytes_identical_across_copy_modes(self):
        """The logical meter is codec-independent by construction."""

        def prog(comm):
            lg = ring_of_cliques(8, 5)
            net = FlowNetwork.from_graph(lg.graph)
            dp = delegate_partition(lg.graph, comm.size, d_high=5)
            views = local_views_delegate(net, dp)
            state = LocalModuleState(views[comm.rank])
            wire = state.prepare_swap(state.contribution())
            comm.set_phase("swaptest")
            comm.exchange(wire)
            comm.set_phase("other")
            return None

        logical = {}
        for mode in ("frames", "pickle"):
            res = run_spmd(prog, 3, copy_mode=mode)
            logical[mode] = [
                res.ledger.for_rank(r).logical_bytes_by_phase["swaptest"]
                for r in range(3)
            ]
        assert logical["frames"] == logical["pickle"]


def _commit_vertex_0(state):
    """Commit vertex 0's max-flow move (it always has one here)."""
    kernel = SweepKernel(state.lg, InfomapConfig(move_rule="max_flow"))
    (target,), _deltas, _work = kernel.sweep(
        state, np.empty(0, np.int64), np.array([0]), commit=True
    )
    return int(target)


class TestApplyMoveBookkeeping:
    """Moving out of a module the table does not know is an error."""

    def test_move_out_of_unknown_module_raises(self):
        views, one, _two = _paired_states(0)
        state = one[0]
        state.rebuild_table(state.contribution(), [])
        # Corrupt one vertex's membership to a module id nobody has.
        state.module_of[0] = 10**9
        with pytest.raises(KeyError):
            _commit_vertex_0(state)

    def test_known_module_moves_keep_member_counts(self):
        views, one, _two = _paired_states(0)
        state = one[0]
        state.rebuild_table(state.contribution(), [])
        before = state.table_arrays()
        counts = dict(zip(before.mod_ids.tolist(), before.members.tolist()))
        old = int(state.module_of[0])
        new = _commit_vertex_0(state)
        assert new >= 0 and new != old
        assert table_row(state, old)[2] == counts[old] - 1
        assert table_row(state, new)[2] == counts.get(new, 0) + 1
