"""Nonblocking collectives: iallreduce/iexchange request semantics.

Property-based checks that arbitrary post/wait interleavings are
value- and ledger-equivalent to the blocking collectives, that waiting
on a list of requests yields their values in post order whatever that
order was, and that the three backends (threads, procs, serial) agree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import run_spmd, run_spmd_procs

NRANKS = 3


def _expected_reduce(i, size):
    return sum(r * (i + 1) + 1 for r in range(size))


def _expected_exchange(i, rank, size):
    return {src: [src, i] for src in range(size) if src != rank}


def _make_nonblocking_prog(kinds, wait_order):
    """SPMD program: post requests 0..n-1 in order, wait in *wait_order*.

    ``kinds[i]`` is ``"r"`` (iallreduce) or ``"x"`` (iexchange);
    returns ``{i: value}`` plus the rank's comm stats snapshot.
    """

    def prog(comm):
        reqs = {}
        for i, kind in enumerate(kinds):
            if kind == "r":
                reqs[i] = comm.iallreduce(comm.rank * (i + 1) + 1)
            else:
                msgs = {
                    d: [comm.rank, i]
                    for d in range(comm.size)
                    if d != comm.rank
                }
                reqs[i] = comm.iexchange(msgs)
        out = {i: reqs[i].wait() for i in wait_order}
        return out, comm.stats.snapshot()

    return prog


def _make_blocking_prog(kinds):
    def prog(comm):
        out = {}
        for i, kind in enumerate(kinds):
            if kind == "r":
                out[i] = comm.allreduce(comm.rank * (i + 1) + 1)
            else:
                msgs = {
                    d: [comm.rank, i]
                    for d in range(comm.size)
                    if d != comm.rank
                }
                out[i] = comm.exchange(msgs)
        return out, comm.stats.snapshot()

    return prog


def _assert_values(results, kinds, size):
    for rank, (out, _snap) in enumerate(results):
        for i, kind in enumerate(kinds):
            if kind == "r":
                assert out[i] == _expected_reduce(i, size)
            else:
                assert out[i] == _expected_exchange(i, rank, size)


#: Ledger fields that must not depend on blocking vs nonblocking mode
#: (wait/overlap seconds are *meant* to differ — they measure the mode).
_LOGICAL_FIELDS = (
    "p2p_bytes_sent", "p2p_bytes_recv", "p2p_messages_sent",
    "p2p_messages_recv", "collective_bytes_in", "collective_bytes_out",
    "collective_calls", "logical_bytes_by_phase",
)


def _assert_ledger_parity(res_a, res_b):
    for (_oa, sa), (_ob, sb) in zip(res_a, res_b):
        for field in _LOGICAL_FIELDS:
            assert sa[field] == sb[field], field


@st.composite
def interleavings(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    kinds = draw(
        st.lists(
            st.sampled_from(["r", "x"]), min_size=n, max_size=n
        )
    )
    wait_order = draw(st.permutations(list(range(n))))
    return kinds, wait_order


class TestInterleavingsMatchBlocking:
    @settings(max_examples=12, deadline=None)
    @given(interleavings())
    def test_threads_any_wait_order_equals_blocking(self, case):
        kinds, wait_order = case
        nb = run_spmd(_make_nonblocking_prog(kinds, wait_order), NRANKS)
        bl = run_spmd(_make_blocking_prog(kinds), NRANKS)
        _assert_values(nb.results, kinds, NRANKS)
        _assert_values(bl.results, kinds, NRANKS)
        for (out_nb, _), (out_bl, _) in zip(nb.results, bl.results):
            assert out_nb == out_bl
        _assert_ledger_parity(nb.results, bl.results)

    @pytest.mark.parametrize(
        "kinds,wait_order",
        [
            (["r", "x"], [1, 0]),
            (["x", "r", "x"], [2, 0, 1]),
        ],
    )
    def test_procs_wait_order_equals_blocking(self, kinds, wait_order):
        nb = run_spmd_procs(
            _make_nonblocking_prog(kinds, wait_order), NRANKS
        )
        bl = run_spmd_procs(_make_blocking_prog(kinds), NRANKS)
        _assert_values(nb.results, kinds, NRANKS)
        for (out_nb, _), (out_bl, _) in zip(nb.results, bl.results):
            assert out_nb == out_bl
        _assert_ledger_parity(nb.results, bl.results)


class TestWaitallOrderIndependence:
    @settings(max_examples=10, deadline=None)
    @given(st.permutations(list(range(4))))
    def test_waitall_returns_insertion_order(self, post_order):
        def prog(comm):
            reqs = []
            posted = []
            for i in post_order:
                reqs.append(comm.iallreduce(comm.rank * (i + 1) + 1))
                posted.append(i)
            return posted, [r.wait() for r in reqs]

        res = run_spmd(prog, NRANKS)
        for posted, values in res.results:
            assert values == [
                _expected_reduce(i, NRANKS) for i in posted
            ]

    def test_waitall_idempotent_and_len(self):
        def prog(comm):
            reqs = [comm.iallreduce(1), comm.iallreduce(2)]
            a = [r.wait() for r in reqs]
            b = [r.wait() for r in reqs]
            return len(reqs), all(r.completed for r in reqs), a, b

        res = run_spmd(prog, NRANKS)
        for n, done, a, b in res.results:
            assert (n, done) == (2, True)
            assert a == b == [NRANKS, 2 * NRANKS]


class TestBackendParity:
    KINDS = ["r", "x", "r"]
    WAITS = [2, 0, 1]

    def test_threads_procs_agree(self):
        prog = _make_nonblocking_prog(self.KINDS, self.WAITS)
        rt = run_spmd(prog, NRANKS)
        rp = run_spmd_procs(prog, NRANKS)
        for (out_t, st_t), (out_p, st_p) in zip(rt.results, rp.results):
            assert out_t == out_p
            for field in _LOGICAL_FIELDS:
                assert st_t[field] == st_p[field], field

    def test_serial_loopback(self):
        prog = _make_nonblocking_prog(self.KINDS, self.WAITS)
        res = run_spmd(prog, 1)
        out, snap = res.results[0]
        assert out == {
            0: _expected_reduce(0, 1),
            1: {},
            2: _expected_reduce(2, 1),
        }
        # Nothing to wait on at one rank: requests complete eagerly,
        # so no blocked or hidden seconds are metered.
        assert sum(snap["wait_seconds_by_phase"].values()) == 0.0
        assert sum(snap["overlap_seconds_by_phase"].values()) == 0.0


class TestWaitOverlapMetering:
    def test_wait_and_overlap_split(self):
        import time

        def prog(comm):
            req = comm.iallreduce(comm.rank)
            if comm.rank == 0:
                time.sleep(0.05)  # compute stand-in: latency is hidden
            val = req.wait()
            snap = comm.stats.snapshot()
            return val, snap

        res = run_spmd(prog, 2)
        for rank, (val, snap) in enumerate(res.results):
            assert val == 1
            wait = sum(snap["wait_seconds_by_phase"].values())
            overlap = sum(snap["overlap_seconds_by_phase"].values())
            assert wait >= 0.0 and overlap >= 0.0
            if rank == 0:
                # The sleep happened between post and wait, so it is
                # accounted as overlap, not blocking.
                assert overlap >= 0.04
