"""Compiled sweep kernel: bitwise equivalence with the scalar reference.

:mod:`repro.core.sweepkernel` must commit exactly the sequence of moves
the one-vertex-at-a-time Python loop in :mod:`tests.sweep_reference`
commits: same memberships, same table columns and exit sum to the last
bit, same proposals, same work count.  The build tests cover the
compile-once cache the kernel is loaded from.
"""

import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import FlowNetwork, InfomapConfig, sweepkernel
from repro.core.sweepkernel import SweepKernel
from repro.core.swap import LocalModuleState
from repro.graph.builder import from_edge_array
from repro.partition import delegate_partition, local_views_delegate

from .sweep_reference import ReferenceSweep, _local_module_flows

SRC = Path(sweepkernel.__file__).resolve().parents[2]


def _graph(rng, n, p_edge, *, hub, self_loops):
    """Random weighted graph; *hub* links vertex 0 to 50+ others."""
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p_edge
    src, dst = iu[keep], ju[keep]
    if hub:
        others = np.arange(1, n)
        src = np.concatenate([src, np.zeros(others.size, np.int64)])
        dst = np.concatenate([dst, others])
    if self_loops:
        loops = rng.choice(n, size=max(1, n // 8), replace=False)
        src = np.concatenate([src, loops])
        dst = np.concatenate([dst, loops])
    w = rng.choice([0.5, 1.0, 2.0, 3.0], size=src.size)
    return from_edge_array(
        src, dst, w, num_vertices=n, keep_self_loops=True
    )


def _states(graph, nranks, d_high, rng, *, ghost_singletons):
    """Per-rank states with a random grouped membership and a table."""
    net = FlowNetwork.from_graph(graph)
    views = local_views_delegate(
        net, delegate_partition(graph, nranks, d_high=d_high)
    )
    out = []
    for v in views:
        st_ = LocalModuleState(v)
        # Draw modules from a small pool so modules group vertices and
        # some neighbour modules are absent from the table.
        pool = v.global_of[: max(1, v.num_local // 3)]
        st_.module_of = pool[rng.integers(0, pool.size, size=v.num_local)]
        own = st_.contribution()
        st_.rebuild_table(own, [], ghost_singletons=ghost_singletons)
        st_.sum_exit_global = own.total_exit()
        out.append((v, st_))
    return out


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _assert_states_equal(a, b):
    np.testing.assert_array_equal(a.module_of, b.module_of)
    ta, tb = a.table_arrays(), b.table_arrays()
    assert (np.diff(ta.mod_ids) > 0).all()
    for col in ("mod_ids", "exit", "sum_p", "members"):
        assert _bits(getattr(ta, col)) == _bits(getattr(tb, col)), col
    assert _bits([a.sum_exit_global]) == _bits([b.sum_exit_global])


def _sweep_both(lg, state, cfg, bmods, rows, *, commit):
    """Run kernel and reference on copies; assert identical outcomes."""
    ka, kb = copy.deepcopy(state), copy.deepcopy(state)
    ref = ReferenceSweep(lg, cfg)
    ta, da, wa = SweepKernel(lg, cfg).sweep(ka, bmods, rows, commit=commit)
    tb, db, wb = ref.sweep(kb, bmods, rows, commit=commit)
    np.testing.assert_array_equal(ta, tb)
    assert _bits(da) == _bits(db)
    assert wa == wb
    _assert_states_equal(ka, kb)
    # Also against the reference's own dict, independent of the merge
    # in insert_modules that both states went through.
    t = ka.table_arrays()
    for col, want in zip(
        (t.mod_ids, t.exit, t.sum_p, t.members), ref.table.columns()
    ):
        assert _bits(col) == _bits(want)
    if not commit:
        _assert_states_equal(ka, state)
    return ka, ta


def _bmods(state, rng, mode):
    if mode == "boundary":
        return state.boundary_modules()
    if mode == "none":
        return np.empty(0, np.int64)
    mods = np.unique(state.module_of)
    return np.unique(rng.choice(mods, size=max(1, mods.size // 2)))


_CASE = dict(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(6, 64),
    p_edge=st.sampled_from([0.05, 0.15, 0.4]),
    hub=st.booleans(),
    self_loops=st.booleans(),
    nranks=st.integers(1, 3),
    d_high=st.sampled_from([None, 3, 1000]),
    min_label=st.booleans(),
    move_rule=st.sampled_from(["map_equation", "max_flow"]),
    tie_eps=st.sampled_from([1e-12, 1e-3]),
    bmode=st.sampled_from(["boundary", "random", "none"]),
    ghost_singletons=st.booleans(),
)


class TestSweepEquivalence:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(**_CASE)
    def test_commit_sweeps_match_reference(
        self, seed, n, p_edge, hub, self_loops, nranks, d_high,
        min_label, move_rule, tie_eps, bmode, ghost_singletons,
    ):
        rng = np.random.default_rng(seed)
        n = max(n, 56) if hub else n
        g = _graph(rng, n, p_edge, hub=hub, self_loops=self_loops)
        assume(g.total_weight > 0)
        cfg = InfomapConfig(
            min_label=min_label, move_rule=move_rule, tie_eps=tie_eps
        )
        for lg, state in _states(
            g, nranks, d_high, rng, ghost_singletons=ghost_singletons
        ):
            bmods = _bmods(state, rng, bmode)
            # Two sweeps in a row: the second reads the modules the
            # first one merged into the table and its exit sum.
            for _ in range(2):
                rows = rng.permutation(lg.num_owned)
                state, _ = _sweep_both(
                    lg, state, cfg, bmods, rows, commit=True
                )
            hubs = np.arange(lg.num_owned, lg.num_sources)
            _sweep_both(lg, state, cfg, bmods, hubs, commit=False)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        min_label=st.booleans(),
        move_rule=st.sampled_from(["map_equation", "max_flow"]),
        bmode=st.sampled_from(["boundary", "random", "none"]),
    )
    def test_score_flows_matches_reference(
        self, seed, min_label, move_rule, bmode
    ):
        rng = np.random.default_rng(seed)
        g = _graph(rng, 40, 0.2, hub=False, self_loops=True)
        assume(g.total_weight > 0)
        cfg = InfomapConfig(min_label=min_label, move_rule=move_rule)
        lg, state = _states(g, 2, 4, rng, ghost_singletons=False)[0]
        bmods = _bmods(state, rng, bmode)
        # Segments as the hub path builds them (sorted unique modules
        # per vertex), including modules the table does not know.
        known = state.table_arrays().mod_ids
        pool = np.concatenate([known, known.max() + 1 + np.arange(5)])
        lens = rng.integers(0, 7, size=12)
        mods = [np.unique(rng.choice(pool, size=k)) for k in lens]
        seg_ptr = np.concatenate([[0], np.cumsum([m.size for m in mods])])
        mods_all = np.concatenate(mods).astype(np.int64)
        flows = rng.random(mods_all.size) * 0.05
        current = rng.choice(pool, size=lens.size)
        p_u = rng.random(lens.size) * 0.02
        x_u = rng.random(lens.size) * 0.1
        args = (state, bmods, seg_ptr.astype(np.int64), mods_all, flows,
                current.astype(np.int64), p_u, x_u)
        ta, da = SweepKernel(lg, cfg).score_flows(*args)
        tb, db = ReferenceSweep(lg, cfg).score_flows(*args)
        np.testing.assert_array_equal(ta, tb)
        assert _bits(da) == _bits(db)


class TestSweepCoverage:
    """Deterministic cases for branches the property test may miss."""

    def test_long_rows_use_the_unique_branch(self):
        rng = np.random.default_rng(3)
        g = _graph(rng, 80, 0.05, hub=True, self_loops=True)
        lg, state = _states(g, 1, None, rng, ghost_singletons=True)[0]
        deg = np.diff(lg.indptr)
        assert deg.max() > 48  # reference aggregates with np.unique
        cfg = InfomapConfig()
        rows = np.argsort(-deg)  # long rows first
        _state, targets = _sweep_both(
            lg, state, cfg, np.empty(0, np.int64), rows, commit=True
        )
        assert (targets >= 0).any()

    def test_absent_targets_are_inserted(self):
        rng = np.random.default_rng(5)
        g = _graph(rng, 40, 0.2, hub=False, self_loops=False)
        lg, state = _states(g, 2, 1000, rng, ghost_singletons=False)[0]
        known = set(state.table_arrays().mod_ids.tolist())
        absent = set(state.module_of[lg.ghost_slice()].tolist()) - known
        assert absent  # some ghost modules are unknown to the table
        rows = np.arange(lg.num_owned)
        after, targets = _sweep_both(
            lg, state, InfomapConfig(min_label=False),
            np.empty(0, np.int64), rows, commit=True,
        )
        entered = set(targets[targets >= 0].tolist()) & absent
        assert entered
        assert entered <= set(after.table_arrays().mod_ids.tolist())

    def test_insert_rejects_known_or_repeated_ids(self):
        rng = np.random.default_rng(5)
        g = _graph(rng, 30, 0.2, hub=False, self_loops=False)
        _lg, state = _states(g, 1, None, rng, ghost_singletons=False)[0]
        before = copy.deepcopy(state.table_arrays())
        fresh = before.mod_ids.max() + 1
        for ids in ([before.mod_ids[0]], [fresh, fresh]):
            ids = np.array(ids, np.int64)
            with pytest.raises(ValueError, match="already present"):
                state.insert_modules(
                    ids, np.zeros(ids.size), np.zeros(ids.size),
                    np.ones(ids.size, np.int64),
                )
        after = state.table_arrays()
        for col in ("mod_ids", "exit", "sum_p", "members"):
            assert _bits(getattr(after, col)) == _bits(getattr(before, col))

    def test_min_label_boundary_set(self):
        rng = np.random.default_rng(11)
        g = _graph(rng, 60, 0.1, hub=False, self_loops=False)
        lg, state = _states(g, 3, 1000, rng, ghost_singletons=True)[1]
        # Singletons everywhere make the min-label filter bite.
        state.module_of = lg.global_of.copy()
        own = state.contribution()
        state.rebuild_table(own, [])
        state.sum_exit_global = own.total_exit()
        bmods = state.boundary_modules()
        assert bmods.size
        _sweep_both(
            lg, state, InfomapConfig(min_label=True), bmods,
            np.arange(lg.num_owned), commit=True,
        )

    def test_hub_flows_from_local_rows(self):
        rng = np.random.default_rng(2)
        g = _graph(rng, 70, 0.08, hub=True, self_loops=True)
        lg, state = _states(g, 2, 6, rng, ghost_singletons=True)[0]
        his = np.arange(lg.num_owned, lg.num_sources)
        assert his.size
        segs = [_local_module_flows(state, int(h)) for h in his]
        seg_ptr = np.concatenate(
            [[0], np.cumsum([s[0].size for s in segs])]
        ).astype(np.int64)
        args = (
            state, state.boundary_modules(), seg_ptr,
            np.concatenate([s[0] for s in segs]).astype(np.int64),
            np.concatenate([s[1] for s in segs]),
            state.module_of[his], lg.flow[his], lg.exit0[his],
        )
        cfg = InfomapConfig()
        ta, da = SweepKernel(lg, cfg).score_flows(*args)
        tb, db = ReferenceSweep(lg, cfg).score_flows(*args)
        np.testing.assert_array_equal(ta, tb)
        assert _bits(da) == _bits(db)

    def test_rejects_mismatched_arrays(self):
        rng = np.random.default_rng(0)
        g = _graph(rng, 20, 0.3, hub=False, self_loops=False)
        lg, state = _states(g, 1, None, rng, ghost_singletons=True)[0]
        k = SweepKernel(lg, InfomapConfig())
        with pytest.raises(ValueError):
            k.sweep(state, np.empty(0, np.int64),
                    np.array([lg.num_sources]), commit=True)
        with pytest.raises(ValueError):
            k.sweep(state, np.empty(0, np.int32),
                    np.array([0]), commit=True)


class TestBuild:
    def test_missing_gcc_is_an_import_error(self, monkeypatch):
        monkeypatch.setattr(sweepkernel.shutil, "which", lambda _name: None)
        with pytest.raises(ImportError, match="gcc"):
            sweepkernel.build_library(b"", Path("unused"))

    def test_changed_source_rebuilds(self, tmp_path):
        source = Path(sweepkernel.__file__).with_name("sweepkernel.c")
        text = source.read_bytes()
        first = sweepkernel.build_library(text, tmp_path)
        again = sweepkernel.build_library(text, tmp_path)
        changed = sweepkernel.build_library(text + b"\n/* edit */\n", tmp_path)
        assert first == again
        assert changed != first
        assert first.is_file() and changed.is_file()
        assert sorted(p.name for p in tmp_path.glob("*.so")) == sorted(
            [first.name, changed.name]
        )

    def test_concurrent_importers_share_one_library(self, tmp_path):
        env = {
            **os.environ,
            "XDG_CACHE_HOME": str(tmp_path),
            "PYTHONPATH": str(SRC),
        }
        code = (
            "import repro.core.distributed\n"
            "from repro.core import sweepkernel\n"
            "print(sweepkernel.LIBRARY_PATH)\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outs
        paths = {out.strip() for out, _err in outs}
        assert len(paths) == 1
        (lib,) = paths
        cache = tmp_path / "repro-infomap"
        assert Path(lib).parent == cache
        assert [p.name for p in cache.glob("*.so")] == [Path(lib).name]
        assert not list(cache.glob(".*"))  # no temporary file left

    def test_warm_import_starts_no_process(self, tmp_path):
        # A forked child reports the parent's resident size as its own
        # peak, so a warm import must not start gcc.
        env = {
            **os.environ,
            "XDG_CACHE_HOME": str(tmp_path),
            "PYTHONPATH": str(SRC),
        }
        code = (
            "import resource\n"
            "import repro.core.distributed\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_utime"
            " + resource.getrusage(resource.RUSAGE_CHILDREN).ru_stime,"
            " resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        cold = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        warm = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert int(cold.stdout.split()[1]) > 0  # gcc ran
        assert warm.stdout.split() == ["0.0", "0"]
