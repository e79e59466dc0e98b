"""External (on-disk, memory-mapped) CSR stores.

The two-pass builder must be *bitwise* equivalent to the in-memory
``from_edge_array`` — same canonicalization, same dedup combination
order, same row sort — so a store can stand in for an in-RAM graph
anywhere without perturbing a single float.
"""

import numpy as np
import pytest

from repro.core import InfomapConfig, distributed_infomap
from repro.graph import (
    build_csr_store,
    edgelist_to_store,
    from_edge_array,
    graph_to_store,
    load_dataset,
    metis_to_store,
    open_csr_store,
    powerlaw_planted_partition,
    read_edgelist,
    read_metis,
    store_header,
    write_edgelist,
    write_metis,
)
from repro.graph.io import EdgeChunk
from repro.obs import graph_fingerprint


def edges_for(num_edges, n, seed, weighted=True, loops=0.1):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=num_edges)
    dst = rng.integers(0, n, size=num_edges)
    loop = rng.random(num_edges) < loops
    dst[loop] = src[loop]
    w = rng.uniform(0.5, 2.0, size=num_edges) if weighted else None
    return src, dst, w


def chunked(src, dst, w, chunk):
    for lo in range(0, src.size, chunk):
        ws = None if w is None else w[lo:lo + chunk]
        yield EdgeChunk(src[lo:lo + chunk], dst[lo:lo + chunk], ws)


def csr_identical(a, b):
    assert a.num_vertices == b.num_vertices
    assert np.asarray(a.indptr).tobytes() == np.asarray(b.indptr).tobytes()
    assert np.asarray(a.indices).tobytes() == np.asarray(b.indices).tobytes()
    assert np.asarray(a.weights).tobytes() == np.asarray(b.weights).tobytes()


class TestBuilderBitwise:
    @pytest.mark.parametrize("dedup", ["sum", "first"])
    @pytest.mark.parametrize("keep_loops", [False, True])
    def test_matches_from_edge_array(self, tmp_path, dedup, keep_loops):
        src, dst, w = edges_for(5000, 300, seed=11)
        ref = from_edge_array(src, dst, w, dedup=dedup,
                              keep_self_loops=keep_loops)
        build_csr_store(
            chunked(src, dst, w, 613), tmp_path / "s",
            dedup=dedup, keep_self_loops=keep_loops, block_entries=777,
        )
        g = open_csr_store(tmp_path / "s")
        csr_identical(ref, g)
        assert g.is_memmapped
        assert g.num_edges == ref.num_edges
        assert g.total_weight == pytest.approx(ref.total_weight)

    def test_block_size_invariant(self, tmp_path):
        src, dst, w = edges_for(3000, 200, seed=3)
        ref = from_edge_array(src, dst, w)
        for i, be in enumerate((64, 1001, 1 << 20)):
            build_csr_store(chunked(src, dst, w, 250), tmp_path / str(i),
                            block_entries=be)
            csr_identical(ref, open_csr_store(tmp_path / str(i)))

    def test_unweighted(self, tmp_path):
        src, dst, _ = edges_for(2000, 150, seed=9, weighted=False)
        ref = from_edge_array(src, dst)
        build_csr_store(chunked(src, dst, None, 333), tmp_path / "s")
        csr_identical(ref, open_csr_store(tmp_path / "s"))

    def test_dedup_error_raises(self, tmp_path):
        src = np.array([0, 1, 1], dtype=np.int64)
        dst = np.array([1, 0, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="parallel edges"):
            build_csr_store(chunked(src, dst, None, 2), tmp_path / "s",
                            dedup="error")

    def test_num_vertices_too_small(self, tmp_path):
        src = np.array([0, 5], dtype=np.int64)
        dst = np.array([1, 6], dtype=np.int64)
        with pytest.raises(ValueError, match="num_vertices smaller"):
            build_csr_store(chunked(src, dst, None, 10), tmp_path / "s",
                            num_vertices=4)

    def test_zero_edges(self, tmp_path):
        build_csr_store(iter(()), tmp_path / "s", num_vertices=5)
        g = open_csr_store(tmp_path / "s")
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.indices.size == 0


class TestStoreRoundtrip:
    def test_graph_to_store_roundtrip(self, tmp_path):
        g = powerlaw_planted_partition(300, 6, seed=2).graph
        graph_to_store(g, tmp_path / "s")
        g2 = open_csr_store(tmp_path / "s")
        csr_identical(g, g2)
        assert g2.is_memmapped and not g.is_memmapped
        assert g2.csr_nbytes == g.csr_nbytes

    def test_header_manifest(self, tmp_path):
        g = powerlaw_planted_partition(200, 5, seed=4).graph
        graph_to_store(g, tmp_path / "s")
        hdr = store_header(tmp_path / "s")
        assert hdr["format"] == "repro-extcsr"
        assert hdr["num_vertices"] == g.num_vertices
        assert hdr["num_edges"] == g.num_edges
        assert hdr["nnz"] == g.indices.size
        assert hdr["total_weight"] == pytest.approx(float(g.total_weight))
        assert hdr["dtypes"] == {
            "xadj": "int64", "adjncy": "int64", "weights": "float64",
        }

    def test_reopen_is_o1(self, tmp_path):
        # Re-opening must not re-read the adjacency: with the bins
        # truncated behind the header's back the open still succeeds
        # (memmap is lazy) — proof no eager full scan happens.
        g = powerlaw_planted_partition(500, 8, seed=1).graph
        graph_to_store(g, tmp_path / "s")
        import time

        t0 = time.perf_counter()
        for _ in range(20):
            open_csr_store(tmp_path / "s")
        assert (time.perf_counter() - t0) / 20 < 0.05

    def test_not_a_store(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no header.json"):
            store_header(tmp_path)

    def test_edgelist_to_store_matches_reader(self, tmp_path):
        g = powerlaw_planted_partition(250, 6, seed=7).graph
        p = tmp_path / "g.txt"
        write_edgelist(g, p)
        ref = read_edgelist(p)
        edgelist_to_store(p, tmp_path / "s", chunk_bytes=311,
                          block_entries=509)
        csr_identical(ref, open_csr_store(tmp_path / "s"))

    def test_metis_to_store_matches_reader(self, tmp_path):
        g = powerlaw_planted_partition(250, 6, seed=8).graph
        p = tmp_path / "g.metis"
        write_metis(g, p)
        ref = read_metis(p)
        metis_to_store(p, tmp_path / "s", chunk_bytes=409)
        csr_identical(ref, open_csr_store(tmp_path / "s"))


class TestFingerprint:
    def test_fingerprint_mmap_equals_inram(self, tmp_path):
        g = powerlaw_planted_partition(300, 6, seed=2).graph
        graph_to_store(g, tmp_path / "s")
        assert graph_fingerprint(g) == graph_fingerprint(
            open_csr_store(tmp_path / "s")
        )

    def test_fingerprint_chunking_invariant(self, monkeypatch):
        from repro.obs import manifest as m

        g = powerlaw_planted_partition(200, 5, seed=3).graph
        ref = graph_fingerprint(g)
        monkeypatch.setattr(m, "FINGERPRINT_CHUNK_BYTES", 64)
        assert m.graph_fingerprint(g) == ref

    def test_fingerprint_distinguishes(self, tmp_path):
        a = powerlaw_planted_partition(200, 5, seed=3).graph
        b = powerlaw_planted_partition(200, 5, seed=4).graph
        assert graph_fingerprint(a) != graph_fingerprint(b)


class TestMemmapEndToEnd:
    @pytest.mark.parametrize("backend", ["serial", "threads", "procs"])
    def test_solver_identical_on_mmap_graph(self, tmp_path, backend):
        ds = load_dataset("dblp", seed=0, scale=0.25)
        g = ds.graph
        graph_to_store(g, tmp_path / "s")
        gm = open_csr_store(tmp_path / "s")
        nranks = 1 if backend == "serial" else 3
        cfg = InfomapConfig(seed=3)
        ref = distributed_infomap(g, nranks, cfg, backend=backend)
        out = distributed_infomap(gm, nranks, cfg, backend=backend)
        np.testing.assert_array_equal(ref.membership, out.membership)
        assert ref.codelength == out.codelength
        assert ref.extras["codelength_history"] == \
            out.extras["codelength_history"]

    def test_load_dataset_mmap_dir(self, tmp_path):
        ds = load_dataset("dblp", seed=0, scale=0.2,
                          mmap_dir=tmp_path / "s")
        assert ds.graph.is_memmapped
        ref = load_dataset("dblp", seed=0, scale=0.2)
        csr_identical(ref.graph, ds.graph)
        np.testing.assert_array_equal(ref.labels, ds.labels)
