"""Compiled Find-Best-Module sweep: the build and the per-level handle.

The distributed solver's move evaluation lives in ``sweepkernel.c``:
one C call scores and commits a whole sub-sweep, vertex after vertex,
against the rank's live module table (DESIGN.md §3c).  The same C scorer
serves the delegate-consensus hub path and the ``max_flow`` rule, so the
ΔL expression exists once.

Build: the library is compiled with gcc when this module is imported —
never lazily inside a solve — and cached under ``$XDG_CACHE_HOME``
(default ``~/.cache``) in ``repro-infomap/``, keyed by a hash of the
source, the flags and the compiler's version.  The version is cached
too, so an import with a warm cache starts no process.  Rank processes
started with ``spawn`` import this module as well; every cache file is
written under a temporary name and renamed into place, so a concurrent
importer never reads a half-written one.  Without gcc the import fails
with ``ImportError``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = ["COMPILER", "FLAGS", "LIBRARY_PATH", "SweepKernel", "build_library"]

# Fixed: -ffast-math or -march=native would change float results (fused
# multiply-add, reassociation) and break bitwise parity with math.log2.
FLAGS = ("-O2", "-fPIC", "-ffp-contract=off", "-shared")

_SOURCE = Path(__file__).with_name("sweepkernel.c")

_ERRORS = {
    -1: "move out of a module the table does not know",
    -2: "out of memory",
    -3: "overflow buffer full",
}


@contextmanager
def _replacing(path: Path) -> Iterator[str]:
    """Yield a temporary name next to *path*, renamed over it on success.

    A concurrent reader sees either no file or a complete one.
    """
    fd, tmp = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _compiler(cache_dir: Path) -> tuple[str, str]:
    """``(path, full --version output)`` of gcc, or ImportError.

    The version is cached in *cache_dir* per compiler binary (resolved
    path, size, mtime), so a warm import starts no process: a child
    forked from this one would report this process's whole resident
    size as its own peak.
    """
    cc = shutil.which("gcc")
    if cc is None:
        raise ImportError(
            "repro.core.sweepkernel needs gcc on PATH to build the "
            "compiled sweep kernel"
        )
    real = os.path.realpath(cc)
    st = os.stat(real)
    ident = f"{real}\0{st.st_size}\0{st.st_mtime_ns}".encode()
    stamp = cache_dir / f"gcc-{hashlib.sha256(ident).hexdigest()[:24]}.version"
    try:
        return cc, stamp.read_text()
    except FileNotFoundError:
        pass
    version = subprocess.run(
        [cc, "--version"], capture_output=True, text=True, check=True
    ).stdout
    cache_dir.mkdir(parents=True, exist_ok=True)
    with _replacing(stamp) as tmp:
        Path(tmp).write_text(version)
    return cc, version


def _default_cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-infomap"


def build_library(source: bytes, cache_dir: Path) -> Path:
    """Compile *source* into ``cache_dir`` unless already cached.

    Returns the shared library's path.  The name carries a hash of the
    source, :data:`FLAGS` and the compiler version, so any change
    rebuilds into a new file.
    """
    cc, version = _compiler(cache_dir)
    key = hashlib.sha256(
        b"\0".join([source, " ".join(FLAGS).encode(), version.encode()])
    ).hexdigest()[:24]
    path = cache_dir / f"sweepkernel-{key}.so"
    if path.is_file():
        return path
    with _replacing(path) as tmp:
        proc = subprocess.run(
            [cc, *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
            input=source, capture_output=True,
        )
        if proc.returncode != 0:
            raise ImportError(
                "gcc failed to build the sweep kernel:\n"
                + proc.stderr.decode(errors="replace")
            )
    return path


LIBRARY_PATH = build_library(_SOURCE.read_bytes(), _default_cache_dir())
COMPILER = _compiler(_default_cache_dir())[1].splitlines()[0]


class _Table(ctypes.Structure):
    _fields_ = [
        ("ids", ctypes.c_void_p),
        ("exit", ctypes.c_void_p),
        ("sum_p", ctypes.c_void_p),
        ("members", ctypes.c_void_p),
        ("k", ctypes.c_int64),
        ("ov_ids", ctypes.c_void_p),
        ("ov_exit", ctypes.c_void_p),
        ("ov_sum_p", ctypes.c_void_p),
        ("ov_members", ctypes.c_void_p),
        ("n_ov", ctypes.c_int64),
        ("ov_cap", ctypes.c_int64),
    ]


class _Rule(ctypes.Structure):
    _fields_ = [
        ("min_label", ctypes.c_int64),
        ("max_flow", ctypes.c_int64),
        ("min_improvement", ctypes.c_double),
        ("tie_eps", ctypes.c_double),
        ("bmods", ctypes.c_void_p),
        ("n_bmods", ctypes.c_int64),
    ]


class _Csr(ctypes.Structure):
    _fields_ = [
        ("indptr", ctypes.c_void_p),
        ("nbr", ctypes.c_void_p),
        ("nbr_flow", ctypes.c_void_p),
        ("node_flow", ctypes.c_void_p),
    ]


_lib = ctypes.CDLL(str(LIBRARY_PATH))
_P = ctypes.c_void_p
_lib.repro_sweep.argtypes = [
    ctypes.POINTER(_Csr), _P, _P, ctypes.c_int64, ctypes.POINTER(_Table),
    ctypes.POINTER(_Rule), ctypes.POINTER(ctypes.c_double), ctypes.c_int64,
    _P, _P, ctypes.POINTER(ctypes.c_int64),
]
_lib.repro_sweep.restype = ctypes.c_int64
_lib.repro_score_flows.argtypes = [
    ctypes.POINTER(_Table), ctypes.POINTER(_Rule), ctypes.c_double,
    _P, _P, _P, _P, _P, _P, ctypes.c_int64, _P, _P,
]
_lib.repro_score_flows.restype = ctypes.c_int64


def _ptr(a: np.ndarray, dtype, *, writable: bool = False) -> int:
    """Data pointer of *a* after checking dtype, layout and writability."""
    if a.dtype != dtype or not a.flags.c_contiguous:
        raise ValueError(
            f"sweep kernel needs C-contiguous {np.dtype(dtype)}, "
            f"got {a.dtype} (contiguous={a.flags.c_contiguous})"
        )
    if writable and not a.flags.writeable:
        raise ValueError("sweep kernel needs a writable array")
    return a.ctypes.data


def _check(rc: int) -> None:
    """Raise for a negative kernel return code."""
    if rc == -1:
        raise KeyError(_ERRORS[rc])
    if rc < 0:
        raise RuntimeError(f"sweep kernel: {_ERRORS.get(rc, rc)}")


class SweepKernel:
    """Find-Best-Module over one level's local graph.

    Built once per level (and again after a structural migration); each
    call reads the live ``module_of`` and module table of the
    :class:`~repro.core.swap.LocalModuleState` it is handed.  ``bmods``
    is the sorted array of boundary module ids the min-label rule
    checks (empty when the rule is off).
    """

    def __init__(self, lg, cfg) -> None:
        self._num_sources = lg.num_sources
        self._num_local = lg.num_local
        # Kept referenced: the struct below holds raw pointers into them.
        self._arrays = (
            np.ascontiguousarray(lg.indptr, dtype=np.int64),
            np.ascontiguousarray(lg.nbr, dtype=np.int64),
            np.ascontiguousarray(lg.nbr_flow, dtype=np.float64),
            np.ascontiguousarray(lg.flow, dtype=np.float64),
        )
        indptr, nbr, nbr_flow, flow = self._arrays
        if (
            indptr.size != lg.num_sources + 1
            or indptr[0] != 0 or indptr[-1] != nbr.size
            or bool((np.diff(indptr) < 0).any())
            or nbr_flow.size != nbr.size or flow.size != lg.num_local
            or (nbr.size and (nbr.min() < 0 or nbr.max() >= lg.num_local))
        ):
            raise ValueError("local graph arrays do not line up")
        self._csr = _Csr(*(a.ctypes.data for a in self._arrays))
        self._min_label = int(bool(cfg.min_label))
        self._max_flow = int(cfg.move_rule == "max_flow")
        self._min_improvement = float(cfg.min_improvement)
        self._tie_eps = float(cfg.tie_eps)

    def _rule(self, bmods: np.ndarray) -> _Rule:
        return _Rule(
            self._min_label, self._max_flow, self._min_improvement,
            self._tie_eps, _ptr(bmods, np.int64), bmods.size,
        )

    @staticmethod
    def _table(state, ov_cap: int) -> "tuple[_Table, tuple]":
        """The state's live table plus *ov_cap* slots for new modules.

        The returned arrays must stay referenced for the whole call.
        """
        t = state.table_arrays()
        ov = (
            np.empty(ov_cap, np.int64), np.empty(ov_cap),
            np.empty(ov_cap), np.empty(ov_cap, np.int64),
        )
        tab = _Table(
            _ptr(t.mod_ids, np.int64),
            _ptr(t.exit, np.float64, writable=True),
            _ptr(t.sum_p, np.float64, writable=True),
            _ptr(t.members, np.int64, writable=True), t.mod_ids.size,
            *(a.ctypes.data for a in ov), 0, ov_cap,
        )
        return tab, (t, ov)

    def sweep(
        self, state, bmods: np.ndarray, rows: np.ndarray, *, commit: bool
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Score local source *rows* in order.

        With *commit*, every move is applied to ``state`` (membership,
        table, ``sum_exit_global``) before the next row is scored.
        Returns ``(targets, deltas, work)``: ``targets[i]`` is the module
        row ``i`` moves to, or -1 to stay; ``work`` is the number of
        stored entries scanned.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        n = rows.size
        targets = np.empty(n, np.int64)
        deltas = np.empty(n)
        if n == 0:
            return targets, deltas, 0
        if state.module_of.size != self._num_local:
            raise ValueError("module_of does not match the local graph")
        if rows.min() < 0 or rows.max() >= self._num_sources:
            raise ValueError("rows outside the local graph's sources")
        # A committed move enters at most one new module.
        tab, keep = self._table(state, n if commit else 0)
        sum_exit = ctypes.c_double(state.sum_exit_global)
        work = ctypes.c_int64()
        rc = _lib.repro_sweep(
            self._csr, _ptr(state.module_of, np.int64, writable=True),
            _ptr(rows, np.int64), n, tab, self._rule(bmods), sum_exit,
            int(commit), targets.ctypes.data, deltas.ctypes.data, work,
        )
        if commit:
            # Also on error: keep the state consistent with the moves
            # committed before the failing one.  The modules the call
            # entered are merged into the sorted columns once.
            state.sum_exit_global = sum_exit.value
            state.insert_modules(*(a[: tab.n_ov] for a in keep[1]))
        _check(rc)
        return targets, deltas, int(work.value)

    def score_flows(
        self,
        state,
        bmods: np.ndarray,
        seg_ptr: np.ndarray,
        mods: np.ndarray,
        flows: np.ndarray,
        current: np.ndarray,
        p_u: np.ndarray,
        x_u: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score vertices from pre-aggregated module flows; no commit.

        Vertex ``i`` sits in ``current[i]`` and sends
        ``flows[seg_ptr[i]:seg_ptr[i+1]]`` into the sorted unique
        modules ``mods[...]``.  Returns ``(targets, deltas)`` as
        :meth:`sweep` does.
        """
        n = current.size
        targets = np.empty(n, np.int64)
        deltas = np.empty(n)
        if n == 0:
            return targets, deltas
        if (
            seg_ptr.size != n + 1 or mods.size != flows.size
            or seg_ptr[0] != 0 or seg_ptr[-1] != mods.size
            or bool((np.diff(seg_ptr) < 0).any())
            or not p_u.size == x_u.size == n
        ):
            raise ValueError("segment arrays do not line up")
        tab, _keep = self._table(state, 0)
        _check(_lib.repro_score_flows(
            tab, self._rule(bmods), float(state.sum_exit_global),
            _ptr(seg_ptr, np.int64), _ptr(mods, np.int64),
            _ptr(flows, np.float64), _ptr(current, np.int64),
            _ptr(p_u, np.float64), _ptr(x_u, np.float64), n,
            targets.ctypes.data, deltas.ctypes.data,
        ))
        return targets, deltas
