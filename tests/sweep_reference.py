"""Scalar Find-Best-Module reference for the compiled sweep kernel.

``_score_candidates``, ``_plogp_s``, ``_local_module_flows`` and
``_evaluate_move`` are the one-vertex-at-a-time Python evaluator the
distributed solver used before its sweep moved into
``repro/core/sweepkernel.c``, kept verbatim apart from reading the
module table through :class:`_DictTable`, the reference's own
``{module id → [q, p, n]}`` copy of it.  :class:`ReferenceSweep` wraps
them in the :class:`repro.core.sweepkernel.SweepKernel` interface, so a
test can compare the kernel against it call by call, or run a whole
solve on it by patching ``repro.core.distributed.SweepKernel``.

:func:`sweep_scalar` is the same kind of reference for the sequential
solver: the one-vertex-at-a-time sweep its blocked
``repro.core.sequential._sweep_batched`` must reproduce move for move.
A test patches it in place of ``_sweep_batched`` to run a whole solve
on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import InfomapConfig
from repro.core.kernels import aggregate_module_flows
from repro.core.moves import best_move
from repro.core.swap import LocalModuleState


def sweep_scalar(network, membership, stats, order, config):
    """Sequential sweep scoring one vertex at a time with ``best_move``.

    Same signature as ``repro.core.sequential._sweep_batched`` (without
    its block size); returns the number of committed moves.
    """
    moved = 0
    for u in order:
        prop = best_move(
            network, membership, stats, int(u),
            min_improvement=config.min_improvement,
        )
        if prop.is_move:
            stats.apply_move(
                old=prop.current, new=prop.target,
                p_u=prop.p_u, x_u=prop.x_u,
                d_old=prop.d_old, d_new=prop.d_new,
            )
            membership[u] = prop.target
            moved += 1
    return moved


class _DictTable:
    """The reference's own module table, one dict entry per module.

    Built from ``state.table_arrays()`` at the start of a call; a
    committing call writes it back at the end (known modules in place,
    new ones through ``state.insert_modules`` in entry order).
    """

    def __init__(self, state: LocalModuleState) -> None:
        t = state.table_arrays()
        self._known = t.mod_ids.size
        self._rows = {
            m: [q, p, n]
            for m, q, p, n in zip(
                t.mod_ids.tolist(), t.exit.tolist(), t.sum_p.tolist(),
                t.members.tolist(),
            )
        }

    def get_q(self, mod_id: int, default: float = 0.0) -> float:
        row = self._rows.get(mod_id)
        return default if row is None else row[0]

    def get_p(self, mod_id: int, default: float = 0.0) -> float:
        row = self._rows.get(mod_id)
        return default if row is None else row[1]

    def get_n(self, mod_id: int, default: int = 0) -> int:
        row = self._rows.get(mod_id)
        return default if row is None else row[2]

    def apply_move(
        self,
        old: int,
        new: int,
        *,
        p_u: float,
        x_u: float,
        d_old: float,
        d_new: float,
    ) -> float:
        """Commit one vertex move; returns the Σ-exit change.

        Raises :class:`KeyError` when *old* is unknown.
        """
        if old not in self._rows:
            raise KeyError(
                f"apply_move out of unknown module {old}: the mover's "
                f"own mass should have placed it in the table"
            )
        q_old, p_old, n_old = self._rows[old]
        q_new, p_new, n_new = self._rows.get(new, (0.0, 0.0, 0))
        q_old_after = q_old - x_u + 2.0 * d_old
        q_new_after = q_new + x_u - 2.0 * d_new
        self._rows[old] = [q_old_after, p_old - p_u, n_old - 1]
        self._rows[new] = [q_new_after, p_new + p_u, n_new + 1]
        return (q_old_after - q_old) + (q_new_after - q_new)

    def columns(self) -> tuple[np.ndarray, ...]:
        """``(mod_ids, exit, sum_p, members)`` sorted by module id."""
        rows = sorted(self._rows.items())
        return (
            np.array([m for m, _r in rows], dtype=np.int64),
            np.array([r[0] for _m, r in rows], dtype=np.float64),
            np.array([r[1] for _m, r in rows], dtype=np.float64),
            np.array([r[2] for _m, r in rows], dtype=np.int64),
        )

    def write_back(self, state: LocalModuleState) -> None:
        t = state.table_arrays()
        rows = list(self._rows.items())
        for col, j in ((t.exit, 0), (t.sum_p, 1), (t.members, 2)):
            col[:] = [r[j] for _m, r in rows[: self._known]]
        new = rows[self._known:]
        state.insert_modules(
            np.array([m for m, _r in new], dtype=np.int64),
            np.array([r[0] for _m, r in new], dtype=np.float64),
            np.array([r[1] for _m, r in new], dtype=np.float64),
            np.array([r[2] for _m, r in new], dtype=np.int64),
        )


@dataclass(frozen=True)
class _Decision:
    local_idx: int
    current: int
    target: int
    delta: float
    p_u: float
    x_u: float
    d_old: float
    d_new: float


def _score_candidates(
    state: LocalModuleState,
    table: _DictTable,
    cfg: InfomapConfig,
    boundary_mods: "set[int]",
    *,
    li: int,
    current: int,
    uniq: np.ndarray,
    agg: np.ndarray,
    p_u: float,
    x_u: float,
) -> "_Decision | None":
    """Score the candidate modules in ``(uniq, agg)`` and pick a move.

    ``uniq`` must be sorted unique module ids with ``agg`` the vertex's
    link flow into each; the anti-bouncing rules of §3.4 are applied
    here so both the low-degree sweep and the delegate-consensus path
    behave identically.
    """
    get_q, get_p, get_n = table.get_q, table.get_p, table.get_n
    pos = np.searchsorted(uniq, current)
    d_old = float(agg[pos]) if pos < uniq.size and uniq[pos] == current else 0.0

    cand_mask = uniq != current
    if cfg.min_label and boundary_mods:
        # §3.4 minimum-label strategy (after Lu et al.): the bouncing
        # failure is two vertices *swapping* communities in the same
        # synchronized round, which (for strictly improving greedy
        # moves) requires both sides to be singleton modules.  Such a
        # merge is therefore only admitted toward the smaller module id
        # when the target is a boundary community; one direction
        # proceeds, the swap cannot.  All other moves stay unrestricted
        # so mass is not ratcheted into small-id modules.
        if get_n(current, 1) == 1:
            for i in np.flatnonzero(cand_mask):
                m = int(uniq[i])
                if (
                    m > current
                    and m in boundary_mods
                    and get_n(m, 1) == 1
                ):
                    cand_mask[i] = False
    if not cand_mask.any():
        return None
    cand = uniq[cand_mask]
    cand_flow = agg[cand_mask]

    if cfg.move_rule == "max_flow":
        # GossipMap-family rule (§2.3): adopt the neighbouring module
        # that receives the most of this vertex's link flow, provided
        # it strictly beats the flow kept by the current module.  No
        # codelength is consulted.
        best_idx = int(np.argmax(cand_flow))
        best_flow = float(cand_flow[best_idx])
        if best_flow <= d_old + 1e-15:
            return None
        # Deterministic tie-break toward the smaller module id.
        tied = np.flatnonzero(cand_flow >= best_flow - 1e-15)
        best_idx = int(tied[0])
        return _Decision(
            local_idx=li, current=current, target=int(cand[best_idx]),
            delta=0.0, p_u=p_u, x_u=x_u, d_old=d_old,
            d_new=float(cand_flow[best_idx]),
        )

    q_old = get_q(current, 0.0)
    p_old = get_p(current, 0.0)

    # Scalar math (math.log2) beats numpy temporaries by ~10x on the
    # 2-8 candidate modules a real vertex has; the vectorized kernel in
    # mapequation remains the reference the tests cross-check against.
    log2 = math.log2
    sum_exit = state.sum_exit_global
    q_old_after = q_old - x_u + 2.0 * d_old
    p_old_after = p_old - p_u
    base_old = (
        -2.0 * (_plogp_s(q_old_after, log2) - _plogp_s(q_old, log2))
        + _plogp_s(q_old_after + p_old_after, log2)
        - _plogp_s(q_old + p_old, log2)
    )
    ge = get_q
    gp = get_p

    deltas: list[float] = []
    for m, d_new in zip(cand.tolist(), cand_flow.tolist()):
        q_new = ge(m, 0.0)
        p_new = gp(m, 0.0)
        q_new_after = q_new + x_u - 2.0 * d_new
        se_after = sum_exit + (q_old_after - q_old) + (q_new_after - q_new)
        deltas.append(
            _plogp_s(se_after, log2) - _plogp_s(sum_exit, log2)
            + base_old
            - 2.0 * (_plogp_s(q_new_after, log2) - _plogp_s(q_new, log2))
            + _plogp_s(q_new_after + p_new + p_u, log2)
            - _plogp_s(q_new + p_new, log2)
        )

    best_idx = min(range(len(deltas)), key=deltas.__getitem__)
    best_delta = deltas[best_idx]
    if best_delta >= -cfg.min_improvement:
        return None

    target = int(cand[best_idx])
    if cfg.min_label and target in boundary_mods:
        # Near-ties also break toward the minimum label, so that two
        # ranks scoring the same vertex pick the same winner.
        for i, dl in enumerate(deltas):  # cand ascends by module id
            if dl <= best_delta + cfg.tie_eps:
                best_idx = i
                break
        best_delta = deltas[best_idx]
        target = int(cand[best_idx])

    return _Decision(
        local_idx=li, current=current, target=target, delta=best_delta,
        p_u=p_u, x_u=x_u, d_old=d_old, d_new=float(cand_flow[best_idx]),
    )




def _plogp_s(x: float, log2=math.log2) -> float:
    """Scalar ``x log2 x`` with 0·log0 = 0 and negative-dust clamping."""
    return x * log2(x) if x > 1e-300 else 0.0


def _local_module_flows(
    state: LocalModuleState, li: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Vertex *li*'s locally-stored link flow per neighbouring module.

    Returns ``(sorted module ids, flows, x_u_local)``; self-loops are
    excluded.  For owned low-degree vertices this is the vertex's full
    adjacency (delegate placement guarantees it); for hub copies it is
    the local subset.
    """
    lg = state.lg
    nbrs, flows = lg.neighbors_of(li)
    nonself = nbrs != li
    if not nonself.all():
        nbrs = nbrs[nonself]
        flows = flows[nonself]
    if nbrs.size == 0:
        return np.empty(0, np.int64), np.empty(0), 0.0
    # Shared with the sequential scalar path and (bitwise, see the
    # contract on aggregate_module_flows) with the batch kernel's
    # segment reduction — so the paths cannot drift apart again.
    return aggregate_module_flows(state.module_of[nbrs], flows)



def _evaluate_move(
    state: LocalModuleState,
    table: _DictTable,
    li: int,
    cfg: InfomapConfig,
    boundary_mods: "set[int]",
) -> "_Decision | None":
    """Best strictly-improving move for local vertex *li*, or None.

    Mirrors the sequential kernel but reads module aggregates from the
    rank's table (own contribution + swapped neighbour contributions)
    and applies the anti-bouncing rules to boundary targets.
    """
    uniq, agg, x_u = _local_module_flows(state, li)
    if uniq.size == 0:
        return None
    return _score_candidates(
        state, table, cfg, boundary_mods,
        li=li, current=int(state.module_of[li]),
        uniq=uniq, agg=agg,
        p_u=float(state.lg.flow[li]), x_u=x_u,
    )


# ---------------------------------------------------------------------------
# Exact global codelength (hash-reduction over module contributions)


class ReferenceSweep:
    """The scalar loop behind the :class:`SweepKernel` interface.

    ``table`` is the :class:`_DictTable` of the last call, kept so a
    test can compare a table against it without going through
    ``LocalModuleState``.
    """

    def __init__(self, lg, cfg: InfomapConfig) -> None:
        self._lg = lg
        self._cfg = cfg
        self.table: "_DictTable | None" = None

    def sweep(self, state, bmods, rows, *, commit):
        bset = set(np.asarray(bmods).tolist())
        table = self.table = _DictTable(state)
        n = len(rows)
        targets = np.full(n, -1, dtype=np.int64)
        deltas = np.zeros(n)
        work = 0
        for i, li in enumerate(rows):
            li = int(li)
            work += int(self._lg.indptr[li + 1] - self._lg.indptr[li])
            dec = _evaluate_move(state, table, li, self._cfg, bset)
            if dec is None:
                continue
            targets[i] = dec.target
            deltas[i] = dec.delta
            if commit:
                state.module_of[dec.local_idx] = dec.target
                state.sum_exit_global += table.apply_move(
                    dec.current, dec.target,
                    p_u=dec.p_u, x_u=dec.x_u,
                    d_old=dec.d_old, d_new=dec.d_new,
                )
        if commit:
            table.write_back(state)
        return targets, deltas, work

    def score_flows(self, state, bmods, seg_ptr, mods, flows, current, p_u, x_u):
        bset = set(np.asarray(bmods).tolist())
        table = _DictTable(state)
        n = len(current)
        targets = np.full(n, -1, dtype=np.int64)
        deltas = np.zeros(n)
        for i in range(n):
            a, b = int(seg_ptr[i]), int(seg_ptr[i + 1])
            dec = _score_candidates(
                state, table, self._cfg, bset,
                li=i, current=int(current[i]),
                uniq=mods[a:b], agg=flows[a:b],
                p_u=float(p_u[i]), x_u=float(x_u[i]),
            )
            if dec is not None:
                targets[i] = dec.target
                deltas[i] = dec.delta
        return targets, deltas
