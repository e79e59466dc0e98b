"""Information swapping — the paper's List 1 + Algorithm 3.

After each local-move phase, ranks must reconcile the module aggregates
their next ΔL evaluations depend on.  The paper's protocol exchanges
*whole community information* of boundary vertices through a
``Module_Info`` record — ``(modID, sumPr, exitPr, numMembers, isSent)``
— where ``isSent`` dedups repeats so the same community's aggregate is
never double-added at a receiver (the Figure 3 failure mode).  Here the
records travel as one array per field.

:class:`LocalModuleState` holds one rank's membership array and its
module table, computes the rank's exact *local contribution* (its own
additive share of every module's aggregates), and implements the
prepare/apply halves of Algorithm 3.  The *table* is the paper's
neighbour-reconstructed estimate (own contribution + every received
contribution), which is what moves are scored against.  It is a
:class:`TableArrays`: four sorted columns, replaced on every rebuild
and updated in place by the compiled sweep (DESIGN.md §3d).

Determinism contract (tested): within a round the accumulation *order*
is pinned — own contribution first, then received batches in ascending
source order (which :meth:`Communicator.exchange` guarantees).
``np.bincount`` on an inverse permutation accumulates each bin
sequentially in entry order, so the folded floats are reproducible to
the last bit regardless of rank count or transport — the same fact
:mod:`repro.core.kernels` relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..partition.distgraph import LocalGraph

__all__ = [
    "Contribution",
    "LocalModuleState",
    "TableArrays",
]

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=np.float64)


@dataclass(frozen=True)
class TableArrays:
    """A rank's module table: sorted ids with parallel aggregates.

    The compiled sweep writes ``exit``/``sum_p``/``members`` in place;
    every other change replaces the whole set.
    """

    mod_ids: np.ndarray  # int64[k], strictly ascending
    exit: np.ndarray  # float64[k]
    sum_p: np.ndarray  # float64[k]
    members: np.ndarray  # int64[k]


def _merged(t: TableArrays, ids, exit_, sum_p, members) -> TableArrays:
    """*t* with the modules *ids* (sorted, none in *t*) merged in."""
    pos = np.searchsorted(t.mod_ids, ids)
    return TableArrays(
        np.insert(t.mod_ids, pos, ids),
        np.insert(t.exit, pos, exit_),
        np.insert(t.sum_p, pos, sum_p),
        np.insert(t.members, pos, members),
    )


@dataclass
class Contribution:
    """A rank's exact additive share of module aggregates.

    ``Σ over ranks of Contribution == true global aggregates`` — this
    invariant (tested) is what makes the exact-codelength reduction and
    the swap protocol sound.
    """

    mod_ids: np.ndarray  # int64[k], sorted unique
    sum_p: np.ndarray  # float64[k]
    exit: np.ndarray  # float64[k]
    members: np.ndarray  # int64[k]

    def total_exit(self) -> float:
        return float(self.exit.sum())


class LocalModuleState:
    """One rank's module bookkeeping for one clustering level.

    Responsibilities:

    * hold ``module_of`` (local-index → global module id),
    * compute the rank's exact :class:`Contribution`,
    * build/refresh the module *table* (estimates used by ΔL),
    * produce and consume Algorithm-3 message batches,
    * track which modules are *boundary* (min-label rule applies).
    """

    def __init__(self, lg: LocalGraph) -> None:
        self.lg = lg
        # Singleton initialization: every vertex its own module, module
        # id = global vertex id (Algorithm 1 lines 7-11).
        self.module_of = lg.global_of.copy()
        self._synced_boundary: np.ndarray | None = None
        # Delta-swap state, columnar: the peer caches are sorted
        # (ids, sum_p, exit, members) columns, the last-shipped
        # contribution is a sorted column set, and the per-destination
        # sent-module sets are sorted id arrays.
        self._peer_cols: dict[
            int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        self._last_cols: "tuple[np.ndarray, ...] | None" = None
        self._sent_to: dict[int, np.ndarray] = {}
        # Vertices whose (flow, member) mass this rank owns exactly once
        # globally: the owned segment plus home-hub copies.
        owned_mask = np.zeros(lg.num_local, dtype=bool)
        owned_mask[: lg.num_owned] = True
        hub_lo = lg.num_owned
        owned_mask[hub_lo : hub_lo + lg.num_hubs] = lg.hub_home
        self._mass_mask = owned_mask
        # Per-entry source local index, precomputed once.
        self._entry_src = np.repeat(
            np.arange(lg.num_sources, dtype=np.int64), np.diff(lg.indptr)
        )
        # The table: global-estimate aggregates per module id.
        self._table = TableArrays(
            _EMPTY_I64, _EMPTY_F64, _EMPTY_F64, _EMPTY_I64
        )
        # Membership sync resolves ghosts by binary search.
        ghost_gids = lg.global_of[lg.ghost_slice()]
        if (ghost_gids[1:] <= ghost_gids[:-1]).any():
            raise ValueError(
                "ghost segment of global_of must be strictly ascending"
            )
        self.sum_exit_global: float = 0.0

    # -- exact local facts --------------------------------------------------
    def contribution(self) -> Contribution:
        """This rank's exact additive share of every local module.

        * ``sum_p``/``members``: owned vertices + home-hub copies only
          (each vertex counted on exactly one rank).
        * ``exit``: every locally *stored* entry ``(s → t)`` with
          endpoints in different modules adds its flow to ``s``'s
          module (each directed entry is stored on exactly one rank).
        """
        lg = self.lg
        mass_idx = np.flatnonzero(self._mass_mask)
        mass_mods = self.module_of[mass_idx]

        mod_src = self.module_of[self._entry_src]
        cross = mod_src != self.module_of[lg.nbr]
        exit_mods = mod_src[cross]
        exit_flows = lg.nbr_flow[cross]
        # Entry-sized temporaries: free them before np.unique allocates
        # its own, which bounds the peak of a level's first round.
        del mod_src, cross

        # bincount-on-inverse rather than np.add.at: same sequential
        # entry-order accumulation (bitwise), an order of magnitude
        # faster.
        all_ids, inv = np.unique(
            np.concatenate([mass_mods, exit_mods]), return_inverse=True
        )
        k = all_ids.size
        inv_mass = inv[: mass_mods.size]
        inv_exit = inv[mass_mods.size :]
        sum_p = np.bincount(inv_mass, weights=lg.flow[mass_idx], minlength=k)
        members = np.bincount(inv_mass, minlength=k).astype(np.int64)
        exit_ = np.bincount(inv_exit, weights=exit_flows, minlength=k)
        return Contribution(
            mod_ids=all_ids, sum_p=sum_p, exit=exit_, members=members
        )

    # -- the table the ΔL kernel reads -----------------------------------------
    def rebuild_table(
        self,
        own: Contribution,
        received: "list[tuple[np.ndarray, ...]]",
        *,
        ghost_singletons: bool = True,
    ) -> None:
        """Algorithm 3 lines 21-32: own contribution + received infos.

        Args:
            own: this rank's exact contribution.
            received: one batch per sending neighbour, in the column
                form :meth:`prepare_swap` ships:
                ``(mod_ids, sum_pr, exit_pr, num_members, is_sent)``.
            ghost_singletons: seed table entries for ghost/hub vertices
                still in singleton modules from static preprocessing
                data (flow / exit0), so round 0 can score moves before
                any info has been swapped.
        """
        batches = []
        for ids, sp, ex, nm, snt in received:
            # is_sent rows keep the id in the union (the receiver
            # keeps the association) but add zero mass (line 29).
            live = ~np.asarray(snt, dtype=bool)
            batches.append((
                np.asarray(ids, dtype=np.int64),
                np.where(live, sp, 0.0),
                np.where(live, ex, 0.0),
                np.where(live, nm, 0),
            ))
        self._rebuild_array(
            own, batches, ghost_singletons=ghost_singletons
        )

    def _rebuild_array(
        self,
        own: Contribution,
        batches: "list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]",
        *,
        ghost_singletons: bool,
    ) -> None:
        """One concatenate + segment-reduce over all column batches.

        Entry order (own first, then *batches* in list order) fixes
        the add sequence, so every accumulated float is reproducible
        bitwise.
        """
        ids_parts = [own.mod_ids]
        sp_parts = [own.sum_p]
        ex_parts = [own.exit]
        nm_parts = [own.members.astype(np.float64)]
        for ids, sp, ex, nm in batches:
            ids_parts.append(ids)
            sp_parts.append(np.asarray(sp, dtype=np.float64))
            ex_parts.append(np.asarray(ex, dtype=np.float64))
            nm_parts.append(np.asarray(nm, dtype=np.float64))
        all_ids = np.concatenate(ids_parts)
        uniq, inv = np.unique(all_ids, return_inverse=True)
        k = uniq.size
        sum_p = np.bincount(
            inv, weights=np.concatenate(sp_parts), minlength=k
        )
        exit_ = np.bincount(
            inv, weights=np.concatenate(ex_parts), minlength=k
        )
        members = np.bincount(
            inv, weights=np.concatenate(nm_parts), minlength=k
        ).astype(np.int64)
        if k == 0:
            sum_p = _EMPTY_F64.copy()
            exit_ = _EMPTY_F64.copy()
            members = _EMPTY_I64.copy()
        table = TableArrays(uniq, exit_, sum_p, members)
        if ghost_singletons:
            lg = self.lg
            idx = np.arange(lg.num_owned, lg.num_local)
            mods = self.module_of[idx]
            sel = mods == lg.global_of[idx]
            if sel.any():
                cand = mods[sel]
                cand_idx = idx[sel]
                # Keep the first occurrence per module id (ascending
                # local index), then seed only the ones the table does
                # not already know.
                cu, first = np.unique(cand, return_index=True)
                miss = ~np.isin(cu, uniq)
                if miss.any():
                    src = cand_idx[first[miss]]
                    table = _merged(
                        table, cu[miss], lg.exit0[src], lg.flow[src], 1
                    )
        self._table = table

    def table_arrays(self) -> TableArrays:
        """The live table (no copy; see :class:`TableArrays`)."""
        return self._table

    def insert_modules(
        self,
        ids: np.ndarray,
        exit_: np.ndarray,
        sum_p: np.ndarray,
        members: np.ndarray,
    ) -> None:
        """Merge modules the table does not know yet into its columns.

        Raises :class:`ValueError` when an id is already in the table
        or repeats within *ids*: either would count a module twice.
        """
        if ids.size == 0:
            return
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        known = self._table.mod_ids
        pos = np.minimum(np.searchsorted(known, ids), known.size - 1)
        if (ids[1:] == ids[:-1]).any() or (
            known.size and (known[pos] == ids).any()
        ):
            raise ValueError("insert_modules: module id already present")
        self._table = _merged(
            self._table, ids, exit_[order], sum_p[order], members[order]
        )

    # -- Algorithm 3: prepare outgoing batches -----------------------------------
    def _own_lookup(
        self, own: Contribution, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Columns of *own* values for *ids* (zeros where absent)."""
        if own.mod_ids.size == 0 or ids.size == 0:
            return (
                np.zeros(ids.size), np.zeros(ids.size),
                np.zeros(ids.size, dtype=np.int64),
                np.zeros(ids.size, dtype=bool),
            )
        pos = np.searchsorted(own.mod_ids, ids)
        pos_c = np.minimum(pos, own.mod_ids.size - 1)
        hit = own.mod_ids[pos_c] == ids
        return (
            np.where(hit, own.sum_p[pos_c], 0.0),
            np.where(hit, own.exit[pos_c], 0.0),
            np.where(hit, own.members[pos_c], 0).astype(np.int64),
            hit,
        )

    def prepare_swap(
        self,
        own: Contribution,
        moved_hub_modules: "set[int] | None" = None,
    ) -> "dict[int, tuple[np.ndarray, ...]]":
        """Lines 1-19: build one ``Module_Info`` batch per neighbour rank.

        For every boundary vertex ghosted on rank ``R``, the *whole*
        community information (this rank's contribution) of the
        vertex's module goes to ``R``; modules of moved delegates go to
        every neighbour.  Repeats within a round are emitted with
        ``is_sent=True`` (the receiver keeps the association but skips
        the numbers) — List 1's dedup mechanism, preserved verbatim so
        the ablation can disable it.

        The per-destination columns come from a group-by over
        ``boundary_local``/``boundary_ranks``; the emission order is
        sorted moved hub modules first, then boundary vertices in
        boundary order — deterministic, so the wire bytes are too.
        Each batch is the List-1 record as columns:
        ``(mod_ids, sum_pr, exit_pr, num_members, is_sent)``.
        """
        lg = self.lg
        groups = lg.boundary_groups()
        hub_arr = (
            np.asarray(sorted(moved_hub_modules), dtype=np.int64)
            if moved_hub_modules else _EMPTY_I64
        )
        bl_mods = self.module_of[lg.boundary_local]
        out: dict[int, tuple[np.ndarray, ...]] = {}
        for dest in lg.neighbor_ranks.tolist():
            pos = groups.get(dest)
            dmods = bl_mods[pos] if pos is not None else _EMPTY_I64
            seq = (
                np.concatenate([hub_arr, dmods]) if hub_arr.size
                else np.ascontiguousarray(dmods)
            )
            if seq.size == 0:
                out[dest] = (
                    np.empty(0, np.int64), np.empty(0), np.empty(0),
                    np.empty(0, np.int64), np.empty(0, bool),
                )
                continue
            _, first = np.unique(seq, return_index=True)
            is_first = np.zeros(seq.size, dtype=bool)
            is_first[first] = True
            sp, ex, nm, _ = self._own_lookup(own, seq)
            # Repeats ship zero mass with is_sent=True (List 1 dedup).
            sp = np.where(is_first, sp, 0.0)
            ex = np.where(is_first, ex, 0.0)
            nm = np.where(is_first, nm, 0)
            out[dest] = (seq, sp, ex, nm, ~is_first)
        return out

    # -- delta variants (cross-round change detection) ----------------------
    #
    # Algorithm 3's ``isSent`` flag prevents the same community
    # aggregate being double-added *within* a round; the natural
    # engineering extension — what any production MPI implementation
    # ships — is to also skip records that have not changed *across*
    # rounds.  The delta variants below send a module's absolute
    # contribution only when it changed (or is new for that
    # destination); receivers keep one cache per peer and *replace*
    # entries on receipt, so repeats are idempotent and the dedup
    # concern disappears by construction.  ``delta_swap=False`` in the
    # config falls back to the paper-literal always-send protocol.

    def prepare_swap_delta(
        self,
        own: Contribution,
        moved_hub_modules: "set[int] | None" = None,
        *,
        refresh_sent: bool = False,
        dests: "list[int] | None" = None,
    ) -> "dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]":
        """Like :meth:`prepare_swap` but only changed/new records.

        Returns per-destination column arrays
        ``(mod_ids, sum_pr, exit_pr, num_members)`` (no ``is_sent``
        column — replace semantics make it moot).

        Args:
            refresh_sent: also re-send every *changed* module to every
                destination that ever received it, not just to
                destinations whose boundary vertices currently sit in
                it.  The normal rounds leave such caches consistently
                stale (an estimate-quality concern only); the dynamic
                repartitioner needs the stronger guarantee because a
                migration moves mass between rank contributions without
                moving it between modules, which would otherwise leave
                the same mass counted from two senders at a receiver.
            dests: explicit destination list overriding
                ``lg.neighbor_ranks`` — the repartitioner must also
                reach formerly-neighbouring ranks that still cache this
                rank's contributions even though no boundary vertex
                couples to them anymore.
        """
        lg = self.lg
        last = self._last_cols
        if last is None:
            changed = own.mod_ids
            vanished = _EMPTY_I64
        else:
            lid, lsp, lex, lnm = last
            if lid.size:
                pos = np.searchsorted(lid, own.mod_ids)
                pos_c = np.minimum(pos, lid.size - 1)
                hit = lid[pos_c] == own.mod_ids
                same = (
                    hit
                    & (lsp[pos_c] == own.sum_p)
                    & (lex[pos_c] == own.exit)
                    & (lnm[pos_c] == own.members)
                )
            else:
                same = np.zeros(own.mod_ids.size, dtype=bool)
            changed = own.mod_ids[~same]
            vanished = lid[~np.isin(lid, own.mod_ids)]
        self._last_cols = (own.mod_ids, own.sum_p, own.exit, own.members)

        groups = lg.boundary_groups()
        hub_arr = (
            np.asarray(sorted(moved_hub_modules), dtype=np.int64)
            if moved_hub_modules else _EMPTY_I64
        )
        bl_mods = self.module_of[lg.boundary_local]
        result: dict[int, tuple[np.ndarray, ...]] = {}
        dest_list = (
            dests if dests is not None else lg.neighbor_ranks.tolist()
        )
        for dest in dest_list:
            sent = self._sent_to.get(dest, _EMPTY_I64)
            pos = groups.get(dest)
            dmods = bl_mods[pos] if pos is not None else _EMPTY_I64
            van = (
                vanished[np.isin(vanished, sent)] if vanished.size
                else _EMPTY_I64
            )
            refresh = (
                changed[np.isin(changed, sent)]
                if refresh_sent and changed.size and sent.size
                else _EMPTY_I64
            )
            seq = np.concatenate([hub_arr, dmods, van, refresh])
            if seq.size == 0:
                continue
            _, first = np.unique(seq, return_index=True)
            first.sort()  # first occurrences, in emission order
            ids = seq[first]
            keep = (
                np.isin(ids, changed)
                | np.isin(ids, vanished)
                | ~np.isin(ids, sent)
            )
            ids = np.ascontiguousarray(ids[keep])
            if ids.size == 0:
                continue
            sp, ex, nm, _ = self._own_lookup(own, ids)
            result[dest] = (ids, sp, ex, nm)
            self._sent_to[dest] = np.union1d(sent, ids)
        return result

    def apply_swap_delta(
        self,
        received: "dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]",
    ) -> None:
        """Replace the cached contributions the senders refreshed."""
        for src, (ids, sp, ex, nm) in received.items():
            old = self._peer_cols.get(src)
            if old is not None and old[0].size:
                stay = ~np.isin(old[0], ids)
                ids = np.concatenate([old[0][stay], ids])
                sp = np.concatenate([old[1][stay], sp])
                ex = np.concatenate([old[2][stay], ex])
                nm = np.concatenate([old[3][stay], nm])
            srt = np.argsort(ids, kind="stable")
            self._peer_cols[src] = (
                ids[srt], sp[srt], ex[srt], nm[srt]
            )

    def rebuild_table_from_caches(
        self, own: Contribution, *, ghost_singletons: bool = True
    ) -> None:
        """Table = own contribution + every peer's cached contribution.

        Peers are folded in ascending source-rank order so the
        per-module accumulation sequence (and hence every float,
        bitwise) is independent of message arrival order.
        """
        batches = [
            self._peer_cols[src] for src in sorted(self._peer_cols)
        ]
        self._rebuild_array(
            own, batches, ghost_singletons=ghost_singletons
        )

    def prepare_membership_sync_delta(
        self,
    ) -> "dict[int, tuple[np.ndarray, np.ndarray]]":
        """Membership sync restricted to boundary vertices that moved."""
        lg = self.lg
        if self._synced_boundary is None:
            # First sync: everything is "changed" relative to nothing.
            self._synced_boundary = np.full(lg.boundary_local.size, -1,
                                            dtype=np.int64)
        bl_mods = self.module_of[lg.boundary_local]
        moved = bl_mods != self._synced_boundary
        self._synced_boundary[moved] = bl_mods[moved]
        groups = lg.boundary_groups()
        out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for dest, pos in groups.items():
            sel = pos[moved[pos]]
            if sel.size == 0:
                continue
            out[dest] = (
                lg.global_of[lg.boundary_local[sel]],
                bl_mods[sel],
            )
        return out

    # -- boundary membership sync --------------------------------------------------
    def prepare_membership_sync(self) -> "dict[int, tuple[np.ndarray, np.ndarray]]":
        """Per ghosting rank: ``(global vertex ids, module ids)`` arrays."""
        lg = self.lg
        bl_mods = self.module_of[lg.boundary_local]
        groups = lg.boundary_groups()
        return {
            dest: (
                lg.global_of[lg.boundary_local[pos]],
                bl_mods[pos],
            )
            for dest, pos in groups.items()
        }

    def apply_membership_sync(
        self, received: "list[tuple[np.ndarray, np.ndarray]]"
    ) -> list[int]:
        """Install received ghost module ids (receiver half of the sync).

        Returns the local indices of ghosts whose module actually
        changed — the active-set pruning needs exactly that signal.
        """
        lg = self.lg
        ghost_base = lg.num_owned + lg.num_hubs
        ghost_gids = lg.global_of[lg.ghost_slice()]
        changed: list[int] = []
        for gids, mods in received:
            if gids.size == 0 or ghost_gids.size == 0:
                continue
            pos = np.searchsorted(ghost_gids, gids)
            pos_c = np.minimum(pos, ghost_gids.size - 1)
            hit = ghost_gids[pos_c] == gids
            li = ghost_base + pos_c[hit]
            new_mods = mods[hit]
            diff = self.module_of[li] != new_mods
            if diff.any():
                tgt = li[diff]
                self.module_of[tgt] = new_mods[diff]
                changed.extend(tgt.tolist())
        return changed

    # -- boundary-module tracking (min-label rule) ------------------------------------
    def boundary_modules(self) -> np.ndarray:
        """Sorted ids of modules touching a ghost or a boundary vertex.

        A move *into* one of these is a cross-rank decision, so the
        min-label anti-bouncing rule applies to it (§3.4).
        """
        lg = self.lg
        return np.unique(np.concatenate([
            self.module_of[lg.ghost_slice()],
            self.module_of[lg.boundary_local],
            self.module_of[lg.hub_slice()],
        ]))
