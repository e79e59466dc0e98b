"""End-to-end round throughput: typed frames vs the pickle oracle.

Guards the tentpole of the typed frame codec: one full distributed
round's message complement — membership churn, sparse membership-sync
exchange, delegate-proposal allgather, full swap-batch exchange —
driven through :func:`repro.simmpi.run_spmd` at 4 ranks over the
local views of a 50k-vertex delegate-partitioned scale-free graph.
The identical precomputed payload schedule runs once per copy mode,
so both modes apply the same moves and the decoded values must match
bitwise (asserted via checksums computed outside the timed region —
reading a zero-copy frame view costs the same as reading pickle's
copied array, so the placement favours neither codec).

Asserted invariants:

* median speedup of ``copy_mode="frames"`` over ``"pickle"`` >= 2x;
* equal per-rank move counts and bitwise-equal checksums;
* per-rank metered logical bytes under frames <= the pickle baseline
  (equal by construction — the logical meter is codec-independent).

Results land in ``BENCH_wire.json`` at the repo root;
``repro.bench.export.merge_bench_reports`` folds every
``BENCH_*.json`` into one trajectory report.
"""

import statistics
import time

import numpy as np
import pytest

from repro.bench.export import result_to_json
from repro.core import FlowNetwork
from repro.core.swap import LocalModuleState
from repro.graph import barabasi_albert
from repro.partition import delegate_partition, local_views_delegate
from repro.simmpi import run_spmd

from conftest import bench_path

N_VERTICES = 50_000
ATTACH = 5
NRANKS = 4
D_HIGH = 64
N_ROUNDS = 8
CHURN_DIV = 2  # heavy churn: num_owned // 2 movers per rank per round
N_PROPOSALS = 30_000  # delegate-proposal columns gathered per rank
N_REPS = 5
MIN_SPEEDUP = 2.0


def _build_workload():
    """Precompute every payload a round ships, outside the clock.

    Runs the real swap protocol loopback once to capture, per round
    and per rank, the outgoing membership-sync columns and the full
    ``prepare_swap`` batches, plus synthetic delegate-proposal columns
    (hubs, deltas, targets) for the allgather leg.  The timed region
    then only moves bytes — the workload is transport-dominated by
    construction.
    """
    g = barabasi_albert(N_VERTICES, ATTACH, seed=42)
    net = FlowNetwork.from_graph(g)
    dp = delegate_partition(g, NRANKS, d_high=D_HIGH)
    views = local_views_delegate(net, dp)

    rng = np.random.default_rng(7)
    schedule, proposals = [], []
    for _ in range(N_ROUNDS):
        per_rank, prop_rank = [], []
        for v in views:
            n_moves = max(v.num_owned // CHURN_DIV, 1)
            movers = rng.integers(0, v.num_owned, size=n_moves)
            targets = v.global_of[
                rng.integers(0, v.num_local, size=n_moves)
            ]
            per_rank.append((movers, targets))
            prop_rank.append((
                rng.integers(0, N_VERTICES, size=N_PROPOSALS),
                rng.random(N_PROPOSALS),
                rng.integers(0, N_VERTICES, size=N_PROPOSALS),
            ))
        schedule.append(per_rank)
        proposals.append(prop_rank)

    states = [LocalModuleState(v) for v in views]
    sync_payloads, swap_payloads = [], []
    for per_rank in schedule:
        for st, (movers, targets) in zip(states, per_rank):
            st.module_of[movers] = targets
        sync = [st.prepare_membership_sync_delta() for st in states]
        sync_payloads.append(sync)
        for dest in range(NRANKS):
            inbox = [
                sync[src][dest]
                for src in range(NRANKS)
                if src != dest and dest in sync[src]
            ]
            states[dest].apply_membership_sync(inbox)
        owns = [st.contribution() for st in states]
        swap_payloads.append(
            [st.prepare_swap(own) for st, own in zip(states, owns)]
        )
    return schedule, proposals, sync_payloads, swap_payloads


def _make_prog(schedule, proposals, sync_payloads, swap_payloads):
    def prog(comm):
        inbox, gathered = [], []
        moves = 0
        comm.barrier()
        t0 = time.perf_counter()
        for rnd in range(N_ROUNDS):
            movers, _targets = schedule[rnd][comm.rank]
            moves += movers.size
            msgs = {
                d: c
                for d, c in sync_payloads[rnd][comm.rank].items()
                if d != comm.rank
            }
            inbox.append(comm.exchange(msgs))
            gathered.append(comm.allgather(proposals[rnd][comm.rank]))
            msgs = {
                d: c
                for d, c in swap_payloads[rnd][comm.rank].items()
                if d != comm.rank
            }
            inbox.append(comm.exchange(msgs))
        elapsed = time.perf_counter() - t0
        comm.barrier()
        # Value-identity checksum over everything that crossed the
        # wire, in deterministic order (ascending sources / ranks).
        acc = np.float64(0.0)
        for got in inbox:
            for src in sorted(got):
                for c in got[src]:
                    acc += np.asarray(c).sum(dtype=np.float64)
        for parts in gathered:
            for cols in parts:
                for c in cols:
                    acc += np.asarray(c).sum(dtype=np.float64)
        return moves, float(acc), elapsed

    return prog


def wire_throughput() -> dict:
    prog = _make_prog(*_build_workload())

    for mode in ("pickle", "frames"):  # warm both code paths
        run_spmd(prog, NRANKS, copy_mode=mode)

    times: dict = {"pickle": [], "frames": []}
    outcomes: dict = {}
    ledgers: dict = {}
    for _rep in range(N_REPS):
        for mode in ("pickle", "frames"):
            res = run_spmd(prog, NRANKS, copy_mode=mode)
            times[mode].append(max(r[2] for r in res.results))
            outcomes[mode] = [(r[0], r[1]) for r in res.results]
            ledgers[mode] = res.ledger

    rows = []
    for mode in ("pickle", "frames"):
        med = statistics.median(times[mode])
        ledger = ledgers[mode]
        rows.append({
            "copy_mode": mode,
            "median_s": med,
            "rounds_per_s": N_ROUNDS / med,
            "all_s": sorted(times[mode]),
            "physical_bytes_per_rank": [
                ledger.for_rank(r).total_bytes_sent
                for r in range(NRANKS)
            ],
            "logical_bytes_per_rank": [
                ledger.for_rank(r).total_logical_bytes
                for r in range(NRANKS)
            ],
            "moves_per_rank": [m for m, _c in outcomes[mode]],
        })
    speedup = rows[0]["median_s"] / rows[1]["median_s"]
    rows[1]["speedup"] = speedup

    lines = [
        f"wire round throughput, n={N_VERTICES} BA(m={ATTACH}), "
        f"{NRANKS} ranks, {N_ROUNDS} rounds, median of {N_REPS}"
    ]
    for r in rows:
        lines.append(
            f"  {r['copy_mode']:>6}  {r['rounds_per_s']:>8.2f} rounds/s"
            f"  ({r['median_s'] * 1e3:.1f} ms"
            + (f", speedup {r['speedup']:.2f}x)" if "speedup" in r
               else ")")
        )
    return {
        "text": "\n".join(lines),
        "rows": rows,
        "moves_equal": (
            [m for m, _ in outcomes["pickle"]]
            == [m for m, _ in outcomes["frames"]]
        ),
        "checksums_equal": (
            [c for _, c in outcomes["pickle"]]
            == [c for _, c in outcomes["frames"]]
        ),
        "n": N_VERTICES,
        "nranks": NRANKS,
        "rounds": N_ROUNDS,
        "proposals_per_rank": N_PROPOSALS,
    }


@pytest.mark.throughput_guard
def test_wire_throughput(run_once):
    out = run_once(wire_throughput)
    print("\n" + out["text"])
    assert out["moves_equal"], "copy modes applied different move counts"
    assert out["checksums_equal"], "decoded values diverged across modes"

    pickle_row, frames_row = out["rows"]
    assert frames_row["speedup"] >= MIN_SPEEDUP, (
        f"frames/pickle speedup {frames_row['speedup']:.2f} "
        f"< {MIN_SPEEDUP}"
    )
    # Logical traffic is codec-independent; frames must not inflate it.
    for fb, pb in zip(
        frames_row["logical_bytes_per_rank"],
        pickle_row["logical_bytes_per_rank"],
    ):
        assert fb <= pb

    result_to_json(out, bench_path("wire"))
