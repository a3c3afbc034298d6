"""The PARED driver: the solve→estimate→adapt→repartition→migrate loop of
Section 2, run SPMD over the simulated runtime.

``run_pared`` launches ``p`` ranks.  Rank ``coordinator`` plays ``P_C``: it
computes the initial partition of the coarse dual graph, maintains ``G``
from the weight deltas of phases P1/P2, repartitions it when the measured
imbalance exceeds the trigger, and directs tree migrations (P3).  All other
phases run symmetrically on every rank.

The coordinator's copy of ``G`` is assembled *only* from P2 messages — it
never peeks at the replica — so the test-suite can verify the distributed
weight protocol against the directly computed dual graph.  (The single
exception is coordinator *failover*: a freshly promoted ``P_C`` bootstraps
the recovery re-assignment from its replica, then rebuilds ``G`` from full
P2 reports on the next round.)

Crash survival (``ParedConfig(recover=True)``): every rank checkpoints its
protocol state at each round barrier (:class:`~repro.runtime.recovery.
CheckpointStore`).  When a peer dies, the runtime raises
:class:`~repro.runtime.recovery.PeerCrashed` from the survivors' blocked
receives; they then flush their channels, agree on the newest checkpoint
every survivor holds, re-assign the dead rank's coarse roots via the
ordinary repartition/migration machinery (tree payloads owed by the dead
rank are reconstructed from the replicated mesh), and replay the
interrupted round with ``p-1`` ranks.  All of it is deterministic given the
fault plan's seed, so two runs of the same configuration produce identical
recovered histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from repro.core.pnr import PNR
from repro.graph.csr import WeightedGraph
from repro.mesh.adapt import AdaptiveMesh
from repro.mesh.dualgraph import (
    coarse_dual_graph,
    coarse_root_centroids,
    leaf_assignment_from_roots,
)
from repro.mesh.metrics import cut_size, shared_vertex_count
from repro.pared.distmesh import DistributedMesh
from repro.pared.migrate import execute_migration, plan_recovery_assignment
from repro.pared.weights import (
    diff_weight_report,
    full_weight_report,
    keep_last,
    merge_fresh_values,
    split_edge_keys,
)
from repro.partition.distributed import (
    DKLConfig,
    dkl_ml_refine_comm,
    dkl_refine_comm,
)
from repro.partition.registry import make_repartitioner
from repro.perf import PERF
from repro.runtime.faults import FaultPlan
from repro.runtime.recovery import (
    NO_CHECKPOINT,
    CheckpointStore,
    PeerCrashed,
    RoundCheckpoint,
    agree_replay_round,
    compact_owner,
    expand_owner,
    flush_channels,
)
from repro.runtime.simmpi import spmd_run
from repro.testing import (
    check_dual_graph_weights,
    check_halo_weights,
    check_history_agreement,
    check_migration_conservation,
    check_monotone_refinement,
    check_partition_validity,
    check_recovery_partition,
    check_replica_agreement,
)

#: collective-commit tag: no rank returns before every live rank finished
COMMIT_TAG = 73

#: strategies that run the decentralized round shape (neighbor halo P2,
#: SPMD tournament P3, no coordinator graph)
_DKL_FAMILY = ("dkl", "dkl-ml")


@dataclass
class ParedConfig:
    """Configuration of a PARED run.

    Attributes
    ----------
    p:
        Number of ranks.
    make_mesh:
        Factory returning the initial :class:`AdaptiveMesh` (called once per
        rank; must be deterministic so replicas agree).
    marker:
        ``marker(amesh, round) -> (refine_leaf_ids, coarsen_leaf_ids)``.
        Conceptually each rank evaluates it on owned leaves; determinism
        lets every rank call it on the replica and keep only owned ids.
    rounds:
        Number of adapt/repartition rounds.
    pnr:
        The repartitioner (Equation 1 parameters).
    imbalance_trigger:
        Repartition only when the coordinator's measured imbalance exceeds
        this (the paper's "user-supplied workload imbalance").
    coordinator:
        Rank playing ``P_C``.  If it dies (with ``recover=True``) the
        lowest surviving rank is promoted.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` perturbing the
        simulated wire (``None`` — the default — keeps the runtime on its
        original zero-overhead path).
    audit:
        When True, every round ends with the :mod:`repro.testing`
        invariant checks (partition validity, replica agreement, migration
        conservation, dual-graph weight consistency, monotone-or-rollback
        refinement); violations raise
        :class:`~repro.testing.InvariantViolation`.  Audit traffic is
        labelled phase ``audit`` so P0–P3 accounting stays clean.
    recover:
        When True, a rank dying of an injected crash or retry exhaustion is
        survived: the remaining ranks checkpoint/replay the round and adopt
        the dead rank's trees (see the module docstring).  When False (the
        default) a crash surfaces as a clean
        :class:`~repro.runtime.faults.SimRankCrashed`, exactly as before.
    transport:
        Wire backend for the ranks: ``"thread"`` (default), ``"shm"``
        (one OS process per rank from a persistent rank pool, exchanging
        data frames through shared-memory rings — real multi-core
        wall-clock, see :mod:`repro.runtime.shm`; ``"process"`` is an
        alias), or ``None`` to defer to the ``REPRO_TRANSPORT``
        environment variable.
        ``faults``/``recover`` require the thread backend (see
        :func:`~repro.runtime.transport.resolve_backend`).
    partitioner:
        Repartitioning strategy by registry name
        (:data:`repro.partition.PARTITIONERS`): ``"pnr"`` (default — the
        paper's Equation-1 multilevel KL on the coordinator), ``"mlkl"``
        (scratch Multilevel-KL, label-aligned), ``"sfc"`` (Morton/Hilbert
        space-filling-curve splitting of the coarse-root centroids —
        O(n log n), incremental, the cheap high-throughput baseline), or
        ``"dkl"`` (distributed boundary refinement,
        :mod:`repro.partition.distributed`), or ``"dkl-ml"`` (its
        multilevel flavour: intra-part coarsening around the same
        tournament).  Under the dkl family the round is restructured: P2
        weight exchange is neighbor-to-neighbor halo traffic instead of
        all-to-coordinator, the coordinator keeps only the O(p) scalar
        imbalance check, and refinement runs SPMD on every rank (phase
        label ``dkl``).
    sfc_curve:
        Curve of the ``sfc`` strategy: ``"morton"`` (default) or
        ``"hilbert"``.  Ignored by the graph-based strategies.
    """

    p: int
    make_mesh: Callable[[], AdaptiveMesh]
    marker: Callable
    rounds: int = 4
    pnr: PNR = field(default_factory=PNR)
    imbalance_trigger: float = 0.05
    coordinator: int = 0
    faults: Optional[FaultPlan] = None
    audit: bool = False
    recover: bool = False
    transport: Optional[str] = None
    partitioner: str = "pnr"
    sfc_curve: str = "morton"


class _CoordinatorGraph:
    """P_C's view of ``G``, built purely from packed P2 weight messages.

    State is struct-of-arrays: a dense vertex-weight vector plus sorted
    packed edge keys (:func:`~repro.pared.weights.edge_keys`) with aligned
    weights — merges and deletions are sorted-int64 array ops, no per-entry
    Python loops.
    """

    def __init__(self, n_roots: int):
        self.n = n_roots
        self.vwts = np.zeros(n_roots)
        self.ekeys = np.empty(0, dtype=np.int64)
        self.ewts = np.empty(0, dtype=np.float64)

    def merge(self, messages) -> None:
        """Apply one round's deltas.  A key in a ``v_dead``/``e_dead``
        array is a *tombstone*: the reporter's owned set no longer contains
        it (the root was handed to another rank, or coarsening collapsed it
        away).  Values are applied first and a tombstone only wins when no
        message of the same batch re-reported the key, so an ownership
        handoff — old owner sending the tombstone, new owner the fresh
        value — merges to the same state in any arrival order.
        """
        fv_ids = np.concatenate([m["v_ids"] for m in messages])
        fv_wts = np.concatenate([m["v_wts"] for m in messages])
        fe_keys = np.concatenate([m["e_keys"] for m in messages])
        fe_wts = np.concatenate([m["e_wts"] for m in messages])
        dv = np.concatenate([m["v_dead"] for m in messages])
        de = np.concatenate([m["e_dead"] for m in messages])
        uids, uw = keep_last(fv_ids, fv_wts)
        self.vwts[uids] = uw
        self.vwts[np.setdiff1d(dv, fv_ids)] = 0.0
        self.ekeys, self.ewts = merge_fresh_values(
            self.ekeys, self.ewts, fe_keys, fe_wts
        )
        dead_e = np.setdiff1d(de, fe_keys)
        if dead_e.size:
            keep = np.isin(self.ekeys, dead_e, invert=True)
            self.ekeys = self.ekeys[keep]
            self.ewts = self.ewts[keep]

    def snapshot(self):
        """Checkpointable copy of the graph state."""
        return self.vwts.copy(), (self.ekeys.copy(), self.ewts.copy())

    @classmethod
    def from_snapshot(cls, n_roots: int, vwts, edges) -> "_CoordinatorGraph":
        g = cls(n_roots)
        g.vwts = np.asarray(vwts, dtype=float).copy()
        ekeys, ewts = edges
        g.ekeys = np.asarray(ekeys, dtype=np.int64).copy()
        g.ewts = np.asarray(ewts, dtype=np.float64).copy()
        return g

    def graph(self) -> WeightedGraph:
        a, b = split_edge_keys(self.ekeys, self.n)
        edges = np.column_stack([a, b])
        return WeightedGraph.from_edges(self.n, edges, self.ewts.copy(), self.vwts.copy())


@dataclass
class _RankState:
    """Everything a rank mutates across rounds (checkpointed wholesale)."""

    amesh: AdaptiveMesh
    dmesh: DistributedMesh
    coord_graph: Optional[_CoordinatorGraph]
    prev_full: Optional[dict]
    history: list
    coordinator: int
    #: the coordinator's repartitioning strategy (None on other ranks);
    #: carries the sfc curve-order cache across rounds
    repart: Optional[object] = None
    #: coarse-root centroids (coordinator only; static for the run)
    root_coords: Optional[np.ndarray] = None


def _pared_setup(comm, cfg: ParedConfig, live) -> _RankState:
    """Initial (or post-wipeout re-initial) partition and distribution."""
    live = sorted(live)
    C = cfg.coordinator if cfg.coordinator in live else live[0]
    amesh = cfg.make_mesh()

    # initial partition at the coordinator (the mesh "is loaded into P_C")
    comm.set_phase("P3")
    group = live if len(live) < comm.size else None
    repart = root_coords = None
    if comm.rank == C:
        repart = make_repartitioner(
            cfg.partitioner, pnr=cfg.pnr, curve=cfg.sfc_curve
        )
        root_coords = coarse_root_centroids(amesh.mesh)
        graph0 = coarse_dual_graph(amesh.mesh)
        if group is None:
            owner0 = repart.initial(graph0, comm.size, coords=root_coords)
        else:
            owner0 = expand_owner(
                repart.initial(graph0, len(live), coords=root_coords), live
            )
    else:
        owner0 = None
    owner = comm.bcast(owner0, root=C, tag=40, ranks=group)
    dmesh = DistributedMesh(comm, amesh, owner, live=live)
    # under dkl the coordinator never assembles G — weights stay
    # distributed and travel neighbor-to-neighbor in P2
    coord_graph = (
        _CoordinatorGraph(amesh.n_roots)
        if comm.rank == C and cfg.partitioner not in _DKL_FAMILY
        else None
    )
    return _RankState(
        amesh=amesh,
        dmesh=dmesh,
        coord_graph=coord_graph,
        prev_full=None,
        history=[],
        coordinator=C,
        repart=repart,
        root_coords=root_coords,
    )


def _pared_round(comm, cfg: ParedConfig, st: _RankState, rnd: int) -> None:
    amesh, dmesh, C = st.amesh, st.dmesh, st.coordinator
    live = dmesh.live
    dkl = cfg.partitioner in _DKL_FAMILY

    # ---- P0: adapt ------------------------------------------------ #
    tick = perf_counter()
    comm.set_phase("P0")
    refine_ids, coarsen_ids = cfg.marker(amesh, rnd)
    my_refine = np.intersect1d(
        np.asarray(refine_ids, dtype=np.int64), dmesh.owned_leaf_ids()
    )
    dmesh.parallel_refine(my_refine)
    my_coarsen = np.intersect1d(
        np.asarray(coarsen_ids, dtype=np.int64), dmesh.owned_leaf_ids()
    )
    dmesh.parallel_coarsen(my_coarsen)

    leaves_before = amesh.leaf_ids().copy()

    # ---- P1: local weights ---------------------------------------- #
    PERF.add("pared.P0", perf_counter() - tick)
    tick = perf_counter()
    comm.set_phase("P1")
    if dkl:
        # no delta machinery: the halo exchange ships each round's full
        # (small, per-neighbor) boundary slices, so there is no baseline
        # to diff against and nothing for a coordinator to accumulate
        graph_struct = coarse_dual_graph(amesh.mesh)
        full = full_weight_report(graph_struct, dmesh.owner, comm.rank)
        st.prev_full = None
    else:
        full = dmesh.local_weight_update(None)
        delta = diff_weight_report(full, st.prev_full)
        st.prev_full = full

    # ---- P2: ship weights ------------------------------------------ #
    PERF.add("pared.P1", perf_counter() - tick)
    tick = perf_counter()
    comm.set_phase("P2")
    if dkl:
        # neighbor-to-neighbor halo exchange; the coordinator's only job
        # is the O(p) scalar imbalance check on gathered load sums
        view = dmesh.exchange_halo_weights(full, graph_struct)
        wsum = float(full["v_wts"].sum())
        wmax_local = float(full["v_wts"].max()) if full["v_wts"].size else 0.0
        gathered = comm.gather(
            (wsum, wmax_local), root=C, tag=42, ranks=dmesh.group
        )
        if comm.rank == C:
            loads = np.zeros(comm.size)
            for r, (s, _) in zip(live, gathered):
                loads[r] = s
            wmax = max(m for _, m in gathered)
            live_loads = loads[live]
            mean = live_loads.sum() / len(live)
            imb = float(live_loads.max() / mean - 1.0) if mean else 0.0
            decision = (loads, float(wmax), imb)
        else:
            decision = None
        loads, wmax, imb = comm.bcast(decision, root=C, tag=43, ranks=dmesh.group)
    else:
        msgs = dmesh.send_weights_to_coordinator(delta, C)

    # ---- P3: repartition & migrate -------------------------------- #
    PERF.add("pared.P2", perf_counter() - tick)
    tick = perf_counter()
    comm.set_phase("P3")
    if dkl:
        if imb > cfg.imbalance_trigger:
            comm.set_phase("dkl")
            dcfg = DKLConfig(
                alpha=cfg.pnr.alpha,
                beta=cfg.pnr.beta,
                seed=cfg.pnr.seed,
                balance_tol=cfg.pnr.balance_tol,
            )
            refine = (
                dkl_ml_refine_comm
                if cfg.partitioner == "dkl-ml"
                else dkl_refine_comm
            )
            assign = refine(
                comm,
                view,
                dmesh.owner,
                np.asarray(loads, dtype=np.float64),
                wmax,
                live,
                dcfg,
                group=dmesh.group,
            )
            comm.set_phase("P3")
        else:
            assign = dmesh.owner.copy()
        # every rank computed the identical assignment; the migration
        # machinery still takes it from the coordinator side unchanged
        new_owner = assign if comm.rank == C else None
    elif comm.rank == C:
        with PERF.span("pared.repartition.serial"):
            st.coord_graph.merge(msgs)
            graph = st.coord_graph.graph()
            loads = np.bincount(
                dmesh.owner, weights=graph.vwts, minlength=comm.size
            )
            live_loads = loads[live]
            mean = live_loads.sum() / len(live)
            imb = float(live_loads.max() / mean - 1.0) if mean else 0.0
            if imb > cfg.imbalance_trigger:
                if len(live) == comm.size:
                    new_owner = st.repart.repartition(
                        graph, comm.size, dmesh.owner, coords=st.root_coords
                    )
                else:
                    new_owner = expand_owner(
                        st.repart.repartition(
                            graph,
                            len(live),
                            compact_owner(dmesh.owner, live),
                            coords=st.root_coords,
                        ),
                        live,
                    )
            else:
                new_owner = dmesh.owner.copy()
    else:
        new_owner = None
        imb = None
    old_owner = dmesh.owner.copy()
    mig = execute_migration(comm, dmesh, new_owner, coordinator=C, extra=imb)
    # the measured imbalance rides the owner broadcast, so the per-round
    # record is replica-identical on every rank (not just P_C)
    imb = mig["extra"]

    # ---- audit: executable invariants of the round ----------------- #
    PERF.add("pared.P3", perf_counter() - tick)
    if cfg.audit:
        tick = perf_counter()
        comm.set_phase("audit")
        check_partition_validity(dmesh.owner, comm.size, amesh.n_roots)
        if len(live) < comm.size:
            check_recovery_partition(dmesh.owner, live, amesh.n_roots)
        check_replica_agreement(comm, dmesh.owner, ranks=dmesh.group)
        owned_all = comm.allgather(
            dmesh.owned_leaf_ids().tolist(), tag=91, ranks=dmesh.group
        )
        check_migration_conservation(leaves_before, amesh.leaf_ids(), owned_all)
        if dkl:
            # every rank's halo view was assembled purely from P2
            # neighbor messages (plus proposal payloads as roots changed
            # hands) — audit it against a brute-force recount of the
            # incident set of the roots it now owns
            check_halo_weights(amesh.mesh, view, dmesh.owner, comm.rank)
        elif comm.rank == C:
            # the coordinator's G was assembled purely from P2
            # messages — auditing it against a brute-force recount
            # verifies the distributed weight protocol end to end
            check_dual_graph_weights(amesh.mesh, graph)
            # the monotone-or-rollback invariant is a property of the
            # Equation-1 KL engine; the mlkl/sfc strategies optimize
            # other objectives and are checked by validity/balance alone
            if imb > cfg.imbalance_trigger and cfg.partitioner == "pnr":
                if len(live) == comm.size:
                    check_monotone_refinement(
                        graph, comm.size, old_owner, dmesh.owner,
                        cfg.pnr.alpha, cfg.pnr.beta,
                    )
                else:
                    check_monotone_refinement(
                        graph,
                        len(live),
                        compact_owner(old_owner, live),
                        compact_owner(dmesh.owner, live),
                        cfg.pnr.alpha,
                        cfg.pnr.beta,
                    )
        PERF.add("pared.audit", perf_counter() - tick)

    # ---- metrics (identical on every replica) ---------------------- #
    fine = leaf_assignment_from_roots(amesh.mesh, dmesh.owner)
    st.history.append(
        {
            "round": rnd,
            "leaves": amesh.n_leaves,
            "cut": cut_size(amesh.mesh, fine),
            "shared_vertices": shared_vertex_count(amesh.mesh, fine),
            "elements_moved": mig["elements_moved"],
            "trees_moved": mig["trees_moved"],
            "imbalance_before": imb,
            "local_load": dmesh.local_load(),
            "owner": dmesh.owner.copy(),
            "old_owner": old_owner,
            "p_live": len(live),
        }
    )


def _save_checkpoint(store: CheckpointStore, rnd: int, st: _RankState) -> None:
    vwts = edges = None
    if st.coord_graph is not None:
        vwts, edges = st.coord_graph.snapshot()
    store.save(
        RoundCheckpoint(
            round=rnd,
            amesh=st.amesh,
            owner=st.dmesh.owner,
            prev_full=st.prev_full,
            history=st.history,
            coordinator=st.coordinator,
            coord_vwts=vwts,
            coord_edges=edges,
        )
    )


def _recover(comm, cfg: ParedConfig, store: CheckpointStore, flush_seen: dict):
    """Survivor-side recovery: flush, agree, restore, re-assign, replay.

    Returns ``(next_round, state_or_None, live)``; a ``None`` state means
    some survivor had no checkpoint, so setup must be redone from scratch.
    """
    comm.set_phase("recovery")
    comm.acknowledge_membership()
    live = comm.live_ranks()
    flush_channels(comm, live, comm.ack_epoch, flush_seen)
    decision = agree_replay_round(comm, live, store.latest_round())
    if decision == NO_CHECKPOINT:
        store.clear()
        return 0, None, live

    ckpt = store.restore(decision)
    store.discard_after(decision)
    C = cfg.coordinator if cfg.coordinator in live else live[0]
    coordinator_changed = C != ckpt.coordinator
    dkl = cfg.partitioner in _DKL_FAMILY
    if coordinator_changed or dkl:
        # a freshly promoted P_C starts with an empty G; every survivor
        # resets its delta baseline so the next round's P2 carries full
        # reports and G is rebuilt from messages alone.  (Under dkl there
        # is no coordinator G at all — every round's P2 rebuilds the halo
        # views from full reports, so recovery has nothing to restore.)
        prev_full = None
        coord_graph = (
            _CoordinatorGraph(ckpt.amesh.n_roots)
            if comm.rank == C and not dkl
            else None
        )
    else:
        prev_full = ckpt.prev_full
        coord_graph = (
            _CoordinatorGraph.from_snapshot(
                ckpt.amesh.n_roots, ckpt.coord_vwts, ckpt.coord_edges
            )
            if comm.rank == C
            else None
        )
    dmesh = DistributedMesh(comm, ckpt.amesh, ckpt.owner, live=live)

    # coordinator-led re-assignment of the dead rank's roots, executed by
    # the ordinary migration machinery; payloads owed by the dead rank are
    # reconstructed from the replica inside execute_migration
    leaves_before = ckpt.amesh.leaf_ids().copy()
    if comm.rank == C:
        graph = (
            coarse_dual_graph(ckpt.amesh.mesh)  # failover bootstrap
            if coordinator_changed or dkl
            else coord_graph.graph()
        )
        new_owner = plan_recovery_assignment(
            graph,
            ckpt.owner,
            live,
            alpha=cfg.pnr.alpha,
            beta=cfg.pnr.beta,
            seed=cfg.pnr.seed,
            balance_tol=cfg.pnr.balance_tol,
        )
    else:
        new_owner = None
    mig = execute_migration(comm, dmesh, new_owner, coordinator=C)

    # recovery invariants: the survivors hold a valid p-1 partition and the
    # leaf multiset is untouched
    check_recovery_partition(dmesh.owner, live, ckpt.amesh.n_roots)
    check_migration_conservation(leaves_before, ckpt.amesh.leaf_ids())
    if cfg.audit:
        check_replica_agreement(comm, dmesh.owner, ranks=live)

    repart = root_coords = None
    if comm.rank == C:
        # a fresh strategy object: the sfc curve-order cache rebuilds
        # deterministically from the replica's (static) root centroids
        repart = make_repartitioner(
            cfg.partitioner, pnr=cfg.pnr, curve=cfg.sfc_curve
        )
        root_coords = coarse_root_centroids(ckpt.amesh.mesh)
    st = _RankState(
        amesh=ckpt.amesh,
        dmesh=dmesh,
        coord_graph=coord_graph,
        prev_full=prev_full,
        history=ckpt.history,
        coordinator=C,
        repart=repart,
        root_coords=root_coords,
    )
    st.history.append(
        {
            "round": ckpt.round,
            "recovery": True,
            "leaves": st.amesh.n_leaves,
            "elements_moved": mig["elements_moved"],
            "trees_moved": mig["trees_moved"],
            "owner": dmesh.owner.copy(),
            "old_owner": ckpt.owner.copy(),
            "p_live": len(live),
            "dead": comm.dead_ranks(),
        }
    )
    return ckpt.round + 1, st, live


def _pared_rank(comm, cfg: ParedConfig):
    recover = cfg.recover and getattr(comm, "recovery_enabled", False)
    store = CheckpointStore(keep=2) if recover else None
    flush_seen: dict = {}
    live = list(range(comm.size))
    st: Optional[_RankState] = None
    rnd = 0
    while True:
        try:
            if st is None:
                st = _pared_setup(comm, cfg, live)
                if recover:
                    _save_checkpoint(store, -1, st)
                rnd = 0
            while rnd < cfg.rounds:
                _pared_round(comm, cfg, st, rnd)
                if recover:
                    _save_checkpoint(store, rnd, st)
                rnd += 1
            if recover:
                # collective commit: a rank may only return once every live
                # rank got through all rounds, so a crash in the final
                # round still finds every survivor reachable for recovery
                comm.set_phase("commit")
                comm.allgather(("commit", rnd), tag=COMMIT_TAG, ranks=st.dmesh.group)
            return st.history
        except PeerCrashed:
            if not recover:
                raise
            while True:
                try:
                    rnd, st, live = _recover(comm, cfg, store, flush_seen)
                    break
                except PeerCrashed:
                    continue  # another death mid-recovery: restart it


def run_pared(cfg: ParedConfig):
    """Run the PARED loop; returns ``(histories, traffic_stats)`` where
    ``histories[r]`` is rank ``r``'s per-round record list (replica metrics
    agree across ranks — enforced by
    :func:`~repro.testing.check_history_agreement`; ``local_load`` differs
    by design).  With ``cfg.recover=True`` a crashed rank's slot is ``None``
    and ``traffic_stats.membership_events`` records the deaths.

    ``traffic_stats.kernel_perf`` holds the wall-clock profile of the run —
    ``{name: (calls, seconds)}`` aggregated over all ranks: the round phases
    (``pared.P0``..``pared.P3``, ``pared.audit``) and the multilevel kernels
    underneath them (``kl.refine``, ``matching.hem``, ``contract``, ...).
    See docs/performance.md."""
    PERF.reset()
    histories, stats = spmd_run(
        cfg.p,
        _pared_rank,
        cfg,
        return_stats=True,
        faults=cfg.faults,
        recover=cfg.recover,
        transport=cfg.transport,
    )
    check_history_agreement(histories)
    stats.kernel_perf = PERF.snapshot()
    return histories, stats
