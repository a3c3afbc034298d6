"""The complete PARED workflow with a *real* distributed solve.

:mod:`repro.pared.system` drives adaptation from an exact-solution
indicator (deterministic, the experiment benches' need).  This module runs
the loop the paper actually describes for production use:

1. **solve** the PDE with the distributed CG solver (halo exchange at
   shared vertices — the cost the partition quality controls);
2. **estimate** the error from the discrete solution itself
   (gradient-jump indicator, computed per owned element);
3. **adapt** — refine the worst fraction, with cross-rank propagation;
4. **repartition** with PNR and **migrate** trees (phases P1–P3).

Everything is SPMD over the simulated runtime; per-phase traffic lands in
the shared :class:`~repro.runtime.stats.TrafficStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.pnr import PNR
from repro.fem.estimate import gradient_jump_indicator
from repro.mesh.adapt import AdaptiveMesh
from repro.mesh.dualgraph import (
    coarse_dual_graph,
    coarse_root_centroids,
    leaf_assignment_from_roots,
)
from repro.mesh.metrics import cut_size, shared_vertex_count
from repro.pared.distmesh import DistributedMesh
from repro.pared.migrate import execute_migration
from repro.pared.solver import DistributedPoissonSolver
from repro.partition.registry import make_repartitioner
from repro.runtime.faults import FaultPlan
from repro.runtime.simmpi import spmd_run
from repro.testing import (
    check_migration_conservation,
    check_partition_validity,
    check_replica_agreement,
)


@dataclass
class WorkflowConfig:
    """Configuration of the solve-driven PARED loop.

    ``faults``, ``audit``, ``transport``, ``partitioner`` and ``sfc_curve``
    mirror :class:`~repro.pared.system.ParedConfig`: the first injects a
    seeded :class:`~repro.runtime.faults.FaultPlan` into the wire, the
    second runs the :mod:`repro.testing` invariant checks at the end of
    every round, the third selects the rank backend
    (``"thread"``/``"shm"``, ``None`` defers to
    ``REPRO_TRANSPORT``),
    and the last two select the coordinator's repartitioning strategy from
    the registry (``"pnr"``/``"mlkl"``/``"sfc"``/``"dkl"``).  On this
    workflow path every strategy — ``dkl`` included, in its
    serial-exchange flavour — runs on the coordinator; the SPMD
    neighbor-exchange P2/P3 variant lives in
    :func:`repro.pared.system.run_pared`.
    """

    p: int
    make_mesh: Callable[[], AdaptiveMesh]
    problem: object  # needs .source (or None) and .dirichlet(points)
    rounds: int = 3
    refine_fraction: float = 0.15
    pnr: PNR = field(default_factory=PNR)
    imbalance_trigger: float = 0.05
    coordinator: int = 0
    cg_rtol: float = 1e-8
    faults: Optional[FaultPlan] = None
    audit: bool = False
    transport: Optional[str] = None
    partitioner: str = "pnr"
    sfc_curve: str = "morton"


def _workflow_rank(comm, cfg: WorkflowConfig):
    C = cfg.coordinator
    amesh = cfg.make_mesh()

    comm.set_phase("P3")
    repart = root_coords = None
    if comm.rank == C:
        repart = make_repartitioner(
            cfg.partitioner, pnr=cfg.pnr, curve=cfg.sfc_curve
        )
        root_coords = coarse_root_centroids(amesh.mesh)
        owner0 = repart.initial(
            coarse_dual_graph(amesh.mesh), comm.size, coords=root_coords
        )
    else:
        owner0 = None
    owner = comm.bcast(owner0, root=C, tag=50)
    dmesh = DistributedMesh(comm, amesh, owner)

    history = []
    for rnd in range(cfg.rounds):
        # ---- solve (distributed CG) ----------------------------------- #
        comm.set_phase("solve")
        solver = DistributedPoissonSolver(dmesh)
        f = getattr(cfg.problem, "source", None)
        u, iters = solver.solve(
            f=f, g=cfg.problem.dirichlet, rtol=cfg.cg_rtol
        )

        # ---- estimate (a-posteriori, per owned element) ---------------- #
        comm.set_phase("P0")
        eta = gradient_jump_indicator(amesh, u)
        owned_mask = dmesh.leaf_owners() == comm.rank
        # each rank marks the worst of *its* elements (local decision, as
        # in a real system); the global refinement emerges from the union
        k = max(1, int(round(cfg.refine_fraction * int(owned_mask.sum()))))
        local_eta = np.where(owned_mask, eta, -np.inf)
        order = np.argsort(local_eta)[::-1][:k]
        marked = amesh.leaf_ids()[order]
        dmesh.parallel_refine([int(e) for e in marked])

        # ---- weights to the coordinator ------------------------------- #
        comm.set_phase("P1")
        update = dmesh.local_weight_update()
        comm.set_phase("P2")
        msgs = dmesh.send_weights_to_coordinator(update, C)

        # ---- repartition + migrate ------------------------------------ #
        comm.set_phase("P3")
        if comm.rank == C:
            from repro.graph.csr import WeightedGraph
            from repro.pared.weights import split_edge_keys

            # full packed reports from disjoint owners: assembling G is a
            # scatter of the concatenated arrays, no per-entry merging
            v_ids = np.concatenate([m["v_ids"] for m in msgs])
            v_wts = np.concatenate([m["v_wts"] for m in msgs])
            e_keys = np.concatenate([m["e_keys"] for m in msgs])
            e_wts = np.concatenate([m["e_wts"] for m in msgs])
            vwts = np.zeros(amesh.n_roots)
            vwts[v_ids] = v_wts
            a, b = split_edge_keys(e_keys, amesh.n_roots)
            graph = WeightedGraph.from_edges(
                amesh.n_roots, np.column_stack([a, b]), e_wts, vwts
            )
            loads = np.bincount(dmesh.owner, weights=graph.vwts, minlength=comm.size)
            mean = loads.sum() / comm.size
            imb = float(loads.max() / mean - 1.0) if mean else 0.0
            if imb > cfg.imbalance_trigger:
                new_owner = repart.repartition(
                    graph, comm.size, dmesh.owner, coords=root_coords
                )
            else:
                new_owner = dmesh.owner.copy()
        else:
            new_owner = None
            imb = None
        leaves_before = amesh.leaf_ids().copy()
        mig = execute_migration(comm, dmesh, new_owner, coordinator=C, extra=imb)
        # the measured imbalance rides the owner broadcast, so every rank's
        # record carries it (not just the coordinator's)
        imb = mig["extra"]

        if cfg.audit:
            comm.set_phase("audit")
            check_partition_validity(dmesh.owner, comm.size, amesh.n_roots)
            check_replica_agreement(comm, dmesh.owner)
            owned_all = comm.allgather(dmesh.owned_leaf_ids().tolist(), tag=91)
            check_migration_conservation(
                leaves_before, amesh.leaf_ids(), owned_all
            )

        fine = leaf_assignment_from_roots(amesh.mesh, dmesh.owner)
        history.append(
            {
                "round": rnd,
                "leaves": amesh.n_leaves,
                "cg_iterations": iters,
                "eta_max": float(eta.max()),
                "cut": cut_size(amesh.mesh, fine),
                "shared_vertices": shared_vertex_count(amesh.mesh, fine),
                "elements_moved": mig["elements_moved"],
                "imbalance_before": imb,
                "local_load": dmesh.local_load(),
            }
        )
    return history


def run_workflow(cfg: WorkflowConfig):
    """Run the solve→estimate→adapt→repartition loop on ``cfg.p`` ranks;
    returns ``(histories, traffic_stats)``."""
    return spmd_run(
        cfg.p,
        _workflow_rank,
        cfg,
        return_stats=True,
        faults=cfg.faults,
        transport=cfg.transport,
    )
