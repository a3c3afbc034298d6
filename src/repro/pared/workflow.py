"""The complete PARED workflow with a *real* distributed solve.

:mod:`repro.pared.system` drives adaptation from an exact-solution
indicator (deterministic, the experiment benches' need).  This module runs
the loop the paper actually describes for production use:

1. **solve** the PDE with the distributed CG solver (halo exchange at
   shared vertices — the cost the partition quality controls);
2. **estimate** the error from the discrete solution itself
   (gradient-jump indicator, computed per owned element);
3. **adapt** — refine the worst fraction, with cross-rank propagation;
4. **repartition** and **migrate** trees (phases P1–P3).

Steps 1–2 and the marking of step 3 are this module's P0 marking step;
everything else is the round of :func:`repro.pared.system.run_pared`, run
by the same rank function — so P2 ships weight deltas, the dkl family runs
its SPMD halo/tournament round shape, and ``audit=True`` applies the full
invariant set.  Per-phase traffic lands in the shared
:class:`~repro.runtime.stats.TrafficStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.pnr import PNR
from repro.fem.estimate import gradient_jump_indicator
from repro.mesh.adapt import AdaptiveMesh
from repro.pared.solver import DistributedPoissonSolver
from repro.pared.system import ParedConfig, _run
from repro.runtime.faults import FaultPlan


@dataclass
class WorkflowConfig:
    """Configuration of the solve-driven PARED loop.

    ``faults``, ``audit``, ``transport``, ``partitioner`` and ``sfc_curve``
    mirror :class:`~repro.pared.system.ParedConfig`: the first injects a
    seeded :class:`~repro.runtime.faults.FaultPlan` into the wire, the
    second runs the full :mod:`repro.testing` invariant set at the end of
    every round, the third selects the rank backend
    (``"thread"``/``"shm"``, ``None`` defers to ``REPRO_TRANSPORT``), and
    the last two select the repartitioning strategy from the registry
    (``"pnr"``/``"mlkl"``/``"sfc"``/``"dkl"``/``"dkl-ml"``).  The round is
    :func:`~repro.pared.system.run_pared`'s, so ``dkl``/``dkl-ml`` run the
    SPMD neighbor-exchange P2/P3 round exactly as there.

    Each round record carries the ``run_pared`` fields (including
    ``trees_moved``, ``owner``, ``old_owner`` and ``p_live``) plus
    ``cg_iterations`` and ``eta_max``.
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


@dataclass
class _SolveAndMark:
    """P0 marking step of the solve-driven loop: distributed CG solve
    (phase ``solve``), gradient-jump estimate, and per-rank marking of the
    worst ``refine_fraction`` of the owned leaves (a local decision, as in
    a real system; the global refinement emerges from the union)."""

    problem: object
    refine_fraction: float
    cg_rtol: float

    def __call__(self, comm, cfg, st, rnd):
        amesh, dmesh = st.amesh, st.dmesh
        comm.set_phase("solve")
        u, iters = DistributedPoissonSolver(dmesh).solve(
            f=getattr(self.problem, "source", None),
            g=self.problem.dirichlet,
            rtol=self.cg_rtol,
        )
        comm.set_phase("P0")
        eta = gradient_jump_indicator(amesh, u)
        owned_mask = dmesh.leaf_owners() == comm.rank
        k = max(1, int(round(self.refine_fraction * int(owned_mask.sum()))))
        local_eta = np.where(owned_mask, eta, -np.inf)
        marked = amesh.leaf_ids()[np.argsort(local_eta)[::-1][:k]]
        return marked, [], {"cg_iterations": iters, "eta_max": float(eta.max())}


def run_workflow(cfg: WorkflowConfig):
    """Run the solve→estimate→adapt→repartition loop on ``cfg.p`` ranks;
    returns ``(histories, traffic_stats)``."""
    pared = ParedConfig(
        p=cfg.p,
        make_mesh=cfg.make_mesh,
        marker=None,
        rounds=cfg.rounds,
        pnr=cfg.pnr,
        imbalance_trigger=cfg.imbalance_trigger,
        coordinator=cfg.coordinator,
        faults=cfg.faults,
        audit=cfg.audit,
        transport=cfg.transport,
        partitioner=cfg.partitioner,
        sfc_curve=cfg.sfc_curve,
    )
    mark = _SolveAndMark(cfg.problem, cfg.refine_fraction, cfg.cg_rtol)
    return _run(pared, mark)
