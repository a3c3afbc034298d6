"""Named repartitioner registry: ``pnr`` / ``mlkl`` / ``sfc`` / ``dkl`` /
``dkl-ml``.

The PARED drivers (:mod:`repro.pared.system`, :mod:`repro.pared.workflow`)
and the CLI select the coordinator's repartitioning strategy by name.  A
registry entry is a small stateful object with two operations on the coarse
dual graph:

``initial(graph, p, coords=...)``
    First partition of the run (no current assignment).
``repartition(graph, p, current, coords=...)``
    Round repartition starting from ``current``.

``coords`` carries the coarse-element centroids — only the geometric
``sfc`` strategy reads them; the graph-based strategies ignore the
argument, so callers can always pass what they have.

Strategies
----------
``pnr``
    The paper's method: migration-aware multilevel KL
    (:func:`repro.core.repartition_kl.multilevel_repartition`) under the
    Equation-1 gain.  Best cut *and* small migration, O(E) refinement per
    round.
``mlkl``
    Scratch Multilevel-KL each round, label-aligned to the previous
    assignment with the Biswas–Oliker subset permutation so its migration
    numbers are the fair (permuted) column of Figure 4.
``sfc``
    Morton/Hilbert space-filling-curve splitting of the element centroids
    with the current vertex weights (:mod:`repro.partition.sfc`).
    O(n log n) once, O(n) per re-split, small migration by construction —
    the cheap high-throughput baseline.
``dkl``
    Distributed boundary refinement
    (:mod:`repro.partition.distributed`): per-part propose / deterministic
    tie-break resolve / bounded rebalance under the Equation-1 gain.  This
    registry entry runs the serial reference engine; inside the PARED
    system the same code runs SPMD with neighbor-to-neighbor halo
    exchange and no coordinator in the refinement loop.
``dkl-ml``
    Multilevel flavour of ``dkl``: each part coarsens its own subgraph by
    intra-part heavy-edge matching, the same tournament runs on the coarse
    view (moving whole clusters per accepted move), and the result is
    projected and re-refined at the fine level — the standard multilevel
    fix for the residual cut gap on heavy-imbalance starts.  One strategy
    class serves both names; ``ml_levels`` (0 or 1) tells them apart.
"""

from __future__ import annotations

import numpy as np

from repro.partition.distributed import DKLConfig, dkl_ml_refine_serial
from repro.partition.multilevel import multilevel_partition
from repro.partition.permute import (
    apply_permutation,
    minimize_migration_permutation,
)
from repro.partition.sfc import DEFAULT_BITS, SFCPartitioner, sfc_partition

__all__ = [
    "PARTITIONERS",
    "available_partitioners",
    "make_repartitioner",
    "PNRRepartitioner",
    "MLKLRepartitioner",
    "SFCRepartitioner",
    "DKLRepartitioner",
]


class PNRRepartitioner:
    """Equation-1 multilevel KL (the default, the paper's method)."""

    name = "pnr"

    def __init__(self, alpha=0.1, beta=0.8, seed=0, balance_tol=0.02):
        self.alpha = alpha
        self.beta = beta
        self.seed = seed
        self.balance_tol = balance_tol

    def initial(self, graph, p, coords=None):
        # default multilevel_partition tolerance, matching the historical
        # coordinator bootstrap bit-for-bit (goldens pin this path)
        return multilevel_partition(graph, p, seed=self.seed)

    def repartition(self, graph, p, current, coords=None):
        from repro.core.repartition_kl import multilevel_repartition

        return multilevel_repartition(
            graph,
            p,
            current,
            alpha=self.alpha,
            beta=self.beta,
            seed=self.seed,
            balance_tol=self.balance_tol,
        )


class MLKLRepartitioner:
    """Scratch Multilevel-KL per round, label-aligned to the previous
    assignment (the permuted-migration baseline of Figure 4)."""

    name = "mlkl"

    def __init__(self, seed=0, balance_tol=0.03, **_ignored):
        self.seed = seed
        self.balance_tol = balance_tol

    def initial(self, graph, p, coords=None):
        return multilevel_partition(
            graph, p, seed=self.seed, balance_tol=self.balance_tol
        )

    def repartition(self, graph, p, current, coords=None):
        fresh = multilevel_partition(
            graph, p, seed=self.seed, balance_tol=self.balance_tol
        )
        perm = minimize_migration_permutation(
            np.asarray(current), fresh, p, weights=graph.vwts
        )
        return apply_permutation(fresh, perm)


class SFCRepartitioner:
    """Space-filling-curve splitting of centroids under the live weights.

    The curve order is fitted on first use and reused while the element
    set is unchanged (the coarse roots of ``M^0`` are static), so every
    repartition is a cheap re-split and consecutive rounds migrate only
    the elements the cut points slid across.
    """

    name = "sfc"

    def __init__(self, curve="morton", bits=DEFAULT_BITS, **_ignored):
        self.curve = curve
        self.bits = bits
        self._state = None

    def _partition(self, graph, p, coords):
        if coords is None:
            raise ValueError(
                "the sfc partitioner needs element centroids (coords=)"
            )
        coords = np.asarray(coords, dtype=np.float64)
        if coords.shape[0] != graph.n_vertices:
            raise ValueError("coords must have one row per graph vertex")
        if self._state is None or self._state.order.shape[0] != coords.shape[0]:
            self._state = SFCPartitioner(curve=self.curve, bits=self.bits).fit(
                coords
            )
        return self._state.partition(graph.vwts, p)

    def initial(self, graph, p, coords=None):
        return self._partition(graph, p, coords)

    def repartition(self, graph, p, current, coords=None):
        return self._partition(graph, p, coords)


class DKLRepartitioner:
    """Distributed boundary refinement, serial reference engine.

    ``initial`` matches the pnr bootstrap bit-for-bit (the golden PARED
    metrics pin that path); ``repartition`` runs the
    propose/resolve/rebalance tournament of
    :mod:`repro.partition.distributed` from a single thread — bit-identical
    to the SPMD neighbor-exchange path the PARED system runs.
    ``ml_levels`` bounds the multilevel V-cycle around the tournament
    (coarsen each part by intra-part heavy-edge matching, refine coarse,
    project, re-refine): ``0`` is flat ``dkl``, ``1`` is ``dkl-ml``.
    """

    def __init__(self, alpha=0.1, beta=0.8, seed=0, balance_tol=0.02,
                 ml_levels=0):
        self.name = "dkl-ml" if ml_levels else "dkl"
        self.cfg = DKLConfig(
            alpha=alpha, beta=beta, seed=seed, balance_tol=balance_tol,
            ml_levels=ml_levels,
        )

    def initial(self, graph, p, coords=None):
        return multilevel_partition(graph, p, seed=self.cfg.seed)

    def repartition(self, graph, p, current, coords=None):
        return dkl_ml_refine_serial(graph, p, current, self.cfg)


#: name -> strategy class; the CLI's ``--partitioner`` choices come from here
PARTITIONERS = {
    "pnr": PNRRepartitioner,
    "mlkl": MLKLRepartitioner,
    "sfc": SFCRepartitioner,
    "dkl": DKLRepartitioner,
    "dkl-ml": DKLRepartitioner,
}


def available_partitioners() -> tuple:
    """Registered strategy names, stable order (pnr first: the default)."""
    return tuple(PARTITIONERS)


def make_repartitioner(name: str, pnr=None, curve: str = "morton",
                       bits: int = DEFAULT_BITS):
    """Instantiate a registry strategy.

    ``pnr`` (a :class:`repro.core.pnr.PNR` parameter object) supplies
    α/β/seed/balance_tol to the graph-based strategies; ``curve``/``bits``
    configure ``sfc``.
    """
    if name not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {name!r} "
            f"(expected one of {available_partitioners()})"
        )
    alpha = getattr(pnr, "alpha", 0.1)
    beta = getattr(pnr, "beta", 0.8)
    seed = getattr(pnr, "seed", 0)
    balance_tol = getattr(pnr, "balance_tol", 0.02)
    if name == "pnr":
        return PNRRepartitioner(
            alpha=alpha, beta=beta, seed=seed, balance_tol=balance_tol
        )
    if name == "mlkl":
        return MLKLRepartitioner(seed=seed, balance_tol=max(balance_tol, 0.03))
    if name in ("dkl", "dkl-ml"):
        return DKLRepartitioner(
            alpha=alpha, beta=beta, seed=seed, balance_tol=balance_tol,
            ml_levels=1 if name == "dkl-ml" else 0,
        )
    return SFCRepartitioner(curve=curve, bits=bits)
