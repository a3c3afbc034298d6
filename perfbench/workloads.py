"""The benchmark's named PARED workloads.

Each workload is one :class:`~repro.pared.ParedConfig` built from a seed.
The seed sets the partitioner seed and a small offset of the marking, so a
claim can be re-checked on a seed it was not tuned on.  Mesh factories and
markers are module-level classes: the shm backend ships the config to its
persistent rank pool as a pickle, and a closure would demote the run to a
one-shot fork, timing the fork instead of the round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from perfbench.spans import RECORDER
from repro.core import PNR
from repro.fem import (
    CornerLaplace2D,
    MovingPeakPoisson2D,
    interpolation_error_indicator,
    mark_over_threshold,
    mark_top_fraction,
    mark_under_threshold,
)
from repro.mesh import AdaptiveMesh
from repro.pared import ParedConfig

_CORNER = CornerLaplace2D()


class UnitSquare:
    """``make_mesh`` callback: the n x n unit square (2 n^2 coarse roots)."""

    def __init__(self, n: int):
        self.n = n

    def __call__(self) -> AdaptiveMesh:
        RECORDER.begin_setup()
        with RECORDER.span("mesh.make"):
            return AdaptiveMesh.unit_square(self.n)


class CornerMarker:
    """Refine the top ``fraction`` of leaves by interpolation error of the
    corner-singularity Laplace solution; never coarsen."""

    def __init__(self, fraction: float):
        self.fraction = fraction

    def __call__(self, amesh, rnd):
        RECORDER.mark_round(rnd)
        with RECORDER.span("fem.marker"):
            with RECORDER.span("fem.estimate"):
                ind = interpolation_error_indicator(amesh, _CORNER.exact)
            return mark_top_fraction(amesh, ind, self.fraction), []


class PeakMarker:
    """Refine ahead of and coarsen behind a peak crossing the diagonal of
    the unit square: round ``r`` freezes the moving-peak solution at
    ``t = t0 - r * dt``, refines leaves whose interpolation error exceeds
    ``refine_tol`` and coarsens those below ``coarsen_tol``."""

    def __init__(self, t0: float, dt: float, refine_tol: float,
                 coarsen_tol: float):
        self.t0 = t0
        self.dt = dt
        self.refine_tol = refine_tol
        self.coarsen_tol = coarsen_tol

    def __call__(self, amesh, rnd):
        RECORDER.mark_round(rnd)
        with RECORDER.span("fem.marker"):
            prob = MovingPeakPoisson2D(self.t0 - rnd * self.dt)
            with RECORDER.span("fem.estimate"):
                ind = interpolation_error_indicator(amesh, prob.exact)
            return (
                mark_over_threshold(amesh, ind, self.refine_tol),
                mark_under_threshold(amesh, ind, self.coarsen_tol),
            )


def _corner_marker(jitter: float, rounds: int) -> CornerMarker:
    return CornerMarker(0.15 * (1.0 + 0.01 * jitter))


def _peak_marker(jitter: float, rounds: int) -> PeakMarker:
    # the peak (at (-t, -t)) crosses the square's diagonal from (0, 0) to
    # (1, 1) over the run; thresholds are transient_defaults()'s
    # reduced-scale 3e-3 / 3e-4.  The time offset is kept to +-0.0005:
    # at +-0.005 the dkl tournament's traffic alone varied 8.5% (quartile
    # spread) from seed to seed, at +-0.0005 4.3%.
    return PeakMarker(t0=0.0005 * jitter, dt=1.0 / (rounds - 1),
                      refine_tol=3e-3, coarsen_tol=3e-4)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    p: int
    transport: str
    partitioner: str
    rounds: int
    mesh_n: int
    #: ``marker(jitter, rounds)``: the round callback for a seed's jitter
    marker: Callable
    imbalance_trigger: float = 0.05

    def config(self, seed: int, audit: bool = False,
               transport: str = None) -> ParedConfig:
        """The run's config; ``transport`` overrides the workload's own
        backend (the thread-backend reference run)."""
        # uniform in [-1, 1): the seed's small offset of the marking
        jitter = float(np.random.default_rng(seed).uniform(-1.0, 1.0))
        return ParedConfig(
            p=self.p,
            make_mesh=UnitSquare(self.mesh_n),
            marker=self.marker(jitter, self.rounds),
            rounds=self.rounds,
            pnr=PNR(seed=seed),
            imbalance_trigger=self.imbalance_trigger,
            audit=audit,
            transport=transport or self.transport,
            partitioner=self.partitioner,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corner2d-p1",
            "p=1 baseline on 8,192 roots: refinement-bound, no messages, "
            "repartition and migration never triggered",
            p=1, transport="thread", partitioner="pnr", rounds=8,
            mesh_n=64, marker=_corner_marker,
        ),
        Workload(
            "corner2d-p2",
            "p=2 on the shm pool: replicated refinement, coordinator-serial "
            "PNR repartition with the other rank waiting in P3, migration",
            p=2, transport="shm", partitioner="pnr", rounds=8,
            mesh_n=64, marker=_corner_marker,
        ),
        # trigger 0: the moving load is repartitioned every round, so the
        # rounds are alike and their median is not torn between rounds
        # with and without the dkl tournament
        Workload(
            "peak2d-dkl-p2",
            "moving peak with refine and coarsen every round, p=2 on shm "
            "with multilevel distributed KL: load moves each round",
            p=2, transport="shm", partitioner="dkl-ml", rounds=24,
            mesh_n=48, marker=_peak_marker, imbalance_trigger=0.0,
        ),
    )
}
