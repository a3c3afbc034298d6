"""In-memory span recorder and the call-boundary wrappers of the traced run.

A span is one call into a layer's public function, kept as the list
``[rank, round, name, t0, t1, parent, nbytes, counts]``: ``parent`` is the
index of the enclosing span in the same rank's list (``-1`` at top level),
``nbytes`` the frame bytes this rank sent while the span was open, and
``counts`` an optional dict of per-call counters.  Times come from
``perf_counter``, which is the system-wide ``CLOCK_MONOTONIC`` on Linux, so
spans of forked rank processes share one time axis with the parent.

Every traced run has one rank per process (the thread backend is traced at
p=1 only; pooled shm workers are one rank each), so one recorder per
process with a single span stack is enough.  The recorder is a module
global because pooled workers are reachable only through what they
inherited at fork time and through pickled-by-reference jobs such as
:func:`collect`.

:class:`Instrumentation` wraps the layer entry points from outside ``src/``;
nothing in the program is modified on disk.  Round boundaries are marked
by the workload's own marker callback (:meth:`Recorder.mark_round`), on
every run, traced or not.
"""

from __future__ import annotations

import functools
import gc
import resource
from contextlib import contextmanager
from time import perf_counter

from perfbench.hostspeed import kernel_seconds

#: round index of spans recorded before a rank's first marker call
SETUP_ROUND = -1

# span list slots
RANK, ROUND, NAME, T0, T1, PARENT, NBYTES, COUNTS = range(8)


class Recorder:
    """Spans and round marks of the rank running in this process."""

    def __init__(self) -> None:
        self.rank = 0
        self.round = SETUP_ROUND
        #: spans are recorded only while True; round marks always are
        self.tracing = False
        self.marks = []  # [(round, t)]
        self.spans = []
        self._stack = []  # indices of the open spans, innermost last

    def begin_setup(self) -> None:
        self.round = SETUP_ROUND

    def mark_round(self, rnd: int) -> None:
        self.round = rnd
        self.marks.append((rnd, perf_counter()))

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [self.rank, self.round, name, perf_counter(), None, parent, 0, None]
        )
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][T1] = perf_counter()
        self._stack.pop()

    def add_bytes(self, nbytes: int) -> None:
        """Charge sent bytes to every open span (inclusive accounting)."""
        for idx in self._stack:
            self.spans[idx][NBYTES] += nbytes

    @contextmanager
    def span(self, name: str):
        if not self.tracing:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def drain(self) -> dict:
        """Hand over (and forget) everything recorded so far."""
        out = {"rank": self.rank, "marks": self.marks, "spans": self.spans}
        self.marks, self.spans, self._stack = [], [], []
        return out


RECORDER = Recorder()


def claim_rank(comm):
    """No-op SPMD job: tells each pooled worker which rank it is (spans of
    a run's set-up are recorded before any rank-aware call)."""
    RECORDER.rank = comm.rank
    return comm.rank


def collect(comm):
    """SPMD job bringing a rank's marks, spans and peak RSS home, and
    timing the host-speed kernel on the rank's core.  It also frees the
    finished run's cyclic garbage, so no run starts with (or counts in its
    peak RSS) a dead mesh of the run before."""
    RECORDER.rank = comm.rank
    gc.collect()
    out = RECORDER.drain()
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["kernel_s"] = kernel_seconds()
    return out


# ---------------------------------------------------------------------- #
# call-boundary wrappers
# ---------------------------------------------------------------------- #


def _timed(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _timed_refine(rec: Recorder, fn):
    """``DistributedMesh.parallel_refine`` plus the leaves it added: on
    this rank's local mesh, and inside the trees this rank owns.  Summed
    over ranks, the second is the global number of leaves added."""

    @functools.wraps(fn)
    def wrapper(self, marked_owned):
        local0 = self.amesh.n_leaves
        owned0 = self.owned_leaf_ids().size
        idx = rec.open("mesh.refine")
        try:
            out = fn(self, marked_owned)
        finally:
            rec.close(idx)
        rec.spans[idx][COUNTS] = {
            "local_added": self.amesh.n_leaves - local0,
            "owned_added": self.owned_leaf_ids().size - owned0,
        }
        return out

    return wrapper


def _timed_recv(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        idx = rec.open("runtime.recv." + self.phase)
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _counted_send(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        nbytes = fn(self, *args, **kwargs)
        rec.add_bytes(nbytes)
        return nbytes

    return wrapper


def _timed_strategy(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        strategy = fn(*args, **kwargs)
        strategy.initial = _timed(rec, "partition.initial", strategy.initial)
        strategy.repartition = _timed(
            rec, "partition.repartition", strategy.repartition
        )
        return strategy

    return wrapper


class Instrumentation:
    """Installs the layer wrappers; :meth:`remove` restores the originals.
    On the shm backend this must happen before the rank pool forks, so the
    workers inherit the wrappers."""

    def __init__(self, rec: Recorder = RECORDER):
        import repro.pared.system as system
        from repro.pared.distmesh import DistributedMesh
        from repro.runtime.simmpi import SimComm

        self._saved = []
        timed = functools.partial(_timed, rec)
        self._wrap(DistributedMesh, "parallel_refine",
                   functools.partial(_timed_refine, rec))
        for owner, attr, name in (
            (DistributedMesh, "parallel_coarsen", "mesh.coarsen"),
            (DistributedMesh, "local_weight_update", "mesh.dualgraph"),
            (DistributedMesh, "send_weights_to_coordinator", "pared.weights"),
            (DistributedMesh, "exchange_halo_weights", "pared.weights"),
            (system, "coarse_dual_graph", "mesh.dualgraph"),
            (system, "leaf_assignment_from_roots", "mesh.metrics"),
            (system, "cut_size", "mesh.metrics"),
            (system, "shared_vertex_count", "mesh.metrics"),
            (system, "execute_migration", "pared.migrate"),
            (system, "dkl_refine_comm", "partition.dkl"),
            (system, "dkl_ml_refine_comm", "partition.dkl"),
        ):
            self._wrap(owner, attr, functools.partial(timed, name))
        self._wrap(system, "make_repartitioner",
                   functools.partial(_timed_strategy, rec))
        self._wrap(SimComm, "recv", functools.partial(_timed_recv, rec))
        self._wrap(SimComm, "send", functools.partial(_counted_send, rec))
        rec.tracing = True
        self._rec = rec

    def _wrap(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._rec.tracing = False

