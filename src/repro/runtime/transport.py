"""Transport backends for the SimMPI runtime.

:class:`~repro.runtime.simmpi.SimComm` owns everything *semantic* about
message passing — tag matching, stashes, collectives, phase accounting,
membership, the fault plan's crash clock and retry schedule — and
delegates the raw wire to a transport object with four operations:

``push_parts(dest, tag, parts, total)``
    Put one message on the wire (non-blocking, buffered).  ``parts`` is
    the codec's scatter-gather list
    (:func:`~repro.runtime.codec.encode_parts`) whose byte sizes sum to
    ``total``; each backend gathers it the cheapest way it can.
``pull(source, slice_s)``
    Return the next ``(tag, payload)`` from ``source`` or raise
    :class:`TransportEmpty` after waiting at most ``slice_s`` seconds.
``barrier(timeout)``
    Full rendezvous of all ranks.
``aborted()``
    True once the run is cancelled (a peer failed).

The seam is deliberately small: even the pairwise collectives
(recursive-doubling/ring ``allgather``, the nonblocking ``iallgather``)
are built entirely from these four operations.  ``push_parts`` being
non-blocking and buffered is what makes ``iallgather`` legal — a rank
posts all its first-step frames immediately and returns a ``Request``;
the deferred ``wait()`` only ever *pulls*, so no new wire primitive
(and no per-backend code) was needed for overlap.

Three transports implement the seam:

* :class:`ThreadTransport` — the in-process wire: one ``queue.Queue``
  per ordered rank pair, a ``threading.Barrier``, the shared abort
  event.  This is the default and the only backend that supports fault
  injection and crash recovery.
* :class:`~repro.runtime.faults.FaultyWire` — the same queues under a
  :class:`~repro.runtime.faults.FaultPlan`: envelopes with per-channel
  sequence numbers, injected delay/reorder/duplication on the send side,
  resequencing and dedup on the receive side.  ``SimComm`` picks it
  instead of :class:`ThreadTransport` whenever a plan is active.
* :class:`~repro.runtime.shm.ShmTransport` — forked rank processes from
  a persistent pool.  Frames travel through per-rank-pair shared-memory
  rings (zero-copy on the receive side); Unix socketpairs carry the
  frames that do not fit a ring, the barrier, and the parent's control
  channel.  Every worker records traffic into its own
  :class:`~repro.runtime.stats.TrafficStats` ledger and ships it to the
  parent at the end of the run, where the ledgers are merged — the
  accounting rule (one ``len(frame)`` record per logical message, on the
  sender) is identical on both backends.  Rank process death surfaces as
  :class:`SimRankDied` (a :class:`SimMPIAborted`) on peers and in the
  caller, never a hang.  See :mod:`repro.runtime.shm`.

Socket messages are codec frames of :mod:`repro.runtime.codec` behind a
16-byte ``(tag, length)`` header (:data:`HEADER`, :func:`pack_frame`);
partial socket reads are reassembled by :class:`FrameAssembler`.

Backend selection: ``spmd_run(..., transport="thread"|"shm")``, or the
``REPRO_TRANSPORT`` environment variable when the argument is omitted
(see :func:`resolve_backend`).  ``"process"`` is still accepted as an
alias of ``"shm"``.  Fault plans and ``recover=True`` force the thread
backend; asking for the forked backend *explicitly* with either active
is an error.
"""

from __future__ import annotations

import queue
import struct
import warnings

from repro.runtime.envflags import env_choice

__all__ = [
    "HEADER",
    "FrameAssembler",
    "SimMPIAborted",
    "SimMPITimeout",
    "SimRankDied",
    "ThreadTransport",
    "TransportEmpty",
    "pack_frame",
    "resolve_backend",
]

#: socket wire header: tag (int64) + payload length (uint64)
HEADER = struct.Struct("<qQ")


class SimMPIAborted(RuntimeError):
    """Another rank failed; this rank's pending communication is void."""


class SimRankDied(SimMPIAborted):
    """A rank's worker process terminated mid-run (forked backend)."""


class SimMPITimeout(TimeoutError):
    """``recv(timeout=...)`` expired with no matching message.

    Raised with the same message shape on every backend::

        rank <r> timed out receiving from <source> tag <tag>
    """


class TransportEmpty(Exception):
    """No message arrived within the pull slice (internal signal)."""


#: one-shot latch of the quiet forked→thread fallback warning: CI logs
#: need the notice once, not once per spmd_run of a fault suite
_FALLBACK_WARNED = False


def resolve_backend(explicit=None, faults=None, recover: bool = False) -> str:
    """Resolve the transport backend name for one ``spmd_run``.

    ``explicit`` (the ``transport=`` argument) wins; otherwise the
    ``REPRO_TRANSPORT`` environment variable; otherwise ``"thread"``.
    ``"process"`` is an alias of ``"shm"`` from either source.
    Fault injection and crash recovery are thread-backend features: with
    either active an *environment* preference for the forked backend
    falls back to ``"thread"`` (so fault suites run unchanged under
    ``REPRO_TRANSPORT=shm``) with a one-shot ``RuntimeWarning`` — a CI
    matrix leg must be able to see in its log that a run it believed was
    exercising the forked backend was not.  An *explicit* ``transport=
    "shm"`` raises — the caller asked for an unsupported combination.

    The backend actually used is also recorded on the run's
    ``TrafficStats`` as ``stats.backend``, so tests can assert it rather
    than trust the configuration.
    """
    global _FALLBACK_WARNED
    name = explicit or env_choice(
        "REPRO_TRANSPORT", ("thread", "process", "shm"), default="thread"
    )
    if name not in ("thread", "process", "shm"):
        raise ValueError(
            f"unknown transport {name!r} "
            "(expected 'thread', 'process' or 'shm')"
        )
    if name in ("process", "shm") and (faults is not None or recover):
        if explicit is not None:
            raise ValueError(
                "fault injection and crash recovery run on the thread "
                f"backend only; drop transport={name!r} or the "
                "faults/recover options"
            )
        if not _FALLBACK_WARNED:
            _FALLBACK_WARNED = True
            reason = "fault injection" if faults is not None else "crash recovery"
            warnings.warn(
                f"REPRO_TRANSPORT={name} ignored: {reason} requires the "
                "thread backend; this run (and any later ones this "
                "process) falls back to transport='thread'",
                RuntimeWarning,
                stacklevel=2,
            )
        return "thread"
    return "shm" if name == "process" else name


def pack_frame(tag: int, payload: bytes) -> bytes:
    """One wire message: 16-byte header + codec frame, as raw bytes."""
    return HEADER.pack(tag, len(payload)) + payload


class FrameAssembler:
    """Incremental decoder of the length-prefixed message stream.

    Feed it byte chunks exactly as they come off a socket — split at any
    boundary, including mid-header — and it yields complete ``(tag,
    payload)`` messages in order.  The payload bytes are returned exactly
    as sent, so reassembly is bit-transparent to
    :func:`repro.runtime.codec.decode`.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> list:
        """Absorb ``chunk``; return the list of messages it completed."""
        self._buf += chunk
        out = []
        while True:
            if len(self._buf) < HEADER.size:
                return out
            tag, length = HEADER.unpack_from(self._buf, 0)
            end = HEADER.size + length
            if len(self._buf) < end:
                return out
            out.append((tag, bytes(self._buf[HEADER.size : end])))
            del self._buf[:end]

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting the rest of their message."""
        return len(self._buf)


class ThreadTransport:
    """The original in-process wire, behind the transport seam."""

    __slots__ = ("_shared", "_rank")

    def __init__(self, shared, rank: int):
        self._shared = shared
        self._rank = rank

    def push_parts(self, dest: int, tag: int, parts, total: int) -> None:
        # the join is the codec's gather; the frame then crosses the queue
        # by reference — nothing is memcpy'd on this channel
        self._shared.stats.record_wire("queue", total, 0)
        self._shared.queues[(self._rank, dest)].put((tag, b"".join(parts)))

    def pull(self, source: int, slice_s: float):
        try:
            return self._shared.queues[(source, self._rank)].get(
                timeout=slice_s
            )
        except queue.Empty:
            raise TransportEmpty() from None

    def aborted(self) -> bool:
        return self._shared.abort.is_set()

    def barrier(self, timeout: float) -> None:
        self._shared.barrier.wait(timeout=timeout)
