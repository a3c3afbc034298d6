"""Deterministic fault injection for the simulated runtime.

The algorithms under study are defined by their communication structure, so
the natural way to harden them is to perturb the *wire* while demanding the
application-visible behaviour stay exactly-once, in-order — the guarantee a
production transport (MPI over a lossy fabric, TCP) provides.  A seeded
:class:`FaultPlan` describes, per ordered rank pair, which messages are

* **reordered** — held on the wire just long enough for the next message on
  the same channel to overtake it;
* **delayed** — held long enough to trip the receiver's patience, forcing
  the retry/backoff path;
* **duplicated** — enqueued twice, exercising receiver-side dedup;

plus an optional **rank crash** after a fixed number of communication
operations, which must surface as a clean :class:`SimRankCrashed`
diagnostic in the caller, never a hang.

Decisions are drawn from one :class:`random.Random` stream per ordered
``(src, dst)`` channel, seeded by ``(plan.seed, src, dst)`` and indexed by
the channel's send sequence.  Because only the sending rank's thread draws
from its own channels, the set of injected faults is a pure function of the
plan — independent of thread scheduling — so every failing schedule can be
replayed from its seed.

The wire perturbations live behind the transport seam: when a plan is
active, :class:`~repro.runtime.simmpi.SimComm` runs on a
:class:`FaultyWire` instead of the plain
:class:`~repro.runtime.transport.ThreadTransport`.  Messages travel in
*envelopes* ``(tag, seq, not_before, payload)``; the wire's receiving side
resequences by ``seq``, drops duplicates, and honours ``not_before`` (the
injected network latency), so ``SimComm``'s one receive loop sees the same
exactly-once, in-order stream as on a clean wire.  The communicator keeps
only the crash clock and the plan's retry/backoff schedule.  With
``plan=None`` the plain wire is used untouched — fault injection is
strictly zero-overhead when disabled.

Every injected event is appended to a shared :class:`FaultLog` so tests can
assert that a plan actually perturbed the wire (a chaos run that injected
nothing proves nothing).
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass

from repro.runtime.transport import ThreadTransport, TransportEmpty

#: seconds a "reordered" message is held — long enough for the receiver's
#: 50 ms poll to observe the inversion, short enough never to trip a
#: default timeout
_REORDER_HOLD = 0.12


class SimRankCrashed(RuntimeError):
    """A rank was killed by the fault plan (crash-at-op)."""


class FaultToleranceExhausted(TimeoutError):
    """A receive timed out and every configured retry was used up.

    Subclasses :class:`TimeoutError` so callers treating timeouts generically
    (``Request.test``) keep working; the message documents rank, peer, tag
    and the attempt schedule, which is the "documented error" a degraded run
    must end in.
    """


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of which faults to inject.

    Attributes
    ----------
    seed:
        Root seed; all per-channel decision streams derive from it.
    reorder_rate:
        Probability a message is held back just long enough for the next
        message on its ``(src, dst)`` channel to overtake it on the wire.
    duplicate_rate:
        Probability a message is delivered twice (same sequence number; the
        receiver must dedupe).
    delay_rate:
        Probability a message's delivery is delayed by :attr:`delay`
        seconds (the injected latency that trips the receive-timeout path).
    delay:
        Injected latency in seconds for delayed messages.  Pick it larger
        than :attr:`recv_timeout` to force at least one retry.
    crash_rank:
        If not ``None``, this rank raises :class:`SimRankCrashed` when its
        communication-operation counter (sends + receives + barriers)
        reaches :attr:`crash_at_op`.
    crash_at_op:
        Operation count at which :attr:`crash_rank` dies.
    recv_timeout:
        Per-attempt receive patience in seconds (``None`` keeps the
        runtime default).  The total patience of a receive is the sum of
        the per-attempt timeouts across retries.
    max_retries:
        How many times a timed-out receive is retried before raising
        :class:`FaultToleranceExhausted`.
    backoff:
        Multiplier applied to the attempt timeout after each retry.
    """

    seed: int = 0
    reorder_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay: float = 0.3
    crash_rank: int | None = None
    crash_at_op: int = 0
    recv_timeout: float | None = None
    max_retries: int = 0
    backoff: float = 2.0

    def channel_rng(self, src: int, dst: int) -> random.Random:
        """Decision stream for the ordered channel ``src -> dst``."""
        return random.Random(f"faultplan:{self.seed}:{src}:{dst}")

    @property
    def perturbs_wire(self) -> bool:
        return bool(
            self.reorder_rate or self.duplicate_rate or self.delay_rate
        )


class FaultLog:
    """Thread-safe record of every injected fault event.

    Entries are ``(kind, src, dst, seq, attempt)`` with ``kind`` one of
    ``reorder``, ``duplicate``, ``delay``, ``retry``, ``crash``, ``dead``
    (fields are -1 where they do not apply).  ``seq`` is always a wire
    sequence number (or the op counter for ``crash``/``dead``); a retry's
    attempt index is recorded under its own ``attempt`` field rather than
    overloading ``seq``.  Tests assert on :meth:`count` to prove a plan
    actually exercised the wire.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.events: list = []

    def record(
        self, kind: str, src: int, dst: int = -1, seq: int = -1, attempt: int = -1
    ) -> None:
        with self._lock:
            self.events.append((kind, src, dst, seq, attempt))

    def count(self, kind: str) -> int:
        with self._lock:
            return sum(1 for e in self.events if e[0] == kind)

    def kinds(self) -> dict:
        """``{kind: count}`` summary."""
        with self._lock:
            out: dict = {}
            for e in self.events:
                out[e[0]] = out.get(e[0], 0) + 1
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self.events)


class FaultyWire(ThreadTransport):
    """The in-process wire under a :class:`FaultPlan`.

    ``push_parts`` envelopes each frame with its channel sequence number
    and applies the plan's decisions (delay, reorder, duplicate), logging
    each one; ``pull`` resequences, drops duplicates and holds an envelope
    until its ``not_before`` has passed.  Traffic statistics still record
    the *logical* message exactly once (in ``SimComm.send``) — duplicates
    and delays are wire artifacts, visible in the fault log only.
    """

    __slots__ = ("_plan", "_log", "_out_seq", "_rng", "_next_seq", "_reseq")

    def __init__(self, shared, rank: int):
        super().__init__(shared, rank)
        self._plan = shared.faults
        self._log = shared.fault_log
        self._out_seq = {}  # dst -> next sequence number to send
        self._rng = {}  # dst -> per-channel decision stream
        self._next_seq = {}  # src -> next sequence number to deliver
        self._reseq = {}  # src -> {seq: (tag, not_before, payload)}

    def push_parts(self, dest: int, tag: int, parts, total: int) -> None:
        plan = self._plan
        seq = self._out_seq.get(dest, 0)
        self._out_seq[dest] = seq + 1
        rng = self._rng.get(dest)
        if rng is None:
            rng = self._rng[dest] = plan.channel_rng(self._rank, dest)
        # one draw per knob, always, so decision streams stay aligned
        # across plans that differ only in rates
        u_dup, u_reorder, u_delay = rng.random(), rng.random(), rng.random()
        not_before = 0.0
        if plan.delay_rate and u_delay < plan.delay_rate:
            not_before = time.monotonic() + plan.delay
            self._log.record("delay", self._rank, dest, seq)
        elif plan.reorder_rate and u_reorder < plan.reorder_rate:
            # held just long enough for the channel's next message to
            # overtake it on the wire
            not_before = time.monotonic() + _REORDER_HOLD
            self._log.record("reorder", self._rank, dest, seq)
        q = self._shared.queues[(self._rank, dest)]
        envelope = (tag, seq, not_before, b"".join(parts))
        q.put(envelope)
        if plan.duplicate_rate and u_dup < plan.duplicate_rate:
            q.put(envelope)
            self._log.record("duplicate", self._rank, dest, seq)

    def pull(self, source: int, slice_s: float):
        buf = self._reseq.setdefault(source, {})
        q = self._shared.queues[(source, self._rank)]
        while True:
            # deliver the next in-sequence envelope once its injected
            # latency has elapsed
            nxt = self._next_seq.get(source, 0)
            entry = buf.get(nxt)
            if entry is not None and entry[1] <= time.monotonic():
                del buf[nxt]
                self._next_seq[source] = nxt + 1
                return entry[0], entry[2]
            try:
                tag, seq, not_before, payload = q.get(timeout=slice_s)
            except queue.Empty:
                raise TransportEmpty() from None
            if seq < nxt or seq in buf:
                continue  # duplicate delivery — drop
            buf[seq] = (tag, not_before, payload)


def recv_with_retry(
    comm,
    source: int,
    tag: int = 0,
    timeout: float = None,
    retries: int = None,
    backoff: float = None,
):
    """Receive with the PARED-side timeout/retry/backoff discipline.

    On a plain (fault-free) communicator this is exactly one ``recv`` with
    the default patience — zero behavioural change.  Under an active
    :class:`FaultPlan` the per-attempt timeout, retry budget and backoff
    default to the plan's values, so the distributed phases (P2 weight
    gather, P3 tree payloads) survive injected delivery delays by retrying
    instead of dying on the first timeout.

    Raises :class:`FaultToleranceExhausted` when the budget is spent.
    """
    plan = getattr(comm, "fault_plan", None)
    log = getattr(comm, "fault_log", None)
    if timeout is None:
        timeout = plan.recv_timeout if plan is not None else None
    if retries is None:
        retries = plan.max_retries if plan is not None else 0
    if backoff is None:
        backoff = plan.backoff if plan is not None else 2.0
    kwargs = {} if timeout is None else {"timeout": timeout}
    attempt_timeout = timeout
    for attempt in range(retries + 1):
        try:
            return comm.recv(source, tag, **kwargs)
        except FaultToleranceExhausted:
            raise  # comm.recv already ran its own retry schedule
        except TimeoutError:
            if attempt == retries:
                raise FaultToleranceExhausted(
                    f"rank {comm.rank} gave up receiving from rank {source} "
                    f"tag {tag} after {retries + 1} attempts "
                    f"(attempt timeouts: {attempt_schedule(timeout, retries, backoff)})"
                )
            if log is not None:
                log.record("retry", comm.rank, source, attempt=attempt)
            if attempt_timeout is not None:
                attempt_timeout *= backoff
                kwargs = {"timeout": attempt_timeout}
    raise AssertionError("unreachable")


def attempt_schedule(timeout, retries: int, backoff: float) -> str:
    """Human-readable full schedule of per-attempt timeouts, first to last
    — what an exhausted receive actually waited, not just the final
    backed-off value."""
    if timeout is None:
        return f"{retries + 1} x default patience"
    return ", ".join(f"{timeout * backoff ** i:g}s" for i in range(retries + 1))
