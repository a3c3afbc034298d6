"""In-process message-passing runtime with an mpi4py-flavoured API.

``spmd_run(p, fn, ...)`` launches ``p`` ranks, each running ``fn(comm,
...)`` on its own thread; ranks communicate only through their
:class:`SimComm`, which provides blocking point-to-point ``send``/``recv``
(tag-matched, per-pair FIFO order) and the collectives PARED uses
(``bcast``, ``gather``, ``scatter``, ``allgather``, ``allreduce``,
``barrier``).  Payloads travel as typed frames of
:mod:`repro.runtime.codec` — raw numpy buffers plus a small tag header,
with pickle retained as the fallback leaf for arbitrary objects — and the
frame size is recorded per phase in a shared
:class:`~repro.runtime.stats.TrafficStats` (the accounting rule is
unchanged: one record of ``len(frame)`` bytes per logical message).
Encode, decode and receive-wait time land in :data:`repro.perf.PERF`
under ``codec.encode.<phase>``, ``codec.decode.<phase>`` and
``simmpi.wait.<phase>``, so round profiles show the data-plane cost.

Transports: the wire behind ``send``/``recv`` is pluggable
(:mod:`repro.runtime.transport`).  The default backend runs one *thread*
per rank over in-process queues — deterministic, cheap, and the substrate
for fault injection and crash recovery.  ``spmd_run(...,
transport="shm")`` (or ``REPRO_TRANSPORT=shm``; ``"process"`` is an alias)
runs one forked *process* per rank from a persistent pool instead, so
phases execute on real cores with no GIL serialization; frames travel
through shared-memory rings (see :mod:`repro.runtime.shm`), and
per-worker traffic ledgers are merged at the end of the run, so
accounting is identical on both backends.

Error containment: an exception on any rank cancels the run and is re-raised
in the caller (with the originating rank), instead of deadlocking the other
ranks; their pending ``recv`` calls raise :class:`SimMPIAborted`.

Fault injection: ``spmd_run(..., faults=FaultPlan(...))`` perturbs the wire
(reorder, delay, duplication, rank crash) while the communicator keeps its
exactly-once in-order delivery guarantee — see :mod:`repro.runtime.faults`.
With ``faults=None`` (the default) every code path below is byte-for-byte
the original: fault support costs nothing when disabled.

Crash survival: ``spmd_run(..., recover=True)`` converts a rank dying of
:class:`SimRankCrashed` or :class:`FaultToleranceExhausted` into a
:class:`~repro.runtime.recovery.MembershipChange` on a shared ledger
instead of aborting the run.  Surviving ranks observe the change as a
:class:`~repro.runtime.recovery.PeerCrashed` raised from their next
blocked receive, sends to dead ranks are silently dropped, and the group
barrier releases on the live count.  The application decides what recovery
means (see :mod:`repro.pared.system`); the runtime only guarantees clean,
typed detection.  With ``recover=False`` (the default) behaviour is
exactly the original fail-stop semantics.
"""

from __future__ import annotations

import queue
import threading
import time
from time import perf_counter

from repro.perf import PERF
from repro.runtime.codec import (
    decode as _decode,
    encode as _encode,
    encode_parts as _encode_parts,
    parts_nbytes as _parts_nbytes,
)
from repro.runtime.faults import (
    FaultLog,
    FaultPlan,
    FaultToleranceExhausted,
    SimRankCrashed,
    _REORDER_HOLD,
    attempt_schedule,
)
from repro.runtime.recovery import MembershipChange, PeerCrashed
from repro.runtime.stats import TrafficStats
from repro.runtime.shm import RingFrame, shm_spmd_run
from repro.runtime.transport import (  # noqa: F401  (re-exported API)
    SimMPIAborted,
    SimMPITimeout,
    SimRankDied,
    ThreadTransport,
    TransportEmpty,
    resolve_backend,
)

_DEFAULT_TIMEOUT = 120.0


class _LiveBarrier:
    """Membership-aware rendezvous used when ``recover=True``.

    Releases once every *live* rank is waiting; a death while ranks wait
    wakes the waiters (via :meth:`wake` from ``mark_dead``) so the lowered
    live count is re-evaluated instead of deadlocking on a rank that will
    never arrive.  API-compatible with :class:`threading.Barrier` for the
    two methods the runtime uses (``wait``/``abort``).
    """

    def __init__(self, shared: "_Shared"):
        self._shared = shared
        self._cond = threading.Condition()
        self._waiting = 0
        self._generation = 0
        self._aborted = False

    def wait(self, timeout: float = None) -> None:
        deadline = time.monotonic() + (
            timeout if timeout is not None else _DEFAULT_TIMEOUT
        )
        with self._cond:
            if self._aborted:
                raise threading.BrokenBarrierError
            gen = self._generation
            self._waiting += 1
            while self._generation == gen:
                if self._aborted:
                    raise threading.BrokenBarrierError
                live = self._shared.size - len(self._shared.dead)
                if self._waiting >= live:
                    self._waiting = 0
                    self._generation += 1
                    self._cond.notify_all()
                    return
                if time.monotonic() >= deadline:
                    self._waiting -= 1
                    raise threading.BrokenBarrierError
                # short tick: re-check the live count even without a wake
                self._cond.wait(timeout=0.05)

    def wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def abort(self) -> None:
        with self._cond:
            self._aborted = True
            self._cond.notify_all()


class _Shared:
    """State shared by all ranks of one spmd_run."""

    def __init__(self, size: int, faults: FaultPlan = None, recover: bool = False):
        self.size = size
        # one FIFO per ordered pair keeps per-pair ordering MPI-like
        self.queues = {
            (s, d): queue.Queue() for s in range(size) for d in range(size)
        }
        self.stats = TrafficStats()
        self.abort = threading.Event()
        self.faults = faults
        self.fault_log = FaultLog() if faults is not None else None
        if faults is not None:
            self.stats.fault_log = self.fault_log
        # crash-survival ledger (inert unless recover=True)
        self.recover = recover
        self.dead: set = set()
        self.epoch = 0
        self.membership_events: list = []
        self.membership_lock = threading.Lock()
        self.barrier = _LiveBarrier(self) if recover else threading.Barrier(size)

    def mark_dead(self, rank: int, cause: str, op: int = -1) -> None:
        """Record a rank's death on the membership ledger (idempotent) and
        wake any barrier waiters so the live count is re-evaluated."""
        with self.membership_lock:
            if rank in self.dead:
                return
            self.dead.add(rank)
            self.epoch += 1
            self.membership_events.append(
                MembershipChange(rank=rank, epoch=self.epoch, cause=cause, op=op)
            )
        if self.fault_log is not None:
            self.fault_log.record("dead", rank, seq=op)
        if isinstance(self.barrier, _LiveBarrier):
            self.barrier.wake()

    def events_after(self, epoch: int) -> list:
        with self.membership_lock:
            return [e for e in self.membership_events if e.epoch > epoch]


class Request:
    """Handle of a nonblocking operation (mpi4py's ``isend``/``irecv``).

    ``sent_bytes`` is the total frame bytes the operation already put on
    the wire when it was posted (nonzero for ``isend``/``iallgather``) —
    the hook per-round traffic accounting reads without re-encoding."""

    __slots__ = ("_fn", "_done", "_value", "sent_bytes")

    def __init__(self, fn, sent_bytes: int = 0):
        self._fn = fn
        self._done = False
        self._value = None
        self.sent_bytes = sent_bytes

    def wait(self, timeout: float = _DEFAULT_TIMEOUT):
        """Complete the operation; returns the received object for
        ``irecv`` requests, ``None`` for ``isend``."""
        if not self._done:
            self._value = self._fn(timeout)
            self._done = True
        return self._value

    def test(self):
        """``(done, value)`` without blocking (best-effort: tries with a
        tiny timeout)."""
        if self._done:
            return True, self._value
        try:
            self._value = self._fn(0.05)
            self._done = True
            return True, self._value
        except TimeoutError:
            return False, None


class SimComm:
    """Per-rank communicator handle."""

    def __init__(self, shared: _Shared, rank: int, transport=None):
        self._shared = shared
        self.rank = rank
        self.size = shared.size
        # the wire itself is pluggable (see repro.runtime.transport); the
        # threaded queue wire remains the default and the only transport
        # the fault-injection and recovery paths below run on
        self._transport = (
            transport if transport is not None else ThreadTransport(shared, rank)
        )
        # scatter-gather send capability (the shm ring writes payload
        # parts straight into shared memory, skipping the big join)
        self._push_parts = getattr(self._transport, "push_parts", None)
        self.phase = "default"
        # out-of-order tag buffer per source
        self._stash = {}
        self._recover = shared.recover
        self._ack_epoch = 0
        self._faults = shared.faults
        if self._faults is not None:
            self._ops = 0  # communication-op counter for crash-at-op
            self._out_seq = {}  # dst -> next sequence number to send
            self._rng = {}  # dst -> per-channel decision stream
            self._next_seq = {}  # src -> next sequence number to deliver
            self._reseq = {}  # src -> {seq: (tag, not_before, payload)}

    @property
    def fault_plan(self) -> FaultPlan:
        """The active :class:`FaultPlan`, or ``None``."""
        return self._faults

    @property
    def fault_log(self) -> FaultLog:
        """Shared log of injected fault events (``None`` without a plan)."""
        return self._shared.fault_log

    # ------------------------------------------------------------------ #
    # membership (active only with spmd_run(..., recover=True))
    # ------------------------------------------------------------------ #

    @property
    def recovery_enabled(self) -> bool:
        """True when this run converts rank deaths into membership events."""
        return self._recover

    def _membership_check(self) -> None:
        """Raise :class:`PeerCrashed` if the ledger moved past the epoch
        this rank acknowledged — called from every blocking receive so a
        survivor can never block forever on a dead peer."""
        if self._recover and self._shared.epoch > self._ack_epoch:
            raise PeerCrashed(self._shared.events_after(self._ack_epoch))

    def acknowledge_membership(self) -> list:
        """Accept the current membership epoch; returns the events newly
        acknowledged.  Receives stop raising :class:`PeerCrashed` until the
        next death."""
        events = self._shared.events_after(self._ack_epoch)
        if events:
            self._ack_epoch = events[-1].epoch
        return events

    @property
    def ack_epoch(self) -> int:
        return self._ack_epoch

    def live_ranks(self) -> list:
        """Sorted ranks still in the computation."""
        return [r for r in range(self.size) if r not in self._shared.dead]

    def dead_ranks(self) -> list:
        return sorted(self._shared.dead)

    def clear_stash(self, source: int) -> None:
        """Discard stashed (delivered but unconsumed) messages from
        ``source`` — recovery flushes pre-crash traffic this way."""
        self._stash.pop(source, None)

    # ------------------------------------------------------------------ #
    # phases
    # ------------------------------------------------------------------ #

    def set_phase(self, phase: str) -> None:
        """Label subsequent traffic with the given phase (P0..P3 in PARED)."""
        self.phase = phase

    @property
    def stats(self) -> TrafficStats:
        return self._shared.stats

    # ------------------------------------------------------------------ #
    # point to point
    # ------------------------------------------------------------------ #

    def send(self, obj, dest: int, tag: int = 0) -> int:
        """Send a picklable object to ``dest`` (non-blocking, buffered).
        Returns the frame length in bytes (0 for a dropped send to a dead
        rank) — the same number the traffic ledger recorded."""
        if self._transport.aborted():
            raise SimMPIAborted("run aborted")
        if not (0 <= dest < self.size):
            raise ValueError(f"invalid dest {dest}")
        if self._recover and dest in self._shared.dead:
            # a send to a departed rank is a no-op, like writing to a
            # connection the transport already tore down
            return 0
        if self._faults is not None:
            return self._send_faulty(obj, dest, tag)
        if self._push_parts is not None:
            # scatter-gather path: the ledger records the exact frame
            # length (the parts concatenate to the very bytes ``encode``
            # would produce), so accounting parity across backends holds
            tick = perf_counter()
            parts = _encode_parts(obj)
            n = _parts_nbytes(parts)
            PERF.add("codec.encode." + self.phase, perf_counter() - tick)
            self._shared.stats.record(self.rank, dest, n, self.phase)
            self._push_parts(dest, tag, parts, n)
            return n
        payload = self._encode_timed(obj)
        self._shared.stats.record(self.rank, dest, len(payload), self.phase)
        self._transport.push(dest, tag, payload)
        return len(payload)

    def _encode_timed(self, obj) -> bytes:
        tick = perf_counter()
        payload = _encode(obj)
        PERF.add("codec.encode." + self.phase, perf_counter() - tick)
        return payload

    def _decode_timed(self, payload):
        tick = perf_counter()
        if isinstance(payload, RingFrame):
            obj = payload.decode()  # zero-copy views pin the ring slot
        else:
            obj = _decode(payload)
        PERF.add("codec.decode." + self.phase, perf_counter() - tick)
        return obj

    def recv(self, source: int, tag: int = 0, timeout: float = None):
        """Blocking receive of the next message from ``source`` with ``tag``
        (out-of-order tags are stashed)."""
        if not (0 <= source < self.size):
            raise ValueError(f"invalid source {source}")
        if self._faults is not None:
            return self._recv_faulty(source, tag, timeout)
        if timeout is None:
            timeout = _DEFAULT_TIMEOUT
        stash = self._stash.setdefault(source, {})
        if tag in stash and stash[tag]:
            return self._decode_timed(stash[tag].pop(0))
        tick = perf_counter()
        while True:
            if self._transport.aborted():
                raise SimMPIAborted("run aborted")
            try:
                got_tag, payload = self._transport.pull(source, 0.05)
            except TransportEmpty:
                # only raise PeerCrashed when actually stuck: available
                # messages are always drained first, so ranks whose answer
                # already arrived make progress through a membership change
                self._membership_check()
                timeout -= 0.05
                if timeout <= 0:
                    raise SimMPITimeout(
                        f"rank {self.rank} timed out receiving from {source} tag {tag}"
                    )
                continue
            if got_tag == tag:
                PERF.add("simmpi.wait." + self.phase, perf_counter() - tick)
                return self._decode_timed(payload)
            stash.setdefault(got_tag, []).append(payload)

    # ------------------------------------------------------------------ #
    # fault-injected wire (active only under a FaultPlan)
    # ------------------------------------------------------------------ #

    def _count_op(self) -> None:
        """Advance the crash clock; dies when the plan says so."""
        plan = self._faults
        self._ops += 1
        if plan.crash_rank == self.rank and self._ops >= plan.crash_at_op:
            self._shared.fault_log.record("crash", self.rank, seq=self._ops)
            raise SimRankCrashed(
                f"rank {self.rank} crashed (injected fault) at "
                f"communication op {self._ops}"
            )

    def _send_faulty(self, obj, dest: int, tag: int) -> int:
        """Envelope the message and apply the plan's wire perturbations.

        Traffic statistics record the *logical* message exactly once —
        duplicates and delays are wire artifacts, visible in the fault log
        but not in the algorithm's communication accounting.
        """
        plan = self._faults
        self._count_op()
        payload = self._encode_timed(obj)
        self._shared.stats.record(self.rank, dest, len(payload), self.phase)
        seq = self._out_seq.get(dest, 0)
        self._out_seq[dest] = seq + 1
        rng = self._rng.get(dest)
        if rng is None:
            rng = self._rng[dest] = plan.channel_rng(self.rank, dest)
        # one draw per knob, always, so decision streams stay aligned
        # across plans that differ only in rates
        u_dup, u_reorder, u_delay = rng.random(), rng.random(), rng.random()
        log = self._shared.fault_log
        not_before = 0.0
        if plan.delay_rate and u_delay < plan.delay_rate:
            not_before = time.monotonic() + plan.delay
            log.record("delay", self.rank, dest, seq)
        elif plan.reorder_rate and u_reorder < plan.reorder_rate:
            # held just long enough for the channel's next message to
            # overtake it on the wire
            not_before = time.monotonic() + _REORDER_HOLD
            log.record("reorder", self.rank, dest, seq)
        q = self._shared.queues[(self.rank, dest)]
        envelope = (tag, seq, not_before, payload)
        q.put(envelope)
        if plan.duplicate_rate and u_dup < plan.duplicate_rate:
            q.put(envelope)
            log.record("duplicate", self.rank, dest, seq)
        return len(payload)

    def _recv_faulty(self, source: int, tag: int, timeout):
        """Resequencing receive: dedupes, restores per-channel order, and
        honours injected latency.

        When the caller passes no explicit ``timeout``, patience is the
        plan's ``recv_timeout`` per attempt with ``max_retries`` retries and
        exponential backoff; exhaustion raises
        :class:`FaultToleranceExhausted` (a documented error, never a hang).
        An explicit ``timeout`` means the caller manages its own retries
        (see :func:`repro.runtime.faults.recv_with_retry`).
        """
        plan = self._faults
        self._count_op()
        if timeout is not None:
            return self._recv_attempt(source, tag, timeout)
        base_timeout = (
            plan.recv_timeout if plan.recv_timeout is not None else _DEFAULT_TIMEOUT
        )
        attempt_timeout = base_timeout
        for attempt in range(plan.max_retries + 1):
            try:
                return self._recv_attempt(source, tag, attempt_timeout)
            except TimeoutError:
                if attempt == plan.max_retries:
                    if plan.max_retries:
                        raise FaultToleranceExhausted(
                            f"rank {self.rank} gave up receiving from rank "
                            f"{source} tag {tag} after {plan.max_retries + 1} "
                            f"attempts (attempt timeouts: "
                            f"{attempt_schedule(base_timeout, plan.max_retries, plan.backoff)})"
                        )
                    raise
                self._shared.fault_log.record(
                    "retry", self.rank, source, attempt=attempt
                )
                attempt_timeout *= plan.backoff

    def _recv_attempt(self, source: int, tag: int, timeout: float):
        """One bounded attempt at delivering the next in-order message."""
        stash = self._stash.setdefault(source, {})
        if tag in stash and stash[tag]:
            return self._decode_timed(stash[tag].pop(0))
        buf = self._reseq.setdefault(source, {})
        q = self._shared.queues[(source, self.rank)]
        remaining = timeout
        tick = perf_counter()
        while True:
            if self._shared.abort.is_set():
                raise SimMPIAborted("run aborted")
            # deliver the next in-sequence envelope once its injected
            # latency has elapsed
            nxt = self._next_seq.get(source, 0)
            entry = buf.get(nxt)
            if entry is not None and entry[1] <= time.monotonic():
                del buf[nxt]
                self._next_seq[source] = nxt + 1
                got_tag, _, payload = entry
                if got_tag == tag:
                    PERF.add("simmpi.wait." + self.phase, perf_counter() - tick)
                    return self._decode_timed(payload)
                stash.setdefault(got_tag, []).append(payload)
                continue
            try:
                got_tag, seq, not_before, payload = q.get(timeout=0.05)
            except queue.Empty:
                # stuck, not just slow: surface a membership change before
                # burning the rest of the attempt budget on a dead peer
                self._membership_check()
                remaining -= 0.05
                if remaining <= 0:
                    raise SimMPITimeout(
                        f"rank {self.rank} timed out receiving from {source} tag {tag}"
                    )
                continue
            if seq < self._next_seq.get(source, 0) or seq in buf:
                continue  # duplicate delivery — drop
            buf[seq] = (got_tag, not_before, payload)

    def isend(self, obj, dest: int, tag: int = 0) -> "Request":
        """Nonblocking send.  The simulated send buffers immediately, so the
        request completes at once — the API exists for mpi4py parity."""
        self.send(obj, dest, tag)
        return Request(lambda timeout: None)

    def irecv(self, source: int, tag: int = 0) -> "Request":
        """Nonblocking receive: returns a :class:`Request`; ``wait()``
        yields the object."""
        return Request(lambda timeout: self.recv(source, tag, timeout=timeout))

    # ------------------------------------------------------------------ #
    # collectives (built on point-to-point so they are accounted)
    # ------------------------------------------------------------------ #

    def bcast(self, obj, root: int = 0, tag: int = -1, ranks=None):
        """Broadcast from ``root``.  ``ranks`` restricts the collective to a
        subgroup (e.g. the live ranks after a crash); ``None`` keeps the
        original full-communicator behaviour unchanged."""
        if ranks is None:
            if self.rank == root:
                for dst in range(self.size):
                    if dst != root:
                        self.send(obj, dst, tag)
                return obj
            return self.recv(root, tag)
        if self.rank == root:
            for dst in ranks:
                if dst != root:
                    self.send(obj, dst, tag)
            return obj
        return self.recv(root, tag)

    def gather(self, obj, root: int = 0, tag: int = -2, ranks=None):
        """Gather to ``root``.  With ``ranks`` the result list is aligned
        with (and only covers) the subgroup, in the given order."""
        if ranks is None:
            if self.rank == root:
                out = [None] * self.size
                out[root] = obj
                for src in range(self.size):
                    if src != root:
                        out[src] = self.recv(src, tag)
                return out
            self.send(obj, root, tag)
            return None
        if self.rank == root:
            return [
                obj if src == root else self.recv(src, tag) for src in ranks
            ]
        self.send(obj, root, tag)
        return None

    def scatter(self, objs, root: int = 0, tag: int = -3):
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError("root must scatter one object per rank")
            for dst in range(self.size):
                if dst != root:
                    self.send(objs[dst], dst, tag)
            return objs[root]
        return self.recv(root, tag)

    def allgather(self, obj, tag: int = -4, ranks=None):
        """Allgather by direct pairwise exchange — no root rank in the
        pattern, unlike the historical gather+bcast funnel.

        Power-of-two group sizes use *recursive doubling*: ``log2(k)``
        rounds, each rank swapping everything it holds with its partner
        across one address bit.  Other sizes use a *ring*: ``k - 1`` steps
        forwarding one block to the clockwise neighbor.  Both deliver the
        result list aligned with the group order (``ranks`` order, or rank
        order for the full communicator), identical to the old path.
        Blocks travel as ``(position, block)`` pairs, so ``None`` is a
        legal payload.  Sends buffer without blocking, so the symmetric
        send-then-receive step cannot deadlock on either transport.
        """
        group = list(range(self.size)) if ranks is None else list(ranks)
        k = len(group)
        if k == 1:
            return [obj]
        me = group.index(self.rank)
        blocks = [None] * k
        blocks[me] = obj
        if k & (k - 1) == 0:
            dim = 1
            while dim < k:
                # this rank holds exactly the blocks of its low-bit subcube
                partner = group[me ^ dim]
                self.send(
                    [(pos, blocks[pos]) for pos in (me ^ m for m in range(dim))],
                    partner,
                    tag,
                )
                for pos, blk in self.recv(partner, tag):
                    blocks[pos] = blk
                dim <<= 1
        else:
            right = group[(me + 1) % k]
            left = group[(me - 1) % k]
            self.send((me, obj), right, tag)
            for step in range(k - 1):
                pos, blk = self.recv(left, tag)
                blocks[pos] = blk
                if step < k - 2:
                    self.send((pos, blk), right, tag)
        return blocks

    def iallgather(self, obj, tag: int = -4, ranks=None) -> "Request":
        """Nonblocking allgather.  This rank's block goes out to every
        other group member immediately (simulated sends buffer without
        blocking), and the returned :class:`Request` performs the ``k - 1``
        receives on ``wait()`` — so local work scheduled between post and
        wait genuinely overlaps the peers' sends on the forked backend.
        ``wait(timeout=...)`` budgets the timeout across the receives and
        raises :class:`SimMPITimeout` like a blocking ``recv`` would;
        ``req.sent_bytes`` is the total frame bytes posted."""
        group = list(range(self.size)) if ranks is None else list(ranks)
        k = len(group)
        me = group.index(self.rank)
        nbytes = 0
        for step in range(1, k):
            nbytes += self.send((me, obj), group[(me + step) % k], tag)

        def complete(timeout):
            remaining = timeout if timeout is not None else _DEFAULT_TIMEOUT
            blocks = [None] * k
            blocks[me] = obj
            for step in range(1, k):
                src = group[(me - step) % k]
                tick = perf_counter()
                pos, blk = self.recv(src, tag, timeout=max(remaining, 0.001))
                remaining -= perf_counter() - tick
                blocks[pos] = blk
            return blocks

        return Request(complete, sent_bytes=nbytes)

    def allreduce(self, obj, op=None, tag: int = -5, ranks=None):
        """Reduce with ``op`` (binary callable, default ``+``), result on
        every rank: a pairwise allgather of the operands, then each rank
        folds them locally in group order.  The fold order is identical
        everywhere (and identical to the old root-funneled reduce), so
        floating-point results stay bitwise replica-identical."""
        data = self.allgather(obj, tag=tag, ranks=ranks)
        acc = data[0]
        for item in data[1:]:
            acc = (acc + item) if op is None else op(acc, item)
        return acc

    def reduce(self, obj, op=None, root: int = 0, tag: int = -6):
        """Reduce to ``root`` with ``op`` (binary callable, default ``+``);
        non-root ranks get ``None``."""
        data = self.gather(obj, root=root, tag=tag)
        if self.rank != root:
            return None
        acc = data[0]
        for item in data[1:]:
            acc = (acc + item) if op is None else op(acc, item)
        return acc

    def alltoall(self, objs, tag: int = -7):
        """Each rank sends ``objs[d]`` to rank ``d`` and receives one object
        from every rank; returns the received list indexed by source."""
        if objs is None or len(objs) != self.size:
            raise ValueError("alltoall needs one object per rank")
        for dst in range(self.size):
            if dst != self.rank:
                self.send(objs[dst], dst, tag)
        out = [None] * self.size
        out[self.rank] = objs[self.rank]
        for src in range(self.size):
            if src != self.rank:
                out[src] = self.recv(src, tag)
        return out

    def barrier(self) -> None:
        if self._transport.aborted():
            raise SimMPIAborted("run aborted")
        if self._faults is not None:
            self._count_op()
        self._transport.barrier(_DEFAULT_TIMEOUT)


def spmd_run(
    size: int,
    fn,
    *args,
    return_stats: bool = False,
    faults: FaultPlan = None,
    recover: bool = False,
    transport: str = None,
    **kwargs,
):
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` ranks.

    Returns the list of per-rank return values (plus the
    :class:`TrafficStats` if ``return_stats``).  The first rank exception is
    re-raised with its rank attached.

    ``transport`` selects the wire backend: ``"thread"`` (the default —
    one thread per rank, in-process queues) or ``"shm"`` (forked ranks
    from a persistent pool exchanging frames through shared-memory rings
    with zero-copy receive, for real multi-core wall-clock; see
    :mod:`repro.runtime.shm`).  ``"process"`` is an alias of ``"shm"``.
    When omitted, the ``REPRO_TRANSPORT`` environment variable decides.
    Fault injection and ``recover=True`` are thread-backend features: an
    environment preference for the forked backend falls back to threads,
    while an explicit ``transport="shm"`` with either active raises.  On
    the forked backend a rank process death surfaces as
    :class:`~repro.runtime.transport.SimRankDied`, never a hang.

    ``faults`` activates the deterministic fault-injection wire of
    :mod:`repro.runtime.faults`; injected events land on
    ``stats.fault_log``.  An injected crash re-raises as
    :class:`~repro.runtime.faults.SimRankCrashed` with the rank and op in
    the message.

    ``recover=True`` switches rank death from fail-stop to membership
    change: a rank dying of :class:`SimRankCrashed` or
    :class:`FaultToleranceExhausted` is marked dead on the shared ledger
    (its slot in the result list stays ``None``), surviving ranks see
    :class:`~repro.runtime.recovery.PeerCrashed` on their next receive, and
    the run's :class:`MembershipChange` events are attached to the stats as
    ``stats.membership_events``.  Only if *every* rank dies is the first
    death re-raised.
    """
    if size < 1:
        raise ValueError("need at least one rank")
    backend = resolve_backend(transport, faults=faults, recover=recover)
    if backend == "shm":
        return shm_spmd_run(size, fn, args, kwargs, return_stats=return_stats)
    shared = _Shared(size, faults=faults, recover=recover)
    shared.stats.backend = "thread"
    results = [None] * size
    errors = [None] * size
    deaths = (SimRankCrashed, FaultToleranceExhausted)

    def runner(rank: int):
        comm = SimComm(shared, rank)
        try:
            results[rank] = fn(comm, *args, **kwargs)
        except deaths as exc:
            errors[rank] = exc
            if shared.recover:
                cause = "crash" if isinstance(exc, SimRankCrashed) else "timeout"
                shared.mark_dead(rank, cause, op=getattr(comm, "_ops", -1))
            else:
                shared.abort.set()
                shared.barrier.abort()
        except BaseException as exc:  # noqa: BLE001 - must not deadlock peers
            errors[rank] = exc
            shared.abort.set()
            shared.barrier.abort()

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"simmpi-rank-{r}")
        for r in range(size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    shared.stats.membership_events = list(shared.membership_events)
    # Re-raise the root cause: secondary BrokenBarrier/SimMPIAborted errors
    # on peer ranks are consequences of the abort, not the failure itself.
    secondary = (SimMPIAborted, threading.BrokenBarrierError)
    if recover:
        # rank deaths were absorbed into membership events; anything else
        # (including an unhandled PeerCrashed) is still a real failure
        primary = [
            (r, e) for r, e in enumerate(errors)
            if e is not None and not isinstance(e, secondary + deaths)
        ]
        if primary:
            rank, exc = primary[0]
            raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
        if len(shared.dead) == size:
            raise next(e for e in errors if isinstance(e, deaths))
        if return_stats:
            return results, shared.stats
        return results
    primary = [
        (r, e) for r, e in enumerate(errors)
        if e is not None and not isinstance(e, secondary)
    ]
    if primary:
        rank, exc = primary[0]
        if isinstance(exc, SimRankCrashed):
            # A plan-injected crash is an expected diagnostic, not a wrapped
            # failure: surface it typed and clean.
            raise exc
        raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
    for rank, exc in enumerate(errors):
        if exc is not None and not isinstance(exc, SimMPIAborted):
            raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc
    if return_stats:
        return results, shared.stats
    return results
