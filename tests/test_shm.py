"""Unit and lifecycle tests for the shared-memory transport backend.

The cross-backend *semantics* of shm live in the conformance suite
(`test_simmpi.py`); this file covers what is unique to the backend: the
SPSC ring protocol itself (wrap, refusal, zero-copy pinning, the
producer-forked-first startup race), the persistent rank pool (reuse,
poisoning on death, shutdown hygiene) and the ring/spill split of the
data plane.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.runtime.shm import (
    RING_COPY_MAX,
    Ring,
    RingFrame,
    default_ring_bytes,
    pool_stats,
    shutdown_pools,
)
from repro.runtime.simmpi import spmd_run

_RING_HDR = 64


def _region(cap=4096):
    return memoryview(bytearray(_RING_HDR + cap))


def _collect(ring):
    got = []
    ring.poll(lambda tag, job, seq, payload: got.append(
        (tag, job, seq, payload)
    ))
    return got


# ---------------------------------------------------------------------- #
# the ring protocol
# ---------------------------------------------------------------------- #


class TestRing:
    def test_small_record_roundtrip_is_bytes(self):
        region = _region()
        prod, cons = Ring(region), Ring(region)
        assert prod.try_write(7, 1, 0, (b"hello",), 5)
        [(tag, job, seq, payload)] = _collect(cons)
        assert (tag, job, seq) == (7, 1, 0)
        assert isinstance(payload, bytes) and payload == b"hello"

    def test_large_record_is_pinned_ringframe(self):
        region = _region()
        prod, cons = Ring(region), Ring(region)
        blob = bytes(range(256)) * 8  # 2048 B > RING_COPY_MAX
        assert len(blob) > RING_COPY_MAX
        assert prod.try_write(1, 1, 0, (blob,), len(blob))
        [(_, _, _, frame)] = _collect(cons)
        assert isinstance(frame, RingFrame)
        assert bytes(frame.mv) == blob
        assert frame.mv.readonly
        # the slot stays pinned while the frame lives ...
        assert cons.pinned == 1
        cons.reclaim()
        assert cons.pinned == 1
        # ... and recycles once it dies
        del frame
        cons.reclaim()
        assert cons.pinned == 0

    def test_pinned_slot_blocks_overwrite_until_released(self):
        cap = 4096
        region = _region(cap)
        prod, cons = Ring(region), Ring(region)
        big = b"x" * (cap // 2 - 64)
        assert prod.try_write(1, 1, 0, (big,), len(big))
        assert prod.try_write(1, 1, 1, (big,), len(big))
        frames = [p for _, _, _, p in _collect(cons)]
        assert len(frames) == 2
        # ring now full of pinned slots: a third write must be refused
        assert not prod.try_write(1, 1, 2, (big,), len(big))
        del frames
        cons.reclaim()
        assert prod.try_write(1, 1, 2, (big,), len(big))

    def test_records_wrap_via_sentinel(self):
        """Many differently-sized records cross the wrap boundary intact
        and in order (the producer never splits a record)."""
        cap = 4096
        region = _region(cap)
        prod, cons = Ring(region), Ring(region)
        rng = np.random.default_rng(0)
        delivered = []

        def take():
            for _, _, seq, payload in _collect(cons):
                body = payload if isinstance(payload, bytes) else bytes(
                    payload.mv
                )
                assert body == bytes([seq % 256]) * len(body)
                delivered.append(seq)

        sent = 0
        for seq in range(200):
            n = int(rng.integers(1, 900))
            blob = bytes([seq % 256]) * n
            while not prod.try_write(3, 1, seq, (blob,), n):
                take()  # consumer keeps up, slots recycle
            sent += 1
        while len(delivered) < sent:
            before = len(delivered)
            take()
            assert len(delivered) > before, (
                "producer published records the consumer never saw"
            )
        assert delivered == list(range(sent))

    def test_refuses_oversized_frame(self):
        region = _region(4096)
        prod = Ring(region)
        assert not prod.try_write(1, 1, 0, (b"x" * 4096,), 4096)
        assert prod.max_frame < 4096 // 2

    def test_consumer_constructed_after_producer_wrote(self):
        """The startup race of a 1-core host: the producer rank is forked
        and publishes records *before* the consumer rank has constructed
        its Ring over the shared region.  The late consumer must still
        deliver everything — its cursor starts at the shared tail, never
        at the already-advanced head."""
        region = _region()
        prod = Ring(region)
        for seq in range(3):
            assert prod.try_write(5, 1, seq, (b"late-%d" % seq,), 6)
        cons = Ring(region)  # constructed after the writes
        got = _collect(cons)
        assert [(t, s) for t, _, s, _ in got] == [(5, 0), (5, 1), (5, 2)]
        assert [bytes(p) for _, _, _, p in got] == [
            b"late-0", b"late-1", b"late-2",
        ]

    def test_counters_are_monotonic_across_reuse(self):
        """head/tail never reset: slots recycle by modulo position while
        the shared counters only grow (no cross-job reset coordination)."""
        region = _region(4096)
        prod, cons = Ring(region), Ring(region)
        import struct

        for seq in range(50):
            assert prod.try_write(1, 1, seq, (b"y" * 100,), 100)
            _collect(cons)
        head = struct.unpack_from("<Q", region, 0)[0]
        tail = struct.unpack_from("<Q", region, 8)[0]
        assert head == tail  # fully drained
        assert head > 4096  # wrapped at least once, counters kept growing


# ---------------------------------------------------------------------- #
# pooled execution
# ---------------------------------------------------------------------- #


def _pool_prog(comm):
    comm.set_phase("pool")
    got = comm.allgather(np.arange(200, dtype=np.int64) + comm.rank, tag=3)
    return int(sum(int(a.sum()) for a in got))


def _big_frame_prog(comm):
    comm.set_phase("big")
    if comm.rank == 0:
        comm.send(np.arange(1 << 20, dtype=np.int64), 1, tag=9)  # 8 MiB
        return 0
    arr = comm.recv(0, tag=9, timeout=60.0)
    assert arr[-1] == (1 << 20) - 1
    return int(arr[0])


def _midsize_prog(comm):
    comm.set_phase("mid")
    got = comm.allgather(np.arange(400, dtype=np.int64) + comm.rank, tag=5)
    return int(sum(int(a.sum()) for a in got))


def _die_prog(comm):
    if comm.rank == 1:
        os._exit(13)
    comm.recv(1, timeout=30.0)


class TestShmPool:
    def test_pool_persists_across_runs(self):
        shutdown_pools()
        r1 = spmd_run(2, _pool_prog, transport="shm")
        assert pool_stats()[2][0] == 1
        setup = pool_stats()[2][1]
        r2 = spmd_run(2, _pool_prog, transport="shm")
        # same pool, one more job, no second fork
        assert pool_stats()[2] == (2, setup)
        assert r1 == r2

    def test_closure_falls_back_to_oneshot(self):
        shutdown_pools()
        salt = 17

        def prog(comm):  # closure: not picklable by reference
            return comm.rank + salt

        assert spmd_run(2, prog, transport="shm") == [17, 18]
        assert pool_stats() == {}  # the one-shot run never built a pool

    def test_worker_death_poisons_pool_then_rebuilds(self):
        from repro.runtime.simmpi import SimRankDied

        shutdown_pools()
        spmd_run(2, _pool_prog, transport="shm")
        with pytest.raises(SimRankDied, match="rank 1 process died"):
            spmd_run(2, _die_prog, transport="shm")
        # next run works on a fresh pool (job counter restarted)
        assert spmd_run(2, _pool_prog, transport="shm") == [
            2 * int(np.arange(200).sum()) + 200,
        ] * 2
        assert pool_stats()[2][0] == 1

    def test_shutdown_leaves_no_children(self):
        spmd_run(2, _pool_prog, transport="shm")
        shutdown_pools()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            left = [
                p for p in multiprocessing.active_children()
                if p.name.startswith("simmpi-shm-")
            ]
            if not left:
                break
            time.sleep(0.05)
        assert not left, [p.name for p in left]
        assert pool_stats() == {}

    def test_exception_in_job_keeps_pool_alive(self):
        shutdown_pools()
        spmd_run(2, _pool_prog, transport="shm")
        with pytest.raises(RuntimeError, match="rank 1 failed"):
            spmd_run(2, _raise_prog, transport="shm")
        # the failed job ran on the pool and did not poison it
        assert pool_stats()[2][0] == 2
        spmd_run(2, _pool_prog, transport="shm")
        assert pool_stats()[2][0] == 3


def _raise_prog(comm):
    if comm.rank == 1:
        raise RuntimeError("job-level boom")
    comm.barrier()


# ---------------------------------------------------------------------- #
# data-plane split: ring vs spill
# ---------------------------------------------------------------------- #


class TestRingSpillSplit:
    def test_ring_carries_small_frames(self):
        shutdown_pools()
        _, stats = spmd_run(
            2, _pool_prog, transport="shm", return_stats=True
        )
        wire = stats.wire_report()
        assert wire.get("ring_frames", 0) > 0
        assert wire.get("spill_frames", 0) == 0

    def test_oversized_frame_spills_and_arrives(self):
        """An 8 MiB frame exceeds half the default 4 MiB ring: it must
        ride the socket spill channel, bit-exact."""
        assert (1 << 23) > default_ring_bytes() // 2
        shutdown_pools()
        res, stats = spmd_run(
            2, _big_frame_prog, transport="shm", return_stats=True
        )
        assert res == [0, 0]
        wire = stats.wire_report()
        assert wire.get("spill_frames", 0) >= 1
        assert wire.get("spill_bytes", 0) >= 1 << 23

    def test_tiny_ring_spills_midsize_frames(self, monkeypatch):
        """REPRO_SHM_RING floors at 4 KiB, a ~2 KiB max_frame: the
        ~3.3 KiB exchange payloads cannot ride it and the run must
        transparently complete over the spill channel."""
        monkeypatch.setenv("REPRO_SHM_RING", "4096")
        shutdown_pools()
        try:
            res, stats = spmd_run(
                2, _midsize_prog, transport="shm", return_stats=True
            )
            assert res[0] == res[1]
            assert stats.wire_report().get("spill_frames", 0) > 0
        finally:
            shutdown_pools()  # do not leave a 4 KiB-ring pool behind

    def test_zero_copy_view_is_read_only(self):
        shutdown_pools()
        res = spmd_run(2, _view_prog, transport="shm")
        assert res == [True, True]

    def test_wire_counters_name_the_backend_channel(self):
        progs = {"thread": "queue", "shm": "ring"}
        for backend, channel in progs.items():
            _, stats = spmd_run(
                2, _pool_prog, transport=backend, return_stats=True
            )
            wire = stats.wire_report()
            assert wire.get(f"{channel}_frames", 0) > 0, (backend, wire)


def _view_prog(comm):
    comm.set_phase("view")
    if comm.rank == 0:
        comm.send(np.arange(4096, dtype=np.int64), 1, tag=4)
        return True
    arr = comm.recv(0, tag=4, timeout=30.0)
    # a ring-delivered array >= ZERO_COPY_MIN is a read-only view of
    # ring memory; writes must be refused, values must be right
    ok = not arr.flags.writeable and arr[4095] == 4095
    try:
        arr[0] = 1
        return False
    except ValueError:
        return ok
