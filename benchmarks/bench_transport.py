"""Transport microbenchmark: in-process queues vs shared-memory ring.

Round-trip latency and bytes *copied* for one p=2 ping-pong at three
frame sizes — 1 KiB (ring copy-out regime), 1 MiB (ring zero-copy
regime) and 32 MiB (over ``max_frame``: the shm backend must spill to
the socket, so that row shows the socket-copy regime).  The committed ``results/transport_overhead.txt`` is the
repo's record of what the ring actually buys on the data plane: the
``copied_bytes`` column is deterministic (it counts memcpy crossings,
not time) and is asserted; the latency columns are informative and
depend on the host.

Run directly for quick numbers::

    PYTHONPATH=src python -m pytest benchmarks/bench_transport.py -q
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.runtime.envflags import effective_cpu_count
from repro.runtime.simmpi import spmd_run

#: (label, payload elements) — int64, so bytes = 8 * elements
_SIZES = (
    ("1KB", 128),
    ("1MB", 128 << 10),
    ("32MB", 4 << 20),
)
_REPS = {"1KB": 40, "1MB": 10, "32MB": 3}


def _pingpong(comm, n, reps):
    """Rank 0 sends, rank 1 echoes the first element back; returns wall
    seconds per round trip measured on rank 0."""
    payload = np.arange(n, dtype=np.int64)
    comm.barrier()
    t0 = perf_counter()
    for r in range(reps):
        if comm.rank == 0:
            comm.send(payload, 1, tag=40 + r)
            comm.recv(1, tag=80 + r, timeout=120.0)
        else:
            arr = comm.recv(0, tag=40 + r, timeout=120.0)
            comm.send(int(arr[0]), 0, tag=80 + r)
    return (perf_counter() - t0) / reps


def _measure(backend):
    rows = {}
    for label, n in _SIZES:
        reps = _REPS[label]
        res, stats = spmd_run(
            2, _pingpong, n, reps, transport=backend, return_stats=True
        )
        rows[label] = {
            "seconds_per_roundtrip": res[0],
            "wire": dict(stats.wire_report()),
        }
    return rows


def test_transport_overhead(write_result):
    thread = _measure("thread")
    shm = _measure("shm")

    # the copy ledger is deterministic; assert the regimes
    for label, n in _SIZES:
        nbytes = 8 * n
        shm_wire = shm[label]["wire"]
        if label == "32MB":
            # over max_frame: every payload frame spills to the socket,
            # which copies every payload byte
            assert shm_wire.get("spill_frames", 0) > 0, shm_wire
            assert shm_wire.get("copied_bytes", 0) >= nbytes, shm_wire
        else:
            assert shm_wire.get("spill_frames", 0) == 0, shm_wire
            assert shm_wire.get("ring_bytes", 0) > nbytes, shm_wire
    # the ring copies none of the zero-copy frames (1 MiB rides as views)
    assert shm["1MB"]["wire"]["copied_bytes"] < shm["1MB"]["wire"]["ring_bytes"]

    header = (
        f"{'frame':>6} | {'thread us/rt':>12} | {'shm us/rt':>10} "
        f"| {'shm copied':>10}"
    )
    lines = [
        "transport ping-pong overhead, p=2 "
        f"({effective_cpu_count()} usable core(s))",
        header,
        "-" * len(header),
    ]
    for label, n in _SIZES:
        lines.append(
            f"{label:>6} | "
            f"{thread[label]['seconds_per_roundtrip'] * 1e6:>12.1f} | "
            f"{shm[label]['seconds_per_roundtrip'] * 1e6:>10.1f} | "
            f"{shm[label]['wire'].get('copied_bytes', 0):>10}"
        )
    lines.append(
        "copied = bytes crossing a process boundary by memcpy; the shm "
        "ring delivers >1 KiB frames as zero-copy views (32 MiB exceeds "
        "max_frame and spills to the socket by design)"
    )
    write_result("transport_overhead", "\n".join(lines))
