"""Unit tests of the deterministic fault-injection layer.

Covers the wire semantics (exactly-once, in-order delivery under reorder /
duplication / delay), decision determinism, the zero-overhead guarantee of
the disabled path, crash diagnostics, and the PARED-side retry helper.
"""

import numpy as np
import pytest

from repro.core.pnr import PNR
from repro.mesh.adapt import AdaptiveMesh
from repro.pared.system import ParedConfig, run_pared
from repro.runtime import (
    FaultPlan,
    FaultToleranceExhausted,
    SimRankCrashed,
    recv_with_retry,
    spmd_run,
)

#: decision events are a pure function of the plan; 'retry' events depend on
#: wall-clock scheduling and are excluded from determinism comparisons
_DECISIONS = ("reorder", "duplicate", "delay")

CHAOS = FaultPlan(
    seed=11,
    reorder_rate=0.4,
    duplicate_rate=0.4,
    delay_rate=0.15,
    delay=0.25,
    recv_timeout=0.2,
    max_retries=5,
)


def _pingpong(comm):
    """Rank 0 streams tagged messages to every other rank; receivers return
    them in program order."""
    got = []
    if comm.rank == 0:
        for i in range(12):
            for dst in range(1, comm.size):
                comm.send((i, "x" * i), dst, tag=i % 3)
    else:
        for i in range(12):
            got.append(comm.recv(0, tag=i % 3))
    comm.barrier()
    return got


def _marker(amesh, rnd):
    cents = amesh.leaf_centroids()
    d = np.linalg.norm(cents - 0.5, axis=1)
    order = np.argsort(d)[: max(1, amesh.n_leaves // 8)]
    return amesh.leaf_ids()[order], []


def _pared_cfg(faults=None, audit=False, p=3, rounds=2):
    return ParedConfig(
        p=p,
        make_mesh=lambda: AdaptiveMesh.unit_square(4),
        marker=_marker,
        rounds=rounds,
        pnr=PNR(seed=1),
        faults=faults,
        audit=audit,
    )


class TestWireSemantics:
    def test_exactly_once_in_order_under_chaos(self):
        results, stats = spmd_run(3, _pingpong, return_stats=True, faults=CHAOS)
        for rank in (1, 2):
            assert [m[0] for m in results[rank]] == list(range(12))
        kinds = stats.fault_log.kinds()
        assert kinds.get("reorder", 0) > 0
        assert kinds.get("duplicate", 0) > 0
        assert kinds.get("delay", 0) > 0

    def test_results_match_fault_free_run(self):
        faulty = spmd_run(3, _pingpong, faults=CHAOS)
        clean = spmd_run(3, _pingpong)
        assert faulty == clean

    def test_decision_stream_is_deterministic(self):
        _, s1 = spmd_run(3, _pingpong, return_stats=True, faults=CHAOS)
        _, s2 = spmd_run(3, _pingpong, return_stats=True, faults=CHAOS)
        d1 = sorted(e for e in s1.fault_log.events if e[0] in _DECISIONS)
        d2 = sorted(e for e in s2.fault_log.events if e[0] in _DECISIONS)
        assert d1 == d2 and d1

    def test_different_seeds_differ(self):
        _, s1 = spmd_run(3, _pingpong, return_stats=True, faults=CHAOS)
        other = FaultPlan(
            seed=CHAOS.seed + 1,
            reorder_rate=CHAOS.reorder_rate,
            duplicate_rate=CHAOS.duplicate_rate,
            delay_rate=CHAOS.delay_rate,
            delay=CHAOS.delay,
            recv_timeout=CHAOS.recv_timeout,
            max_retries=CHAOS.max_retries,
        )
        _, s2 = spmd_run(3, _pingpong, return_stats=True, faults=other)
        d1 = sorted(e for e in s1.fault_log.events if e[0] in _DECISIONS)
        d2 = sorted(e for e in s2.fault_log.events if e[0] in _DECISIONS)
        assert d1 != d2


class TestWirePin:
    """Literal decision streams and crash diagnostics, so a shifted RNG
    draw, sequence number or crash clock shows up as a diff, not just as
    two equal runs of the same code."""

    CHAOS_DECISIONS = [
        ("delay", 0, 1, 8, -1), ("delay", 0, 1, 9, -1), ("delay", 0, 2, 6, -1),
        ("duplicate", 0, 1, 2, -1), ("duplicate", 0, 1, 3, -1),
        ("duplicate", 0, 1, 8, -1), ("duplicate", 0, 1, 11, -1),
        ("duplicate", 0, 2, 1, -1), ("duplicate", 0, 2, 4, -1),
        ("duplicate", 0, 2, 7, -1), ("duplicate", 0, 2, 11, -1),
        ("reorder", 0, 1, 1, -1), ("reorder", 0, 1, 2, -1),
        ("reorder", 0, 1, 5, -1), ("reorder", 0, 2, 0, -1),
        ("reorder", 0, 2, 2, -1), ("reorder", 0, 2, 3, -1),
        ("reorder", 0, 2, 4, -1), ("reorder", 0, 2, 7, -1),
        ("reorder", 0, 2, 8, -1), ("reorder", 0, 2, 9, -1),
        ("reorder", 0, 2, 10, -1), ("reorder", 0, 2, 11, -1),
    ]

    def test_chaos_pingpong_decisions(self):
        results, stats = spmd_run(3, _pingpong, return_stats=True, faults=CHAOS)
        decisions = sorted(e for e in stats.fault_log.events if e[0] in _DECISIONS)
        assert decisions == self.CHAOS_DECISIONS
        assert results == spmd_run(3, _pingpong)
        assert stats.phase_report() == {"default": (24, 612)}
        assert dict(stats.by_pair) == {(0, 1): 12, (0, 2): 12}

    @pytest.mark.parametrize(
        "rank, op",
        # rank 0: 24 sends then the barrier; rank 1: 12 receives then the
        # barrier — the last op of each rank is the highest that can fire
        [(0, 9), (0, 25), (1, 13)],
    )
    def test_crash_at_op(self, rank, op):
        plan = FaultPlan(
            seed=5, duplicate_rate=0.5, reorder_rate=0.3,
            crash_rank=rank, crash_at_op=op,
        )
        with pytest.raises(SimRankCrashed) as err:
            spmd_run(3, _pingpong, faults=plan)
        assert str(err.value) == (
            f"rank {rank} crashed (injected fault) at communication op {op}"
        )

    @pytest.mark.parametrize("rank, op", [(0, 26), (1, 14)])
    def test_crash_clock_past_last_op_never_fires(self, rank, op):
        plan = FaultPlan(seed=5, crash_rank=rank, crash_at_op=op)
        assert spmd_run(3, _pingpong, faults=plan) == spmd_run(3, _pingpong)


class TestZeroOverhead:
    def test_no_fault_plan_accounting_identical(self):
        """A PARED run with fault support disabled and one with an inert
        plan produce byte-identical traffic accounting and histories."""
        h_off, s_off = run_pared(_pared_cfg(faults=None))
        h_inert, s_inert = run_pared(_pared_cfg(faults=FaultPlan(seed=0)))
        assert s_off.phase_report() == s_inert.phase_report()
        assert dict(s_off.by_pair) == dict(s_inert.by_pair)
        for a, b in zip(h_off[0], h_inert[0]):
            assert np.array_equal(a["owner"], b["owner"])
            assert a["cut"] == b["cut"]
            assert a["elements_moved"] == b["elements_moved"]

    def test_disabled_plan_has_no_log(self):
        _, stats = run_pared(_pared_cfg(faults=None))
        assert stats.fault_log is None


class TestCrash:
    def test_crash_is_clean_and_typed(self):
        with pytest.raises(SimRankCrashed, match=r"rank 1.*injected fault"):
            run_pared(_pared_cfg(faults=FaultPlan(crash_rank=1, crash_at_op=9)))

    def test_crash_does_not_hang_peers(self):
        import time

        t0 = time.monotonic()
        with pytest.raises(SimRankCrashed):
            spmd_run(
                4, _pingpong, faults=FaultPlan(crash_rank=2, crash_at_op=3)
            )
        assert time.monotonic() - t0 < 30.0


class TestRetry:
    def test_plain_comm_single_attempt(self):
        def fn(comm):
            if comm.rank == 0:
                with pytest.raises(TimeoutError):
                    recv_with_retry(comm, 1, tag=99, timeout=0.1)
            return True

        assert spmd_run(2, fn) == [True, True]

    def test_exhaustion_is_documented_error(self):
        plan = FaultPlan(seed=0, recv_timeout=0.06, max_retries=2)

        def fn(comm):
            if comm.rank == 0:
                with pytest.raises(FaultToleranceExhausted, match="gave up"):
                    comm.recv(1, tag=99)
            return True

        assert spmd_run(2, fn, faults=plan) == [True, True]

    def test_retry_recovers_delayed_message(self):
        plan = FaultPlan(
            seed=2, delay_rate=1.0, delay=0.3, recv_timeout=0.1, max_retries=5
        )

        def fn(comm):
            if comm.rank == 0:
                comm.send("late", 1, tag=5)
                return None
            return comm.recv(0, tag=5)

        results, stats = spmd_run(2, fn, return_stats=True, faults=plan)
        assert results[1] == "late"
        assert stats.fault_log.count("retry") >= 1
