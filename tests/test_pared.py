"""Tests for the PARED system layer: distributed mesh, migration, and the
full phase loop."""

import numpy as np
import pytest

from repro.core import PNR
from repro.fem import CornerLaplace2D, interpolation_error_indicator, mark_top_fraction
from repro.mesh import AdaptiveMesh, coarse_dual_graph
from repro.pared import (
    DistributedMesh,
    ParedConfig,
    execute_migration,
    migration_directives,
    run_pared,
)
from repro.runtime.simmpi import spmd_run


class TestDirectives:
    def test_no_change_no_directives(self):
        owner = np.array([0, 1, 2, 0])
        assert migration_directives(owner, owner) == []

    def test_directive_contents(self):
        old = np.array([0, 1, 1])
        new = np.array([0, 0, 2])
        d = migration_directives(old, new)
        assert d == [(1, 1, 0), (2, 1, 2)]


class TestDistributedMesh:
    def test_ownership_queries(self):
        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            owner = np.arange(am.n_roots) % comm.size
            dm = DistributedMesh(comm, am, owner)
            assert dm.local_load() == len(dm.owned_leaf_ids())
            total = comm.allreduce(dm.local_load())
            assert total == am.n_leaves
            return True

        assert all(spmd_run(4, prog))

    def test_owner_validation(self):
        def prog(comm):
            am = AdaptiveMesh.unit_square(2)
            with pytest.raises(ValueError):
                DistributedMesh(comm, am, np.zeros(3, dtype=int))
            with pytest.raises(ValueError):
                DistributedMesh(comm, am, np.full(am.n_roots, 99))
            return True

        assert all(spmd_run(1, prog))

    def test_parallel_refine_equals_serial(self):
        marked_global = [0, 7, 13, 20]

        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            owner = np.arange(am.n_roots) % comm.size
            dm = DistributedMesh(comm, am, owner)
            owned = set(int(e) for e in dm.owned_leaf_ids())
            mine = [e for e in marked_global if e in owned]
            dm.parallel_refine(mine)
            return am.n_leaves, {
                tuple(sorted(map(tuple, np.round(am.verts[c], 12))))
                for c in am.leaf_cells()
            }

        results = spmd_run(3, prog)
        serial = AdaptiveMesh.unit_square(4)
        serial.refine(marked_global)
        serial_geo = {
            tuple(sorted(map(tuple, np.round(serial.verts[c], 12))))
            for c in serial.leaf_cells()
        }
        for n, geo in results:
            assert n == serial.n_leaves
            assert geo == serial_geo

    def test_parallel_coarsen_equals_serial(self):
        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            am.uniform_refine(1)
            owner = np.arange(am.n_roots) % comm.size
            dm = DistributedMesh(comm, am, owner)
            mine = [int(e) for e in dm.owned_leaf_ids()]
            dm.parallel_coarsen(mine)
            return am.n_leaves

        results = spmd_run(3, prog)
        serial = AdaptiveMesh.unit_square(4)
        serial.uniform_refine(1)
        serial.coarsen(serial.leaf_ids())
        assert all(n == serial.n_leaves for n in results)

    def test_weight_update_matches_dual_graph(self):
        from repro.pared.weights import split_edge_keys

        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            am.refine([0, 3])
            owner = np.arange(am.n_roots) % comm.size
            dm = DistributedMesh(comm, am, owner)
            upd = dm.local_weight_update(None)
            all_updates = comm.allgather(upd)
            if comm.rank == 0:
                g = coarse_dual_graph(am.mesh)
                n = am.n_roots
                v_ids = np.concatenate([u["v_ids"] for u in all_updates])
                v_wts = np.concatenate([u["v_wts"] for u in all_updates])
                assert v_ids.size == n == np.unique(v_ids).size
                vwts = np.zeros(n)
                vwts[v_ids] = v_wts
                assert np.array_equal(vwts, g.vwts)
                # every coarse edge reported exactly once, correct weight
                e_keys = np.concatenate([u["e_keys"] for u in all_updates])
                e_wts = np.concatenate([u["e_wts"] for u in all_updates])
                assert e_keys.size == g.n_edges == np.unique(e_keys).size
                mat = g.to_scipy()
                ea, eb = split_edge_keys(e_keys, n)
                for a, b, w in zip(ea, eb, e_wts):
                    assert a < b and mat[a, b] == w
            return True

        assert all(spmd_run(2, prog))


class TestMigration:
    def test_execute_migration_moves_ownership(self):
        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            am.refine([0])
            owner = np.zeros(am.n_roots, dtype=np.int64)
            dm = DistributedMesh(comm, am, owner)
            new_owner = owner.copy()
            new_owner[:5] = 1
            stats = execute_migration(comm, dm, new_owner if comm.rank == 0 else None)
            assert np.array_equal(dm.owner, new_owner)
            return stats

        results = spmd_run(2, prog)
        for s in results:
            assert s["trees_moved"] == 5
            # root 0 was refined: its tree has 2+ leaves
            assert s["elements_moved"] >= 6
        assert results[0]["sent_here"] == 5
        assert results[1]["received_here"] == 5

    def test_migration_accounting_matches_cmigrate(self):
        def prog(comm):
            am = AdaptiveMesh.unit_square(4)
            am.refine(list(range(6)))
            owner = np.arange(am.n_roots) % comm.size
            dm = DistributedMesh(comm, am, owner)
            g = coarse_dual_graph(am.mesh)
            rng = np.random.default_rng(0)
            new_owner = rng.integers(0, comm.size, am.n_roots)
            stats = execute_migration(comm, dm, new_owner if comm.rank == 0 else None)
            expected = g.vwts[np.asarray(owner) != new_owner].sum()
            assert stats["elements_moved"] == expected
            return True

        assert all(spmd_run(3, prog))


class TestFullLoop:
    def test_run_pared_end_to_end(self):
        prob = CornerLaplace2D()

        def marker(amesh, rnd):
            ind = interpolation_error_indicator(amesh, prob.exact)
            return mark_top_fraction(amesh, ind, 0.2), []

        cfg = ParedConfig(
            p=3,
            make_mesh=lambda: AdaptiveMesh.unit_square(8),
            marker=marker,
            rounds=3,
            pnr=PNR(seed=0),
        )
        histories, stats = run_pared(cfg)
        assert len(histories) == 3
        # replicas agree on global state
        for other in histories[1:]:
            for a, b in zip(histories[0], other):
                assert a["leaves"] == b["leaves"]
                assert np.array_equal(a["owner"], b["owner"])
        # loads sum to the mesh on every round
        for rnd in range(3):
            loads = [h[rnd]["local_load"] for h in histories]
            assert sum(loads) == histories[0][rnd]["leaves"]
        # coordinator graph was maintained purely from P2 messages and the
        # repartitions kept balance reasonable
        final = histories[0][-1]
        p = cfg.p
        mean = final["leaves"] / p
        loads = [h[-1]["local_load"] for h in histories]
        assert max(loads) / mean - 1 < 0.6
        report = stats.phase_report()
        assert report.get("P2", (0, 0))[0] >= 3 * 2  # 2 senders x 3 rounds

    @pytest.mark.parametrize("partitioner", ["mlkl", "sfc", "dkl"])
    def test_run_pared_alternate_partitioners(self, partitioner):
        """The full P0–P3 loop works with every registry strategy, not just
        the default pnr path.  The dkl leg runs audited, so every round
        also proves the halo views match a brute-force recount."""
        prob = CornerLaplace2D()

        def marker(amesh, rnd):
            ind = interpolation_error_indicator(amesh, prob.exact)
            return mark_top_fraction(amesh, ind, 0.2), []

        cfg = ParedConfig(
            p=3,
            make_mesh=lambda: AdaptiveMesh.unit_square(8),
            marker=marker,
            rounds=3,
            pnr=PNR(seed=0),
            partitioner=partitioner,
            audit=partitioner == "dkl",
        )
        histories, _ = run_pared(cfg)
        assert len(histories) == 3
        for other in histories[1:]:
            for a, b in zip(histories[0], other):
                assert np.array_equal(a["owner"], b["owner"])
        for rnd in range(3):
            loads = [h[rnd]["local_load"] for h in histories]
            assert sum(loads) == histories[0][rnd]["leaves"]
        final = histories[0][-1]
        loads = [h[-1]["local_load"] for h in histories]
        assert max(loads) / (final["leaves"] / cfg.p) - 1 < 0.8

    def test_marker_with_coarsening(self):
        from repro.fem import MovingPeakPoisson2D, mark_under_threshold

        def marker(amesh, rnd):
            prob = MovingPeakPoisson2D(-0.5 + 0.2 * rnd)
            ind = interpolation_error_indicator(amesh, prob.exact)
            refine = mark_top_fraction(amesh, ind, 0.15)
            coarsen = mark_under_threshold(amesh, ind, 1e-4)
            return refine, coarsen

        cfg = ParedConfig(
            p=2,
            make_mesh=lambda: AdaptiveMesh.unit_square(8),
            marker=marker,
            rounds=3,
            pnr=PNR(seed=1),
        )
        histories, _ = run_pared(cfg)
        assert histories[0][-1]["leaves"] > 0


def _packed_report(v, e, n, v_dead=(), e_dead=()):
    """Build a packed weight report from ``{root: w}`` / ``{(a, b): w}``
    dicts — test-side sugar over the array wire format."""
    from repro.pared.weights import edge_keys

    v_ids = np.array(sorted(v), dtype=np.int64)
    e_ab = sorted(e)
    return {
        "v_ids": v_ids,
        "v_wts": np.array([v[a] for a in v_ids], dtype=np.float64),
        "e_keys": np.array([a * n + b for a, b in e_ab], dtype=np.int64),
        "e_wts": np.array([e[k] for k in e_ab], dtype=np.float64),
        "v_dead": np.array(sorted(v_dead), dtype=np.int64),
        "e_dead": np.array(
            sorted(int(edge_keys(a, b, n)) for a, b in e_dead), dtype=np.int64
        ),
    }


class TestDeltaTombstones:
    """The P2 delta protocol must *delete* state at the coordinator, not
    just overwrite it: a key a rank stops reporting (handoff, coarsening)
    travels in the report's ``v_dead``/``e_dead`` tombstone arrays and the
    coordinator drops it."""

    @staticmethod
    def _full_report(mesh):
        """The single-owner full weight report of a mesh: every vertex and
        every ``a < b`` edge of its coarse dual graph."""
        from repro.pared.weights import full_weight_report

        g = coarse_dual_graph(mesh)
        owner = np.zeros(g.n_vertices, dtype=np.int64)
        return full_weight_report(g, owner, 0)

    def test_diff_update_emits_tombstones(self):
        from repro.pared.weights import diff_weight_report, edge_keys

        n = 8
        prev = _packed_report({0: 1.0, 1: 2.0}, {(0, 1): 3.0, (1, 2): 1.0}, n)
        full = _packed_report({0: 1.0, 2: 4.0}, {(0, 1): 5.0}, n)
        delta = diff_weight_report(full, prev)
        # 0 unchanged: not resent; 1 gone: tombstoned
        assert delta["v_ids"].tolist() == [2]
        assert delta["v_wts"].tolist() == [4.0]
        assert delta["v_dead"].tolist() == [1]
        assert delta["e_keys"].tolist() == [int(edge_keys(0, 1, n))]
        assert delta["e_wts"].tolist() == [5.0]
        assert delta["e_dead"].tolist() == [int(edge_keys(1, 2, n))]

    def test_merge_handoff_is_order_independent(self):
        from repro.pared.system import _CoordinatorGraph
        from repro.pared.weights import edge_keys

        # root 3 moves from the old owner (tombstone) to a new owner
        # (fresh value); both reports land in the same round's batch
        n = 8
        tomb = _packed_report({}, {}, n, v_dead=[3], e_dead=[(3, 4)])
        fresh = _packed_report({3: 7.0}, {(3, 4): 2.0}, n)
        for batch in ([tomb, fresh], [fresh, tomb]):
            cg = _CoordinatorGraph(n)
            cg.merge([_packed_report({3: 1.0, 4: 1.0}, {(3, 4): 1.0}, n)])
            cg.merge(batch)
            assert cg.vwts[3] == 7.0
            pos = np.searchsorted(cg.ekeys, int(edge_keys(3, 4, n)))
            assert cg.ekeys[pos] == int(edge_keys(3, 4, n))
            assert cg.ewts[pos] == 2.0

    def test_stale_entries_are_dropped_at_coordinator(self):
        """Regression for the unbounded-growth bug: before tombstones, a
        key that left a rank's owned set survived forever in the
        coordinator's ``G``.  Re-reporting against a baseline whose edge
        set shrank must leave ``G`` exactly mirroring the mesh — verified
        by the same audit the PARED loop runs."""
        from repro.geometry.generators import structured_tri_mesh
        from repro.mesh.mesh2d import TriMesh
        from repro.pared.system import _CoordinatorGraph
        from repro.pared.weights import diff_weight_report
        from repro.testing import check_dual_graph_weights

        grid = AdaptiveMesh.unit_square(2)  # 8 roots, ring adjacency
        strip = AdaptiveMesh(TriMesh(*structured_tri_mesh(4, 1)))  # 8 roots
        full_grid = self._full_report(grid.mesh)
        full_strip = self._full_report(strip.mesh)
        # precondition: the baseline has edges the new report lacks, so a
        # diff without tombstones would leave them stale
        gone = np.setdiff1d(full_grid["e_keys"], full_strip["e_keys"])
        assert gone.size, "meshes must differ in coarse adjacency"

        cg = _CoordinatorGraph(8)
        cg.merge([full_grid])
        cg.merge([diff_weight_report(full_strip, full_grid)])
        assert not np.isin(cg.ekeys, gone).any()
        check_dual_graph_weights(strip.mesh, cg.graph())

    def test_coarsen_heavy_audited_run_keeps_graph_exact(self):
        """End-to-end: a refine-then-coarsen ladder with migrations keeps
        the coordinator's ``G`` bit-exact against brute-force recounts
        every round (``audit=True`` trips on any stale entry)."""

        def marker(amesh, rnd):
            cents = amesh.leaf_centroids()
            d = np.linalg.norm(cents - 0.5, axis=1)
            if rnd < 2:  # refine toward the corner...
                k = max(1, amesh.n_leaves // 4)
                return amesh.leaf_ids()[np.argsort(d)[:k]], []
            # ...then coarsen aggressively everywhere
            return [], list(amesh.leaf_ids())

        cfg = ParedConfig(
            p=3,
            make_mesh=lambda: AdaptiveMesh.unit_square(4),
            marker=marker,
            rounds=4,
            pnr=PNR(seed=0),
            imbalance_trigger=0.01,  # force frequent handoffs
            audit=True,
        )
        histories, _ = run_pared(cfg)
        leaf_trace = [rec["leaves"] for rec in histories[0]]
        assert leaf_trace[2] < leaf_trace[1], "ladder must actually coarsen"


class TestTransportParity:
    """One PARED run must be bit-identical across transport backends: the
    algorithm is deterministic given the seed, and the forked shm backend
    changes only how bytes move between ranks — never what they say."""

    @staticmethod
    def _cfg(transport, partitioner="pnr"):
        prob = CornerLaplace2D()

        def marker(amesh, rnd):
            ind = interpolation_error_indicator(amesh, prob.exact)
            return mark_top_fraction(amesh, ind, 0.2), []

        return ParedConfig(
            p=3,
            make_mesh=lambda: AdaptiveMesh.unit_square(8),
            marker=marker,
            rounds=2,
            pnr=PNR(seed=0),
            transport=transport,
            partitioner=partitioner,
        )

    @staticmethod
    def _assert_bit_identical(hist_t, stats_t, hist_p, stats_p):
        for per_rank_t, per_rank_p in zip(hist_t, hist_p):
            for a, b in zip(per_rank_t, per_rank_p):
                assert a["leaves"] == b["leaves"]
                assert a["cut"] == b["cut"]
                assert a["shared_vertices"] == b["shared_vertices"]
                assert a["elements_moved"] == b["elements_moved"]
                assert a["local_load"] == b["local_load"]
                assert a["imbalance_before"] == b["imbalance_before"]
                assert np.array_equal(a["owner"], b["owner"])
        # the wire ledger is part of the contract too: same phases, same
        # message and byte counts, same pair matrix
        assert stats_t.phase_report() == stats_p.phase_report()
        assert dict(stats_t.by_pair) == dict(stats_p.by_pair)

    def test_shm_run_matches_thread_bit_for_bit(self):
        hist_t, stats_t = run_pared(self._cfg("thread"))
        hist_s, stats_s = run_pared(self._cfg("shm"))
        assert stats_s.backend == "shm"
        self._assert_bit_identical(hist_t, stats_t, hist_s, stats_s)

    def test_dkl_shm_run_matches_thread_bit_for_bit(self):
        """The distributed-refinement tournament must replay identically on
        both wires — including the halo exchange and proposal allgathers."""
        hist_t, stats_t = run_pared(self._cfg("thread", partitioner="dkl"))
        hist_s, stats_s = run_pared(self._cfg("shm", partitioner="dkl"))
        assert stats_s.backend == "shm"
        self._assert_bit_identical(hist_t, stats_t, hist_s, stats_s)
        assert "dkl" in stats_t.phase_report()  # refinement actually ran
