"""Property suite for the distributed refinement pass
(:mod:`repro.partition.distributed`, the ``dkl`` strategy).

The tournament's contract, stated as executable properties:

* **determinism** — same graph, start, and config give the same result on
  every run, for every seed, and on the serial and SPMD drivers alike
  (the serial engine is the reference the SPMD path must match bit for
  bit);
* **single move per pass** — a vertex appears at most once in any
  pass's accepted set (refine + escape + rebalance combined);
* **gain honesty** — every accepted move's recorded gain (strictly
  positive for refine moves, any sign for escape and rebalance) equals
  the *true* Equation-1 objective delta, replayed move by move including
  the pass-end rollbacks (the recompute-at-accept rule makes stale-gain
  bookkeeping an error, not a tolerance);
* **priority monotonicity** — accepted refine moves come out in
  non-increasing proposal-priority order, because the tournament visits
  candidates sorted by priority;
* **validity** — the result is a valid assignment that never empties a
  live part and lands inside (or at least never worsens) the balance
  envelope.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import WeightedGraph
from repro.partition import validate_assignment
from repro.partition.distributed import (
    DKLConfig,
    PartView,
    _phi,
    dkl_ml_refine_comm,
    dkl_ml_refine_serial,
    dkl_refine_comm,
    dkl_refine_serial,
    pack_proposal_frame,
    unpack_proposal_frame,
)
from repro.partition.metrics import graph_cut
from repro.partition.multilevel import multilevel_partition
from repro.runtime.simmpi import spmd_run


def grid(n, vweights=None):
    edges = []
    for i in range(n):
        for j in range(n):
            v = i * n + j
            if i + 1 < n:
                edges.append((v, v + n))
            if j + 1 < n:
                edges.append((v, v + 1))
    return WeightedGraph.from_edges(n * n, edges, vweights=vweights)


def skewed_grid(n, seed, hot=4.0):
    """Grid with a randomly placed heavy box — the shape of a mesh after
    localized refinement, which is what triggers repartitioning."""
    rng = np.random.default_rng(seed)
    vw = np.ones(n * n)
    ci, cj = rng.integers(0, n, size=2)
    ij = np.indices((n, n)).reshape(2, -1).T
    box = (np.abs(ij[:, 0] - ci) <= n // 4) & (np.abs(ij[:, 1] - cj) <= n // 4)
    vw[box] = hot
    return grid(n, vweights=vw)


def start(graph, p, seed=0):
    return multilevel_partition(graph, p, seed=seed)


def objective(graph, assign, home, p, cfg, maxcap, floor):
    """The Equation-1 objective the tournament optimizes: cut + a*migration
    + b*deadband balance potential."""
    loads = np.bincount(assign, weights=graph.vwts, minlength=p)
    mig = float(graph.vwts[assign != home].sum())
    bal = float(sum(_phi(loads[i], maxcap, floor) for i in range(p)))
    return graph_cut(graph, assign) + cfg.alpha * mig + cfg.beta * bal


def envelope(graph, p, cfg):
    mean = float(graph.vwts.sum()) / p
    band = max(cfg.balance_tol * mean, 0.5 * float(graph.vwts.max()))
    return mean + band, mean - band


# --------------------------------------------------------------------- #
# the tie-break tournament: Hypothesis properties
# --------------------------------------------------------------------- #


class TestTournamentProperties:
    @given(seed=st.integers(0, 1000), p=st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_deterministic_across_runs(self, seed, p):
        g = skewed_grid(8, seed=seed % 7)
        a0 = start(g, p)
        cfg = DKLConfig(seed=seed)
        r1 = dkl_refine_serial(g, p, a0, cfg)
        r2 = dkl_refine_serial(g, p, a0, cfg)
        assert np.array_equal(r1, r2)
        validate_assignment(g, r1, p)
        assert set(np.unique(r1)) == set(range(p))

    @given(seed=st.integers(0, 500), p=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_no_vertex_moves_twice_in_one_pass(self, seed, p):
        g = skewed_grid(8, seed=seed % 5)
        cfg = DKLConfig(seed=seed)
        _, trace = dkl_refine_serial(g, p, start(g, p), cfg, return_trace=True)
        per_pass: dict = {}
        for rec in trace:
            if "rollback" in rec:
                continue
            moved = per_pass.setdefault(rec["pass"], [])
            moved += [
                m["v"]
                for m in rec["moves"] + rec["escape"] + rec["rebalance"]
            ]
        for pss, moved in per_pass.items():
            assert len(moved) == len(set(moved)), (
                f"pass {pss} moved a vertex twice: {moved}"
            )

    @given(seed=st.integers(0, 500), p=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_accepted_gains_are_honest(self, seed, p):
        """Replaying the accepted moves one by one (including the pass-end
        rollbacks), each recorded gain equals the true objective
        improvement exactly — the recompute-at-accept rule leaves no room
        for stale accounting.  Refine gains must be strictly positive;
        escape and rebalance gains may have any sign but must still be
        honest."""
        g = skewed_grid(8, seed=seed % 5)
        a0 = start(g, p)
        cfg = DKLConfig(seed=seed)
        final, trace = dkl_refine_serial(g, p, a0, cfg, return_trace=True)
        maxcap, floor = envelope(g, p, cfg)
        assign = a0.copy()
        for rec in trace:
            if "rollback" in rec:
                for u in rec["rollback"]:
                    assign[u["v"]] = u["to"]
                continue
            for kind in ("moves", "escape", "rebalance"):
                for m in rec[kind]:
                    before = objective(g, assign, a0, p, cfg, maxcap, floor)
                    assert assign[m["v"]] == m["src"]
                    assign[m["v"]] = m["dst"]
                    after = objective(g, assign, a0, p, cfg, maxcap, floor)
                    if kind == "moves":
                        assert m["gain"] > 0.0
                    assert before - after == pytest.approx(
                        m["gain"], abs=1e-9
                    )
        assert np.array_equal(assign, final)

    @given(seed=st.integers(0, 500), p=st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_accepted_priority_is_monotone_per_round(self, seed, p):
        """The tournament visits candidates in descending proposal
        priority, so the accepted refine set of any round comes out in
        non-increasing prio order."""
        g = skewed_grid(8, seed=seed % 5)
        cfg = DKLConfig(seed=seed)
        _, trace = dkl_refine_serial(g, p, start(g, p), cfg, return_trace=True)
        for rec in trace:
            if "rollback" in rec:
                continue
            prios = [m["prio"] for m in rec["moves"]]
            assert all(a >= b - 1e-12 for a, b in zip(prios, prios[1:]))

    @given(seed=st.integers(0, 500), p=st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_never_empties_a_live_part_and_respects_envelope(self, seed, p):
        g = skewed_grid(8, seed=seed % 5)
        cfg = DKLConfig(seed=seed)
        a0 = start(g, p)
        a1 = dkl_refine_serial(g, p, a0, cfg)
        assert set(np.unique(a1)) == set(range(p))
        maxcap, _ = envelope(g, p, cfg)
        loads0 = np.bincount(a0, weights=g.vwts, minlength=p)
        loads1 = np.bincount(a1, weights=g.vwts, minlength=p)
        # inside the envelope, or at least no worse than the start
        assert loads1.max() <= max(maxcap, loads0.max()) + 1e-9

    def test_seed_changes_tie_break_not_validity(self):
        g = skewed_grid(8, seed=1)
        p = 4
        a0 = start(g, p)
        outs = []
        for seed in range(4):
            a = dkl_refine_serial(g, p, a0, DKLConfig(seed=seed))
            validate_assignment(g, a, p)
            outs.append(a)
        # the seed rotates the tie-break; results may legitimately differ,
        # but each seed is individually reproducible
        for seed in range(4):
            again = dkl_refine_serial(g, p, a0, DKLConfig(seed=seed))
            assert np.array_equal(outs[seed], again)


# --------------------------------------------------------------------- #
# serial reference vs SPMD driver: bit parity on both backends
# --------------------------------------------------------------------- #


class TestSerialSPMDParity:
    def _spmd(self, graph, p, a0, cfg, transport):
        loads = np.bincount(a0, weights=graph.vwts, minlength=p)
        wmax = float(graph.vwts.max())

        def rank_fn(comm, _):
            view = PartView.from_graph(graph, comm.rank, a0)
            return dkl_refine_comm(
                comm, view, a0, loads, wmax, list(range(p)), cfg
            )

        return spmd_run(p, rank_fn, None, transport=transport)

    @pytest.mark.parametrize("p", [2, 4])
    def test_thread_backend_matches_serial(self, p):
        g = skewed_grid(8, seed=2)
        a0 = start(g, p)
        cfg = DKLConfig()
        ref = dkl_refine_serial(g, p, a0, cfg)
        for r in self._spmd(g, p, a0, cfg, "thread"):
            assert np.array_equal(ref, r)

    def test_shm_backend_matches_serial(self):
        p = 3
        g = skewed_grid(8, seed=2)
        a0 = start(g, p)
        cfg = DKLConfig()
        ref = dkl_refine_serial(g, p, a0, cfg)
        for r in self._spmd(g, p, a0, cfg, "shm"):
            assert np.array_equal(ref, r)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=8, deadline=None)
    def test_parity_across_seeds(self, seed):
        p = 3
        g = skewed_grid(8, seed=seed % 5)
        a0 = start(g, p)
        cfg = DKLConfig(seed=seed)
        ref = dkl_refine_serial(g, p, a0, cfg)
        for r in self._spmd(g, p, a0, cfg, "thread"):
            assert np.array_equal(ref, r)


# --------------------------------------------------------------------- #
# the halo view
# --------------------------------------------------------------------- #


class TestPartView:
    def test_from_graph_equals_from_reports(self):
        """The serial engine's direct view and the view assembled from the
        canonical report + neighbor halo payloads are the same object —
        the completeness argument behind serial/SPMD parity."""
        from repro.pared.weights import full_weight_report, split_report_by_owner

        g = skewed_grid(6, seed=0)
        p = 3
        owner = start(g, p)
        n = g.n_vertices
        fulls = {r: full_weight_report(g, owner, r) for r in range(p)}
        halos = {
            r: split_report_by_owner(fulls[r], owner, n, r) for r in range(p)
        }
        for r in range(p):
            received = [
                halos[s][r] for s in range(p) if s != r and r in halos[s]
            ]
            a = PartView.from_reports(n, r, fulls[r], received)
            b = PartView.from_graph(g, r, owner)
            assert np.array_equal(a.vwts, b.vwts)
            assert np.array_equal(a.e_keys, b.e_keys)
            assert np.array_equal(a.e_wts, b.e_wts)

    def test_prune_keeps_exact_incident_set(self):
        g = skewed_grid(6, seed=0)
        p = 3
        owner = start(g, p)
        view = PartView.from_graph(g, 0, owner)
        # hand one boundary root to part 1 and prune
        assign = owner.copy()
        mine = np.flatnonzero(assign == 0)
        assign[mine[0]] = 1
        view.prune(assign)
        fresh = PartView.from_graph(g, 0, assign)
        assert np.array_equal(view.e_keys, fresh.e_keys)
        assert np.array_equal(view.vwts, fresh.vwts)

    def test_refine_updates_views_to_final_assignment(self):
        """After a serial refine, every part's view (pruned inside the
        loop) matches a fresh view of the final assignment — the property
        the PARED halo audit checks on every rank every round."""
        g = skewed_grid(8, seed=3)
        p = 4
        a0 = start(g, p)
        cfg = DKLConfig()
        views = {r: PartView.from_graph(g, r, a0) for r in range(p)}
        # drive the shared loop exactly as dkl_refine_serial does, but
        # keep the views for inspection
        from repro.partition.distributed import _refine_loop, _serial_exchange

        assign = a0.copy()
        loads = np.bincount(assign, weights=g.vwts, minlength=p).astype(float)
        _refine_loop(
            g.n_vertices, p, views, assign, a0.copy(), loads,
            list(range(p)), cfg, float(g.vwts.max()),
            _serial_exchange(list(range(p))),
            my_parts=list(range(p)),
        )
        for r in range(p):
            fresh = PartView.from_graph(g, r, assign)
            assert np.array_equal(views[r].e_keys, fresh.e_keys)
            assert np.array_equal(views[r].e_wts, fresh.e_wts)
            assert np.array_equal(views[r].vwts, fresh.vwts)


# --------------------------------------------------------------------- #
# the packed proposal wire format
# --------------------------------------------------------------------- #


def _frame_strategy():
    """Arbitrary proposal batches: n moves with per-move adjacency lists,
    ids/priorities drawn wide enough to exercise the int64/float64 width."""
    finite = st.floats(
        allow_nan=False, allow_infinity=False, width=64,
        min_value=-1e12, max_value=1e12,
    )

    @st.composite
    def frames(draw):
        n = draw(st.integers(0, 6))
        degs = [draw(st.integers(0, 4)) for _ in range(n)]
        m = sum(degs)
        big = st.integers(0, 2**40)
        e_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degs, out=e_off[1:])
        return {
            "part": draw(st.integers(0, 63)),
            "v": np.array([draw(big) for _ in range(n)], dtype=np.int64),
            "dst": np.array(
                [draw(st.integers(0, 63)) for _ in range(n)], dtype=np.int64
            ),
            "prio": np.array([draw(finite) for _ in range(n)]),
            "static": np.array([draw(finite) for _ in range(n)]),
            "vw": np.array([draw(finite) for _ in range(n)]),
            "e_off": e_off,
            "adj": np.array([draw(big) for _ in range(m)], dtype=np.int64),
            "adj_w": np.array([draw(finite) for _ in range(m)]),
        }

    return frames()


class TestProposalFrame:
    @given(prop=_frame_strategy())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_bit_identical(self, prop):
        got = unpack_proposal_frame(pack_proposal_frame(prop))
        assert got["part"] == prop["part"]
        for key in ("v", "dst", "e_off", "adj"):
            assert np.array_equal(got[key], prop[key])
            assert got[key].dtype == np.int64
        for key in ("prio", "static", "vw", "adj_w"):
            # bitwise, not approximate: the frame must carry the float64
            # payload verbatim (replica determinism depends on it)
            assert got[key].dtype == np.float64
            assert np.array_equal(
                got[key].view(np.int64), prop[key].astype(np.float64).view(np.int64)
            )

    def test_none_round_trips_to_none(self):
        head, ints, floats = pack_proposal_frame(None)
        assert head.size == 0 and ints.size == 0 and floats.size == 0
        assert unpack_proposal_frame((head, ints, floats)) is None

    def test_int_width_downcast_and_fallback(self):
        """Small ids ship as int32 (half the index bytes); any id beyond
        int32 range flips the whole frame back to lossless int64."""
        small = {
            "part": 0,
            "v": np.array([5], np.int64),
            "dst": np.array([1], np.int64),
            "prio": np.array([1.0]),
            "static": np.array([0.0]),
            "vw": np.array([1.0]),
            "e_off": np.array([0, 1], np.int64),
            "adj": np.array([9], np.int64),
            "adj_w": np.array([1.0]),
        }
        head, ints, _ = pack_proposal_frame(small)
        assert head[3] == 4 and ints.dtype == np.int32
        big = dict(small, v=np.array([2**40], np.int64))
        head, ints, _ = pack_proposal_frame(big)
        assert head[3] == 8 and ints.dtype == np.int64
        assert unpack_proposal_frame((head, ints, _))["v"][0] == 2**40

    def test_empty_batch(self):
        prop = {
            "part": 3,
            "v": np.empty(0, np.int64),
            "dst": np.empty(0, np.int64),
            "prio": np.empty(0, np.float64),
            "static": np.empty(0, np.float64),
            "vw": np.empty(0, np.float64),
            "e_off": np.zeros(1, np.int64),
            "adj": np.empty(0, np.int64),
            "adj_w": np.empty(0, np.float64),
        }
        got = unpack_proposal_frame(pack_proposal_frame(prop))
        assert got["part"] == 3 and got["v"].size == 0
        assert np.array_equal(got["e_off"], prop["e_off"])

    def test_single_proposal_edge(self):
        prop = {
            "part": 1,
            "v": np.array([7], np.int64),
            "dst": np.array([2], np.int64),
            "prio": np.array([0.5]),
            "static": np.array([-0.25]),
            "vw": np.array([4.0]),
            "e_off": np.array([0, 2], np.int64),
            "adj": np.array([3, 11], np.int64),
            "adj_w": np.array([1.0, 2.0]),
        }
        got = unpack_proposal_frame(pack_proposal_frame(prop))
        for key in prop:
            assert np.array_equal(got[key], prop[key])

    def test_packed_smaller_than_codec_dict(self):
        """The whole point of the format: fewer encoded bytes per proposal
        batch than the dict-of-arrays the exchange used to ship."""
        from repro.runtime.codec import encode

        g = skewed_grid(8, seed=2)
        p = 4
        # striped start: maximal cut, so part 0 has plenty of strictly
        # positive moves to propose
        a0 = np.arange(g.n_vertices, dtype=np.int64) % p
        view = PartView.from_graph(g, 0, a0)
        from repro.partition.distributed import _propose_moves

        cfg = DKLConfig()
        maxcap, floor = envelope(g, p, cfg)
        loads = np.bincount(a0, weights=g.vwts, minlength=p)
        prop = _propose_moves(
            view, a0, a0, loads, list(range(p)), cfg, maxcap, floor,
            np.zeros(g.n_vertices, dtype=bool),
        )
        assert prop is not None, "scenario must produce a proposal"
        assert len(encode(pack_proposal_frame(prop))) < len(encode(prop))


# --------------------------------------------------------------------- #
# the multilevel flavour (dkl-ml)
# --------------------------------------------------------------------- #


class TestMultilevel:
    def _spmd(self, graph, p, a0, cfg, transport):
        loads = np.bincount(a0, weights=graph.vwts, minlength=p)
        wmax = float(graph.vwts.max())

        def rank_fn(comm, _):
            view = PartView.from_graph(graph, comm.rank, a0)
            return dkl_ml_refine_comm(
                comm, view, a0, loads, wmax, list(range(p)), cfg
            )

        return spmd_run(p, rank_fn, None, transport=transport)

    @pytest.mark.parametrize("p", [2, 4])
    def test_thread_backend_matches_serial(self, p):
        g = skewed_grid(8, seed=2)
        a0 = start(g, p)
        cfg = DKLConfig()
        ref = dkl_ml_refine_serial(g, p, a0, cfg)
        for r in self._spmd(g, p, a0, cfg, "thread"):
            assert np.array_equal(ref, r)

    def test_shm_backend_matches_serial(self):
        p = 3
        g = skewed_grid(8, seed=2)
        a0 = start(g, p)
        cfg = DKLConfig()
        ref = dkl_ml_refine_serial(g, p, a0, cfg)
        for r in self._spmd(g, p, a0, cfg, "shm"):
            assert np.array_equal(ref, r)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=8, deadline=None)
    def test_parity_across_seeds(self, seed):
        p = 3
        g = skewed_grid(8, seed=seed % 5)
        a0 = start(g, p)
        cfg = DKLConfig(seed=seed)
        ref = dkl_ml_refine_serial(g, p, a0, cfg)
        for r in self._spmd(g, p, a0, cfg, "thread"):
            assert np.array_equal(ref, r)

    def test_valid_and_balanced(self):
        g = skewed_grid(10, seed=1)
        p = 4
        a0 = start(g, p)
        cfg = DKLConfig()
        a1 = dkl_ml_refine_serial(g, p, a0, cfg)
        validate_assignment(g, a1, p)
        maxcap, _ = envelope(g, p, cfg)
        loads = np.bincount(a1, weights=g.vwts, minlength=p)
        assert np.all(loads <= maxcap + 1e-9)

    def test_deterministic(self):
        g = skewed_grid(10, seed=4)
        p = 4
        a0 = start(g, p)
        runs = [dkl_ml_refine_serial(g, p, a0, DKLConfig()) for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])

    def test_cut_no_worse_than_flat_on_heavy_imbalance(self):
        """The acceptance claim: intra-part coarsening closes (never
        widens) the residual cut gap on heavy-imbalance starts —
        aggregated over the scenario family, the multilevel pass must not
        lose to the flat one."""
        flat_total = 0.0
        ml_total = 0.0
        for seed in range(6):
            g = skewed_grid(12, seed=seed, hot=8.0)
            p = 4
            a0 = start(g, p)
            cfg = DKLConfig()
            flat_total += graph_cut(g, dkl_refine_serial(g, p, a0, cfg))
            ml_total += graph_cut(g, dkl_ml_refine_serial(g, p, a0, cfg))
        assert ml_total <= flat_total

    def test_ml_levels_zero_is_flat(self):
        """ml_levels=0 must reduce exactly to the flat engine (same
        rounds, same tournament, same result)."""
        g = skewed_grid(8, seed=3)
        p = 4
        a0 = start(g, p)
        flat = dkl_refine_serial(g, p, a0, DKLConfig())
        ml0 = dkl_ml_refine_serial(g, p, a0, DKLConfig(ml_levels=0))
        assert np.array_equal(flat, ml0)
