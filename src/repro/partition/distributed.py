"""Distributed boundary refinement — the ``dkl`` strategy.

The last serial stage of a PARED round was the coordinator's KL pass:
phases P2/P3 funnel every weight report through ``P_C``, which then refines
the coarse partition alone while ``p - 1`` ranks idle.  This module
decentralizes that stage in the spirit of Sanders & Seemaier's
unconstrained distributed local search (arXiv:2406.03169):

1. **propose** — each rank scans the boundary roots of *its own part* on
   its halo view of ``G`` and evaluates, for every live destination part
   ``j``, the Equation-1 gain of moving root ``v`` from its part ``i``::

       gain(v, i->j) = [conn(v, j) - conn(v, i)]                  (cut)
                     - a*w(v)*[(j != home(v)) - (i != home(v))]   (migration)
                     + b*[phi(W_i) + phi(W_j)
                          - phi(W_i - w(v)) - phi(W_j + w(v))]    (balance)

   with the deadband potential ``phi`` of the KL engine (zero inside the
   balance envelope, quadratic on the excess outside — cut decides between
   already-balanced parts), and proposes its best strictly-positive move
   per root.  Only boundary moves (``conn(v, j) > 0``) are proposed here;
   teleports are the rebalance step's business.

2. **resolve** — proposals are allgathered and every rank replays the same
   deterministic tournament: sort by ``(-gain, (part + seed + round) mod
   p, vertex id)`` — highest gain wins, the seeded rank rotation breaks
   ties fairly across rounds, the vertex id makes the order total — then
   accept greedily under the KL balance envelope.  A mover is locked for
   the rest of the round (no root moves twice), and a candidate whose
   neighborhood was touched by an earlier acceptance has its gain
   recomputed exactly from the edge list its proposal carries — the
   classic adjacent-moves conflict that would invalidate both gains is
   resolved by accounting, not by exclusion, so a coherent front can
   cascade through a single round.  A move that would empty its source
   part is never accepted (every live part must keep at least one root).

3. **rebalance** — when some part exceeds the balance envelope, the
   overweight ranks propose bounded donations (least cut damage first,
   toward any strictly lighter live part so weight *diffuses* along part
   boundaries, teleporting only when no lighter neighbor exists) resolved
   by the same tournament rule, restoring the constraint the
   unconstrained pass may have stretched.

Rounds are grouped into KL-style **passes** (a vertex moves at most once
per pass), and the loop hill-climbs like the serial engine: when a round
accepts no positive move, an **escape** round offers each part's single
least-damaging move regardless of sign and the tournament accepts the best
one — every accepted gain is the *exact* objective delta, so all ranks
track the same cumulative objective and, at pass end, roll the suffix
after the best prefix back in lockstep.  Positive-only batch acceptance is
what made early distributed KL variants measurably worse than the serial
pass (it cannot cross objective ridges); the escape/rollback pair restores
that ability without a coordinator.

Every rank executes the same resolve on the same allgathered inputs, so
the final assignment is replica-identical with **no coordinator
involvement** — in a ``dkl`` PARED round the coordinator's only remaining
job is the O(p) scalar imbalance check.

The module has one serial driver body (:func:`dkl_ml_refine_serial`) and
one SPMD body (:func:`dkl_ml_refine_comm`); ``DKLConfig.ml_levels`` picks
the flat engine (``0``, ``dkl``) or the multilevel one (``>= 1``,
``dkl-ml``: intra-part coarsening around the same tournament), and
:func:`dkl_refine_serial`/:func:`dkl_refine_comm` are ``ml_levels=0``
entry points into them.  The serial body drives the identical
propose/resolve/rebalance code from a single thread (a rank loop instead of
messages); it backs the registry strategies and is the reference the SPMD
body is tested bit-identical against.  The tournament's budgets
(:data:`MAX_ROUNDS`, :data:`MAX_PASSES`, ...) are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.graph.csr import WeightedGraph, edge_keys, split_edge_keys
from repro.graph.matching import heavy_edge_matching
from repro.perf import PERF

__all__ = [
    "DKLConfig",
    "PartView",
    "dkl_refine_serial",
    "dkl_refine_comm",
    "dkl_ml_refine_serial",
    "dkl_ml_refine_comm",
    "pack_proposal_frame",
    "unpack_proposal_frame",
]

#: allgather tag of the proposal rounds (propose and rebalance share it:
#: the wire is tag-matched FIFO, so alternating batches cannot cross)
PROPOSAL_TAG = 45
#: point-to-point tag of the multilevel projection handoff (losers ship
#: the fine payloads of roots the coarse tournament moved away)
HANDOFF_TAG = 46
#: allgather tag of the per-part matchings (one per coarsening level)
MATCHING_TAG = 47
#: allreduce tag of the coarse-level max-vertex-weight reduction
REDUCE_TAG = 48


#: propose/resolve/rebalance iterations per pass before giving up (each
#: round accepts an independent set of moves, so heavy imbalance needs
#: many; converged rounds exit early and cost one cheap exchange)
MAX_ROUNDS = 48
#: most donations a single overweight part may propose per round —
#: deliberately small: donating the whole excess in one batch at stale
#: loads carves fragmented boundaries that refinement cannot repair, while
#: bounded batches let the loads (and the proposals computed from them)
#: refresh between donations
REBALANCE_CAP = 8
#: KL-style passes: per pass every vertex moves at most once and the
#: suffix after the best cumulative-objective prefix is rolled back
MAX_PASSES = 3
#: accepted moves without a new best prefix before the pass ends (the
#: hill-climbing tail that would be rolled back anyway)
STALL = 32
#: escape rounds per pass: each one costs a full exchange for a single
#: accepted move, so the hill-climb budget is bounded separately from the
#: batch rounds
ESCAPE_CAP = 8
#: a pass must keep at least this much objective improvement for another
#: pass to start
MIN_GAIN = 1e-9


@dataclass
class DKLConfig:
    """Parameters of the distributed refinement pass.  ``alpha``/``beta``/
    ``seed``/``balance_tol`` mirror the Equation-1 parameters of
    :class:`repro.core.pnr.PNR`; the tournament's budgets are the module
    constants above."""

    alpha: float = 0.1
    beta: float = 0.8
    balance_tol: float = 0.02
    seed: int = 0
    #: coarsening levels around the tournament: each level halves the
    #: boundary subgraph by intra-part heavy-edge matching before the
    #: tournament runs; ``0`` is the flat engine (``dkl``)
    ml_levels: int = 1

    @classmethod
    def for_strategy(cls, name: str, pnr=None) -> "DKLConfig":
        """The config of registry strategy ``name`` (``dkl`` or
        ``dkl-ml``): the Equation-1 parameters of ``pnr`` (a
        :class:`repro.core.pnr.PNR`; ``None`` keeps the defaults) and one
        coarsening level for ``dkl-ml``, none for ``dkl``."""
        eq1 = ("alpha", "beta", "balance_tol", "seed")
        return cls(
            ml_levels=int(name == "dkl-ml"),
            **{k: getattr(pnr, k, getattr(cls, k)) for k in eq1},
        )


class PartView:
    """One part's halo knowledge of the weighted coarse graph ``G``.

    The mesh *structure* is replicated across ranks, but weights are
    distributed knowledge: a rank knows the vertex weights of the roots in
    its part plus the weight of every edge incident to them — its own
    canonical report (owner of ``a`` reports edge ``(a, b)``, ``a < b``)
    merged with the neighbor halo reports.  Stored flat: a dense
    vertex-weight vector (zero outside the known set) and sorted packed
    edge keys with aligned weights, same primitives as
    :mod:`repro.pared.weights`.
    """

    __slots__ = ("n", "part", "vwts", "e_keys", "e_wts")

    def __init__(self, n_roots, part, v_ids, v_wts, e_keys, e_wts):
        self.n = int(n_roots)
        self.part = int(part)
        self.vwts = np.zeros(self.n, dtype=np.float64)
        self.vwts[np.asarray(v_ids, dtype=np.int64)] = np.asarray(
            v_wts, dtype=np.float64
        )
        e_keys = np.asarray(e_keys, dtype=np.int64)
        e_wts = np.asarray(e_wts, dtype=np.float64)
        order = np.argsort(e_keys, kind="stable")
        self.e_keys = e_keys[order]
        self.e_wts = e_wts[order]

    @classmethod
    def from_reports(cls, n_roots, part, full, received) -> "PartView":
        """Assemble the view from this rank's canonical report plus the
        halo payloads received from its neighbors (disjoint key sets by
        the ownership rule)."""
        e_keys = np.concatenate(
            [full["e_keys"]] + [m["e_keys"] for m in received]
        )
        e_wts = np.concatenate([full["e_wts"]] + [m["e_wts"] for m in received])
        return cls(n_roots, part, full["v_ids"], full["v_wts"], e_keys, e_wts)

    @classmethod
    def from_graph(cls, graph, part, assign) -> "PartView":
        """The serial engine's view: ``G`` restricted to the edges incident
        to ``part`` — exactly what the halo exchange delivers, read
        directly from the graph."""
        assign = np.asarray(assign, dtype=np.int64)
        n = graph.n_vertices
        counts = np.diff(graph.xadj)
        src = np.repeat(np.arange(n, dtype=np.int64), counts)
        dst = graph.adjncy
        mask = (src < dst) & ((assign[src] == part) | (assign[dst] == part))
        v_ids = np.flatnonzero(assign == part)
        return cls(
            n,
            part,
            v_ids,
            graph.vwts[v_ids],
            edge_keys(src[mask], dst[mask], n),
            graph.ewts[mask],
        )

    def directed(self, assign):
        """``(src, dst, w)`` triplets with ``assign[src] == part``: every
        incident edge seen from the member side, sorted by (src, dst)."""
        a, b = split_edge_keys(self.e_keys, self.n)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        w = np.concatenate([self.e_wts, self.e_wts])
        keep = assign[src] == self.part
        src, dst, w = src[keep], dst[keep], w[keep]
        order = np.lexsort((dst, src))
        return src[order], dst[order], w[order]

    def absorb(self, v_ids, v_wts, e_keys, e_wts) -> None:
        """Merge roots won from other parts, with their incident edges.
        Keys already present re-report the same true weight, so the first
        occurrence wins harmlessly."""
        self.vwts[np.asarray(v_ids, dtype=np.int64)] = np.asarray(
            v_wts, dtype=np.float64
        )
        keys = np.concatenate([self.e_keys, np.asarray(e_keys, dtype=np.int64)])
        wts = np.concatenate([self.e_wts, np.asarray(e_wts, dtype=np.float64)])
        uniq, first = np.unique(keys, return_index=True)
        self.e_keys = uniq
        self.e_wts = wts[first]

    def prune(self, assign) -> None:
        """Drop edges with no endpoint left in the part and zero the
        weights of departed roots — the exact incident set again, so the
        honesty audit (:func:`repro.testing.check_halo_weights`) can
        compare against a brute-force recount."""
        a, b = split_edge_keys(self.e_keys, self.n)
        keep = (assign[a] == self.part) | (assign[b] == self.part)
        self.e_keys = self.e_keys[keep]
        self.e_wts = self.e_wts[keep]
        self.vwts[np.asarray(assign) != self.part] = 0.0


# ---------------------------------------------------------------------- #
# propose
# ---------------------------------------------------------------------- #


def _phi(W, maxcap: float, floor: float):
    """Deadband balance potential: zero inside the ``[floor, maxcap]``
    envelope, quadratic on the excess outside (the ``balance_mode=
    "deadband"`` form of :mod:`repro.partition.kl`).  Inside the band the
    balance gain vanishes, so cut and migration decide — refinement never
    pays cut for micro-balancing churn between already-balanced parts."""
    over = np.maximum(W - maxcap, 0.0)
    under = np.maximum(floor - W, 0.0)
    return over * over + under * under


def _conn_matrix(view: PartView, assign, p: int):
    """Members of the part, their (n_members, p) part-connectivity matrix,
    and the directed incident-edge arrays with per-member CSR offsets."""
    mine = np.flatnonzero(np.asarray(assign) == view.part)
    src, dst, w = view.directed(assign)
    li = np.searchsorted(mine, src)
    conn = np.bincount(
        li * p + np.asarray(assign)[dst], weights=w, minlength=mine.size * p
    ).reshape(mine.size, p)
    off = np.empty(mine.size + 1, dtype=np.int64)
    off[:-1] = np.searchsorted(src, mine)
    off[-1] = src.size
    return mine, conn, (src, dst, w, off)


def _pack_proposal(part, v, dst, prio, static, vw, rows, adj):
    """Flatten the chosen rows into the wire proposal: struct-of-arrays
    plus each mover's incident neighbor list (CSR), so any rank can lock
    the neighbors and the winning part can absorb the root sight unseen."""
    _, adst, aw, off = adj
    starts = off[rows]
    lens = off[rows + 1] - starts
    total = int(lens.sum())
    e_off = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lens, out=e_off[1:])
    idx = np.repeat(starts, lens) + (
        np.arange(total, dtype=np.int64) - np.repeat(e_off[:-1], lens)
    )
    return {
        "part": int(part),
        "v": v,
        "dst": dst,
        "prio": prio,
        "static": static,
        "vw": vw,
        "e_off": e_off,
        "adj": adst[idx],
        "adj_w": aw[idx],
    }


def pack_proposal_frame(prop):
    """Pack one part's proposal into a struct-of-arrays frame
    ``(head, ints, floats)`` for the wire: the codec serializes three
    contiguous buffers instead of a dict of nine objects, and the integer
    payload rides as int32 whenever every id fits (the common case — root
    ids are bounded by the mesh size), which halves the index half of the
    frame.  ``None`` (no proposal) packs to empty arrays.

    Layout: ``head = [part, n, m, int_width]`` (int64; ``int_width`` is 4
    or 8), ``ints = v ++ dst ++ e_off(n+1) ++ adj`` at the declared width,
    ``floats = prio ++ static ++ vw ++ adj_w`` (always float64 — the
    priorities feed the deterministic tournament, so they must travel
    bit-exact).
    """
    if prop is None:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    v = np.asarray(prop["v"], dtype=np.int64)
    adj = np.asarray(prop["adj"], dtype=np.int64)
    ints = np.concatenate(
        [v, np.asarray(prop["dst"], dtype=np.int64),
         np.asarray(prop["e_off"], dtype=np.int64), adj]
    )
    info = np.iinfo(np.int32)
    if ints.size == 0 or (
        int(ints.min()) >= info.min and int(ints.max()) <= info.max
    ):
        ints = ints.astype(np.int32)
        width = 4
    else:
        width = 8  # ids beyond int32: ship verbatim (exactness first)
    head = np.array([prop["part"], v.size, adj.size, width], dtype=np.int64)
    floats = np.concatenate(
        [np.asarray(prop["prio"], dtype=np.float64),
         np.asarray(prop["static"], dtype=np.float64),
         np.asarray(prop["vw"], dtype=np.float64),
         np.asarray(prop["adj_w"], dtype=np.float64)]
    )
    return head, ints, floats


def unpack_proposal_frame(frame):
    """Inverse of :func:`pack_proposal_frame` — bit-identical round trip
    (the int32 downcast is applied only when lossless, float64 payloads
    travel verbatim).  Empty frame -> ``None``."""
    head, ints, floats = frame
    head = np.asarray(head, dtype=np.int64)
    floats = np.asarray(floats, dtype=np.float64)
    if head.size == 0:
        return None
    part, n, m = int(head[0]), int(head[1]), int(head[2])
    ints = np.asarray(ints).astype(np.int64)
    o = 0
    v = ints[o : o + n]
    o += n
    dst = ints[o : o + n]
    o += n
    e_off = ints[o : o + n + 1]
    o += n + 1
    adj = ints[o : o + m]
    return {
        "part": part,
        "v": v,
        "dst": dst,
        "prio": floats[:n],
        "static": floats[n : 2 * n],
        "vw": floats[2 * n : 3 * n],
        "e_off": e_off,
        "adj": adj,
        "adj_w": floats[3 * n :],
    }


def _score_moves(
    view: PartView, assign, home, loads, live, cfg: DKLConfig, maxcap, floor,
    locked,
):
    """Evaluate this part's full Equation-1 gain matrix once and return the
    scoring context (best destination and gain per member), or ``None`` for
    an empty part.  Both the regular and the escape proposal of a round are
    read off the same context — the expensive :func:`_conn_matrix` pass and
    gain evaluation happen once, and the escape candidate can be extracted
    *while the regular proposals are still on the wire* (the escape round
    only ever runs when the regular round accepted nothing, so the state the
    context was scored against is still current)."""
    p = loads.size
    i = view.part
    mine, conn, adj = _conn_matrix(view, assign, p)
    if mine.size == 0:
        return None
    vw = view.vwts[mine]
    cols = np.arange(p)
    moved_now = (i != home[mine]).astype(np.float64)
    moved_if = (cols[None, :] != home[mine, None]).astype(np.float64)
    bal = (
        _phi(loads[i], maxcap, floor)
        + _phi(loads[None, :], maxcap, floor)
        - _phi(loads[i] - vw[:, None], maxcap, floor)
        - _phi(loads[None, :] + vw[:, None], maxcap, floor)
    )
    gain = (
        conn
        - conn[:, i][:, None]
        - cfg.alpha * vw[:, None] * (moved_if - moved_now[:, None])
        + cfg.beta * bal
    )
    gain[:, i] = -np.inf
    dead = np.ones(p, dtype=bool)
    dead[live] = False
    gain[:, dead] = -np.inf
    gain[conn <= 0.0] = -np.inf  # boundary moves only
    gain[locked[mine], :] = -np.inf  # a vertex moves once per pass
    best = np.argmax(gain, axis=1)
    bg = gain[np.arange(mine.size), best]
    return {
        "part": i,
        "mine": mine,
        "conn": conn,
        "adj": adj,
        "vw": vw,
        "moved_now": moved_now,
        "moved_if": moved_if,
        "best": best,
        "bg": bg,
    }


def _proposal_from(ctx, cfg: DKLConfig, escape=False):
    """Extract a wire proposal from a :func:`_score_moves` context: the
    best strictly-positive move per unlocked boundary root, or ``None``.
    ``prio`` is the full gain at round-start loads (the tournament key);
    ``static`` is the cut+migration component — the balance term is
    recomputed against live loads at accept time.

    With ``escape=True`` the sign requirement is dropped and only the
    single best candidate is proposed: the hill-climbing offer made when
    no positive move exists anywhere (the tournament accepts exactly one).
    """
    if ctx is None:
        return None
    i, mine, conn = ctx["part"], ctx["mine"], ctx["conn"]
    vw, best, bg = ctx["vw"], ctx["best"], ctx["bg"]
    if escape:
        top = int(np.argmax(bg))
        rows = np.array([top], dtype=np.int64) if np.isfinite(bg[top]) else \
            np.empty(0, dtype=np.int64)
    else:
        rows = np.flatnonzero(bg > 0.0)
    if rows.size == 0:
        return None
    static = (
        conn[rows, best[rows]]
        - conn[rows, i]
        - cfg.alpha * vw[rows]
        * (ctx["moved_if"][rows, best[rows]] - ctx["moved_now"][rows])
    )
    return _pack_proposal(
        i, mine[rows], best[rows], bg[rows], static, vw[rows], rows, ctx["adj"]
    )


def _propose_moves(
    view: PartView, assign, home, loads, live, cfg: DKLConfig, maxcap, floor,
    locked, escape=False,
):
    """Score-and-extract in one call (the non-overlapped convenience form
    of :func:`_score_moves` + :func:`_proposal_from`)."""
    ctx = _score_moves(
        view, assign, home, loads, live, cfg, maxcap, floor, locked
    )
    return _proposal_from(ctx, cfg, escape=escape)


def _propose_rebalance(view, assign, home, loads, live, cfg, locked, maxcap):
    """Donations from an overweight part: candidates ordered by least cut
    damage toward the lightest underweight live parts (teleports allowed),
    cumulative weight just covering the excess, at most
    :data:`REBALANCE_CAP`."""
    i = view.part
    if loads[i] <= maxcap:
        return None
    p = loads.size
    mine, conn, adj = _conn_matrix(view, assign, p)
    if mine.size == 0:
        return None
    # any strictly lighter live part may receive: weight *diffuses* along
    # part boundaries toward the light end over successive rounds instead
    # of teleporting straight to the global minimum and leaving islands
    under = [r for r in live if r != i and loads[r] < loads[i]]
    if not under:
        return None
    under = np.asarray(under, dtype=np.int64)
    # lightest-first, id-stable: argmax below prefers the max-connectivity
    # target, and on all-zero rows (no lighter neighbor — the teleport
    # fallback) the lightest lighter part
    under = under[np.lexsort((under, loads[under]))]
    vw = view.vwts[mine]
    sub = conn[:, under]
    jidx = np.argmax(sub, axis=1)
    j = under[jidx]
    cj = sub[np.arange(mine.size), jidx]
    moved_now = (i != home[mine]).astype(np.float64)
    moved_if = (j != home[mine]).astype(np.float64)
    static = cj - conn[:, i] - cfg.alpha * vw * (moved_if - moved_now)
    cand = np.flatnonzero(~locked[mine])
    if cand.size == 0:
        return None
    order = np.lexsort((mine[cand], -static[cand]))
    cand = cand[order]
    excess = float(loads[i] - maxcap)
    take = int(np.searchsorted(np.cumsum(vw[cand]), excess) + 1)
    cand = cand[: min(take, REBALANCE_CAP)]
    return _pack_proposal(
        i, mine[cand], j[cand], static[cand], static[cand], vw[cand], cand, adj
    )


# ---------------------------------------------------------------------- #
# resolve
# ---------------------------------------------------------------------- #


def _resolve(
    props,
    assign,
    loads,
    counts,
    locked,
    maxcap,
    floor,
    home,
    cfg: DKLConfig,
    rnd: int,
    rebalance: bool,
    escape: bool = False,
):
    """Replay the deterministic tournament — identical on every rank given
    the same allgathered ``props``.  Mutates ``assign``/``loads``/
    ``counts``/``locked`` in place; returns the accepted move records.
    ``escape`` accepts exactly one admissible candidate regardless of the
    sign of its gain — the hill-climbing step; the pass-end rollback
    guarantees a bad escape can never survive into the result.

    Candidates are visited in ``(-prio, seeded part rotation, vertex id)``
    order.  A vertex moves at most once per round (``locked``), but its
    neighbors are *not* locked: when an earlier acceptance touched the
    neighborhood, the candidate's gain is recomputed exactly from the edge
    list its proposal carries — so a coherent front can cascade through a
    single round with no stale-gain accounting, instead of advancing one
    independent set per round."""
    props = [q for q in props if q is not None and q["v"].size]
    if not props:
        return []
    p = loads.size
    v = np.concatenate([q["v"] for q in props])
    dst = np.concatenate([q["dst"] for q in props])
    prio = np.concatenate([q["prio"] for q in props])
    static = np.concatenate([q["static"] for q in props])
    vw = np.concatenate([q["vw"] for q in props])
    part = np.concatenate(
        [np.full(q["v"].size, q["part"], dtype=np.int64) for q in props]
    )
    adj = np.concatenate([q["adj"] for q in props])
    adj_w = np.concatenate([q["adj_w"] for q in props])
    widths = np.concatenate([np.diff(q["e_off"]) for q in props])
    starts = np.zeros(widths.size, dtype=np.int64)
    np.cumsum(widths[:-1], out=starts[1:])
    tie = (part + cfg.seed + rnd) % p
    order = np.lexsort((v, tie, -prio))

    accepted = []
    for k in order:
        vid = int(v[k])
        if locked[vid]:
            continue
        i, j = int(assign[vid]), int(dst[k])
        if counts[i] <= 1:
            continue  # never empty a live part
        s, e = int(starts[k]), int(starts[k] + widths[k])
        nbrs = adj[s:e]
        w = float(vw[k])
        if locked[nbrs].any():
            # the neighborhood changed this round: redo the cut+migration
            # component against the live assignment (exact, O(deg))
            nasg = assign[nbrs]
            ws = adj_w[s:e]
            st = float(ws[nasg == j].sum()) - float(ws[nasg == i].sum())
            if cfg.alpha:
                h = int(home[vid])
                st -= cfg.alpha * w * (float(j != h) - float(i != h))
        else:
            st = float(static[k])
        after = loads[j] + w
        bal = (
            _phi(loads[i], maxcap, floor)
            + _phi(loads[j], maxcap, floor)
            - _phi(loads[i] - w, maxcap, floor)
            - _phi(after, maxcap, floor)
        )
        g = st + cfg.beta * float(bal)
        if rebalance:
            if loads[i] <= maxcap:
                continue  # donor already back inside the envelope
            if after > maxcap and after > loads[i] - w:
                continue  # would just relocate the peak
        else:
            if after > maxcap and after > loads[i]:
                continue  # KL balance envelope
            if g <= 0.0 and not escape:
                continue
        assign[vid] = j
        loads[i] -= w
        loads[j] += w
        counts[i] -= 1
        counts[j] += 1
        locked[vid] = True
        accepted.append(
            {
                "v": vid,
                "src": i,
                "dst": j,
                "vw": w,
                "gain": g,
                "prio": float(prio[k]),
                "adj": nbrs.copy(),
                "adj_w": adj_w[s:e].copy(),
            }
        )
        if escape:
            break  # exactly one hill-climbing move per escape round
    return accepted


def _absorb_accepted(views, accepted) -> None:
    """Fold the winners into the local views: the destination part learns
    each adopted root's weight and incident edges from the proposal
    payload (no extra messages needed)."""
    for part, view in views.items():
        recs = [r for r in accepted if r["dst"] == part]
        if not recs:
            continue
        v_ids = np.array([r["v"] for r in recs], dtype=np.int64)
        v_wts = np.array([r["vw"] for r in recs], dtype=np.float64)
        keys = []
        wts = []
        for r in recs:
            a = np.minimum(r["adj"], r["v"])
            b = np.maximum(r["adj"], r["v"])
            keys.append(edge_keys(a, b, view.n))
            wts.append(r["adj_w"])
        view.absorb(
            v_ids,
            v_wts,
            np.concatenate(keys) if keys else np.empty(0, np.int64),
            np.concatenate(wts) if wts else np.empty(0, np.float64),
        )


# ---------------------------------------------------------------------- #
# the round loop (shared by the serial and SPMD drivers)
# ---------------------------------------------------------------------- #


def _refine_loop(
    n_roots, p, views, assign, home, loads, live, cfg, wmax, ex, trace=None
):
    """Propose/resolve/rebalance rounds grouped into passes, on the parts
    of ``views`` (all live parts in the serial driver, this rank's own in
    the SPMD one); ``ex`` is the proposal exchange.  Mutates ``assign``,
    ``loads`` and the views in place."""
    live = sorted(int(r) for r in live)
    mean = float(loads[live].sum()) / len(live) if live else 0.0
    # vertex-granularity balance band, same rule as the KL engine: the
    # envelope can never be tighter than half the heaviest root
    band = max(cfg.balance_tol * mean, 0.5 * float(wmax))
    maxcap = mean + band
    floor = mean - band
    counts = np.bincount(assign, minlength=p).astype(np.int64)
    locked = np.zeros(n_roots, dtype=bool)
    grnd = 0

    for pss in range(MAX_PASSES):
        locked[:] = False
        # cumulative exact objective delta of this pass and its move log —
        # every rank replays the same accepts, so rollback is in lockstep
        cum = 0.0
        best_cum = 0.0
        best_len = 0
        log = []
        escapes = 0
        for rnd in range(MAX_ROUNDS):
            with PERF.span("dkl.propose"):
                ctxs = {
                    part: _score_moves(
                        views[part], assign, home, loads, live, cfg, maxcap,
                        floor, locked,
                    )
                    for part in views
                }
                local = {
                    part: _proposal_from(ctxs[part], cfg)
                    for part in views
                }
            pending = ex.post(local, grnd)
            # overlap window: while the proposal frames are in flight,
            # prestage the escape offer from the same scoring context.  An
            # escape round only runs when the regular round accepted
            # nothing — assignment, loads and locks unchanged since the
            # context was scored — so this is bit-identical to recomputing
            # it after the resolve, minus a full _conn_matrix pass
            with PERF.span("dkl.propose"):
                esc_local = {
                    part: _proposal_from(ctxs[part], cfg, escape=True)
                    for part in views
                }
            props = ex.wait(pending)
            with PERF.span("dkl.resolve"):
                moved = _resolve(
                    props, assign, loads, counts, locked, maxcap, floor,
                    home, cfg, grnd, rebalance=False,
                )
            _absorb_accepted(views, moved)

            esc = []
            if not moved and escapes < ESCAPE_CAP:
                escapes += 1
                # no positive move anywhere: offer each part's single
                # least-damaging move and accept the best one — KL's
                # hill-climb across objective ridges, batch edition
                props = ex.wait(ex.post(esc_local, grnd))
                with PERF.span("dkl.resolve"):
                    esc = _resolve(
                        props, assign, loads, counts, locked, maxcap, floor,
                        home, cfg, grnd, rebalance=False, escape=True,
                    )
                _absorb_accepted(views, esc)

            rb = []
            if np.any(loads[live] > maxcap):
                with PERF.span("dkl.rebalance"):
                    local = {
                        part: _propose_rebalance(
                            views[part], assign, home, loads, live, cfg,
                            locked, maxcap,
                        )
                        for part in views
                    }
                props = ex.wait(ex.post(local, grnd))
                with PERF.span("dkl.rebalance"):
                    rb = _resolve(
                        props, assign, loads, counts, locked, maxcap, floor,
                        home, cfg, grnd, rebalance=True,
                    )
                _absorb_accepted(views, rb)

            # accepted gains are exact objective deltas: track the best
            # prefix at single-move granularity, in application order
            for m in moved + esc + rb:
                cum += m["gain"]
                log.append((m["v"], m["src"], m["dst"], m["vw"]))
                if cum > best_cum + MIN_GAIN:
                    best_cum = cum
                    best_len = len(log)
            if trace is not None:
                trace.append(
                    {
                        "round": grnd,
                        "pass": pss,
                        "moves": moved,
                        "escape": esc,
                        "rebalance": rb,
                    }
                )
            grnd += 1
            if not moved and not esc and not rb:
                break
            if len(log) - best_len >= STALL:
                break  # the tail would be rolled back anyway

        # roll back the suffix after the best prefix (lockstep: same log
        # on every rank) — the views keep their superset knowledge and
        # the final prune restores the exact incident set
        undone = []
        for v, src, dst, w in reversed(log[best_len:]):
            assign[v] = src
            loads[dst] -= w
            loads[src] += w
            counts[dst] -= 1
            counts[src] += 1
            undone.append({"v": int(v), "to": int(src)})
        if trace is not None and undone:
            trace.append({"pass": pss, "rollback": undone})
        if best_cum <= MIN_GAIN:
            break

    for view in views.values():
        view.prune(assign)
    return assign


# ---------------------------------------------------------------------- #
# exchanges (serial rank loop vs SPMD messages)
# ---------------------------------------------------------------------- #


class _SerialExchange:
    """The collectives of the serial driver: every part lives in this
    process, so each one is a rank loop in live-rank order — the order
    :meth:`SimComm.allgather` assembles its blocks in.  A posted proposal
    set is complete the moment it is built."""

    def __init__(self, live):
        self.live = live

    def post(self, local, rnd):
        return self.gather_pairs(local)

    def wait(self, pending):
        return pending

    def gather_pairs(self, local):
        return [local[part] for part in self.live]

    def reduce_max(self, x):
        return x  # the local max is already global (all parts here)

    def handoff(self, views, old, new):
        for part in self.live:
            reports = _handoff_reports(views[part], old, new)
            for dst in sorted(reports):
                views[dst].absorb(**reports[dst])


class _CommExchange:
    """The collectives of the SPMD driver on ``comm``.  Proposals travel as
    packed frames (:func:`pack_proposal_frame`) by nonblocking allgather on
    :data:`PROPOSAL_TAG`, their posted bytes accounted against the round
    (``dkl.proposals`` in :class:`~repro.runtime.stats.TrafficStats`) — the
    caller overlaps local scoring with the flight and waits before the
    resolve.  Matchings allgather on :data:`MATCHING_TAG`, the coarse max
    vertex weight allreduces on :data:`REDUCE_TAG`, and the projection
    handoff is point-to-point on :data:`HANDOFF_TAG`."""

    def __init__(self, comm, live):
        self.comm = comm
        self.live = live

    def post(self, local, rnd):
        with PERF.span("dkl.exchange"):
            frame = pack_proposal_frame(local[self.comm.rank])
            req = self.comm.iallgather(
                frame, tag=PROPOSAL_TAG, ranks=self.live
            )
        self.comm.stats.record_round("dkl.proposals", rnd, req.sent_bytes)
        return req

    def wait(self, req):
        with PERF.span("dkl.exchange"):
            frames = req.wait()
        return [unpack_proposal_frame(f) for f in frames]

    def gather_pairs(self, local):
        a, b = local[self.comm.rank]
        packed = np.concatenate([a, b])  # (a ++ b): split at the midpoint
        out = self.comm.allgather(packed, tag=MATCHING_TAG, ranks=self.live)
        return [(arr[: arr.size // 2], arr[arr.size // 2 :]) for arr in out]

    def reduce_max(self, x):
        return self.comm.allreduce(x, op=max, tag=REDUCE_TAG, ranks=self.live)

    def handoff(self, views, old, new):
        rank = self.comm.rank
        mine = views[rank]
        reports = _handoff_reports(mine, old, new)
        for dst in sorted(reports):
            self.comm.send(reports[dst], dst, HANDOFF_TAG)
        old = np.asarray(old)
        gained = np.unique(old[(np.asarray(new) == rank) & (old != rank)])
        for src in sorted(int(s) for s in gained):
            mine.absorb(**self.comm.recv(src, HANDOFF_TAG))


# ---------------------------------------------------------------------- #
# multilevel (dkl-ml): intra-part coarsening around the same tournament
# ---------------------------------------------------------------------- #


def _match_part(view: PartView, assign, seed: int):
    """Deterministic heavy-edge matching of this part's *internal*
    subgraph (both endpoints members), as global root-id pair arrays
    ``(a, b)`` with ``a < b``.  A pure function of ``(view, assign, seed)``,
    so every rank can rebuild the global coarse map from the allgathered
    pairs without exchanging the subgraphs themselves."""
    i = view.part
    assign = np.asarray(assign)
    mine = np.flatnonzero(assign == i)
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if mine.size < 2:
        return empty
    a, b = split_edge_keys(view.e_keys, view.n)
    keep = (assign[a] == i) & (assign[b] == i)
    if not keep.any():
        return empty
    la = np.searchsorted(mine, a[keep])
    lb = np.searchsorted(mine, b[keep])
    sub = WeightedGraph.from_edges(
        mine.size,
        np.column_stack([la, lb]),
        view.e_wts[keep],
        view.vwts[mine],
    )
    mate = heavy_edge_matching(sub, seed=seed)
    loc = np.flatnonzero(mate > np.arange(mine.size))
    return mine[loc], mine[mate[loc]]


def _combine_matchings(n: int, pairs_list):
    """Global coarse map from the allgathered per-part matchings: merge the
    (disjoint — parts partition the roots) pair sets into one involution,
    name each coarse vertex by its minimum member, and densify the names in
    sorted order.  Identical on every rank given the same gathered pairs."""
    mate = np.arange(n, dtype=np.int64)
    for a, b in pairs_list:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        mate[a] = b
        mate[b] = a
    reps = np.minimum(np.arange(n, dtype=np.int64), mate)
    uniq, cmap = np.unique(reps, return_inverse=True)
    return cmap.astype(np.int64), int(uniq.size)


def _contract_view(view: PartView, cmap, nc: int, assign):
    """This part's halo view of the contracted graph: incident edges mapped
    through ``cmap`` (collapsed pairs dropped, parallels merged), member
    weights summed per coarse vertex.  Matching is intra-part, so every
    coarse vertex with a member constituent is *entirely* made of members —
    the coarse view keeps the exact-incident-set invariant of the fine one."""
    i = view.part
    assign = np.asarray(assign)
    a, b = split_edge_keys(view.e_keys, view.n)
    ca, cb = cmap[a], cmap[b]
    keep = ca != cb
    lo = np.minimum(ca[keep], cb[keep])
    hi = np.maximum(ca[keep], cb[keep])
    keys = lo * np.int64(nc) + hi
    uniq, inv = np.unique(keys, return_inverse=True)
    wts = np.bincount(inv, weights=view.e_wts[keep], minlength=uniq.size)
    mine = np.flatnonzero(assign == i)
    cw = np.bincount(cmap[mine], weights=view.vwts[mine], minlength=nc)
    ids = np.unique(cmap[mine])
    return PartView(nc, i, ids, cw[ids], uniq, wts)


def _handoff_reports(view: PartView, old_assign, new_assign):
    """Per-destination fine payloads for the roots this part lost in the
    coarser stage: each lost root's weight and full incident edge set, read
    off the loser's view (authoritative for its members).  Keyed by
    destination part."""
    i = view.part
    old_assign = np.asarray(old_assign)
    new_assign = np.asarray(new_assign)
    lost = np.flatnonzero((old_assign == i) & (new_assign != i))
    out = {}
    if lost.size == 0:
        return out
    a, b = split_edge_keys(view.e_keys, view.n)
    for dst in np.unique(new_assign[lost]):
        vs = lost[new_assign[lost] == dst]
        pick = np.isin(a, vs) | np.isin(b, vs)
        out[int(dst)] = {
            "v_ids": vs,
            "v_wts": view.vwts[vs],
            "e_keys": view.e_keys[pick],
            "e_wts": view.e_wts[pick],
        }
    return out


def _ml_refine(n, p, views, assign, loads, live, cfg, wmax, ex, trace=None):
    """The one refinement body: coarsen up to ``cfg.ml_levels`` times by
    intra-part matching, run :func:`_refine_loop` at the coarsest level
    (where each accepted move relocates a whole cluster and the balance
    envelope widens to the coarse vertex granularity), then project down
    level by level — losers hand the fine payloads of departed roots to
    the winners — re-refining at each finer level.  ``ml_levels=0`` is the
    flat engine: one round loop on the fine views.  ``home`` at every level
    is the entry assignment coarsened to that level: migration cost is
    always charged against where the weight actually lives.

    ``ex`` supplies every collective (:class:`_SerialExchange` or
    :class:`_CommExchange`).  ``trace``, when a list, receives the round
    records of the finest level (the caller's ``views``, root ids).
    """
    stack = []
    cur_views, cur_assign, cur_n, cur_wmax = views, assign, n, wmax
    for lvl in range(max(int(cfg.ml_levels), 0)):
        with PERF.span("dkl.coarsen"):
            pairs = {
                part: _match_part(cur_views[part], cur_assign, cfg.seed + lvl)
                for part in cur_views
            }
        all_pairs = ex.gather_pairs(pairs)
        if sum(a.size for a, _ in all_pairs) == 0:
            break  # nothing matched anywhere: deeper levels are identical
        with PERF.span("dkl.coarsen"):
            cmap, nc = _combine_matchings(cur_n, all_pairs)
            nxt_views = {
                part: _contract_view(view, cmap, nc, cur_assign)
                for part, view in cur_views.items()
            }
            nxt_assign = np.zeros(nc, dtype=np.int64)
            nxt_assign[cmap] = np.asarray(cur_assign, dtype=np.int64)
            local_wmax = max(
                (float(v.vwts.max()) for v in nxt_views.values()), default=0.0
            )
        nxt_wmax = ex.reduce_max(local_wmax)
        stack.append((cur_views, cur_assign, cur_n, cur_wmax, cmap))
        cur_views, cur_assign, cur_n, cur_wmax = (
            nxt_views, nxt_assign, nc, nxt_wmax,
        )

    # coarsest-level tournament (home == the coarsened entry assignment)
    _refine_loop(
        cur_n, p, cur_views, cur_assign, cur_assign.copy(), loads, live,
        cfg, cur_wmax, ex, trace if cur_views is views else None,
    )

    # project down: hand fine payloads across the new boundaries, then
    # re-refine at the finer granularity
    for fviews, fassign, fn_, fwmax, cmap in reversed(stack):
        with PERF.span("dkl.project"):
            projected = cur_assign[cmap]
        fhome = np.asarray(fassign, dtype=np.int64).copy()
        ex.handoff(fviews, fhome, projected)
        fassign[:] = projected
        _refine_loop(
            fn_, p, fviews, fassign, fhome, loads, live, cfg, fwmax, ex,
            trace if fviews is views else None,
        )
        cur_assign = fassign
    return assign


# ---------------------------------------------------------------------- #
# drivers
# ---------------------------------------------------------------------- #


def _flat(cfg):
    return replace(cfg if cfg is not None else DKLConfig(), ml_levels=0)


def dkl_ml_refine_serial(
    graph, p, current, cfg: DKLConfig = None, live=None, return_trace=False
):
    """Single-thread reference engine: every part's propose step runs in a
    rank loop instead of an allgather, through the exact code the SPMD path
    runs — the two are bit-identical by construction (and by test).
    ``cfg.ml_levels`` picks flat (0) or multilevel (``dkl-ml``, >= 1).

    Returns the refined assignment, or ``(assignment, trace)`` with
    ``return_trace=True`` where ``trace[k]`` records the finest level's
    round ``k`` — accepted moves, escapes and rebalance donations — and
    pass-end rollbacks (the property-test surface).
    """
    cfg = cfg if cfg is not None else DKLConfig()
    assign = np.asarray(current, dtype=np.int64).copy()
    n = graph.n_vertices
    live = sorted(int(r) for r in (live if live is not None else range(p)))
    views = {part: PartView.from_graph(graph, part, assign) for part in live}
    loads = np.bincount(
        assign, weights=graph.vwts, minlength=p
    ).astype(np.float64)
    wmax = float(graph.vwts.max()) if n else 0.0
    trace = [] if return_trace else None
    _ml_refine(
        n, p, views, assign, loads, live, cfg, wmax, _SerialExchange(live),
        trace,
    )
    return (assign, trace) if return_trace else assign


def dkl_ml_refine_comm(comm, view: PartView, owner, loads, wmax, live, cfg):
    """SPMD refinement: this rank proposes for its own part, proposals
    travel by allgather (tag :data:`PROPOSAL_TAG`), and every rank replays
    the same resolve — the returned assignment is replica-identical without
    coordinator involvement.  With ``cfg.ml_levels >= 1`` each rank first
    matches its own part's internal subgraph, the matchings travel by
    allgather (tag :data:`MATCHING_TAG`) so every rank derives the
    identical coarse map, and at each projection the losers ship the fine
    payloads of departed roots point-to-point (tag :data:`HANDOFF_TAG`)
    before the fine-level rounds.

    ``view`` is this rank's halo view (from
    :meth:`~repro.pared.distmesh.DistributedMesh.exchange_halo_weights`);
    it is updated in place as roots change hands and pruned to the final
    assignment on return, ready for the honesty audit.  ``loads``/``wmax``
    come from the coordinator's imbalance-check broadcast.
    """
    assign = np.asarray(owner, dtype=np.int64).copy()
    loads = np.asarray(loads, dtype=np.float64).copy()
    return _ml_refine(
        view.n, loads.size, {comm.rank: view}, assign, loads, live, cfg, wmax,
        _CommExchange(comm, live),
    )


def dkl_refine_serial(
    graph, p, current, cfg: DKLConfig = None, live=None, return_trace=False
):
    """The flat engine (``dkl``): :func:`dkl_ml_refine_serial` with
    ``ml_levels=0``, whatever ``cfg.ml_levels`` says."""
    return dkl_ml_refine_serial(
        graph, p, current, _flat(cfg), live, return_trace
    )


def dkl_refine_comm(comm, view: PartView, owner, loads, wmax, live, cfg):
    """The flat engine (``dkl``): :func:`dkl_ml_refine_comm` with
    ``ml_levels=0``, whatever ``cfg.ml_levels`` says."""
    return dkl_ml_refine_comm(comm, view, owner, loads, wmax, live, _flat(cfg))
