"""Turning one run's marks, spans and counters into metrics.

A *run record* is the dict the benchmark keeps per ``run_pared`` call:
``t_call``/``t_return`` (parent clock), ``ranks`` (what :func:`~perfbench.
spans.collect` brought home from each rank) and ``stats``.

Self time of a span is its duration minus the part of it that its child
spans cover.  A rank's round window runs from its marker call for that
round to its marker call for the next one (the last round closes at the
rank's last span).  Within a window, *wait* is time covered by receive
spans, *busy* is the rest, and *unaccounted* is time no top-level span
covers.  The critical rank of a round is the one with the most busy time:
the others end up waiting on it.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

import numpy as np

from perfbench.hostspeed import REFERENCE_S

from perfbench.spans import COUNTS, NAME, NBYTES, PARENT, ROUND, T0, T1

#: span names whose self time is reported as ``<name>.busy_s``
BUSY_LAYERS = (
    "mesh.refine",
    "mesh.coarsen",
    "mesh.dualgraph",
    "mesh.metrics",
    "fem.estimate",
    "pared.weights",
    "pared.migrate",
    "partition.repartition",
    "partition.dkl",
)

WAIT_PREFIX = "runtime.recv."


def union_length(intervals) -> float:
    """Total length covered by a set of ``(t0, t1)`` intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _clip(intervals, lo: float, hi: float) -> list:
    return [(max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi]


def self_times(spans) -> list:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[T0], s[T1]))
    return [
        (s[T1] - s[T0]) - union_length(_clip(children[i], s[T0], s[T1]))
        for i, s in enumerate(spans)
    ]


def round_starts(run) -> list:
    """Global start of each round: the first rank's marker call."""
    first = {}
    for rank in run["ranks"]:
        for rnd, t in rank["marks"]:
            first[rnd] = min(t, first.get(rnd, t))
    return [first[r] for r in sorted(first)]


def end_to_end(run) -> dict:
    """``run_s``, ``setup_s`` and the list of round wall times of a run.
    The last round closes when ``run_pared`` returns to the benchmark process.
    ``scale`` converts them to reference-speed seconds: the host-speed
    kernel's reference time over its time on the slowest rank's core."""
    starts = round_starts(run)
    bounds = starts + [run["t_return"]]
    return {
        "run_s": run["t_return"] - run["t_call"],
        "setup_s": starts[0] - run["t_call"],
        "rounds_s": [b - a for a, b in zip(bounds, bounds[1:])],
        "kernel_s": max(r["kernel_s"] for r in run["ranks"]),
        "scale": REFERENCE_S / max(r["kernel_s"] for r in run["ranks"]),
    }


def timings(e2e, calibrated: bool = True) -> dict:
    """The end-to-end timing metrics over runs: medians of ``setup_s`` and
    ``run_s``, and percentiles of the pooled round times."""
    def k(e):
        return e["scale"] if calibrated else 1.0

    rounds = [t * k(e) for e in e2e for t in e["rounds_s"]]
    return {
        "setup_s": statistics.median(e["setup_s"] * k(e) for e in e2e),
        "run_s": statistics.median(e["run_s"] * k(e) for e in e2e),
        "round_s.p50": float(np.percentile(rounds, 50)),
        "round_s.p90": float(np.percentile(rounds, 90)),
    }


def rank_windows(rank) -> dict:
    """``{round: (t0, t1)}`` of one rank (rounds >= 0 only)."""
    marks = sorted(rank["marks"])
    last_end = {}
    for s in rank["spans"]:
        if s[ROUND] >= 0:
            last_end[s[ROUND]] = max(s[T1], last_end.get(s[ROUND], s[T1]))
    out = {}
    for i, (rnd, t) in enumerate(marks):
        end = marks[i + 1][1] if i + 1 < len(marks) else last_end.get(rnd, t)
        out[rnd] = (t, end)
    return out


def round_profile(run) -> list:
    """Per round, per rank: window, busy, wait and unaccounted seconds, and
    the self time per layer.  Rows: ``{"round", "ranks": {rank: {...}}}``."""
    rows = defaultdict(dict)
    for rank in run["ranks"]:
        spans = rank["spans"]
        selfs = self_times(spans)
        for rnd, (lo, hi) in rank_windows(rank).items():
            inside = [
                i for i, s in enumerate(spans)
                if s[ROUND] == rnd and s[T1] > lo and s[T0] < hi
            ]
            top = [(spans[i][T0], spans[i][T1])
                   for i in inside if spans[i][PARENT] < 0]
            waits = [(spans[i][T0], spans[i][T1])
                     for i in inside if spans[i][NAME].startswith(WAIT_PREFIX)]
            wait = union_length(_clip(waits, lo, hi))
            layers = defaultdict(float)
            for i in inside:
                layers[spans[i][NAME]] += selfs[i]
            rows[rnd][rank["rank"]] = {
                "window": hi - lo,
                "busy": (hi - lo) - wait,
                "wait": wait,
                "unaccounted": (hi - lo) - union_length(_clip(top, lo, hi)),
                "layers": dict(layers),
            }
    return [{"round": r, "ranks": rows[r]} for r in sorted(rows)]


def critical_path(profile) -> dict:
    busy = wait = unacc = window = 0.0
    for row in profile:
        crit = max(row["ranks"].values(), key=lambda v: v["busy"])
        busy += crit["busy"]
        wait += crit["wait"]
        for v in row["ranks"].values():
            unacc += v["unaccounted"]
            window += v["window"]
    return {
        "round.critical.busy_s": busy,
        "round.critical.wait_s": wait,
        "round.unaccounted_share": unacc / window if window else 0.0,
    }


def layer_metrics(run) -> dict:
    """Per-layer metrics read off one traced run's spans (rounds >= 0)."""
    busy = defaultdict(lambda: defaultdict(float))  # layer -> rank -> s
    out = {"partition.repartition.calls": 0, "pared.migrate.bytes": 0}
    local_added = owned_added = 0
    for rank in run["ranks"]:
        spans = rank["spans"]
        for s, st in zip(spans, self_times(spans)):
            if s[ROUND] < 0:
                continue
            name = s[NAME]
            if name in BUSY_LAYERS:
                busy[name][rank["rank"]] += st
            if name == "partition.repartition":
                out["partition.repartition.calls"] += 1
            elif name == "pared.migrate":
                out["pared.migrate.bytes"] += s[NBYTES]
            elif name == "mesh.refine":
                local_added += s[COUNTS]["local_added"]
                owned_added += s[COUNTS]["owned_added"]
    for layer in BUSY_LAYERS:
        out[layer + ".busy_s"] = max(busy[layer].values(), default=0.0)
    out["mesh.refine.leaves_added"] = owned_added
    out["mesh.refine.redundancy"] = (
        local_added / owned_added if owned_added else 0.0
    )
    out.update(critical_path(round_profile(run)))
    return out


def counter_metrics(run, phases) -> dict:
    """Per-layer metrics from the counters ``run_pared`` already returns:
    the traffic ledger, the wire counters and ``kernel_perf``."""
    stats = run["stats"]
    perf = stats.kernel_perf or {}
    report = stats.phase_report()
    wire = stats.wire_report()

    def secs(pred) -> float:
        return sum(s for name, (_, s) in perf.items() if pred(name))

    out = {}
    for ph in phases:
        msgs, nbytes = report.get(ph, (0, 0))
        out["runtime.messages." + ph] = msgs
        out["runtime.bytes." + ph] = nbytes
        out["runtime.wait_s." + ph] = secs(lambda n: n == "simmpi.wait." + ph)
    out["runtime.codec_s"] = secs(lambda n: n.startswith("codec."))
    out["runtime.wire.copied_bytes"] = wire.get("copied_bytes", 0)
    out["runtime.wire.spill_frames"] = wire.get("spill_frames", 0)
    out["partition.kl.busy_s"] = secs(lambda n: n == "kl.refine")
    out["graph.matching.busy_s"] = secs(lambda n: n.startswith("matching."))
    out["graph.contract.busy_s"] = secs(lambda n: n == "contract")
    return out


def quality_metrics(histories) -> dict:
    """Partition quality after the last round (replica-identical, so rank
    0's history speaks for all), and the load ratio from every rank."""
    hist = histories[0]
    loads = [h[-1]["local_load"] for h in histories]
    return {
        "cut.final": hist[-1]["cut"],
        "shared_vertices.final": hist[-1]["shared_vertices"],
        "migrated_elements.total": sum(r["elements_moved"] for r in hist),
        "pared.migrate.trees": sum(r["trees_moved"] for r in hist),
        "imbalance.final": max(loads) / (sum(loads) / len(loads)),
    }


def overlap(a, b) -> float:
    """Length of the intersection of two interval sets."""
    total = 0.0
    for a0, a1 in a:
        for b0, b1 in b:
            total += max(0.0, min(a1, b1) - max(a0, b0))
    return total


def p3_wait_overlap(run, coordinator: int = 0) -> tuple:
    """``(other ranks' P3 receive seconds, the part of it that overlaps the
    coordinator's repartition calls, the repartition seconds)``."""
    rep = []
    waits = []
    for rank in run["ranks"]:
        for s in rank["spans"]:
            if s[ROUND] < 0:
                continue
            if rank["rank"] == coordinator and s[NAME] == "partition.repartition":
                rep.append((s[T0], s[T1]))
            elif rank["rank"] != coordinator and s[NAME] == WAIT_PREFIX + "P3":
                waits.append((s[T0], s[T1]))
    return (
        union_length(waits),
        overlap(waits, rep),
        union_length(rep),
    )


def chrome_trace(run, meta: dict) -> str:
    """Chrome trace-event JSON of one run: one track per rank, the round
    windows as outer slices, every span nested inside.  Open it in Perfetto
    (ui.perfetto.dev) or chrome://tracing."""
    t_base = run["t_call"]
    events = [{"name": "process_name", "ph": "M", "pid": 0,
               "args": {"name": meta.get("workload", "pared")}}]

    def us(t):
        return (t - t_base) * 1e6

    for rank in run["ranks"]:
        r = rank["rank"]
        events.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": r,
                       "args": {"name": f"rank {r}"}})
        for rnd, (lo, hi) in rank_windows(rank).items():
            events.append({"name": f"round {rnd}", "cat": "round", "ph": "X",
                           "pid": 0, "tid": r, "ts": us(lo),
                           "dur": (hi - lo) * 1e6, "args": {"round": rnd}})
        for s in rank["spans"]:
            args = {"round": s[ROUND], "bytes_sent": s[NBYTES]}
            if s[COUNTS]:
                args.update(s[COUNTS])
            events.append({"name": s[NAME], "cat": s[NAME].split(".")[0],
                           "ph": "X", "pid": 0, "tid": r, "ts": us(s[T0]),
                           "dur": (s[T1] - s[T0]) * 1e6, "args": args})
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta})


def summary_lines(run, coordinator: int = 0) -> list:
    """Per-round critical-path table of one traced run."""
    lines = [
        f"{'round':>5} {'wall_ms':>8} {'crit':>4} {'busy_ms':>8} "
        f"{'wait_ms':>8} {'unacc_ms':>8}  top layers on the critical rank"
    ]
    for row in round_profile(run):
        ranks = row["ranks"]
        crit = max(ranks, key=lambda k: ranks[k]["busy"])
        v = ranks[crit]
        top = sorted(v["layers"].items(), key=lambda kv: -kv[1])[:3]
        lines.append(
            f"{row['round']:>5} "
            f"{max(x['window'] for x in ranks.values()) * 1e3:>8.1f} "
            f"{crit:>4} {v['busy'] * 1e3:>8.1f} {v['wait'] * 1e3:>8.1f} "
            f"{v['unaccounted'] * 1e3:>8.1f}  "
            + ", ".join(f"{n} {t * 1e3:.1f}" for n, t in top)
        )
    if len(run["ranks"]) > 1:
        wait, both, rep = p3_wait_overlap(run, coordinator)
        lines.append(
            f"non-coordinator P3 wait {wait * 1e3:.1f} ms, of which "
            f"{both * 1e3:.1f} ms overlaps the coordinator's "
            f"partition.repartition ({rep * 1e3:.1f} ms)"
        )
    return lines
