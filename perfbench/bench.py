"""Measuring one workload: warm-up, reference, timed runs, traced runs.

Order of a measurement, and why:

1. Cold costs first and reported apart from ``setup_s``: the native KL
   kernel is loaded (compiled on a fresh checkout) and the shm rank pool is
   forked by a no-op job.  Warm no-op jobs then time pool dispatch.
2. A thread-backend run of the same workload and seed is the reference
   that every later run's histories must match bit for bit.
3. One checked warm-up run on the workload's own backend, so the ranks'
   first-touch imports happen before timing.
4. Timed runs until ``seconds`` have passed.  Each is checked; a failed
   run is counted and never timed.  Peak RSS is read right after them.

The traced measurement splits ``seconds`` between untraced runs and
traced runs.  Between the halves it makes the workload's one untimed
``audit=True`` run (the program's own invariant checks, counted like any
other run; it costs several runs' time, so the untraced measurement leaves
it out).  The wrappers are installed only after the audit and before a
fresh rank pool is forked, so the workers inherit them.
"""

from __future__ import annotations

import json
import platform
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import analysis
from perfbench.check import history_mismatches
from perfbench.hostspeed import REFERENCE_S
from perfbench.spans import RECORDER, Instrumentation, claim_rank, collect
from perfbench.workloads import Workload
from repro.pared import run_pared
from repro.partition import _klnative
from repro.runtime import spmd_run
from repro.runtime.envflags import effective_cpu_count
from repro.runtime.shm import shutdown_pools

#: traffic phases of a PARED run (set-up traffic is labelled P3)
PHASES = ("P0", "P2", "P3", "dkl")

#: warm no-op jobs timed for ``runtime.dispatch_s``
DISPATCH_SAMPLES = 7


class ReferenceBroken(RuntimeError):
    """The thread-backend reference itself failed: nothing can be checked."""


def _median_dict(records) -> dict:
    keys = sorted({k for r in records for k in r})
    return {k: float(statistics.median(r[k] for r in records if k in r))
            for k in keys}


class Bench:
    def __init__(self, workload: Workload, seed: int):
        self.w = workload
        self.seed = seed
        self.cfg = workload.config(seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.backends = set()
        self.reference = None
        self.layer = {}

    # ------------------------------------------------------------------ #

    def _spmd(self, fn):
        return spmd_run(self.w.p, fn, transport=self.w.transport)

    def _fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)

    def run_once(self, cfg=None):
        """One checked ``run_pared`` call; its record, or None if it failed."""
        cfg = cfg or self.cfg
        self.attempted += 1
        t_call = perf_counter()
        try:
            histories, stats = run_pared(cfg)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted
            self._fail(f"run raised {exc!r}")
            self._spmd(collect)  # forget the failed run's marks
            return None
        t_return = perf_counter()
        ranks = self._spmd(collect)
        self.backends.add(stats.backend)
        problems = history_mismatches(self.reference, histories, self.w.rounds)
        if stats.backend != cfg.transport:
            problems.append(f"ran on backend {stats.backend!r}")
        if problems:
            self._fail("; ".join(problems[:3]))
            return None
        # histories are dropped once checked: on the thread backend they
        # would otherwise pile up in the very process whose RSS is measured
        return {"t_call": t_call, "t_return": t_return, "ranks": ranks,
                "stats": stats}

    def timed(self, seconds: float) -> list:
        runs = []
        t_end = perf_counter() + seconds
        while True:
            run = self.run_once()
            if run is not None:
                runs.append(run)
            if perf_counter() >= t_end:
                return runs

    # ------------------------------------------------------------------ #

    def prepare(self) -> None:
        t0 = perf_counter()
        self.native_kl = _klnative.load() is not None
        self.layer["partition.kl.load_s"] = perf_counter() - t0
        t0 = perf_counter()
        self._spmd(claim_rank)
        self.layer["runtime.pool.cold_s"] = perf_counter() - t0
        samples = []
        for _ in range(DISPATCH_SAMPLES):
            t0 = perf_counter()
            self._spmd(claim_rank)
            samples.append(perf_counter() - t0)
        self.layer["runtime.dispatch_s"] = statistics.median(samples)

        ref, _ = run_pared(self.w.config(self.seed, transport="thread"))
        broken = history_mismatches(ref, ref, self.w.rounds)
        if broken:
            raise ReferenceBroken("; ".join(broken[:3]))
        self.reference = ref
        RECORDER.drain()  # marks of the reference's rank threads
        self.run_once()  # warm-up

    def stamp(self) -> dict:
        return {
            "workload": self.w.name,
            "seed": self.seed,
            "p": self.w.p,
            "partitioner": self.w.partitioner,
            "backend": ",".join(sorted(b for b in self.backends if b)),
            "effective_cpu_count": effective_cpu_count(),
            "native_kl_loaded": self.native_kl,
            "python": platform.python_version(),
            "numpy": np.__version__,
        }

    # ------------------------------------------------------------------ #

    def end_to_end(self, seconds: float):
        """Untraced measurement: ``(metrics, notes)``."""
        self.prepare()
        runs = self.timed(seconds)
        if not runs:
            return {}, ["no run passed its checks"]
        e2e = [analysis.end_to_end(r) for r in runs]
        metrics = analysis.timings(e2e)
        metrics["peak_rss_mb"] = (
            max(r["maxrss_kb"] for r in runs[-1]["ranks"]) / 1024.0
        )
        metrics["imbalance.final"] = (
            analysis.quality_metrics(self.reference)["imbalance.final"]
        )
        rounds = [t * e["scale"] for e in e2e for t in e["rounds_s"]]
        beyond = sum(t > metrics["round_s.p90"] for t in rounds)
        wall = analysis.timings(e2e, calibrated=False)
        kernel_ms = statistics.median(e["kernel_s"] for e in e2e) * 1e3
        notes = [
            f"samples: {len(runs)} runs (setup_s, run_s), {len(rounds)} "
            f"rounds (round_s; {beyond} beyond p90)",
            f"host kernel: median {kernel_ms:.3f} ms "
            f"(reference {REFERENCE_S * 1e3:g} ms); uncalibrated wall: "
            + ", ".join(f"{k}={v:.6g}" for k, v in wall.items()),
        ]
        notes += [f"stamp {k}={v}" for k, v in self.stamp().items()]
        notes += [f"quality {k}={v}" for k, v in
                  analysis.quality_metrics(self.reference).items()]
        return metrics, notes

    def per_layer(self, seconds: float, trace_dir: Path):
        """Traced measurement: ``(metrics, notes)``."""
        self.prepare()
        untraced = self.timed(seconds / 2)
        self.run_once(self.w.config(self.seed, audit=True))
        shutdown_pools()
        wrappers = Instrumentation()
        try:
            self._spmd(claim_rank)  # the traced pool: fork and name ranks
            self.run_once()  # warm-up of the traced pool
            traced = self.timed(seconds / 2)
        finally:
            wrappers.remove()
        if not untraced or not traced:
            return {}, ["no run passed its checks"]

        metrics = dict(self.layer)
        metrics.update(_median_dict(
            [analysis.counter_metrics(r, PHASES) for r in untraced]
        ))
        metrics.update(_median_dict(
            [analysis.layer_metrics(r) for r in traced]
        ))
        quality = analysis.quality_metrics(self.reference)
        del quality["imbalance.final"]
        metrics.update(quality)
        untraced_e2e = [analysis.end_to_end(r) for r in untraced]
        traced_e2e = [analysis.end_to_end(r) for r in traced]
        metrics["trace.overhead"] = (
            analysis.timings(traced_e2e)["run_s"]
            / analysis.timings(untraced_e2e)["run_s"]
        )
        metrics["host.kernel_s"] = statistics.median(
            e["kernel_s"] for e in untraced_e2e + traced_e2e
        )

        last = traced[-1]
        meta = self.stamp()
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{self.w.name}-seed{self.seed}.trace.json"
        path.write_text(analysis.chrome_trace(last, meta))
        notes = [
            f"samples: {len(untraced)} untraced runs, {len(traced)} traced runs",
            f"trace (last traced run): {path}",
        ]
        notes += [f"stamp {k}={v}" for k, v in meta.items()]
        notes += analysis.summary_lines(last, coordinator=self.cfg.coordinator)
        return metrics, notes


def result_line(bench: Bench, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    })
