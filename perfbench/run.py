"""PARED round benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload corner2d-p2 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics plus a per-round
critical-path table, and writes a Chrome trace-event file under
``perfbench/out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "round_s.p50": "s",
    "round_s.p90": "s",
    "peak_rss_mb": "MB",
    "imbalance.final": "ratio",
}

#: per-layer metrics (``--trace 1``): name -> unit
PER_LAYER = {
    "mesh.refine.busy_s": "s",
    "mesh.refine.redundancy": "ratio",
    "mesh.refine.leaves_added": "count",
    "mesh.coarsen.busy_s": "s",
    "mesh.dualgraph.busy_s": "s",
    "mesh.metrics.busy_s": "s",
    "fem.estimate.busy_s": "s",
    "pared.weights.busy_s": "s",
    "pared.migrate.busy_s": "s",
    "pared.migrate.trees": "count",
    "pared.migrate.bytes": "bytes",
    "partition.repartition.busy_s": "s",
    "partition.repartition.calls": "count",
    "partition.dkl.busy_s": "s",
    "partition.kl.busy_s": "s",
    "partition.kl.load_s": "s",
    "graph.matching.busy_s": "s",
    "graph.contract.busy_s": "s",
    **{f"runtime.messages.{ph}": "count" for ph in ("P0", "P2", "P3", "dkl")},
    **{f"runtime.bytes.{ph}": "bytes" for ph in ("P0", "P2", "P3", "dkl")},
    **{f"runtime.wait_s.{ph}": "s" for ph in ("P0", "P2", "P3", "dkl")},
    "runtime.codec_s": "s",
    "runtime.wire.copied_bytes": "bytes",
    "runtime.wire.spill_frames": "count",
    "runtime.dispatch_s": "s",
    "runtime.pool.cold_s": "s",
    "round.critical.busy_s": "s",
    "round.critical.wait_s": "s",
    "round.unaccounted_share": "ratio",
    "trace.overhead": "ratio",
    "host.kernel_s": "s",
    "cut.final": "count",
    "shared_vertices.final": "count",
    "migrated_elements.total": "count",
}

#: environment the benchmark pins for itself (4 MiB = the default ring)
PINNED_ENV = {"REPRO_KL_NATIVE": "1", "REPRO_SHM_RING": str(4 << 20)}


def stop_children() -> None:
    """Stop every process a run started and wait until each has ended.

    The rank pool's workers go first.  Creating the pool's shared-memory
    segment also starts multiprocessing's resource tracker, a child that
    would otherwise outlive this process by the moment it takes to see
    its pipe close; it is stopped and reaped here.  Any other child still
    unreaped is waited for last.
    """
    from multiprocessing import resource_tracker

    from repro.runtime.shm import shutdown_pools

    shutdown_pools()
    resource_tracker._resource_tracker._stop()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    scale = os.environ.get("REPRO_PAPER_SCALE", "").strip().lower()
    if scale not in ("", "0", "false", "no", "off"):
        print("perfbench: refusing to run with REPRO_PAPER_SCALE set",
              file=sys.stderr)
        return 2
    if os.environ.get("MALLOC_ARENA_MAX") != "1":
        # glibc gives new threads their own malloc arenas, so the thread
        # backend's peak RSS would depend on which arenas a run's rank
        # threads happened to get; the variable is read at start-up only
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "MALLOC_ARENA_MAX": "1"})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # pinned before the program reads them; the native KL compile's
    # scratch files stay inside the checkout
    os.environ.update(PINNED_ENV, REPRO_TRANSPORT=workload.transport)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)

    from perfbench.bench import Bench, result_line

    bench = Bench(workload, args.seed)
    try:
        if args.trace:
            metrics, notes = bench.per_layer(args.seconds, OUT)
            units = PER_LAYER
        else:
            metrics, notes = bench.end_to_end(args.seconds)
            units = END_TO_END
    finally:
        stop_children()
    for line in notes:
        print(line)
    for problem in bench.problems:
        print(f"FAILED {problem}")
    if not metrics:
        print("perfbench: no metrics (every run failed)", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{name:<32} {metrics[name]:>16.6g} {unit}")
    print(f"verdict: {'correct' if bench.failed == 0 else 'INCORRECT'} "
          f"({bench.failed} of {bench.attempted} runs failed)")
    print(result_line(bench, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
