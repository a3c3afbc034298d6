"""Correctness verdict of one run: its histories against a reference.

The reference is the same workload and seed on the thread backend.  Every
per-round record of every rank must match it bit for bit (arrays by value
and dtype, scalars by ``==``), and the leaves the ranks own must add up to
the global leaf count in every round.
"""

from __future__ import annotations

import numpy as np


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def history_mismatches(reference, histories, rounds: int) -> list:
    """Human-readable differences; an empty list means the run is correct."""
    out = []
    if len(histories) != len(reference):
        return [f"{len(histories)} rank histories, expected {len(reference)}"]
    for rank, (ref, got) in enumerate(zip(reference, histories)):
        if got is None or len(got) != rounds:
            n = None if got is None else len(got)
            out.append(f"rank {rank}: {n} rounds recorded, expected {rounds}")
            continue
        for rnd, (a, b) in enumerate(zip(ref, got)):
            for key in sorted(set(a) | set(b)):
                if key not in a or key not in b or not _same(a[key], b[key]):
                    out.append(f"rank {rank} round {rnd}: {key!r} differs")
    if all(h is not None and len(h) == rounds for h in histories):
        for rnd in range(rounds):
            owned = sum(h[rnd]["local_load"] for h in histories)
            leaves = histories[0][rnd]["leaves"]
            if owned != leaves:
                out.append(f"round {rnd}: ranks own {owned} of {leaves} leaves")
    return out
