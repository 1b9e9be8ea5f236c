"""Per-task skew telemetry (VERDICT r4 #7 — north-rule observability).

The candgen / verify kernels already know their per-task candidate and
record-pair volumes; a ``SkewStats`` actor rolls them up per stage
(count / total / max / p99-ish top slice) so a skewed corpus is
diagnosable from the checkpoint directory alone: the linkage pipeline
merges ``summary()`` into the ``matches`` stage manifest.  The local route
collects the same volumes in-process and rolls them up with ``summarize``,
with no actor.

Reporting is best-effort fire-and-forget, exactly like the pair-counter
protocol — a missing actor never fails a kernel.
"""

from __future__ import annotations

import ray


def summarize(volumes: dict) -> dict:
    """``{stage: [task volume, ...]}`` -> per-stage tasks / total / max
    task / max-over-mean ratio (the straggler factor a scheduler sees)."""
    out = {}
    for stage, vols in volumes.items():
        vols = [v for v in vols if v > 0]  # as ``report`` drops them
        if not vols:
            continue
        total, top = sum(vols), max(vols)
        mean = total / len(vols)
        out[stage] = {'tasks': len(vols), 'total': total, 'max_task': top,
                      'skew_ratio': round(top / mean, 3) if mean else 0.0}
    return out


@ray.remote(num_cpus=0)
class SkewStats:
    """Per-stage task volumes reported by the Dataset route's kernels."""

    def __init__(self):
        self._volumes: dict = {}

    def add(self, stage: str, n: int) -> None:
        self._volumes.setdefault(stage, []).append(int(n))

    def summary(self) -> dict:
        return summarize(self._volumes)


def report(skew_name: str | None, stage: str, n: int,
           cache: dict | None = None) -> None:
    """Fire-and-forget per-task report; ``cache`` (any dict the caller
    owns) avoids a named-actor lookup per call."""
    if not skew_name or n <= 0:
        return
    try:
        handle = None
        if cache is not None:
            handle = cache.get(skew_name)
        if handle is None:
            handle = ray.get_actor(skew_name)
            if cache is not None:
                cache[skew_name] = handle
        handle.add.remote(stage, int(n))
    except ValueError:
        pass  # actor gone; telemetry is best-effort
