"""What the Ray session offers the library: its CPUs, and how many blocks
a Dataset-route stage of a given row count is cut into."""

from __future__ import annotations

import ray

# Rows (records, or record signatures) per block of the Dataset route's
# read, tokenize and Tsig postings stages, between the floor and the
# ``cpus * 8`` ceiling of ``block_count``.  Measured with
# ``ssjbench/run.py --workload linkage_dist`` (11,748 files, 18.5 MB) on a
# 1-core VM, job_s / cpu_s medians of 2-3 operations: at 1 CPU, 8 blocks
# per stage after Ray's 20-block read 6.09 / 5.55 s, 4 blocks 3.41 /
# 3.37 s, 3 blocks 3.22 / 3.19 s, 2 blocks 3.05 / 3.01 s; at 2 CPUs,
# 8 blocks 3.55 / 6.09 s and 2 blocks 3.04 / 4.97 s.  A block costs its
# task and exchange overhead and buys parallelism only where there are
# CPUs to spread over.  Sessions above 2 CPUs were not measured; there the
# floor keeps one block per CPU wherever the former 256-rows-per-block
# tokenize split gave that many.
_ROWS_PER_BLOCK = 4096


def session_cpus(default: int = 8) -> int:
    """The session's ``CPU`` resource; ``default`` without a session."""
    if not ray.is_initialized():
        return default
    return int(ray.cluster_resources().get('CPU', 8))


def block_count(rows: int, cpus: int | None = None) -> int:
    """Blocks for a stage of ``rows`` rows: one per ``_ROWS_PER_BLOCK``
    rows, at most ``cpus * 8`` (the session's CPUs by default), the
    fan-out that keeps every CPU fed when a shuffle's tasks straggle, and
    at least one per CPU while each block keeps 256 rows (at least 1)."""
    cpus = session_cpus() if cpus is None else cpus
    floor = max(1, min(cpus, rows // 256))
    return int(min(cpus * 8, max(floor, rows // _ROWS_PER_BLOCK)))
