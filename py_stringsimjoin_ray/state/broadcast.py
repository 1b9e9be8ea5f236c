"""The object-store budget of a broadcast: how large an artifact may be
before the attach, ANN and suffix-filter paths stop putting it in the
object store ONCE for every task/actor to read (the Ray equivalent of the
reference's copy-L-into-every-worker strategy,
``/root/reference/py_stringsimjoin/join/jaccard_join_py.py:178-195`` — but
paid once per node, not once per worker slice)."""

from __future__ import annotations

import ray

# The floor is 2 GiB; when the per-node object store is large the gate
# scales to 15% of it (a broadcast is ONE mmapped copy per node, so the
# budget that matters is per-node plasma capacity, not cluster total).
_BROADCAST_GATE_FLOOR = 2 * 1024 ** 3


def broadcast_gate_bytes() -> int:
    try:
        total = ray.cluster_resources().get('object_store_memory', 0)
        nodes = max(1, len([n for n in ray.nodes() if n.get('Alive', True)]))
        return max(_BROADCAST_GATE_FLOOR, int(0.15 * total / nodes))
    except Exception:  # pragma: no cover - ray not initialised
        return _BROADCAST_GATE_FLOOR
