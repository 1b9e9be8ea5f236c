"""Connected components over a matched-pair edge list, and the attach of
the component map onto the records it labels.

NOT in the reference (which stops at pairs) — required by the north star:
transitive clustering of verified matches into entity clusters.  Every
caller (``record_linkage``'s Dataset route, ``near_dedup``, the
``cluster_components_part`` query, the flagship entry) goes through the
two entry points here:

* ``connected_components`` has one gate, ``_CC_TASK_GATE`` edges.  At
  or below it ONE ``num_cpus=1`` task runs ``connected_components_numpy``
  over the edge Dataset's blocks (measured 0.77 s at 4.3M edges against
  4.0 s for the star rounds); the driver holds only block refs.  Above it
  run the alternating large-star / small-star rounds ("Finding connected
  components in map-reduce in logarithmic rounds", Rastogi et al., ICDE
  2013 / Kiveris et al.), each round one bucket shuffle with numpy rules
  per bucket.  At fixpoint every node points at its component's minimum
  node id; no fixpoint within ``max_rounds`` raises.
* ``attach_components`` appends a ``component`` column to every row of a
  Dataset, an id absent from the map being its own component: a
  broadcast of the node-sorted map up to ``_ATTACH_BROADCAST_ROWS``
  component rows, one id-hash bucket shuffle above.

``record_linkage``'s local route calls the two numpy kernels
(``connected_components_numpy``, ``_attach``) in process.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..state.session import session_cpus
from .attach import arrow_schema_of, default_attach_buckets

# component-map rows up to which the attach broadcasts the map (16 B a row:
# 320 MB at the gate) instead of shuffling both sides by id
_ATTACH_BROADCAST_ROWS = 20_000_000

# edges up to which one task labels the whole graph (numpy CC: 0.77 s at
# 4.3M edges against 4.0 s for the star rounds, and 467 s for them under
# the 3x scaling corpus's object-store pressure)
_CC_TASK_GATE = 32_000_000

_KNUTH = np.uint64(2654435761)


def _int64(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False).astype(np.int64)


def _bucket(ids: np.ndarray, num_buckets: int) -> np.ndarray:
    return (((ids.astype(np.uint64) * _KNUTH) >> np.uint64(7))
            % np.uint64(num_buckets)).astype(np.int64)


def _block_refs(ds: ray.data.Dataset) -> list:
    return [ref for bundle in ds.iter_internal_ref_bundles()
            for ref in bundle.block_refs]


def _int64_columns(blocks, cols: tuple) -> list:
    """Each column (name or position) over ``blocks`` (Arrow or pandas) as
    one int64 array; empty blocks, schemaless ones included (an empty
    verify group can yield them), are skipped."""
    tables = [pa.Table.from_pandas(b, preserve_index=False)
              if isinstance(b, pd.DataFrame) else b for b in blocks]
    tables = [t for t in tables if t.num_rows]
    return [np.concatenate([_int64(t.column(c)) for t in tables]) if tables
            else np.empty(0, np.int64) for c in cols]


def _sym_bucketed(edges: ray.data.Dataset, num_buckets: int
                  ) -> ray.data.Dataset:
    """Symmetrize and assign each (u, v) row to bucket hash(u) % P, so every
    node's full neighbor list lands in exactly one group."""
    def f(batch: pa.Table) -> pa.Table:
        u, v = _int64(batch['u']), _int64(batch['v'])
        uu = np.concatenate([u, v])
        vv = np.concatenate([v, u])
        return pa.table({'bucket': _bucket(uu, num_buckets), 'u': uu,
                         'v': vv})
    return edges.map_batches(f, batch_format='pyarrow')


def _sorted_dedup_uv(tbl: pa.Table):
    """(u, v) dedup'd and lexsorted by (u, v) — numpy on Arrow columns
    (node ids are arbitrary int64, so no pair64 packing)."""
    u, v = _int64(tbl['u']), _int64(tbl['v'])
    order = np.lexsort((v, u))
    us, vs = u[order], v[order]
    if len(us):
        dup = np.concatenate(
            ([False], (us[1:] == us[:-1]) & (vs[1:] == vs[:-1])))
        us, vs = us[~dup], vs[~dup]
    return us, vs


def _large_star_bucket(tbl: pa.Table) -> pa.Table:
    """All neighbors of each u in this group are global (bucketed by u):
    attach every neighbor > u to m(u) = min(u, min nbr)."""
    us, vs = _sorted_dedup_uv(tbl)
    if not len(us):
        return pa.table({'u': pa.array([], pa.int64()),
                         'v': pa.array([], pa.int64())})
    first = np.concatenate(([True], us[1:] != us[:-1]))
    gid = np.cumsum(first) - 1
    m = np.minimum(vs[first], us[first])  # v asc within u → vs[first] = min
    big = vs > us
    return pa.table({'u': pa.array(vs[big]),
                     'v': pa.array(m[gid[big]])})


_large_star_bucket.__name__ = 'large_star'


def _small_star_bucket(tbl: pa.Table) -> pa.Table:
    """Attach each node's smaller neighbors (and itself) to the min smaller
    neighbor."""
    us, vs = _sorted_dedup_uv(tbl)
    lt = vs < us
    if not lt.any():
        return pa.table({'u': pa.array([], pa.int64()),
                         'v': pa.array([], pa.int64())})
    ul, vl = us[lt], vs[lt]
    first = np.concatenate(([True], ul[1:] != ul[:-1]))
    gid = np.cumsum(first) - 1
    minv = vl[first]
    mv = minv[gid]
    keep = vl != mv
    return pa.table({
        'u': pa.array(np.concatenate([vl[keep], ul[first]])),
        'v': pa.array(np.concatenate([mv[keep], minv]))})


_small_star_bucket.__name__ = 'small_star'


def _checksum(edges: ray.data.Dataset) -> tuple:
    def part(batch: pa.Table) -> pa.Table:
        u = batch['u'].to_numpy(zero_copy_only=False).astype(np.uint64)
        v = batch['v'].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (u * np.uint64(2654435761) ^ (v + np.uint64(0x9E3779B9)))
        return pa.table({'n': pa.array([len(u)], pa.int64()),
                         'h': pa.array([int(h.sum() % (2**63))], pa.int64())})
    agg = edges.map_batches(part, batch_format='pyarrow').to_pandas()
    return int(agg['n'].sum()), int(agg['h'].sum() % (2**63))


@ray.remote(num_cpus=1)
def _cc_task(*edge_blocks) -> pa.Table:
    """The single-task path: ``connected_components_numpy`` over the edge
    blocks, returned as one node-sorted (node, component) block."""
    nodes, comps = connected_components_numpy(
        *_int64_columns(edge_blocks, (0, 1)))
    return pa.table({'node': nodes, 'component': comps})


def connected_components(edges: ray.data.Dataset, max_rounds: int = 50
                         ) -> ray.data.Dataset:
    """edges: Dataset of undirected pairs whose first two columns are the
    integer endpoints (``(u, v)``, or a match set's ``(l_id, r_id, ...)``
    as it stands); further columns are ignored.  Returns Dataset
    (node:int64, component:int64) with component = min node id of the
    node's component; every node incident to an edge appears.

    Up to ``_CC_TASK_GATE`` edges one task labels the graph (each star
    round costs two shuffles of fixed latency, which dwarfs the work on a
    graph that fits one task); above it the star rounds run, and a graph
    that reaches no fixpoint within ``max_rounds`` raises RuntimeError."""
    edges = edges.materialize()
    if edges.count() <= _CC_TASK_GATE:
        return ray.data.from_arrow_refs(
            [_cc_task.remote(*_block_refs(edges))])
    # drop self-loops, canonicalize
    def clean(batch: pa.Table) -> pa.Table:
        u, v = _int64(batch.column(0)), _int64(batch.column(1))
        m = u != v
        return pa.table({'u': u[m], 'v': v[m]})
    edges = edges.map_batches(clean, batch_format='pyarrow')

    # Each star round is ONE bucket shuffle: nodes hash into P buckets so a
    # node's whole neighbor list is group-local, and the per-group rule is
    # numpy over Arrow columns — no per-node Python groups, no Dataset.join.
    num_buckets = max(8, 2 * session_cpus())

    prev = None
    for _ in range(max_rounds):
        edges = _sym_bucketed(edges, num_buckets).groupby('bucket') \
            .map_groups(_large_star_bucket, batch_format='pyarrow')
        edges = _sym_bucketed(edges, num_buckets).groupby('bucket') \
            .map_groups(_small_star_bucket, batch_format='pyarrow')
        edges = edges.materialize()
        cs = _checksum(edges)
        if cs == prev:
            break
        prev = cs
    else:
        raise RuntimeError(f'connected_components: no fixpoint after '
                           f'{max_rounds} star rounds')

    # at fixpoint all edges are (node, root); add (root, root) rows and take
    # the min label per node — one groupby, no driver round-trip
    def as_membership(batch: pa.Table) -> pa.Table:
        u = batch['u'].to_numpy(zero_copy_only=False)
        v = batch['v'].to_numpy(zero_copy_only=False)
        return pa.table({'node': np.concatenate([u, v]),
                         'component': np.concatenate([v, v])})
    members = edges.map_batches(as_membership, batch_format='pyarrow')
    # bucketed aggregate, NOT ray's native groupby().min(): node
    # cardinality ~ |V|, where the native reduce is pathologically slow
    # (measured 216 s vs 2 s on a 12M-row membership list)
    from .groupagg import bucketed_group_agg
    return bucketed_group_agg(members, ['node'],
                              [('component', 'component', 'min')])


def connected_components_numpy(u: np.ndarray, v: np.ndarray):
    """Vectorized min-label propagation with pointer jumping — O(E) numpy
    work per round, O(log diameter) rounds; no per-edge Python.  Self-loops
    dropped; returns (nodes_sorted, component_min_id)."""
    m = u != v
    u, v = u[m], v[m]
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    ui, vi = inv[:len(u)], inv[len(u):]
    lab = np.arange(len(nodes), dtype=np.int64)
    while True:
        nxt = lab.copy()
        np.minimum.at(nxt, ui, lab[vi])
        np.minimum.at(nxt, vi, lab[ui])
        nxt = nxt[nxt]
        nxt = nxt[nxt]
        if np.array_equal(nxt, lab):
            break
        lab = nxt
    return nodes, nodes[lab]


def _component_of(ids: np.ndarray, nodes: np.ndarray,
                  comps: np.ndarray) -> np.ndarray:
    """Component of each id from a (node-sorted) component map; an id not
    in the map (a singleton) is its own component."""
    if not len(nodes):
        return ids
    pos = np.minimum(np.searchsorted(nodes, ids), len(nodes) - 1)
    return np.where(nodes[pos] == ids, comps[pos], ids)


def _attach(b: pa.Table, id_col: str, nodes: np.ndarray,
            comps: np.ndarray) -> pa.Table:
    return b.append_column('component', pa.array(
        _component_of(_int64(b[id_col]), nodes, comps)))


@ray.remote(num_cpus=1)
def _component_map(*comp_blocks) -> tuple:
    """The broadcast map: (nodes, components) sorted by node."""
    nodes, comps = _int64_columns(comp_blocks, ('node', 'component'))
    order = np.argsort(nodes, kind='stable')
    return nodes[order], comps[order]


def attach_components(ds: ray.data.Dataset, id_col: str,
                      comp: ray.data.Dataset) -> ray.data.Dataset:
    """``ds`` with a ``component`` column (int64) appended to every row:
    the ``component`` of the ``comp`` (node, component) row whose node is
    the row's ``id_col``, or the id itself when no row names it.

    The component map is bounded by the number of matched ids, usually far
    smaller than ``ds``: up to ``_ATTACH_BROADCAST_ROWS`` rows one task
    folds it into a node-sorted map that every ``map_batches`` task reads
    from the object store (no shuffle, nothing through the driver); above
    it both sides meet in one id-hash bucket shuffle."""
    comp = comp.materialize()
    if comp.count() > _ATTACH_BROADCAST_ROWS:
        return _shuffle_attach(ds, id_col, comp)
    comp_map = _component_map.remote(*_block_refs(comp))

    def attach_components_broadcast(b: pa.Table) -> pa.Table:
        return _attach(b, id_col, *ray.get(comp_map))
    return ds.map_batches(attach_components_broadcast, batch_format='pyarrow')


def _shuffle_attach(ds: ray.data.Dataset, id_col: str,
                    comp: ray.data.Dataset) -> ray.data.Dataset:
    """Both sides hash the id into one of ``default_attach_buckets()``
    buckets; the comp rows are padded to ``ds``'s columns (id in
    ``id_col``, nulls elsewhere) so one union and one groupby bring each
    id's rows together."""
    schema = arrow_schema_of(ds)
    names = schema.names
    nb = default_attach_buckets()

    def tag(t: pa.Table, ids: np.ndarray, side: int, comps) -> pa.Table:
        return t.append_column('component', comps) \
            .append_column('_bucket', pa.array(_bucket(ids, nb))) \
            .append_column('_side', pa.array(np.full(len(ids), side,
                                                     np.int8)))

    def tag_rows(b: pa.Table) -> pa.Table:
        return tag(b.select(names), _int64(b[id_col]), 0,
                   pa.nulls(len(b), pa.int64()))

    def tag_comp(b: pa.Table) -> pa.Table:
        ids = _int64(b['node'])
        cols = {f.name: pa.nulls(len(ids), f.type) for f in schema}
        cols[id_col] = pa.array(ids).cast(schema.field(id_col).type)
        return tag(pa.table(cols), ids, 1,
                   pa.array(_int64(b['component'])))

    def attach_components_shuffle(tbl: pa.Table) -> pa.Table:
        side = tbl['_side'].to_numpy(zero_copy_only=False)
        left = pa.array(np.flatnonzero(side == 0))
        right = pa.array(np.flatnonzero(side == 1))
        # take the comp rows at the ARROW level: the component column is
        # null on ds rows, and a whole-column to_numpy would convert to
        # float64 — lossy for 63-bit ids above 2^53
        rid = _int64(tbl[id_col].take(right))
        rcomp = _int64(tbl['component'].take(right))
        order = np.argsort(rid, kind='stable')
        return _attach(tbl.select(names).take(left), id_col, rid[order],
                       rcomp[order])

    both = ds.map_batches(tag_rows, batch_format='pyarrow').union(
        comp.map_batches(tag_comp, batch_format='pyarrow'))
    return both.groupby('_bucket').map_groups(attach_components_shuffle,
                                              batch_format='pyarrow')
