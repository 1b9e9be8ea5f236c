"""Gated side-table attach for candset-streaming operators.

``apply_matcher`` and ``Filter.filter_candset`` stream the candidate set
through ``map_batches`` (a pandas candset with a pandas result and no
checkpoint: one plain Ray task on the whole frame) and need each pair's
attribute values from the two source tables.  Two regimes (VERDICT r2
#1/#3):

- **broadcast** — the (key → attrs) projection fits the object-store budget
  (same rule as ``state/broadcast.broadcast_gate_bytes``): ``ray.put`` it
  once, positional-gather inside every batch.  This is the Ray-Data
  equivalent of the reference copying both tables into every joblib worker
  (``matcher/apply_matcher.py:254-260``) — paid once per node, not per task.
  A pandas candset bound for a pandas result (no checkpoint) skips Ray Data
  altogether: ``broadcast_map`` runs the batch body once on the whole frame
  in one plain Ray task, the sides passed as task arguments.
- **bucketed** — beyond the gate (or forced with the ``_BUCKETED_ONLY``
  test hook) the projection stays a Dataset and attaches via a
  hash-bucket shuffle: candset rows and side rows are tagged with
  ``hash(key) % P``, unioned under one padded schema, and each
  ``groupby(bucket).map_groups`` group gathers its side values with one
  vectorized indexer.  No single node ever holds the side table.  (Ray 2.49's native ``Dataset.join`` was measured
  flaky here — empty hash partitions intermittently lose their schema and
  abort a chained join — so the attach rides the repo's groupby pattern.)

Both regimes preserve the reference's KeyError on candset keys absent from
the input tables.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..state.broadcast import broadcast_gate_bytes
from ..state.session import session_cpus

# test hook: plan every side, pandas included, for the bucketed regime (no
# gate picks it for a pandas side)
_BUCKETED_ONLY = False
# sub-buckets each side row replicates into under ``bucketed_attach``'s
# skew salting; 1 is off
_ATTACH_SALT = 1


def plan_side(table, key_attr: str, need_cols: list[str]):
    """Pick the attach regime for one side table.

    Returns ``('broadcast', frame)`` where ``frame`` is the projection
    indexed by ``key_attr`` (the caller hands it to ``broadcast_map``), or
    ``('dataset', ds)`` with the projected Dataset.  pandas inputs are
    driver-resident already, so they always broadcast unless forced."""
    if isinstance(table, pd.DataFrame):
        if not _BUCKETED_ONLY:
            return 'broadcast', table[need_cols].set_index(key_attr,
                                                           drop=False)
        return 'dataset', ray.data.from_pandas(
            table[need_cols].reset_index(drop=True))
    proj = table.select_columns(need_cols).materialize()
    if not _BUCKETED_ONLY and proj.size_bytes() <= broadcast_gate_bytes():
        return 'broadcast', proj.to_pandas().set_index(key_attr, drop=False)
    return 'dataset', proj


def _apply_body(body, cand: pd.DataFrame, lside, rside) -> pd.DataFrame:
    return body(cand, lside, rside)


_BODY_TASK = ray.remote(num_cpus=1)(_apply_body)


def broadcast_map(cand, body, lside, rside):
    """Run ``body(batch, lside, rside) -> DataFrame`` over the candset with
    both side projections broadcast.

    A pandas candset runs the body once, on the whole frame, in one plain
    ``num_cpus=1`` task with the sides as task arguments, and the result
    DataFrame comes back: no Dataset is built, so the call pays neither Ray
    Data's executor start nor, in a session with no Dataset yet, its stats
    actor.  ``from_pandas`` would make one block of the frame, so one task
    is what the Dataset route ran too.  A Dataset candset streams through
    ``map_batches``, a plain task per block (an actor pool costs seconds
    of start-up and keeps its CPU until the driver garbage-collects it),
    with each side ``ray.put`` once; the lazy Dataset returns."""
    if isinstance(cand, pd.DataFrame):
        return ray.get(_BODY_TASK.remote(body, cand, lside, rside))
    l_ref, r_ref = ray.put(lside), ray.put(rside)

    def per_batch(batch: pd.DataFrame) -> pd.DataFrame:
        return body(batch, ray.get(l_ref), ray.get(r_ref))
    per_batch.__name__ = body.__name__
    return cand.map_batches(per_batch, batch_format='pandas',
                            batch_size=None)


def default_attach_buckets() -> int:
    return max(64, session_cpus() * 4)


def _bucket_of(col: pa.ChunkedArray, P: int) -> pa.Array:
    v = col.to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(np.asarray(v), categorize=False)
    return pa.array((h % np.uint64(P)).astype(np.int32))


def arrow_schema_of(ds) -> pa.Schema | None:
    """Arrow schema of a Dataset or DataFrame.  pandas-backed Datasets
    report a PandasBlockSchema (numpy dtypes, no arrow types), so those are
    inferred from a bounded row sample; all-null sampled columns fall back
    to string (the attach pad casts per block, so a wrong guess surfaces as
    a cast error, not silent corruption)."""
    if isinstance(ds, pd.DataFrame):
        sch = pa.Schema.from_pandas(ds.reset_index(drop=True),
                                    preserve_index=False)
    else:
        try:
            base = getattr(ds.schema(fetch_if_missing=True), 'base_schema',
                           None)
        except Exception:
            return None
        if isinstance(base, pa.Schema):
            sch = base
        else:
            try:
                df = ds.limit(1024).to_pandas()
            except Exception:
                return None
            if len(df.columns) == 0:
                return None
            sch = pa.Schema.from_pandas(df, preserve_index=False)
    fields = [pa.field(f.name, pa.string()) if pa.types.is_null(f.type)
              else f for f in sch]
    return pa.schema(fields)


def _schema_of(side, need_cols: list[str]) -> pa.Schema:
    base = arrow_schema_of(side)
    return pa.schema([base.field(c) for c in need_cols])


def bucketed_attach(cand_ds: ray.data.Dataset, cand_schema: pa.Schema,
                    side, cand_key_col: str, side_key_attr: str,
                    need_cols: list[str], tag: str,
                    num_buckets: int | None = None,
                    salt_col: str | None = None, salt: int | None = None):
    """Hash-bucket shuffle attach of ``side``'s (key → attrs) projection
    onto the candset stream.

    Side value columns land under reserved ``__ssj_{tag}_{i}`` names (the
    side KEY maps to the candset's own key column — its values are equal by
    construction).  Returns ``(attached_ds, colmap, out_schema)`` where
    ``colmap`` maps each original side column to its output column.

    Skew salting: a hot candset key funnels all its pairs into one bucket
    group.  With ``salt`` > 1 (default ``_ATTACH_SALT``) each side row
    replicates into ``salt`` sub-buckets while each candset row picks ONE
    sub-bucket by hashing ``salt_col`` (the pair's OTHER key — uniform per
    hot key by construction), bounding any group at ~1/salt of the hot
    key's pairs for salt× side wire."""
    P = num_buckets or default_attach_buckets()
    if salt is None:
        salt = _ATTACH_SALT
    if salt_col is None:
        salt = 1
    if isinstance(side, pd.DataFrame):
        side_ds = ray.data.from_pandas(side[need_cols].reset_index(drop=True))
    else:
        side_ds = side
    side_schema = _schema_of(side, need_cols)

    value_cols = [c for c in need_cols if c != side_key_attr]
    colmap = {side_key_attr: cand_key_col}
    colmap.update({c: f'__ssj_{tag}_{i}' for i, c in enumerate(value_cols)})

    out_fields = list(cand_schema) + [
        pa.field(colmap[c], side_schema.field(c).type) for c in value_cols]
    out_schema = pa.schema(out_fields)
    union_schema = pa.schema(out_fields + [pa.field('__ssj_side', pa.int8()),
                                           pa.field('__ssj_b', pa.int32())])
    cand_key_type = cand_schema.field(cand_key_col).type

    def conform(cols: dict) -> pa.Table:
        arrays = []
        for f in union_schema:
            col = cols[f.name]
            if not isinstance(col, (pa.Array, pa.ChunkedArray)):
                col = pa.array(col)
            if col.type != f.type:
                col = col.cast(f.type)
            arrays.append(col)
        return pa.table(dict(zip(union_schema.names, arrays)),
                        schema=union_schema)

    def pad_cand(b: pa.Table) -> pa.Table:
        n = len(b)
        cols = {f.name: b[f.name] for f in cand_schema}
        for c in value_cols:
            cols[colmap[c]] = pa.nulls(n, side_schema.field(c).type)
        cols['__ssj_side'] = pa.array(np.zeros(n, np.int8))
        bkt = _bucket_of(b[cand_key_col], P).to_numpy().astype(np.int64)
        if salt > 1:
            sub = pd.util.hash_array(
                np.asarray(b[salt_col].to_numpy(zero_copy_only=False)),
                categorize=False) % np.uint64(salt)
            bkt = bkt * salt + sub.astype(np.int64)
        cols['__ssj_b'] = pa.array(bkt.astype(np.int32))
        return conform(cols)
    pad_cand.__name__ = f'attach_pad_cand_{tag}'

    def pad_side(b: pa.Table) -> pa.Table:
        n = len(b)
        key = b[side_key_attr]
        if key.type != cand_key_type:
            key = key.cast(cand_key_type)
        cols = {f.name: pa.nulls(n, f.type) for f in cand_schema}
        cols[cand_key_col] = key
        for c in value_cols:
            cols[colmap[c]] = b[c]
        cols['__ssj_side'] = pa.array(np.ones(n, np.int8))
        bkt = _bucket_of(key, P).to_numpy().astype(np.int64)
        if salt > 1:
            # replicate each side row into every sub-bucket of its key
            rep = pa.array(np.repeat(np.arange(n, dtype=np.int64), salt))
            cols = {k: (v.take(rep) if isinstance(v, (pa.Array,
                                                      pa.ChunkedArray))
                        else pa.array(v).take(rep))
                    for k, v in cols.items()}
            bkt = (np.repeat(bkt, salt) * salt
                   + np.tile(np.arange(salt, dtype=np.int64), n))
        cols['__ssj_b'] = pa.array(bkt.astype(np.int32))
        return conform(cols)
    pad_side.__name__ = f'attach_pad_side_{tag}'

    unioned = (cand_ds.map_batches(pad_cand, batch_format='pyarrow')
               .union(side_ds.map_batches(pad_side, batch_format='pyarrow')))

    def attach_group(g: pa.Table) -> pa.Table:
        side_mask = pc.equal(g['__ssj_side'], 1)
        side_t = g.filter(side_mask)
        cand_t = g.filter(pc.invert(side_mask))
        if len(cand_t) == 0:
            return out_schema.empty_table()
        ckeys = cand_t[cand_key_col].to_numpy(zero_copy_only=False)
        skeys = side_t[cand_key_col].to_numpy(zero_copy_only=False)
        idx = pd.Index(skeys).get_indexer(ckeys)
        if (idx < 0).any():
            bad = ckeys[idx < 0].tolist()
            raise KeyError(f'candset keys not present in the input tables: '
                           f'{bad[:5]}')
        take = pa.array(idx, pa.int64())
        cols = {f.name: cand_t[f.name] for f in cand_schema}
        for c in value_cols:
            cols[colmap[c]] = side_t[colmap[c]].take(take)
        return pa.table(cols, schema=out_schema)
    attach_group.__name__ = f'attach_{tag}'

    attached = unioned.groupby('__ssj_b').map_groups(
        attach_group, batch_format='pyarrow')
    return attached, colmap, out_schema
