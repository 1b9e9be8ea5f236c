"""Distributed token-ordering artifact + distributed rank application.

The default join path builds the (freq asc, token asc) ordering on the
driver and broadcasts it — fine for word vocabularies, fatal when the
vocabulary approaches corpus scale (5-gram shingle vocabularies at 100 TB).
This module is the beyond-driver path (VERDICT r1 #4):

1. ``distributed_token_frequencies``: exploded tokens → per-block combiners
   → ``groupby(token).sum`` — the vocabulary never leaves the cluster.
2. ``distributed_ordering``: ``sort(count, token)`` → per-block zip-index
   (offsets from block METADATA only; rank assignment runs as one Ray task
   per block) → an ordering Dataset ``(token, rank)``.
3. ``distributed_ranked``: tokens join the ordering on a token-hash bucket
   shuffle, then records reassemble with a key-bucket shuffle — the ranked
   table ``(key, sz, ranks, plen[, s])``, identical schema to the broadcast
   ``RankPrefixStage`` output, with ZERO driver-side vocabulary state.

EDIT_DISTANCE joins take it past ``join._ORDERING_PARTIAL_GATE`` partial
rows (set-measure joins only under the ``join._DISTRIBUTED_ORDERING`` test
hook); the broadcast path remains the small-vocab fast path.

Semantics anchor: ``/root/reference/py_stringsimjoin/utils/
token_ordering.py:24-55`` (rank ascending by corpus frequency, ties by
token; unknown tokens cannot occur — the ordering is built over the same
corpus it is applied to).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..core import bounds

_KNUTH = np.uint64(2654435761)


def _tok_bucket(hashes: np.ndarray, nb: int) -> np.ndarray:
    return (((hashes.astype(np.uint64) * _KNUTH) >> np.uint64(11))
            % np.uint64(nb)).astype(np.int64)


def distributed_token_frequencies(tokenized: ray.data.Dataset
                                  ) -> ray.data.Dataset:
    """(token, count) as a DATASET: per-block combiners + one distributed
    groupby — no driver merge."""
    from .tokenize import partial_token_counts
    from .groupagg import bucketed_group_agg
    partial = tokenized.map_batches(partial_token_counts,
                                    batch_format='pyarrow')
    # bucketed sum: vocabulary cardinality ~ corpus distinct tokens, where
    # ray's native groupby().sum reduce is pathologically slow
    return bucketed_group_agg(partial, ['token'],
                              [('count', 'partial', 'sum')])


@ray.remote
def _rank_block(block, offset: int) -> pa.Table:
    tbl = (pa.Table.from_pandas(block, preserve_index=False)
           if isinstance(block, pd.DataFrame) else block)
    if 'token' not in tbl.column_names:  # empty sort block, no schema
        return pa.table({'token': pa.array([], pa.string()),
                         'rank': pa.array([], pa.int64())})
    n = len(tbl)
    return pa.table({'token': tbl['token'],
                     'rank': pa.array(np.arange(offset + 1, offset + n + 1,
                                                dtype=np.int64))})


def distributed_ordering(freq_ds: ray.data.Dataset) -> ray.data.Dataset:
    """(token, rank) Dataset with rank 1 = rarest, ties by token — global
    zip-index over the sorted vocabulary using only block metadata on the
    driver."""
    sorted_ds = freq_ds.sort(['count', 'token']).materialize()
    refs, counts = [], []
    for bundle in sorted_ds.iter_internal_ref_bundles():
        for block_ref, meta in zip(bundle.block_refs, bundle.metadata):
            n = meta.num_rows
            if n is None:  # pragma: no cover — metadata always has rows
                n = len(ray.get(block_ref))
            refs.append(block_ref)
            counts.append(int(n))
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    out_refs = [_rank_block.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return ray.data.from_arrow_refs(out_refs)


def distributed_ranked(tok_ds: ray.data.Dataset,
                       ordering_ds: ray.data.Dataset,
                       sim_type: str, threshold, qval=None,
                       keep_string: bool = False,
                       num_buckets: int = 64) -> ray.data.Dataset:
    """tokenized (key, tokens[, s]) ⨝ ordering (token, rank) → ranked
    (key, sz, ranks, plen[, s]) via two bucket shuffles (token-hash join,
    then key-hash regroup).  No broadcast, no driver vocabulary."""

    def explode(b: pa.Table) -> pa.Table:
        toks = b['tokens'].combine_chunks()
        off = toks.offsets.to_numpy()
        lens = np.diff(off)
        nrows = len(b)
        row_id = np.repeat(np.arange(nrows), lens)
        flat = toks.values
        # deterministic token hash via DuckDB kernel (shared with the
        # broadcast path) for bucketing
        from .postings import _token_hashes
        hashes = (_token_hashes(flat) if len(flat)
                  else np.empty(0, np.uint64))
        n = len(row_id)
        cols = {
            'vb': pa.array(_tok_bucket(hashes, num_buckets)),
            'kind': pa.array(np.ones(n, np.int8)),
            'token': flat,
            'rank': pa.array(np.full(n, -1, np.int64)),
            'key': b['key'].take(pa.array(row_id)),
            'sz': pa.compute.cast(
                b['sz'].take(pa.array(row_id))
                if 'sz' in b.column_names else
                pa.array(lens[row_id], pa.int64()), pa.int64()),
        }
        if keep_string:
            cols['s'] = b['s'].take(pa.array(row_id))
        return pa.table(cols)

    def size_col(b: pa.Table) -> pa.Table:
        lens = pa.compute.list_value_length(b['tokens'])
        return b.append_column('sz', pa.compute.cast(lens, pa.int64()))

    tok_sz = tok_ds.map_batches(size_col, batch_format='pyarrow')

    key_type = None
    sch = tok_ds.schema()
    key_type = dict(zip(sch.names, sch.types)).get('key', pa.int64())

    def ord_rows(b: pa.Table) -> pa.Table:
        from .postings import _token_hashes
        tok = b['token'].combine_chunks()
        hashes = (_token_hashes(tok) if len(tok)
                  else np.empty(0, np.uint64))
        n = len(b)
        cols = {
            'vb': pa.array(_tok_bucket(hashes, num_buckets)),
            'kind': pa.array(np.zeros(n, np.int8)),
            'token': tok,
            'rank': pa.compute.cast(b['rank'], pa.int64()),
            'key': pa.nulls(n, key_type),
            'sz': pa.array(np.zeros(n, np.int64)),
        }
        if keep_string:
            cols['s'] = pa.nulls(n, pa.string())
        return pa.table(cols)

    j1 = ordering_ds.map_batches(ord_rows, batch_format='pyarrow').union(
        tok_sz.map_batches(explode, batch_format='pyarrow'))

    def join_ranks(tbl: pa.Table) -> pd.DataFrame:
        kind = tbl['kind'].to_numpy(zero_copy_only=False)
        pmask = kind == 1
        cols = {'key': np.array([], object), 'sz': np.array([], np.int64),
                'rank': np.array([], np.int64)}
        if keep_string:
            cols['s'] = np.array([], object)
        if not pmask.any() or pmask.all():
            return pd.DataFrame(cols)
        t = tbl.filter(pa.array(~pmask))
        p = tbl.filter(pa.array(pmask))
        tdf = pd.DataFrame({'token': t['token'].to_numpy(
            zero_copy_only=False),
            'rank': t['rank'].to_numpy(zero_copy_only=False)})
        pdf = pd.DataFrame({'token': p['token'].to_numpy(
            zero_copy_only=False),
            'key': p['key'].to_numpy(zero_copy_only=False),
            'sz': p['sz'].to_numpy(zero_copy_only=False)})
        if keep_string:
            pdf['s'] = p['s'].to_numpy(zero_copy_only=False)
        out = pdf.merge(tdf, on='token', how='inner')
        keep = ['key', 'sz', 'rank'] + (['s'] if keep_string else [])
        return out[keep]
    join_ranks.__name__ = 'dist_rank_join'

    ranked_rows = j1.groupby('vb').map_groups(join_ranks,
                                              batch_format='pyarrow')

    def regroup(tbl: pa.Table) -> pa.Table:
        if len(tbl) == 0:
            cols = {'key': pa.array([], key_type),
                    'sz': pa.array([], pa.int32()),
                    'ranks': pa.array([], pa.list_(pa.int32())),
                    'plen': pa.array([], pa.int32())}
            if keep_string:
                cols['s'] = pa.array([], pa.string())
            return pa.table(cols)
        keys0 = tbl['key'].to_numpy(zero_copy_only=False)
        ranks0 = tbl['rank'].to_numpy(zero_copy_only=False)
        # stable (key, rank) sort — keys may be strings: factorize once so
        # the lexsort runs over int codes, not object comparisons
        kcodes, _lv = pd.factorize(keys0, sort=True)
        order = np.lexsort((ranks0, kcodes))
        keys = keys0[order]
        first = np.concatenate(([True], keys[1:] != keys[:-1]))
        group_id = np.cumsum(first) - 1
        counts = np.bincount(group_id)
        off = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        firsts = np.nonzero(first)[0]
        sz = tbl['sz'].to_numpy(zero_copy_only=False)[order][firsts] \
            .astype(np.int32)
        plens = bounds.prefix_length_many(sz, sim_type, threshold,
                                          qval).astype(np.int32)
        cols = {
            'key': pa.array(keys[firsts]).cast(key_type)
            if key_type is not None else pa.array(keys[firsts]),
            'sz': pa.array(sz, pa.int32()),
            'ranks': pa.ListArray.from_arrays(
                pa.array(off, pa.int32()),
                pa.array(ranks0[order].astype(np.int32), pa.int32())),
            'plen': pa.array(plens, pa.int32()),
        }
        if keep_string:
            cols['s'] = pa.array(
                tbl['s'].to_numpy(zero_copy_only=False)[order][firsts]) \
                .cast(pa.string())
        return pa.table(cols)
    regroup.__name__ = 'dist_rank_regroup'

    def keyb(b) -> pa.Table:
        if isinstance(b, pd.DataFrame):
            b = pa.Table.from_pandas(b, preserve_index=False)
        keys = b['key']
        if pa.types.is_integer(keys.type):
            kh = keys.to_numpy(zero_copy_only=False).astype(np.uint64)
        else:
            from .postings import _token_hashes
            kc = keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) \
                else keys
            kh = (_token_hashes(pa.compute.cast(kc, pa.string()))
                  if len(b) else np.empty(0, np.uint64))
        return b.append_column('kb', pa.array(
            _tok_bucket(kh, num_buckets)))

    return ranked_rows.map_batches(keyb, batch_format='pyarrow') \
        .groupby('kb').map_groups(
            lambda t: regroup(t.drop_columns(['kb'])),
            batch_format='pyarrow')
