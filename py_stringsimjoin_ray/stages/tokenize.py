"""Tokenization + token-frequency stages.

Replaces the reference's per-worker re-tokenization (each joblib worker
tokenizes its R-slice and the whole of L from scratch,
``/root/reference/py_stringsimjoin/join/set_sim_join.py:39-54``) with a
single tokenize pass per table expressed as ``map_batches`` over Arrow
batches, with the tokenizer held as actor/task state.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..core.tokenizers import _dedup_lists, token_lists


class TokenizeStage:
    """Callable-class stage: (key, join_attr) batches → (key, tokens) batches.

    Rows whose join attribute is null are DROPPED here — matching the
    reference's pre-join null drop (``utils/generic_helper.py:73-81``).
    Built-in tokenizers run their Arrow batch kernel (``tokenize_arrow``);
    user-supplied tokenizers, and subclasses whose overrides that kernel
    would skip (``has_arrow_kernel``), fall back to the reference's per-row
    ``.tokenize(str)`` contract.  The tokenizer object is constructed once
    per actor."""

    def __init__(self, key_attr: str, join_attr: str, tokenizer,
                 extra_attrs: tuple = (), keep_string: bool = False):
        self.key_attr = key_attr
        self.join_attr = join_attr
        self.tokenizer = tokenizer
        self.extra_attrs = tuple(extra_attrs)
        self.keep_string = keep_string

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.join_attr]
        mask = col.is_valid()
        if not pa.compute.all(mask).as_py():
            batch = batch.filter(mask)
            col = batch[self.join_attr]
        if pa.types.is_null(col.type):
            # an all-null input block arrives as Arrow type null; after the
            # null drop above it is empty — cast so tokenizers see string
            col = col.cast(pa.string())
        tokens, drop = token_lists(self.tokenizer, col)
        if drop:
            tokens = _dedup_lists(tokens)
        cols = {'key': batch[self.key_attr], 'tokens': tokens}
        if self.keep_string:
            cols['s'] = col
        for a in self.extra_attrs:
            cols[a] = batch[a]
        return pa.table(cols)


def token_ids(cols: list, tokenizer, distinct: bool = False) -> tuple:
    """The tokens of every string of ``cols`` (string arrays, nulls masked
    by the caller) as int ids into ONE dictionary shared by all columns →
    ``([(lens, ids)] per column, dictionary, df)``: ``lens`` is each
    string's token count, ``ids`` its tokens' ids in CSR order and ``df``
    each id's occurrence count over all columns — what
    ``partial_token_counts`` counts on the token lists.  The lists come
    from ``token_lists``; one ``pc.dictionary_encode`` replaces every later
    string hash or search, and a set tokenizer's repeats (every repeat
    with ``distinct``) drop with one ``np.unique`` over ``row * V + id``,
    leaving each string's ids sorted."""
    lists = [token_lists(tokenizer, c) for c in cols]
    flats = [lst.flatten() for lst, _ in lists]
    flats = [f if f.type == pa.string() else f.cast(pa.string())
             for f in flats]
    enc = pc.dictionary_encode(flats[0] if len(flats) == 1
                               else pa.concat_arrays(flats))
    dictionary = enc.dictionary
    nvals = np.int64(max(1, len(dictionary)))
    all_ids = enc.indices.to_numpy().astype(np.int64)
    out, start = [], 0
    for (lst, drop), flat in zip(lists, flats):
        ids = all_ids[start:start + len(flat)]
        start += len(flat)
        lens = pc.list_value_length(lst).to_numpy(
            zero_copy_only=False).astype(np.int64)
        if drop or distinct:
            row = np.repeat(np.arange(len(lst), dtype=np.int64), lens)
            key = np.unique(row * nvals + ids)
            ids = key % nvals
            lens = np.bincount(key // nvals, minlength=len(lst))
        out.append((lens, ids))
    df = np.bincount(np.concatenate([ids for _, ids in out]),
                     minlength=len(dictionary))
    return out, dictionary, df


def partial_token_counts(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: token → partial record-frequency.  Pre-aggregating
    inside map_batches keeps the follow-up groupby small (SURVEY.md §2.6)."""
    flat = batch['tokens'].combine_chunks()
    if isinstance(flat, pa.ChunkedArray):  # defensive; combine_chunks on chunked
        flat = flat.combine_chunks()
    values = flat.flatten()
    if len(values) == 0:
        return pa.table({'token': pa.array([], type=pa.string()),
                         'partial': pa.array([], type=pa.int64())})
    vc = values.value_counts()
    return pa.table({'token': vc.field('values'),
                     'partial': vc.field('counts')})


def partial_token_counts_hashed(batch: pa.Table) -> pa.Table:
    """``partial_token_counts`` plus the token's 64-bit hash, computed ONCE
    here (parallel, fused with tokenize), with rows SORTED by hash — the
    vocabulary build then takes its hash range from each block as a
    binary-search slice (zero scan amplification across shards)."""
    import numpy as np

    from .postings import _duck_hashes
    t = partial_token_counts(batch)
    if len(t) == 0:
        return t.append_column('h', pa.array([], pa.uint64()))
    h = _duck_hashes(t['token'].combine_chunks())
    order = np.argsort(h, kind='stable')
    t = t.take(pa.array(order))
    return t.append_column('h', pa.array(h[order], pa.uint64()))


def token_frequencies(tokenized: ray.data.Dataset) -> 'pa.Table':
    """Global (token, count) table, merged on the calling process from the
    per-batch combiners: the string-path oracle of
    ``postings.fused_rank_lookup``'s counts (no route calls it)."""
    partial = tokenized.map_batches(partial_token_counts,
                                    batch_format='pyarrow', batch_size=None)
    parts = [pa.table(b) for b in partial.iter_batches(batch_size=None,
                                                       batch_format='pyarrow')]
    merged = pa.concat_tables([p for p in parts if len(p)]) if parts else \
        pa.table({'token': pa.array([], pa.string()),
                  'partial': pa.array([], pa.int64())})
    if len(merged) == 0:
        return pa.table({'token': pa.array([], pa.string()),
                         'count': pa.array([], pa.int64())})
    agg = merged.group_by('token').aggregate([('partial', 'sum')])
    return pa.table({'token': agg['token'], 'count': agg['partial_sum']})


def build_ordering_table(freq_table: pa.Table) -> pa.Array:
    """The ordering artifact: a StringArray where position i holds the token
    of rank i+1 — rank 1 = rarest, ties broken lexicographically (semantics
    of ``utils/token_ordering.py:24-42``).  As a plain Arrow array it lives
    zero-copy in the object store; workers map tokens to ranks with one
    vectorized ``pc.index_in`` per batch instead of a per-token dict walk
    (the dict form cost a multi-second unpickle per worker at
    multi-million-token vocabularies)."""
    idx = pa.compute.sort_indices(
        freq_table, sort_keys=[('count', 'ascending'), ('token', 'ascending')])
    col = freq_table['token'].take(idx)
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
