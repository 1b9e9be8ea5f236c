"""Deduplication operators for document corpora (engine components beyond
the reference's pair-join surface — first-class per the build brief):

- exact_dedup: content-hash groupby, deterministic representative (min id)
- minhash_lsh_pairs: shingle → minhash signature → banded LSH buckets →
  candidate pairs → exact shingle-Jaccard verification
- simhash_batch: 64-bit simhash per document (near-dup by Hamming distance)
- ngram-Jaccard exact near-dup reuses the prefix-filter join pipeline
  (``pipelines.join.jaccard_join`` on a shingled column).

All hash mixing is seeded and deterministic (no Python ``hash()``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

# minhash-LSH corpora up to this many documents run on one in-memory table
# (5,000 sf0.1 documents: 3.93 s -> 0.83 s, identical pairs); 0 turns the
# local route off
_LOCAL_MINHASH_MAX_ROWS = 200_000
# LSH candidate pairs up to which verify broadcasts the candidate ids and
# ships only their documents; past it every document rides the shuffles
_LSH_BROADCAST_PAIR_LIMIT = 2_000_000
# duplicated-document membership rows up to which class expansion ships
# the index once via ray.put; past it, two bucketed attach passes
_LSH_EXPAND_BROADCAST_LIMIT = 20_000_000

_M61 = (1 << 61) - 1


def _md5_hashes(tokens) -> np.ndarray:
    """Stable 64-bit hashes of tokens (md5-derived, platform independent).

    Vectorized through DuckDB's C md5 kernel: ``md5_number_upper(t)`` is
    bit-identical to ``int.from_bytes(md5(t).digest()[:8], 'little')``
    (pinned by tests), so signatures/digests are unchanged — only the
    per-token Python hashlib loop is gone.  Falls back to hashlib when
    duckdb is unavailable."""
    n = len(tokens)
    if n == 0:
        return np.empty(0, np.uint64)
    from .postings import _duck
    con = _duck()
    if con is None or n < 64:  # tiny lists: the round-trip costs more
        return np.fromiter(
            (int.from_bytes(hashlib.md5(t.encode()).digest()[:8], 'little')
             for t in tokens), dtype=np.uint64, count=n)
    arr = tokens if isinstance(tokens, pa.Array) \
        else pa.array(list(tokens), pa.string())
    tbl = pa.table({'t': arr})
    con.register('t_md5_in', tbl)
    out = con.execute(
        'SELECT md5_number_upper(t) AS h FROM t_md5_in').fetchnumpy()
    con.unregister('t_md5_in')
    return next(iter(out.values())).astype(np.uint64)


def shingles(text: str, k: int = 5) -> list[str]:
    """Word k-gram shingles (contiguous, space-joined)."""
    words = text.split()
    if len(words) < k:
        return [' '.join(words)] if words else []
    return [' '.join(words[i:i + k]) for i in range(len(words) - k + 1)]


def _require_int_ids(ds: ray.data.Dataset, id_col: str, op: str) -> None:
    """The near-dup ops pack ids into int64 pair/bucket keys; fail fast
    with guidance instead of an opaque cast error deep in a worker.
    (``exact_dedup`` is dtype-agnostic — its group keys stay Arrow.)"""
    ok = None
    try:
        schema = ds.schema(fetch_if_missing=False)
        if schema is None:
            return  # lazy schema unavailable; workers will surface it
        base = getattr(schema, 'base_schema', None)
        if isinstance(base, pa.Schema):
            t = base.field(id_col).type
            ok = pa.types.is_integer(t)
        elif hasattr(base, 'names') and hasattr(base, 'types'):
            t = base.types[list(base.names).index(id_col)]
            ok = getattr(t, 'kind', '?') in 'iu'
        else:
            return
    except Exception:  # pragma: no cover - unusual schema container
        return
    if ok is False:
        raise TypeError(
            f'{op} requires an integer {id_col!r} column (ids are packed '
            f'into int64 pair keys); got {t}. Map ids to int64 first — '
            f'e.g. a deterministic hash column or '
            f'py_stringsimjoin_ray.add_dense_id.')


# ------------------------------------------------------------- exact dedup

def exact_dedup(ds: ray.data.Dataset, id_col: str, text_col: str,
                normalize: bool = False) -> ray.data.Dataset:
    """(rep_id, dup_count) per distinct content hash — hash-partition +
    per-group min-id representative (SURVEY.md §2.6 pattern)."""

    def hash_batch(batch: pa.Table) -> pa.Table:
        from .postings import _duck
        con = _duck()
        col = batch[text_col].combine_chunks() \
            if isinstance(batch[text_col], pa.ChunkedArray) \
            else batch[text_col]
        if normalize or con is None:
            texts = col.to_pylist()
            if normalize:
                # python str.split() semantics (all unicode whitespace)
                texts = [' '.join((t or '').split()) for t in texts]
            if con is None:  # pragma: no cover - duckdb always present
                h = pa.array([hashlib.md5((t or '').encode()).hexdigest()
                              for t in texts], pa.string())
                return pa.table({'content_hash': h, id_col: batch[id_col]})
            col = pa.array(texts, pa.string())
        # DuckDB's C md5 kernel; hexdigest-identical to hashlib (pinned)
        con.register('t_cthash_in', pa.table({'t': col}))
        h = con.execute(
            "SELECT md5(coalesce(t, '')) AS h FROM t_cthash_in").arrow()['h']
        con.unregister('t_cthash_in')
        return pa.table({'content_hash': h.combine_chunks(),
                         id_col: batch[id_col]})

    hashed = ds.map_batches(hash_batch, batch_format='pyarrow')

    # bucketed aggregate (stages/groupagg.py): content-hash cardinality is
    # ~ the corpus size, where ray's native groupby().aggregate reduce is
    # pathologically slow
    from .groupagg import bucketed_group_agg
    agg = bucketed_group_agg(hashed, ['content_hash'],
                             [('rep_id', id_col, 'min'),
                              ('dup_count', None, 'count')])
    return agg.map_batches(
        lambda b: b.select(['rep_id', 'dup_count']), batch_format='pyarrow')


# -------------------------------------------------------------- minhash LSH

class MinHasher:
    """num_perm universal-hash minhash over shingle hashes; seeded."""

    def __init__(self, num_perm: int = 64, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _M61, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _M61, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm

    def signature(self, token_hashes: np.ndarray) -> np.ndarray:
        if len(token_hashes) == 0:
            return np.full(self.num_perm, np.uint64(_M61), dtype=np.uint64)
        # (a*h + b) mod M61 with silent uint64 wrap on the product — a
        # deterministic universal-style mix (wrap changes the family, not
        # the minhash contract)
        h = token_hashes.astype(np.uint64)
        vals = (self.a[:, None] * h[None, :] + self.b[:, None]) \
            % np.uint64(_M61)
        return vals.min(axis=1)


def _list_np(col) -> tuple[np.ndarray, np.ndarray]:
    """(values, offsets) int64 views of a (possibly chunked) list<int64>
    column; offsets index into values (NOT flatten(): offsets are absolute
    into the full child array, flatten() re-bases a sliced parent)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    off = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = col.values.to_numpy(zero_copy_only=False).astype(np.int64)
    return vals, off


class MinHashStage:
    """(id, text) → (id, sig list<uint64>) — actor-pool stage; permutation
    params built once per actor.  With ``from_hashes=True`` the input is a
    pre-hashed ``(id, list<int64> shingle hashes)`` table (hash once, reuse
    for both signatures and verification; the int64 values are bit-views of
    the uint64 md5 token hashes)."""

    def __init__(self, id_col: str, text_col: str, k: int = 5,
                 num_perm: int = 64, seed: int = 42,
                 from_hashes: bool = False):
        self.id_col = id_col
        self.text_col = text_col
        self.k = k
        self.mh = MinHasher(num_perm, seed)
        self.from_hashes = from_hashes

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.from_hashes:
            vals, off = _list_np(batch[self.text_col])
            flat = vals.view(np.uint64)
            hash_lists = [flat[off[i]:off[i + 1]] for i in range(len(batch))]
        else:
            hash_lists = [_md5_hashes(shingles(t or '', self.k))
                          for t in batch[self.text_col].to_pylist()]
        sigs = [self.mh.signature(hs).astype(np.int64) for hs in hash_lists]
        out = pa.table({
            'id': batch[self.id_col],
            'sig': pa.array([s.tolist() for s in sigs],
                            type=pa.list_(pa.int64()))})
        if 'dg' in batch.column_names:  # class digest rides along for the
            out = out.append_column('dg', batch['dg'])  # LSH collapse
        return out


def _list_i64(parts: list[np.ndarray]) -> pa.ListArray:
    """list<int64> Arrow array from per-row numpy pieces (no Python lists)."""
    lens = np.fromiter((len(p) for p in parts), np.int64, len(parts))
    off = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
    vals = (np.concatenate(parts) if lens.sum()
            else np.empty(0, np.int64)).astype(np.int64, copy=False)
    return pa.ListArray.from_arrays(pa.array(off, pa.int32()),
                                    pa.array(vals, pa.int64()))


def _shingle_hashes_batch(texts: list, k: int) -> pa.ListArray:
    """Per-document SORTED-UNIQUE md5 shingle hashes as list<int64> (int64
    bit-views of the uint64 hashes).  One md5 pass over the batch's
    concatenated shingles; verification over these hash sets equals exact
    string-set Jaccard absent 64-bit md5 collisions (the same assumption the
    minhash signatures already rest on)."""
    sh_lists = [shingles(t or '', k) for t in texts]
    lens = np.fromiter((len(s) for s in sh_lists), np.int64, len(sh_lists))
    flat = [x for s in sh_lists for x in s]
    h = _md5_hashes(flat).view(np.int64)
    off = np.concatenate(([0], np.cumsum(lens)))
    return _list_i64([np.unique(h[off[i]:off[i + 1]])
                      for i in range(len(sh_lists))])


_DG_P = np.uint64(0x100000001B3)
_DG_MIX = np.uint64(0x9E3779B97F4A7C15)


def _set_digest(vals: np.ndarray, off: np.ndarray) -> np.ndarray:
    """63-bit digest per row of the SORTED-UNIQUE shingle-hash slices —
    equal digests ⟺ equal shingle sets (modulo 63-bit collisions, the same
    assumption class as the md5-64 shingle hashes themselves).  Positional
    polynomial in uint64 wrap arithmetic, fully vectorized."""
    n = len(off) - 1
    lens = np.diff(off).astype(np.int64)
    u = vals.view(np.uint64)
    m = int(lens.max()) + 1 if n and lens.max() > 0 else 1
    p = np.full(m, _DG_P, np.uint64)
    p[0] = np.uint64(1)
    pows = np.cumprod(p)  # uint64 wrap
    pos = np.arange(len(u), dtype=np.int64) - np.repeat(off[:-1], lens)
    weighted = (u + np.uint64(1)) * pows[pos]
    dg = np.zeros(n, dtype=np.uint64)
    if len(u):
        np.add.at(dg, np.repeat(np.arange(n), lens), weighted)
    dg = (dg ^ (lens.astype(np.uint64) * _DG_MIX)) * _DG_P
    return (dg & np.uint64((1 << 63) - 1)).astype(np.int64)


# verify-kernel slab: bounds the transient per-pair gather arrays
_JACC_SLAB = 16_000_000


def _set_jaccard_many(l_flat: np.ndarray, l_off: np.ndarray,
                      r_flat: np.ndarray, r_off: np.ndarray) -> np.ndarray:
    """Exact set Jaccard per pair over per-pair SORTED-UNIQUE hash slices
    (``l_off``/``r_off`` are npairs+1 offset arrays).  Vectorized: one
    lexsort over the pooled (pair, hash) rows — a hash duplicated within a
    pair must come from the two different sides, so the duplicate count IS
    the intersection size."""
    npairs = len(l_off) - 1
    l_lens = np.diff(l_off)
    r_lens = np.diff(r_off)
    p = np.concatenate([np.repeat(np.arange(npairs, dtype=np.int64), l_lens),
                        np.repeat(np.arange(npairs, dtype=np.int64), r_lens)])
    v = np.concatenate([l_flat, r_flat])
    order = np.lexsort((v, p))
    ps, vs = p[order], v[order]
    dup = (ps[1:] == ps[:-1]) & (vs[1:] == vs[:-1])
    inter = np.bincount(ps[1:][dup], minlength=npairs)
    union = l_lens + r_lens - inter
    js = np.divide(inter.astype(np.float64), union,
                   out=np.zeros(npairs, np.float64), where=union > 0)
    js[(l_lens == 0) & (r_lens == 0)] = 1.0
    return js


def _gather_slices(flat: np.ndarray, off: np.ndarray,
                   idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``flat[off[i]:off[i+1]]`` for i in idx; returns
    (values, offsets) with offsets of len(idx)+1."""
    lens = (off[idx + 1] - off[idx]).astype(np.int64)
    out_off = np.concatenate(([0], np.cumsum(lens)))
    total = int(out_off[-1])
    if total == 0:
        return np.empty(0, flat.dtype), out_off
    pos = np.arange(total, dtype=np.int64) - np.repeat(out_off[:-1], lens)
    return flat[np.repeat(off[idx], lens) + pos], out_off


def _slab_ranges(w: np.ndarray):
    """(s, e) half-open index ranges over a per-item weight array such that
    each slab's total weight stays under ``_JACC_SLAB`` (single overweight
    items get a slab of their own — forced progress)."""
    n = len(w)
    cw = np.cumsum(w.astype(np.int64))
    s = 0
    while s < n:
        base = int(cw[s - 1]) if s else 0
        e = int(np.searchsorted(cw, base + _JACC_SLAB, 'right'))
        e = min(max(e, s + 1), n)
        yield s, e
        s = e


def _set_jaccard_aligned(l_flat: np.ndarray, l_off: np.ndarray,
                         r_flat: np.ndarray, r_off: np.ndarray) -> np.ndarray:
    """Like ``_set_jaccard_many`` but slabbed over the pair axis, for
    already-aligned per-pair slices (offsets need not start at 0)."""
    npairs = len(l_off) - 1
    js = np.empty(npairs, np.float64)
    w = np.diff(l_off) + np.diff(r_off)
    for s, e in _slab_ranges(w):
        js[s:e] = _set_jaccard_many(
            l_flat[l_off[s]:l_off[e]], l_off[s:e + 1] - l_off[s],
            r_flat[r_off[s]:r_off[e]], r_off[s:e + 1] - r_off[s])
    return js


def _verify_jaccard_slabbed(l_doc: np.ndarray, r_doc: np.ndarray,
                            flat: np.ndarray, off: np.ndarray,
                            threshold: float):
    """(kept l_idx mask, jaccard) for doc-index pairs (l_doc[i], r_doc[i])
    over the shared (flat, off) shingle-hash store, slabbed so transient
    gathers stay bounded no matter how hot one document is."""
    js = np.empty(len(l_doc), np.float64)
    w = (off[l_doc + 1] - off[l_doc]) + (off[r_doc + 1] - off[r_doc])
    for s, e in _slab_ranges(w):
        lv, lo = _gather_slices(flat, off, l_doc[s:e])
        rv, ro = _gather_slices(flat, off, r_doc[s:e])
        js[s:e] = _set_jaccard_many(lv, lo, rv, ro)
    keep = js >= threshold
    return keep, js


_VKNUTH = np.uint64(2654435761)


def _id_bucket(ids: np.ndarray, nb: int) -> np.ndarray:
    return (((ids.astype(np.uint64) * _VKNUTH) >> np.uint64(9))
            % np.uint64(nb)).astype(np.int64)


def _side_expand(keys: np.ndarray, reps_u: np.ndarray, off: np.ndarray,
                 ids_sorted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand each key to its class's member list (keys absent from the
    dup-class index expand to themselves).  Returns (values, counts)."""
    if len(reps_u) == 0:
        return keys.copy(), np.ones(len(keys), np.int64)
    pos = np.minimum(np.searchsorted(reps_u, keys), len(reps_u) - 1)
    hit = reps_u[pos] == keys
    cnt = np.where(hit, off[pos + 1] - off[pos], 1).astype(np.int64)
    out_off = np.concatenate(([0], np.cumsum(cnt)))
    tot = int(out_off[-1])
    pos_in = np.arange(tot, dtype=np.int64) - np.repeat(out_off[:-1], cnt)
    src = np.repeat(np.where(hit, off[pos], 0), cnt) + pos_in
    gathered = ids_sorted[np.minimum(src, len(ids_sorted) - 1)]
    return np.where(np.repeat(hit, cnt), gathered,
                    np.repeat(keys, cnt)), cnt


def _memb_index(reps: np.ndarray, ids: np.ndarray):
    """(reps_unique_sorted, offsets, ids_sorted) CSR index of a dup-class
    membership table."""
    order = np.lexsort((ids, reps))
    reps, ids = reps[order], ids[order]
    first = np.concatenate(([True], reps[1:] != reps[:-1])) if len(reps) \
        else np.zeros(0, bool)
    starts = np.nonzero(first)[0]
    off = np.concatenate((starts, [len(reps)])).astype(np.int64)
    return reps[first], off, ids


def _band_digest_matrix(mat: np.ndarray) -> np.ndarray:
    """(n, bands, rows_per_band) uint64 signature matrix → (n, bands)
    uint64 band digests.  64-bit splitmix-style mix, vectorized over
    (doc, band); like the md5[:16] digest it replaces, equal bands ⇒ equal
    digests and cross-band/cross-digest collisions are ~n²/2⁶⁴ (and
    removed by exact verification).  Shared by the distributed postings
    stage and the driver-gated local fast path so both bucket
    identically."""
    n, bands = mat.shape[0], mat.shape[1]
    c1 = np.uint64(0x9E3779B97F4A7C15)
    c2 = np.uint64(0xBF58476D1CE4E5B9)
    h = np.arange(bands, dtype=np.uint64)[None, :] * c1
    h = np.broadcast_to(h, (n, bands)).copy()
    for r in range(mat.shape[2]):
        h = (h ^ mat[:, :, r]) * c2
        h ^= h >> np.uint64(31)
    return h


def _expand_classes(verified: ray.data.Dataset, shingled: ray.data.Dataset,
                    nb: int) -> ray.data.Dataset:
    """Expand class-level verified pairs back to record pairs.

    ``bucket_pairs`` collapses identical-shingle-set classes to their min-id
    representative, so ``verified`` holds REP pairs.  This stage emits (a)
    intra-class pairs — Jaccard 1.0 by construction — exactly once per dup
    class, and (b) each verified rep pair crossed with both classes' member
    lists.  The membership index covers only DUPLICATED documents; below
    ``_LSH_EXPAND_BROADCAST_LIMIT`` rows it ships once via ``ray.put``
    and expansion is one shuffle-free map over the verified stream; beyond
    the gate it runs as two bucketed attach passes (the same join shape as
    the LSH verify), so nothing corpus-sized ever reaches the driver."""

    def memb_rows(b: pa.Table) -> pa.Table:
        dg = b['dg'].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({'mb': pa.array(_id_bucket(dg, nb)),
                         'dg': pa.array(dg), 'id': b['id']})

    def dup_members(tbl: pa.Table) -> pa.Table:
        dg = tbl['dg'].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = tbl['id'].to_numpy(zero_copy_only=False).astype(np.int64)
        # per-class size and min-id via one lexsort over (dg, id)
        order = np.lexsort((ids, dg))
        dgs, idss = dg[order], ids[order]
        first = np.concatenate(([True], dgs[1:] != dgs[:-1]))
        gid = np.cumsum(first) - 1
        sizes = np.bincount(gid)
        rep = idss[np.flatnonzero(first)][gid]  # min id per class (sorted)
        keep = sizes[gid] >= 2
        return pa.table({'rep': pa.array(rep[keep]),
                         'id': pa.array(idss[keep])})
    dup_members.__name__ = 'lsh_dup_members'

    dupm = shingled.map_batches(memb_rows, batch_format='pyarrow') \
        .groupby('mb').map_groups(dup_members, batch_format='pyarrow') \
        .materialize()
    n_dup = dupm.count()
    if n_dup == 0:
        return verified
    if n_dup <= _LSH_EXPAND_BROADCAST_LIMIT:
        rep_parts, id_parts = [], []
        for b in dupm.iter_batches(batch_format='pyarrow', batch_size=None):
            t = pa.table(b)
            rep_parts.append(t['rep'].to_numpy(zero_copy_only=False)
                             .astype(np.int64))
            id_parts.append(t['id'].to_numpy(zero_copy_only=False)
                            .astype(np.int64))
        reps_u, off, ids_sorted = _memb_index(np.concatenate(rep_parts),
                                              np.concatenate(id_parts))
        mref = ray.put((reps_u, off, ids_sorted))

        def expand_pairs(df: pd.DataFrame) -> pd.DataFrame:
            ru, of, iv = ray.get(mref)
            l = df['l_id'].to_numpy().astype(np.int64)
            r = df['r_id'].to_numpy().astype(np.int64)
            j = df['jaccard'].to_numpy().astype(np.float64)
            lv, lc = _side_expand(l, ru, of, iv)
            idx = np.repeat(np.arange(len(l), dtype=np.int64), lc)
            r1, j1 = r[idx], j[idx]
            rv, _rc = _side_expand(r1, ru, of, iv)
            idx2 = np.repeat(np.arange(len(r1), dtype=np.int64), _rc)
            l2 = lv[idx2]
            return pd.DataFrame({'l_id': np.minimum(l2, rv),
                                 'r_id': np.maximum(l2, rv),
                                 'jaccard': j1[idx2]})
        expand_pairs.__name__ = 'lsh_expand_pairs'
        cross = verified.map_batches(expand_pairs, batch_format='pandas')

        def intra_batch(df: pd.DataFrame) -> pd.DataFrame:
            # upper-triangle pairs of each duplicate class, fully vectorized
            # (VERDICT r4 #4): members are ascending within a class
            # (_memb_index lexsort), so position i < j implies id_i < id_j.
            ru, of, iv = ray.get(mref)
            ci = df['id'].to_numpy().astype(np.int64)
            m = (of[ci + 1] - of[ci]).astype(np.int64)
            keep = m > 1
            ci, m = ci[keep], m[keep]
            if len(ci) == 0:
                return pd.DataFrame(
                    {'l_id': np.empty(0, np.int64),
                     'r_id': np.empty(0, np.int64),
                     'jaccard': np.empty(0, np.float64)})
            base = of[ci]
            # one row per (class, later-member position p = 1..m-1), then
            # each row expands to its p earlier members — the same
            # offset repeat/tile shape as _side_expand
            nrow = m - 1
            cls_idx = np.repeat(np.arange(len(ci), dtype=np.int64), nrow)
            p = (np.arange(len(cls_idx), dtype=np.int64)
                 - np.repeat(np.concatenate(([0], np.cumsum(nrow)[:-1])),
                             nrow)) + 1
            pair_row = np.repeat(np.arange(len(p), dtype=np.int64), p)
            i_off = (np.arange(len(pair_row), dtype=np.int64)
                     - np.repeat(np.concatenate(([0], np.cumsum(p)[:-1])),
                                 p))
            b = base[cls_idx]
            l = iv[b[pair_row] + i_off]
            r = iv[b[pair_row] + p[pair_row]]
            return pd.DataFrame({'l_id': l, 'r_id': r,
                                 'jaccard': np.ones(len(l), np.float64)})
        intra_batch.__name__ = 'lsh_intra_pairs'
        intra = ray.data.range(len(reps_u)).map_batches(
            intra_batch, batch_format='pandas')
        return cross.union(intra)

    # beyond-gate: two bucketed attach passes + bucketed intra generation
    def dupm_tag(b: pa.Table) -> pa.Table:
        rep = b['rep'].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(rep)
        return pa.table({'xb': pa.array(_id_bucket(rep, nb)),
                         'kind': pa.array(np.zeros(n, np.int8)),
                         'key': pa.array(rep), 'mate': b['id'],
                         'other': pa.array(np.full(n, -1, np.int64)),
                         'j': pa.array(np.zeros(n, np.float64))})

    def pairs_tag(b, key_col: str, other_col: str) -> pa.Table:
        if isinstance(b, pd.DataFrame):
            b = pa.Table.from_pandas(b, preserve_index=False)
        key = b[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(key)
        return pa.table({'xb': pa.array(_id_bucket(key, nb)),
                         'kind': pa.array(np.ones(n, np.int8)),
                         'key': pa.array(key), 'mate': pa.array(
                             np.full(n, -1, np.int64)),
                         'other': b[other_col],
                         'j': b['jaccard' if 'jaccard' in b.column_names
                               else 'j']})

    def expand_group(tbl: pa.Table) -> pa.Table:
        kind = tbl['kind'].to_numpy(zero_copy_only=False)
        key = tbl['key'].to_numpy(zero_copy_only=False).astype(np.int64)
        ism, isp = kind == 0, kind == 1
        if not isp.any():
            return pa.table({'key': pa.array([], pa.int64()),
                             'other': pa.array([], pa.int64()),
                             'j': pa.array([], pa.float64())})
        ru, of, iv = _memb_index(
            key[ism],
            tbl['mate'].to_numpy(zero_copy_only=False)[ism]
            .astype(np.int64))
        keys = key[isp]
        vals, cnt = _side_expand(keys, ru, of, iv)
        idx = np.repeat(np.arange(len(keys), dtype=np.int64), cnt)
        other = tbl['other'].to_numpy(zero_copy_only=False)[isp] \
            .astype(np.int64)
        j = tbl['j'].to_numpy(zero_copy_only=False)[isp] \
            .astype(np.float64)
        return pa.table({'key': pa.array(vals),
                         'other': pa.array(other[idx]),
                         'j': pa.array(j[idx])})
    expand_group.__name__ = 'lsh_expand_group'

    p1 = dupm.map_batches(dupm_tag, batch_format='pyarrow').union(
        verified.map_batches(lambda b: pairs_tag(b, 'l_id', 'r_id'),
                             batch_format='pyarrow'))
    half = p1.groupby('xb').map_groups(expand_group, batch_format='pyarrow')
    # half: (key = expanded l member, other = r rep, j)
    p2 = dupm.map_batches(dupm_tag, batch_format='pyarrow').union(
        half.map_batches(lambda b: pairs_tag(b, 'other', 'key'),
                         batch_format='pyarrow'))
    full = p2.groupby('xb').map_groups(expand_group, batch_format='pyarrow')

    def finish(tbl: pa.Table) -> pa.Table:
        a = tbl['key'].to_numpy(zero_copy_only=False).astype(np.int64)
        b_ = tbl['other'].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({'l_id': pa.array(np.minimum(a, b_)),
                         'r_id': pa.array(np.maximum(a, b_)),
                         'jaccard': pa.array(
                             tbl['j'].to_numpy(zero_copy_only=False)
                             .astype(np.float64))})
    finish.__name__ = 'lsh_expand_finish'
    cross = full.map_batches(finish, batch_format='pyarrow')

    def intra_group(tbl: pa.Table) -> pa.Table:
        ism = tbl['kind'].to_numpy(zero_copy_only=False) == 0
        ru, of, iv = _memb_index(
            tbl['key'].to_numpy(zero_copy_only=False)[ism]
            .astype(np.int64),
            tbl['mate'].to_numpy(zero_copy_only=False)[ism]
            .astype(np.int64))
        ls, rs = [], []
        for ci in range(len(ru)):
            mem = iv[of[ci]:of[ci + 1]]
            li = np.repeat(mem, len(mem))
            ri = np.tile(mem, len(mem))
            msk = li < ri
            ls.append(li[msk])
            rs.append(ri[msk])
        l = np.concatenate(ls) if ls else np.empty(0, np.int64)
        r = np.concatenate(rs) if rs else np.empty(0, np.int64)
        return pa.table({'l_id': pa.array(l), 'r_id': pa.array(r),
                         'jaccard': pa.array(np.ones(len(l), np.float64))})
    intra_group.__name__ = 'lsh_intra_group'
    intra = dupm.map_batches(dupm_tag, batch_format='pyarrow') \
        .groupby('xb').map_groups(intra_group, batch_format='pyarrow')
    return cross.union(intra)


def minhash_lsh_pairs(ds: ray.data.Dataset, id_col: str, text_col: str,
                      threshold: float = 0.8, k: int = 5, num_perm: int = 64,
                      bands: int = 16, seed: int = 42,
                      verify_buckets: int = 64, checkpoint_dir: str = None,
                      input_fingerprint: str = None) -> ray.data.Dataset:
    """Checkpointable wrapper: with ``checkpoint_dir``, the verified pair
    stream writes as partitioned Parquet + lineage manifest and a matching
    fingerprint skips the whole LSH pipeline on re-run (north-rule
    resumability for the standalone dedup entry point, VERDICT r2 #4)."""
    _require_int_ids(ds, id_col, 'minhash_lsh_pairs')
    if checkpoint_dir:
        from ..pipelines.join import content_signature
        from ..state import manifests as mf
        # content signature, not a bare count (ADVICE r3): equal-cardinality
        # content changes must invalidate the checkpoint
        fp = input_fingerprint or (
            f'minhash:{id_col}:{text_col}:{threshold}:{k}:{num_perm}:'
            f'{bands}:{seed}:{content_signature(ds, [id_col, text_col])}')
        if mf.is_complete(checkpoint_dir, 'lsh_pairs', fp):
            return mf.read_stage(checkpoint_dir, 'lsh_pairs')
        out = _minhash_lsh_pairs_impl(ds, id_col, text_col, threshold, k,
                                      num_perm, bands, seed, verify_buckets)
        return mf.write_stage(out, checkpoint_dir, 'lsh_pairs', fp)
    return _minhash_lsh_pairs_impl(ds, id_col, text_col, threshold, k,
                                   num_perm, bands, seed, verify_buckets)


def _local_minhash_pairs(ds, id_col: str, text_col: str, threshold: float,
                         k: int, num_perm: int, bands: int, seed: int):
    """Size-gated local fast path for ``minhash_lsh_pairs`` (the
    ``stages/localjoin.py`` pattern): at bench/test corpus sizes the
    distributed pipeline's ~7 Dataset stage barriers cost more wall than
    the whole computation, so below ``_LOCAL_MINHASH_MAX_ROWS``
    (200k docs) the SAME kernels — ``_shingle_hashes_batch``,
    ``_set_digest`` classes, ``MinHasher`` signatures,
    ``_band_digest_matrix`` buckets, ``_verify_jaccard_slabbed``,
    ``_memb_index``/``_side_expand`` class expansion — run synchronously
    on one in-memory table.  Output rows are identical to the distributed
    path (pinned by pytest equality and the driver oracles).  Returns
    None beyond the gate (or the ``SSJ_LOCAL_MAX_BYTES`` payload cap)."""
    from .localjoin import _fetch_local, _local_byte_cap
    t = _fetch_local(ds, [id_col, text_col], _LOCAL_MINHASH_MAX_ROWS,
                     _local_byte_cap())
    if t is None:
        return None
    rows_per_band = num_perm // bands
    empty = pa.table({'l_id': pa.array([], pa.int64()),
                      'r_id': pa.array([], pa.int64()),
                      'jaccard': pa.array([], pa.float64())})
    ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(ids) < 2:
        return ray.data.from_arrow(empty)
    sh = _shingle_hashes_batch(t[text_col].to_pylist(), k)
    vals, off = _list_np(sh)
    dg = _set_digest(vals, off)

    # identical-shingle-set classes: rep = min id (same collapse as
    # bucket_pairs — a class's members share every band digest)
    codes, _uniq = pd.factorize(dg)
    codes = codes.astype(np.int64)
    order = np.lexsort((ids, codes))
    first = np.concatenate(([True], codes[order][1:] != codes[order][:-1]))
    rep_row = order[first]                  # row index of each class's rep
    nclasses = len(rep_row)
    rep_ids = ids[rep_row]
    class_starts = np.nonzero(first)[0]
    class_sizes = np.diff(np.concatenate((class_starts, [len(ids)])))

    # signatures + band digests for class reps only (members are identical)
    mh = MinHasher(num_perm, seed)
    flat_u = vals.view(np.uint64)
    sigs = np.stack([mh.signature(flat_u[off[r]:off[r + 1]])
                     for r in rep_row]) if nclasses else \
        np.empty((0, num_perm), np.uint64)
    digests = _band_digest_matrix(
        sigs.reshape(nclasses, bands, rows_per_band))

    # candidate rep pairs: classes sharing a band digest (dedup over bands)
    bvals = digests.ravel()
    cls_of = np.repeat(np.arange(nclasses, dtype=np.int64), bands)
    sidx = np.argsort(bvals, kind='stable')
    bs, cs = bvals[sidx], cls_of[sidx]
    run_start = np.concatenate(([0], np.nonzero(bs[1:] != bs[:-1])[0] + 1,
                                [len(bs)]))
    pl_parts, pr_parts = [], []
    for s, e in zip(run_start[:-1], run_start[1:]):
        if e - s < 2:
            continue
        reps = np.unique(cs[s:e])
        if len(reps) < 2:
            continue
        li = np.repeat(reps, len(reps))
        ri = np.tile(reps, len(reps))
        m = rep_ids[li] < rep_ids[ri]
        pl_parts.append(li[m])
        pr_parts.append(ri[m])
    if not pl_parts:
        cand = np.empty((0, 2), np.int64)
    else:
        cand = np.unique(np.stack([np.concatenate(pl_parts),
                                   np.concatenate(pr_parts)], axis=1),
                         axis=0)

    # exact verify on the full-doc CSR (reps' rows)
    if len(cand):
        keep, js = _verify_jaccard_slabbed(rep_row[cand[:, 0]],
                                           rep_row[cand[:, 1]],
                                           vals, off, threshold)
        vl = rep_ids[cand[:, 0]][keep]
        vr = rep_ids[cand[:, 1]][keep]
        vj = js[keep]
    else:
        vl = vr = np.empty(0, np.int64)
        vj = np.empty(0, np.float64)

    # class expansion (== _expand_classes): member cross products of
    # verified rep pairs + intra-class pairs at jaccard 1.0
    dup_mask = class_sizes >= 2
    if dup_mask.any():
        dup_classes = np.nonzero(dup_mask)[0]
        memb_rep, memb_id = [], []
        ids_by_class = ids[order]
        for ci in dup_classes:
            mem = ids_by_class[class_starts[ci]:class_starts[ci]
                               + class_sizes[ci]]
            memb_rep.append(np.full(len(mem), rep_ids[ci], np.int64))
            memb_id.append(mem)
        ru, roff, iv = _memb_index(np.concatenate(memb_rep),
                                   np.concatenate(memb_id))
        lv, lc = _side_expand(vl, ru, roff, iv)
        idx = np.repeat(np.arange(len(vl), dtype=np.int64), lc)
        r1, j1 = vr[idx], vj[idx]
        rv, rc = _side_expand(r1, ru, roff, iv)
        idx2 = np.repeat(np.arange(len(r1), dtype=np.int64), rc)
        l2 = lv[idx2]
        out_l = [np.minimum(l2, rv)]
        out_r = [np.maximum(l2, rv)]
        out_j = [j1[idx2]]
        for ci in range(len(ru)):
            mem = iv[roff[ci]:roff[ci + 1]]
            li = np.repeat(mem, len(mem))
            ri = np.tile(mem, len(mem))
            m = li < ri
            out_l.append(li[m])
            out_r.append(ri[m])
            out_j.append(np.ones(int(m.sum()), np.float64))
        out_l = np.concatenate(out_l)
        out_r = np.concatenate(out_r)
        out_j = np.concatenate(out_j)
    else:
        out_l, out_r, out_j = vl, vr, vj
    return ray.data.from_arrow(pa.table({
        'l_id': pa.array(out_l, pa.int64()),
        'r_id': pa.array(out_r, pa.int64()),
        'jaccard': pa.array(out_j, pa.float64())}))


def _minhash_lsh_pairs_impl(ds: ray.data.Dataset, id_col: str, text_col: str,
                            threshold: float = 0.8, k: int = 5,
                            num_perm: int = 64, bands: int = 16,
                            seed: int = 42,
                            verify_buckets: int = 64) -> ray.data.Dataset:
    """Candidate pairs from banded LSH, verified with exact shingle-set
    Jaccard ≥ threshold.  Returns Dataset (l_id, r_id, jaccard) with
    l_id < r_id.

    Verification is a bucketed join back to the documents: candidates and
    shingle sets are co-located by id-hash (two passes, one per pair side) —
    the corpus is never materialized on the driver, so the path holds at
    scales where a broadcast shingle map would not.

    Documents are shingled ONCE into sorted-unique md5 hash sets
    (list<int64>; ~8 B/shingle vs ~30 B for a 5-word string) — the hashes
    feed both the minhash signatures and the exact-Jaccard verification, so
    verify shuffles/broadcasts ship compact integers and the verify kernel
    is a vectorized sorted-set intersection (``_set_jaccard_many``).

    Identical shingle sets collapse into one CLASS (63-bit set digest
    ``dg``): band buckets pair class representatives only, so a degenerate
    LSH bucket of d exact duplicates costs O(distinct classes)², not O(d²)
    — the boilerplate-corpus failure mode of banded LSH.  Intra-class pairs
    (Jaccard 1.0 by construction) and the member cross-products of verified
    rep pairs are regenerated exactly once by ``_expand_classes``."""
    assert num_perm % bands == 0
    rows_per_band = num_perm // bands

    local = _local_minhash_pairs(ds, id_col, text_col, threshold, k,
                                 num_perm, bands, seed)
    if local is not None:
        return local

    def shingle_tbl(b: pa.Table) -> pa.Table:
        sh = _shingle_hashes_batch(b[text_col].to_pylist(), k)
        vals = sh.values.to_numpy(zero_copy_only=False).astype(np.int64)
        off = sh.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({'id': b[id_col], 'sh': sh,
                         'dg': pa.array(_set_digest(vals, off))})

    shingled = ds.map_batches(shingle_tbl,
                              batch_format='pyarrow').materialize()

    sigs = shingled.map_batches(
        MinHashStage('id', 'sh', k, num_perm, seed, from_hashes=True),
        batch_format='pyarrow')

    def band_postings(batch: pa.Table) -> pa.Table:
        n = len(batch)
        col = batch['sig']
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
        h = _band_digest_matrix(flat.reshape(n, bands, rows_per_band))
        take = pa.array(np.repeat(np.arange(n, dtype=np.int64), bands))
        return pa.table({'bucket': pa.array(h.ravel().view(np.int64),
                                            pa.int64()),
                         'id': batch['id'].take(take),
                         'dg': batch['dg'].take(take)})

    posts = sigs.map_batches(band_postings, batch_format='pyarrow')

    def bucket_pairs(tbl: pa.Table) -> pa.Table:
        # class-collapsed all-pairs: identical shingle sets (equal dg) share
        # every band digest, so a class's members ALL land in this bucket and
        # min(id) is the class's GLOBAL representative.  Pairs are emitted
        # between distinct classes only — a degenerate bucket of d exact
        # duplicates costs O(1), not O(d²); intra-class pairs (Jaccard 1.0
        # by construction) are regenerated exactly once in the expansion.
        dg = tbl['dg'].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = tbl['id'].to_numpy(zero_copy_only=False).astype(np.int64)
        _u, inv = np.unique(dg, return_inverse=True)
        mins = np.full(len(_u), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(mins, inv, ids)
        reps = np.unique(mins)
        if len(reps) < 2:
            return pa.table({'l_id': pa.array([], pa.int64()),
                             'r_id': pa.array([], pa.int64())})
        li = np.repeat(reps, len(reps))
        ri = np.tile(reps, len(reps))
        m = li < ri
        return pa.table({'l_id': pa.array(li[m]), 'r_id': pa.array(ri[m])})
    bucket_pairs.__name__ = 'lsh_bucket_pairs'

    cands = posts.groupby('bucket').map_groups(bucket_pairs,
                                               batch_format='pyarrow') \
        .materialize()

    # semi-join pushdown: only documents that appear in some candidate pair
    # need their shingles shipped through the verify shuffles.  The id set
    # is bounded by 2x the LSH candidate count (<< corpus); if it ever
    # exceeds the broadcast budget, fall back to shipping all docs.
    import ray as _ray
    shingled_v = shingled
    broadcast_verify = cands.count() <= _LSH_BROADCAST_PAIR_LIMIT
    cand_ids = np.empty(0, np.int64)
    if broadcast_verify:
        pair_l_parts, pair_r_parts = [], []
        for b in cands.iter_batches(batch_format='pyarrow', batch_size=None):
            t = pa.table(b)
            pair_l_parts.append(t['l_id'].to_numpy(zero_copy_only=False)
                                .astype(np.int64))
            pair_r_parts.append(t['r_id'].to_numpy(zero_copy_only=False)
                                .astype(np.int64))
        pl = (np.concatenate(pair_l_parts) if pair_l_parts
              else np.empty(0, np.int64))
        pr = (np.concatenate(pair_r_parts) if pair_r_parts
              else np.empty(0, np.int64))
        # global pair dedup (a pair can collide in several bands)
        both = np.stack([pl, pr], axis=1)
        if len(both):
            both = np.unique(both, axis=0)
            pl, pr = both[:, 0], both[:, 1]
            cand_ids = np.unique(both.ravel())
        cands = ray.data.from_arrow(pa.table({'l_id': pa.array(pl),
                                              'r_id': pa.array(pr)}))
        ids_ref = _ray.put(cand_ids)

        def only_candidates(b: pa.Table) -> pa.Table:
            ids = _ray.get(ids_ref)
            mine = b['id'].to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.searchsorted(ids, mine)
            pos = np.minimum(pos, max(len(ids) - 1, 0))
            hit = ids[pos] == mine if len(ids) else np.zeros(len(mine), bool)
            return b.filter(pa.array(hit))
        shingled_v = shingled.map_batches(only_candidates,
                                          batch_format='pyarrow')

    if broadcast_verify:
        # candidate-bounded broadcast: collect ONLY the candidate documents'
        # shingle-hash sets (never the corpus) and verify in one map over
        # the candidate stream — zero extra shuffles.  The store is three
        # flat numpy arrays (zero-copy via plasma, no per-set pickling).
        # The bucket-join passes below remain the beyond-gate scale path.
        id_parts, hash_parts, len_parts = [], [], []
        for b in shingled_v.iter_batches(batch_format='pyarrow',
                                         batch_size=None):
            t = pa.table(b)
            id_parts.append(t['id'].to_numpy(zero_copy_only=False)
                            .astype(np.int64))
            vals, o = _list_np(t['sh'])
            hash_parts.append(vals[o[0]:o[-1]])
            len_parts.append(np.diff(o))
        vids = np.concatenate(id_parts) if id_parts else np.empty(0, np.int64)
        vlens = (np.concatenate(len_parts) if len_parts
                 else np.empty(0, np.int64))
        vflat = (np.concatenate(hash_parts) if hash_parts
                 else np.empty(0, np.int64))
        order = np.argsort(vids, kind='stable')
        vids = vids[order]
        src_off = np.concatenate(([0], np.cumsum(vlens)))
        gflat, goff = _gather_slices(vflat, src_off, order)
        smap_ref = _ray.put((vids, goff, gflat))

        def verify_direct(df: pd.DataFrame) -> pd.DataFrame:
            ids, off, flat = _ray.get(smap_ref)
            l = df['l_id'].to_numpy().astype(np.int64)
            r = df['r_id'].to_numpy().astype(np.int64)
            keep, js = _verify_jaccard_slabbed(
                np.searchsorted(ids, l), np.searchsorted(ids, r),
                flat, off, threshold)
            return pd.DataFrame({'l_id': l[keep], 'r_id': r[keep],
                                 'jaccard': js[keep]})
        verify_direct.__name__ = 'lsh_verify_direct'
        verified = cands.map_batches(verify_direct, batch_format='pandas')
        return _expand_classes(verified, shingled, verify_buckets)

    nb = verify_buckets
    empty_sh = pa.array([], pa.list_(pa.int64()))

    def doc_rows(b: pa.Table) -> pa.Table:
        ids = b['id'].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(b)
        return pa.table({'vb': pa.array(_id_bucket(ids, nb)),
                         'kind': pa.array(np.zeros(n, np.int8)),
                         'id': pa.array(ids),
                         'other': pa.array(np.full(n, -1, np.int64)),
                         'sh': b['sh'],
                         'sh_l': pa.nulls(n, pa.list_(pa.int64()))})

    def cand_rows(b) -> pa.Table:
        if isinstance(b, pd.DataFrame):
            b = pa.Table.from_pandas(b, preserve_index=False)
        l = b['l_id'].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(b)
        return pa.table({'vb': pa.array(_id_bucket(l, nb)),
                         'kind': pa.array(np.ones(n, np.int8)),
                         'id': pa.array(l),
                         'other': b['r_id'],
                         'sh': pa.nulls(n, pa.list_(pa.int64())),
                         'sh_l': pa.nulls(n, pa.list_(pa.int64()))})

    def attach_l(tbl: pa.Table) -> pa.Table:
        kind = tbl['kind'].to_numpy(zero_copy_only=False)
        pmask = kind == 1
        if not pmask.any() or pmask.all():
            return pa.table({'l_id': pa.array([], pa.int64()),
                             'r_id': pa.array([], pa.int64()),
                             'sh_l': empty_sh})
        t = tbl.filter(pa.array(~pmask))
        p = tbl.filter(pa.array(pmask))
        pairs = pd.DataFrame({'l_id': p['id'].to_numpy(),
                              'r_id': p['other'].to_numpy(
                                  zero_copy_only=False)}).drop_duplicates()
        tsi = pd.Series(np.arange(len(t)), index=t['id'].to_numpy())
        loc = tsi.reindex(pairs['l_id'].to_numpy())
        ok = loc.notna().to_numpy()
        loc = loc.to_numpy()[ok].astype(np.int64)
        pairs = pairs[ok]
        take = pa.array(loc)
        return pa.table({'l_id': pa.array(pairs['l_id'].to_numpy()),
                         'r_id': pa.array(pairs['r_id'].to_numpy()),
                         'sh_l': t['sh'].take(take).combine_chunks()})
    attach_l.__name__ = 'lsh_attach_l'

    v1 = shingled_v.map_batches(doc_rows, batch_format='pyarrow').union(
        cands.map_batches(cand_rows, batch_format='pyarrow'))
    half = v1.groupby('vb').map_groups(attach_l, batch_format='pyarrow')

    def half_rows(b) -> pa.Table:
        if isinstance(b, pd.DataFrame):
            b = pa.Table.from_pandas(b, preserve_index=False)
        r = b['r_id'].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(b)
        return pa.table({'vb': pa.array(_id_bucket(r, nb)),
                         'kind': pa.array(np.ones(n, np.int8)),
                         'id': pa.array(r),
                         'other': b['l_id'],
                         'sh': pa.nulls(n, pa.list_(pa.int64())),
                         'sh_l': b['sh_l']})

    def verify(tbl: pa.Table) -> pd.DataFrame:
        kind = tbl['kind'].to_numpy(zero_copy_only=False)
        pmask = kind == 1
        empty = pd.DataFrame({'l_id': np.array([], np.int64),
                              'r_id': np.array([], np.int64),
                              'jaccard': np.array([], np.float64)})
        if not pmask.any() or pmask.all():
            return empty
        t = tbl.filter(pa.array(~pmask))
        p = tbl.filter(pa.array(pmask))
        tsi = pd.Series(np.arange(len(t)), index=t['id'].to_numpy())
        loc = tsi.reindex(p['id'].to_numpy(zero_copy_only=False))
        ok = loc.notna().to_numpy()
        if not ok.any():
            return empty
        loc = loc.to_numpy()[ok].astype(np.int64)
        p = p.filter(pa.array(ok))
        r_flat, r_off = _list_np(t['sh'].take(pa.array(loc)))
        l_flat, l_off = _list_np(p['sh_l'])
        l_ids = p['other'].to_numpy(zero_copy_only=False).astype(np.int64)
        r_ids = p['id'].to_numpy(zero_copy_only=False).astype(np.int64)
        js = _set_jaccard_aligned(l_flat, l_off, r_flat, r_off)
        keep = js >= threshold
        return pd.DataFrame({'l_id': l_ids[keep], 'r_id': r_ids[keep],
                             'jaccard': js[keep]})
    verify.__name__ = 'lsh_verify'

    v2 = shingled_v.map_batches(doc_rows, batch_format='pyarrow').union(
        half.map_batches(half_rows, batch_format='pyarrow'))
    verified = v2.groupby('vb').map_groups(verify, batch_format='pyarrow')
    return _expand_classes(verified, shingled, verify_buckets)


# ------------------------------------------------------------------ simhash

_BIT_SHIFTS = np.arange(64, dtype=np.uint64)

# 16-bit popcount table (64 KiB, built once per worker import) — numpy<2 has
# no bitwise_count kernel
_POP16 = np.unpackbits(
    np.arange(1 << 16, dtype='>u2').view(np.uint8)).reshape(-1, 16) \
    .sum(axis=1).astype(np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized population count over uint64."""
    x = x.astype(np.uint64, copy=False)
    m = np.uint64(0xFFFF)
    return (_POP16[(x & m).astype(np.int64)].astype(np.int64)
            + _POP16[((x >> np.uint64(16)) & m).astype(np.int64)]
            + _POP16[((x >> np.uint64(32)) & m).astype(np.int64)]
            + _POP16[((x >> np.uint64(48)) & m).astype(np.int64)])


def _simhash_from_hashes(hs: np.ndarray) -> int:
    """±1 bit votes over shingle hashes, fully vectorized: one (m×64)
    bit-matrix from broadcast shifts instead of a per-bit Python loop."""
    if len(hs) == 0:
        return 0
    bits = ((hs[:, None] >> _BIT_SHIFTS[None, :]) & np.uint64(1)) \
        .astype(np.int64)
    votes = (2 * bits - 1).sum(axis=0)
    return int(((votes > 0).astype(np.uint64) << _BIT_SHIFTS).sum())


def simhash64(text: str, k: int = 2) -> int:
    """64-bit simhash over word k-gram shingle hashes."""
    return _simhash_from_hashes(_md5_hashes(shingles(text, k)))


class SimHashStage:
    def __init__(self, id_col: str, text_col: str, k: int = 2):
        self.id_col, self.text_col, self.k = id_col, text_col, k

    def __call__(self, batch: pa.Table) -> pa.Table:
        # one md5 pass over the batch's concatenated shingles, then the
        # per-document ±1 bit votes as a single scatter-add — identical
        # values to per-row simhash64, no per-document hashing round-trip
        texts = batch[self.text_col].to_pylist()
        n = len(texts)
        sh_lists = [shingles(t or '', self.k) for t in texts]
        lens = np.fromiter((len(s) for s in sh_lists), np.int64, n)
        flat = [x for s in sh_lists for x in s]
        hs = _md5_hashes(flat)
        vals = np.zeros(n, np.uint64)
        if len(hs):
            bits = ((hs[:, None] >> _BIT_SHIFTS[None, :]) & np.uint64(1)) \
                .astype(np.int64)
            contrib = 2 * bits - 1
            votes = np.zeros((n, 64), np.int64)
            np.add.at(votes, np.repeat(np.arange(n), lens), contrib)
            vals = ((votes > 0).astype(np.uint64)
                    << _BIT_SHIFTS[None, :]).sum(axis=1)
        return pa.table({'id': batch[self.id_col],
                         'simhash': pa.array(vals.astype(np.int64))})


def simhash_near_dup_pairs(ds: ray.data.Dataset, id_col: str, text_col: str,
                           max_hamming: int = 3, k: int = 2
                           ) -> ray.data.Dataset:
    """Near-dup pairs by simhash Hamming distance ≤ max_hamming, blocked on
    16-bit simhash quarters (a pair within distance 3 shares ≥1 of 4
    quarters by pigeonhole)."""
    _require_int_ids(ds, id_col, 'simhash_near_dup_pairs')
    sigs = ds.map_batches(SimHashStage(id_col, text_col, k),
                          batch_format='pyarrow')

    def quarter_postings(batch: pa.Table) -> pa.Table:
        sh = batch['simhash'].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(sh)
        hu = sh.view(np.uint64)
        shifts = (np.uint64(16) * np.arange(4, dtype=np.uint64))
        part = ((hu[:, None] >> shifts[None, :])
                & np.uint64(0xFFFF)).astype(np.int64)
        bucket = (np.arange(4, dtype=np.int64)[None, :] << 16) | part
        take = pa.array(np.repeat(np.arange(n, dtype=np.int64), 4))
        return pa.table({'bucket': pa.array(bucket.ravel(), pa.int64()),
                         'id': batch['id'].take(take),
                         'simhash': batch['simhash'].take(take)})

    posts = sigs.map_batches(quarter_postings, batch_format='pyarrow')

    def pairs(tbl: pa.Table) -> pa.Table:
        ids_all = tbl['id'].to_numpy(zero_copy_only=False)
        hs_all = tbl['simhash'].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        _, uniq_idx = np.unique(ids_all, return_index=True)
        ids = ids_all[np.sort(uniq_idx)]
        hs = hs_all[np.sort(uniq_idx)]
        empty = pa.table({'l_id': pa.array([], pa.int64()),
                          'r_id': pa.array([], pa.int64())})
        if len(ids) < 2:
            return empty
        # collapse identical simhashes into classes: the XOR matrix runs
        # over DISTINCT values only, so a degenerate quarter bucket of d
        # exact duplicates costs O(classes²), not O(d²); class pairs expand
        # locally (output-bound) and bucketed_distinct dedupes cross-bucket
        # repeats exactly as before
        order = np.lexsort((ids, hs))
        hs_s, ids_s = hs[order], ids[order]
        first = np.concatenate(([True], hs_s[1:] != hs_s[:-1]))
        uh = hs_s[first].view(np.uint64)
        off = np.concatenate((np.nonzero(first)[0],
                              [len(hs_s)])).astype(np.int64)
        n = len(uh)
        out_l, out_r = [], []
        # intra-class pairs: identical simhash ⇒ Hamming 0 ≤ max_hamming
        for ci in np.nonzero(np.diff(off) >= 2)[0]:
            mem = ids_s[off[ci]:off[ci + 1]]
            li = np.repeat(mem, len(mem))
            ri = np.tile(mem, len(mem))
            msk = li < ri
            out_l.append(li[msk])
            out_r.append(ri[msk])
        if n >= 2:
            # chunk rows so the XOR pair matrix stays cache-sized
            chunk = max(1, int(2_000_000 // n))
            for s in range(0, n, chunk):
                i = np.arange(s, min(s + chunk, n), dtype=np.int64)
                x = uh[i][:, None] ^ uh[None, :]
                d = _popcount64(x.ravel()).reshape(len(i), n)
                ii, jj = np.nonzero(d <= max_hamming)
                gi = i[ii]
                keep = gi < jj
                gi, gj = gi[keep], jj[keep].astype(np.int64)
                if not len(gi):
                    continue
                # expand class pairs to member cross products
                ci_cnt = off[gi + 1] - off[gi]
                cj_cnt = off[gj + 1] - off[gj]
                mult = ci_cnt * cj_cnt
                starts = np.concatenate(([0], np.cumsum(mult)))
                pidx = np.repeat(np.arange(len(gi), dtype=np.int64), mult)
                pos = np.arange(int(starts[-1]), dtype=np.int64) \
                    - np.repeat(starts[:-1], mult)
                a = ids_s[off[gi][pidx] + pos // cj_cnt[pidx]]
                b = ids_s[off[gj][pidx] + pos % cj_cnt[pidx]]
                swap = a > b
                out_l.append(np.where(swap, b, a))
                out_r.append(np.where(swap, a, b))
        if not out_l:
            return empty
        return pa.table({'l_id': pa.array(np.concatenate(out_l)
                                          .astype(np.int64)),
                         'r_id': pa.array(np.concatenate(out_r)
                                          .astype(np.int64))})
    pairs.__name__ = 'simhash_pairs'

    cand = posts.groupby('bucket').map_groups(pairs, batch_format='pyarrow')
    # global pair dedup (a pair can collide in up to 4 quarters): bucketed
    # distinct — pair cardinality is unbounded, ray's native aggregate is
    # pathologically slow at high key cardinality
    from .groupagg import bucketed_distinct
    return bucketed_distinct(cand, ['l_id', 'r_id'])


def near_dedup(ds: ray.data.Dataset, id_col: str, text_col: str,
               threshold: float = 0.8, k: int = 5, num_perm: int = 64,
               bands: int = 16, seed: int = 42,
               checkpoint_dir: str = None) -> ray.data.Dataset:
    """End-to-end near-duplicate removal — the canonical training-data
    dedup flow composed from this module's scale paths:

        minhash_lsh_pairs (banded LSH + exact-Jaccard verify)
        → cluster.connected_components (one task / star rounds)
        → cluster.attach_components (component = min id by construction)

    Returns Dataset ``(id_col, rep_id, keep)`` covering EVERY input row:
    ``rep_id`` is the minimum id of the row's near-duplicate cluster
    (itself when unique) and ``keep`` (int64 0/1) marks cluster
    representatives — ``filter(keep == 1)`` is the deduplicated corpus."""
    _require_int_ids(ds, id_col, 'near_dedup')
    from .cluster import attach_components, connected_components
    pairs = minhash_lsh_pairs(ds, id_col, text_col, threshold=threshold,
                              k=k, num_perm=num_perm, bands=bands,
                              seed=seed, checkpoint_dir=checkpoint_dir)
    comp = connected_components(pairs)

    def rep_keep(b: pa.Table) -> pa.Table:
        ids = pa.compute.cast(b[id_col], pa.int64())
        rep = b['component']
        return pa.table({id_col: ids, 'rep_id': rep, 'keep': pa.compute.cast(
            pa.compute.equal(ids, rep), pa.int64())})
    rep_keep.__name__ = 'neardedup_rep_keep'
    return attach_components(ds.select_columns([id_col]), id_col, comp) \
        .map_batches(rep_keep, batch_format='pyarrow')
