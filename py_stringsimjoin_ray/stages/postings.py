"""Token ordering and the rank/prefix stage, plus the DuckDB kernels the
join stages share.

The ordering artifact is the reference's global token order
(``utils/token_ordering.py:24-42``: rarest first, ties by token) built once
per join as a hash -> rank lookup, together with the heavy-token table:
tokens whose document frequency reaches ``salt_df_threshold`` get a g x g
salting grid (``slimjoin.SlimPostingsStage``).  Both routes rank with ONE
sort of a token dictionary, ``dictionary_ranks``: the local route over the
dictionary of its int token ids, the Dataset route's one vocabulary build,
``fused_rank_lookup``, over each token-hash range of the per-block
combiner partials (``_vocab_shard``, no DuckDB).  ``hash_tie`` picks the
order of equal counts for both.  ``RankPrefixStage`` maps each record's
tokens to ascending ranks and computes its prefix length; the local route
builds the same rows from int ids, and both end in ``rank_rows``.  The
postings themselves are built from the deduplicated signature table by
``slimjoin.SlimPostingsStage`` for every join and every ``filter_tables``
candidates mode.  ``make_rank_lookup`` and ``heavy_token_table`` (over
``tokenize.token_frequencies``) are the string-path form of the same
artifact, kept as the tests' oracle; no route calls them.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core import bounds
from ..state.session import session_cpus

KNUTH = np.uint64(2654435761)
# hard cap on heavy-token grid size (every heavy builder clamps g to this);
# per-token cell ranges stride by its AREA so ranges never overlap
MAX_GRID = 16
MAX_GRID_AREA = MAX_GRID * MAX_GRID


def _duck():
    """One cached in-process DuckDB connection per worker (None if duckdb is
    unavailable)."""
    global _DUCK
    try:
        return _DUCK
    except NameError:
        pass
    try:
        import duckdb
        _DUCK = duckdb.connect()
        # each kernel task is one CPU slot; don't oversubscribe, and cap
        # the buffer manager so N concurrent per-worker connections don't
        # each assume they own the node's RAM
        _DUCK.execute('SET threads TO 1')
        _DUCK.execute("SET memory_limit='2GB'")
        _DUCK.execute('SET preserve_insertion_order=false')
    except ImportError:  # pragma: no cover
        _DUCK = None
    return _DUCK


def _lev_many(l_strings, r_strings):
    """Vectorized Levenshtein over pair lists via DuckDB's C++ kernel, with a
    numpy-DP fallback.

    DuckDB's ``levenshtein`` is BYTE-based ('café' vs 'cafe' = 2), while the
    reference (and ``core.measures.levenshtein``) is CHARACTER-based (= 1) —
    pairs where either string contains non-ASCII go through the exact
    character DP instead."""
    con = _duck()
    if con is None:  # pragma: no cover
        from ..core.measures import levenshtein
        return np.array([levenshtein(a, b)
                         for a, b in zip(l_strings, r_strings)],
                        dtype=np.int64)
    a_arr = pa.array(l_strings, type=pa.string())
    b_arr = pa.array(r_strings, type=pa.string())
    # byte length == char length ⟺ pure ASCII (for valid UTF-8)
    ascii_pair = (
        pa.compute.equal(pa.compute.binary_length(a_arr),
                         pa.compute.utf8_length(a_arr)).to_numpy(
                             zero_copy_only=False)
        & pa.compute.equal(pa.compute.binary_length(b_arr),
                           pa.compute.utf8_length(b_arr)).to_numpy(
                               zero_copy_only=False))
    tbl = pa.table({'a': a_arr, 'b': b_arr})
    res = con.execute('SELECT levenshtein(a, b) FROM tbl').fetchnumpy()
    out = next(iter(res.values())).astype(np.int64)
    if not ascii_pair.all():
        from ..core.measures import levenshtein
        for i in np.nonzero(~ascii_pair)[0]:
            out[i] = levenshtein(l_strings[i], r_strings[i])
    return out


def _duck_hashes(values: pa.Array) -> np.ndarray:
    """Deterministic vectorized 64-bit string hashes via DuckDB's C kernel
    (no per-token Python boxing)."""
    con = _duck()
    tbl = pa.table({'t': values})
    con.register('t_hash_in', tbl)
    out = con.execute('SELECT hash(t) AS h FROM t_hash_in').arrow()
    con.unregister('t_hash_in')
    return out['h'].to_numpy().astype(np.uint64)


def make_rank_lookup(freq_table: pa.Table) -> dict:
    """The ordering artifact from a (token, count) table, on the calling
    process — the string-path oracle of ``fused_rank_lookup``'s token-tie
    build: two numpy arrays, the sorted token hashes and the rank at each
    hash, rank 1 = rarest, ties by token (``utils/token_ordering.py:24-42``).

    A 64-bit hash collision inside the vocabulary (p ≈ |V|²/2⁶⁴) would merge
    two tokens' ranks; it is detected here and falls back to carrying the
    rank-ordered token array itself (exact per-worker pandas Index)."""
    n = len(freq_table)
    if n == 0:
        return {'hashes': np.empty(0, np.uint64), 'ranks': np.empty(0, np.int32)}
    import duckdb
    con = duckdb.connect()
    con.register('t_vocab', freq_table)
    # plain ORDER BY (parallel radix sort) + arange ranks — ~6x faster than
    # the row_number() window over multi-million-token vocabularies
    res = con.execute(
        'SELECT hash(token) AS h FROM t_vocab ORDER BY count, token').arrow()
    con.close()
    h = res['h'].to_numpy().astype(np.uint64)
    rnk = np.arange(1, n + 1, dtype=np.int32)
    order = np.argsort(h, kind='stable')
    sh = h[order]
    if n > 1 and bool((sh[1:] == sh[:-1]).any()):  # pragma: no cover
        from .tokenize import build_ordering_table
        return {'tokens': build_ordering_table(freq_table)}
    return {'hashes': sh, 'ranks': rnk[order]}


def dictionary_ranks(dictionary: pa.Array, df: np.ndarray,
                     hashes: np.ndarray | None = None) -> np.ndarray:
    """Rank (1 = rarest) of every entry of a token dictionary, from ONE
    sort of the distinct tokens: ascending ``df``, ties by the token's
    bytes (the reference's order, ``make_rank_lookup``'s DuckDB
    ``ORDER BY count, token``) or, given ``hashes`` (each entry's 64-bit
    token hash), by hash.  Equal hashes stay in dictionary order: the ranks
    index ids, not hashes, so a collision cannot merge two tokens."""
    if len(df) == 0:
        return np.empty(0, np.int64)
    if hashes is not None:
        order = np.lexsort((hashes, df))
    else:
        by_token = pc.sort_indices(dictionary).to_numpy()
        order = by_token[np.argsort(df[by_token], kind='stable')]
    rank = np.empty(len(df), np.int64)
    rank[order] = np.arange(1, len(df) + 1)
    return rank


def hash_tie(cfg) -> bool:
    """Whether a join orders equal-df tokens by token hash: set-measure
    joins may (prefix-filter recall holds under ANY consistent order and
    verification is exact), EDIT_DISTANCE joins — whose approximate recall
    depends on the order — and the candidates modes, whose output IS the
    order-dependent candidate set, keep the reference's token order."""
    return cfg.mode == 'join' and cfg.sim_type != 'EDIT_DISTANCE'


def _vocab_shard(shard: int, nshards: int, by_hash: bool, *blocks):
    """The vocabulary build's body over the token-hash range
    ``hash >> shift == shard`` of the combiner partials (all of them when
    ``nshards`` is 1): one ``pc.dictionary_encode`` of the range's tokens,
    one ``np.bincount`` of their partial counts, one ``dictionary_ranks``
    sort.  Returns (piece, meta): piece = (hashes, counts, li, tokens),
    ordered by hash, li the token's index within its count group in the
    shard's (count, tie) order and tokens the range's dictionary in rank
    order, carried only on a hash collision; meta = the count-value
    histogram (cv, cf), the collision flag and the occurrence total.
    Hash-range sharding makes the within-count cross-shard order equal the
    global hash order, so stitching K > 1 hash-tie pieces gives the exact
    (count asc, token-hash asc) ranks of one shard."""
    shift = 64 - max(1, (int(nshards) - 1).bit_length())
    lo = np.uint64(int(shard) << shift)
    hi = np.uint64((int(shard) + 1) << shift) if shard + 1 < nshards else None
    toks, parts, hs = [], [], []
    for t in blocks:
        if not isinstance(t, pa.Table):
            t = pa.Table.from_pandas(t, preserve_index=False)
        if len(t) == 0 or 'token' not in t.column_names:
            continue
        # blocks are hash-sorted by the combiner: the shard's range is a
        # zero-copy binary-search slice, not a scan
        hcol = t['h'].to_numpy()
        a = int(np.searchsorted(hcol, lo, 'left'))
        b = int(np.searchsorted(hcol, hi, 'left')) if hi is not None \
            else len(hcol)
        if b > a:
            toks.extend(t['token'].slice(a, b - a).chunks)
            parts.append(t['partial'].slice(a, b - a).to_numpy())
            hs.append(hcol[a:b])
    if not toks:
        return ((np.empty(0, np.uint64), np.empty(0, np.int64),
                 np.empty(0, np.int64), None),
                (np.empty(0, np.int64), np.empty(0, np.int64), False, 0))
    enc = pc.dictionary_encode(pa.concat_arrays(toks))
    ids = enc.indices.to_numpy()
    partial = np.concatenate(parts)
    # float64 weights sum counts exactly below 2^53 occurrences
    c = np.bincount(ids, weights=partial,
                    minlength=len(enc.dictionary)).astype(np.int64)
    h = np.empty(len(c), np.uint64)
    h[ids] = np.concatenate(hs)
    hh = np.sort(h)
    # equal hashes of DISTINCT dictionary entries: a real collision
    coll = bool(len(hh) > 1 and (hh[1:] == hh[:-1]).any())
    order = np.argsort(dictionary_ranks(enc.dictionary, c,
                                        h if by_hash else None))
    h_s, c_s = h[order], c[order]
    firstc = np.concatenate(([True], c_s[1:] != c_s[:-1]))
    starts = np.where(firstc, np.arange(len(c_s)), 0)
    li = np.arange(len(c_s)) - np.maximum.accumulate(starts)
    cv, cf = np.unique(c_s, return_counts=True)
    oh = np.argsort(h_s, kind='stable')
    tokens = enc.dictionary.take(pa.array(order)) if coll else None
    return ((h_s[oh], c_s[oh], li[oh], tokens),
            (cv, cf.astype(np.int64), coll, int(partial.sum())))


def _vocab_offsets(metas):
    """Global rank offsets from the per-shard count-value histograms.
    rank(token) = 1 + base(count) + prefix(shard, count) + li, where base
    is the exclusive total below the count value and prefix the same-count
    mass in lower hash ranges (hash-contiguous shards, so within-count
    cross-shard order == global hash order)."""
    K = len(metas)
    all_cv = np.unique(np.concatenate([m[0] for m in metas])) \
        if metas else np.empty(0, np.int64)
    ncv = len(all_cv)
    f = np.zeros((K, ncv), dtype=np.int64)
    for s, m in enumerate(metas):
        if len(m[0]):
            f[s, np.searchsorted(all_cv, m[0])] = m[1]
    base = np.concatenate(([0], np.cumsum(f.sum(axis=0))[:-1]))
    prefix = np.vstack([np.zeros(ncv, np.int64),
                        np.cumsum(f, axis=0)[:-1]]) if K else f
    return all_cv, base, prefix


def _vocab_rank_piece(all_cv, base, prefix_row, salt_df_threshold, piece):
    """Round-2 shard task: assign this piece's global ranks (parallel)."""
    h_s, c_s, li = piece[0], piece[1], piece[2]
    if len(h_s) == 0:
        return (np.empty(0, np.uint64), np.empty(0, np.int32),
                np.zeros((2, 0), np.int64))
    idx = np.searchsorted(all_cv, c_s)
    rk = (base[idx] + prefix_row[idx] + li + 1).astype(np.int32)
    hot = c_s >= salt_df_threshold
    heavy_rc = (np.stack([rk[hot].astype(np.int64), c_s[hot]])
                if hot.any() else np.zeros((2, 0), np.int64))
    return h_s, rk, heavy_rc


def _heavy_from_rc(rc: np.ndarray, salt_df_threshold, max_grid) -> dict:
    heavy: dict = {}
    order = np.argsort(rc[0], kind='stable')
    for hidx, (rk, c) in enumerate(zip(rc[0][order], rc[1][order])):
        g = int(min(max_grid,
                    max(2, round((c / salt_df_threshold) ** 0.5) + 1)))
        heavy[int(rk)] = (hidx, g)
    return heavy


def _vocab_concat(salt_df_threshold, max_grid, *ranked):
    """Final stitch: pure concatenation of the hash-ordered ranked pieces
    (shards partition the hash high bits, so the concat is globally
    hash-sorted) + the heavy-token table."""
    ranked = [r for r in ranked if len(r[0])]
    if not ranked:
        return ({'hashes': np.empty(0, np.uint64),
                 'ranks': np.empty(0, np.int32)}, {})
    lut = {'hashes': np.concatenate([r[0] for r in ranked]),
           'ranks': np.concatenate([r[1] for r in ranked])}
    rc = np.concatenate([r[2] for r in ranked], axis=1)
    heavy = _heavy_from_rc(rc, salt_df_threshold, max_grid) if rc.size else {}
    return lut, heavy


def _vocab_stitch(salt_df_threshold, max_grid, *shards):
    """In-process composition of offsets -> rank pieces -> concat over
    ``_vocab_shard``'s (piece, meta) pairs: the semantics of the
    distributed three-round flow in ``fused_rank_lookup``.  Returns
    (lut, heavy, collision_flag, total_token_occurrences)."""
    metas = [m for _, m in shards]
    all_cv, base, prefix = _vocab_offsets(metas)
    ranked = [_vocab_rank_piece(all_cv, base, prefix[s], salt_df_threshold,
                                p) for s, (p, _) in enumerate(shards)]
    lut, heavy = _vocab_concat(salt_df_threshold, max_grid, *ranked)
    return (lut, heavy, any(bool(m[2]) for m in metas),
            sum(int(m[3]) for m in metas))


def _vocab_build(salt_df_threshold, max_grid, by_hash, *blocks):
    """The K = 1 build, one task: the shard body over every partial, then
    the stitch → (lut, heavy, total_token_occurrences).  On a 64-bit hash
    collision inside the vocabulary (p ≈ |V|²/2⁶⁴) the lut carries the
    rank-ordered tokens themselves instead of hashes (an exact per-worker
    pandas Index in ``map_tokens_to_ranks``), as ``make_rank_lookup``
    does."""
    shard = _vocab_shard(0, 1, by_hash, *blocks)
    lut, heavy, coll, tot = _vocab_stitch(salt_df_threshold, max_grid, shard)
    if coll:
        lut = {'tokens': shard[0][3]}
    return lut, heavy, tot


# sharded vocabulary build kicks in above this partial-row total; below it
# a single build task is faster than K-task scheduling.  Measured on the
# former DuckDB merge: the single merge task was 57% of the flagship
# matches stage at 1.5M records
_VOCAB_SHARD_MIN_ROWS = 2_000_000


def fused_rank_lookup(tokenized, salt_df_threshold: int,
                      max_grid: int = MAX_GRID, by_hash: bool = True) -> tuple:
    """The Dataset route's one vocabulary build: per-block combiner
    partials (``partial_token_counts_hashed``, fused with tokenize) feed
    ``_vocab_shard`` tasks that yield the rank lookup AND the heavy-token
    table, over the partial-block REFS — the driver never streams the
    partials nor gets the lut.  ``by_hash`` picks the tie of equal counts
    (``hash_tie``): token hash, or the reference's token order, which
    always builds in one task (K = 1) since hash-range pieces add up to
    exact global ranks only under the hash tie.  Returns (lut_ref:
    ObjectRef, heavy: dict, total_token_occurrences: int — the
    broadcast-gate size driver)."""
    import ray

    from .tokenize import partial_token_counts_hashed
    partial = tokenized.map_batches(partial_token_counts_hashed,
                                    batch_format='pyarrow',
                                    batch_size=None).materialize()
    refs = []
    for bundle in partial.iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
    if by_hash and partial.count() >= _VOCAB_SHARD_MIN_ROWS:
        # three-round sharded build: K parallel hash-range slice+aggregate
        # tasks; a tiny driver-side histogram exchange (the driver gets
        # only each shard's meta); K parallel rank-assignment tasks; one
        # pure-concat stitch
        nshards = 1 << max(2, min(5, session_cpus().bit_length() - 1))
        shard_task = ray.remote(num_cpus=1, num_returns=2)(_vocab_shard)
        shards = [shard_task.remote(s, nshards, True, *refs)
                  for s in range(nshards)]
        metas = ray.get([m for _, m in shards])
        if not any(bool(m[2]) for m in metas):
            all_cv, base, prefix = _vocab_offsets(metas)
            rank_task = ray.remote(num_cpus=1)(_vocab_rank_piece)
            ranked = [rank_task.remote(all_cv, base, prefix[s],
                                       salt_df_threshold, shards[s][0])
                      for s in range(nshards)]
            concat_task = ray.remote(num_cpus=1, num_returns=2)(_vocab_concat)
            lut_ref, heavy_ref = concat_task.remote(salt_df_threshold,
                                                    max_grid, *ranked)
            return (lut_ref, ray.get(heavy_ref),
                    sum(int(m[3]) for m in metas))
        # a vocabulary hash collision: the one-task build carries the
        # exact token lut
    build = ray.remote(num_cpus=1, num_returns=3)(_vocab_build)
    lut_ref, heavy_ref, tot_ref = build.remote(salt_df_threshold, max_grid,
                                               by_hash, *refs)
    heavy, tot = ray.get([heavy_ref, tot_ref])
    return lut_ref, heavy, int(tot)


# Per-worker-process cache for the exact-fallback pandas Index (collision
# case only; the hash path needs no per-worker state).
_ORD_INDEX_CACHE: dict = {}


def _fallback_index(ref_key, tokens_arr):
    """The token lut's pandas Index, cached per lut ref (an in-process lut,
    ``ref_key`` '', is not cached)."""
    idx = _ORD_INDEX_CACHE.get(ref_key) if ref_key else None
    if idx is None:
        import pandas as pd
        idx = pd.Index(tokens_arr.to_pandas())
        if ref_key:
            _ORD_INDEX_CACHE.clear()
            _ORD_INDEX_CACHE[ref_key] = idx
    return idx


def map_tokens_to_ranks(lut: dict, token_values: pa.Array,
                        ref_key='') -> np.ndarray:
    """Vectorized token→rank (0 = absent) for a flat Arrow string array."""
    if 'hashes' in lut:
        sh, ranks = lut['hashes'], lut['ranks']
        if len(sh) == 0 or len(token_values) == 0:
            return np.zeros(len(token_values), dtype=np.int64)
        th = _duck_hashes(token_values)
        # dedup + sort the probes first: token batches repeat heavily, and
        # sorted probes walk the (DRAM-resident, multi-million-entry) LUT
        # monotonically instead of issuing a random ~24-miss binary search
        # per occurrence
        uh, inv = np.unique(th, return_inverse=True)
        pos = np.minimum(np.searchsorted(sh, uh), len(sh) - 1)
        ranks_u = np.where(sh[pos] == uh, ranks[pos], 0).astype(np.int64)
        return ranks_u[inv]
    idx = _fallback_index(ref_key, lut['tokens'])
    return (idx.get_indexer(token_values.to_pandas()) + 1).astype(np.int64)


def rank_rows(key, sizes: np.ndarray, row_id: np.ndarray,
              ranks_flat: np.ndarray, sim_type: str, threshold, qval=None,
              s=None) -> pa.Table:
    """(key, sz, ranks, plen[, s]) from each token's row and rank: one sort
    of the int64 key ``row * (max rank + 1) + rank`` puts every row's ranks
    in ascending order (the applied ordering of
    ``utils/token_ordering.py:45-55``).  ``sizes`` is each row's token count
    under the tokenizer's set/bag semantics."""
    width = np.int64(ranks_flat.max() + 1) if len(ranks_flat) else 1
    key_sorted = np.sort(row_id * width + ranks_flat)
    cnt = np.bincount(row_id, minlength=len(sizes))
    new_off = np.concatenate(([0], np.cumsum(cnt))).astype(np.int32)
    # int32 ranks halve the postings shuffle volume; vocabularies beyond
    # 2^31 distinct tokens are out of scope (documented scale assumption —
    # qgram vocabs are charset^q-bounded, word vocabs ≪ corpus size)
    ranks_col = pa.ListArray.from_arrays(
        pa.array(new_off, pa.int32()),
        pa.array((key_sorted % width).astype(np.int32), pa.int32()))
    plens = bounds.prefix_length_many(sizes, sim_type, threshold, qval)
    cols = {'key': key,
            'sz': pa.array(sizes, type=pa.int32()),
            'ranks': ranks_col,
            'plen': pa.array(plens.astype(np.int32), type=pa.int32())}
    if s is not None:
        cols['s'] = s
    return pa.table(cols)


class RankPrefixStage:
    """(key, tokens[, s]) → (key, sz, ranks, plen[, s]).

    The ordering artifact (``fused_rank_lookup``'s sorted token hashes and
    their ranks) resolves from the object store
    ZERO-COPY; each batch maps its tokens to ranks with one hash pass and
    one binary search over the distinct hashes (``map_tokens_to_ranks``),
    and ``rank_rows`` sorts every row's ranks with one int64 key — no
    per-token Python work.  ``sz`` is the token count under the
    tokenizer's set/bag semantics.
    """

    def __init__(self, ordering_ref, sim_type: str, threshold, qval=None,
                 keep_string: bool = False):
        self.ordering_ref = ordering_ref  # the lut (or its ref)
        self.sim_type = sim_type
        self.threshold = threshold
        self.qval = qval
        self.keep_string = keep_string

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray
        lut = self.ordering_ref
        ref_key = ''
        if isinstance(lut, ray.ObjectRef):
            ref_key = lut.hex()
            lut = ray.get(lut)
        toks = batch['tokens'].combine_chunks()
        sizes = np.diff(toks.offsets.to_numpy()).astype(np.int32)
        ranks_flat = map_tokens_to_ranks(lut, toks.values, ref_key)
        row_id = np.repeat(np.arange(len(batch), dtype=np.int64), sizes)
        # 0 = absent from the ordering
        keep = ranks_flat > 0
        if not keep.all():
            ranks_flat, row_id = ranks_flat[keep], row_id[keep]
        return rank_rows(batch['key'], sizes, row_id, ranks_flat,
                         self.sim_type, self.threshold, self.qval,
                         batch['s'] if self.keep_string else None)


def heavy_token_table(freq_table: pa.Table, lut: dict,
                      salt_df_threshold: int, max_grid: int = 16) -> dict:
    """rank → (heavy_index, grid_size) for tokens with df above threshold.
    ``lut`` is the ``make_rank_lookup`` artifact."""
    heavy: dict = {}
    mask = pa.compute.greater_equal(freq_table['count'], salt_df_threshold)
    hot = freq_table.filter(mask)
    if len(hot) == 0:
        return heavy
    ranks = map_tokens_to_ranks(lut, hot['token'].combine_chunks()
                                if isinstance(hot['token'], pa.ChunkedArray)
                                else hot['token'])
    for hidx, (rk, c) in enumerate(zip(ranks, hot['count'].to_pylist())):
        g = int(min(max_grid, max(2, round((c / salt_df_threshold) ** 0.5) + 1)))
        heavy[int(rk)] = (hidx, g)
    return heavy
