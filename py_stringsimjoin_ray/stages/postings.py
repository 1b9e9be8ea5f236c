"""Token ordering and the rank/prefix stage, plus the DuckDB kernels the
join stages share.

The ordering artifact is the reference's global token order
(``utils/token_ordering.py:24-42``: rarest first, ties by token) built once
per join as a hash -> rank lookup (``make_rank_lookup``, or the fused
one-pass ``fused_rank_lookup`` for hash-tie set-measure joins), together
with the heavy-token table: tokens whose document frequency reaches
``salt_df_threshold`` get a g x g salting grid
(``slimjoin.SlimPostingsStage``).  ``RankPrefixStage`` maps each record's
tokens to ascending ranks and computes its prefix length.  The local route
builds the same rows from int token ids instead: ``dictionary_ranks``
orders its one token dictionary and ``rank_rows`` (which
``RankPrefixStage`` ends in too) sorts each row's ranks.  The postings
themselves are built from the deduplicated signature table by
``slimjoin.SlimPostingsStage`` for every join and every ``filter_tables``
candidates mode.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core import bounds
from ..state.session import cpu_request, session_cpus

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


def _token_hashes(values: pa.Array) -> np.ndarray:
    """Deterministic vectorized 64-bit string hashes via DuckDB's C kernel
    (no per-token Python boxing)."""
    con = _duck()
    tbl = pa.table({'t': values})
    con.register('t_hash_in', tbl)
    out = con.execute('SELECT hash(t) AS h FROM t_hash_in').arrow()
    con.unregister('t_hash_in')
    return out['h'].to_numpy().astype(np.uint64)


def make_rank_lookup(freq_table: pa.Table) -> dict:
    """Token→rank lookup built ONCE on the driver as two numpy arrays
    (sorted token hashes + the rank at each hash) — numpy payloads live
    zero-copy in the object store, so every worker on a node shares one
    mmapped copy and per-batch mapping is hash + binary search, with no
    per-worker index build or per-worker vocabulary memory.  Rank semantics:
    1 = rarest, ties by token (``utils/token_ordering.py:24-42``).

    A 64-bit hash collision inside the vocabulary (p ≈ |V|²/2⁶⁴) would merge
    two tokens' ranks; it is detected here and falls back to carrying the
    rank-ordered token array itself (exact per-worker pandas Index)."""
    n = len(freq_table)
    if n == 0:
        return {'hashes': np.empty(0, np.uint64), 'ranks': np.empty(0, np.int32)}
    # driver-side build over the whole vocabulary: unlike the per-worker
    # kernel connections (pinned to 1 thread), this one may use multiple
    # cores — the rank sort over multi-million-token vocabularies is a
    # serial-floor component of every join otherwise.  Thread count is
    # capped at the RAY CPU budget so a num_cpus=8 session doesn't borrow
    # the whole box (keeps the two-level scaling measurement honest).
    import duckdb
    import ray
    con = duckdb.connect()
    if ray.is_initialized():
        con.execute(f'SET threads TO {max(1, session_cpus())}')
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
                     by_hash: bool) -> np.ndarray:
    """Rank (1 = rarest) of every entry of a token dictionary, from ONE
    sort of the distinct tokens: ascending ``df``, ties by the token's
    bytes — ``make_rank_lookup``'s DuckDB ``ORDER BY count, token`` — or,
    ``by_hash``, by its 64-bit hash, ``fused_rank_lookup``'s order.  Equal
    hashes stay in dictionary order: the ranks index ids, not hashes, so a
    collision cannot merge two tokens."""
    if len(df) == 0:
        return np.empty(0, np.int64)
    if by_hash:
        order = np.lexsort((_token_hashes(dictionary), df))
    else:
        by_token = pc.sort_indices(dictionary).to_numpy()
        order = by_token[np.argsort(df[by_token], kind='stable')]
    rank = np.empty(len(df), np.int64)
    rank[order] = np.arange(1, len(df) + 1)
    return rank


def _fused_rank_build(salt_df_threshold, max_grid, threads, *blocks):
    """Remote body for ``fused_rank_lookup``: concat the combiner partial
    blocks (zero-copy object-store reads) and run one DuckDB hash aggregate
    + radix sort.  Returns (lut, heavy, collision_flag); the lut never
    touches the driver — callers pass the returned object REF to the rank
    stage."""
    import duckdb
    parts = []
    for t in blocks:
        if not isinstance(t, pa.Table):
            t = pa.Table.from_pandas(t, preserve_index=False)
        if len(t) and 'token' in t.column_names:
            parts.append(t)
    if not parts:
        return ({'hashes': np.empty(0, np.uint64),
                 'ranks': np.empty(0, np.int32)}, {}, False, 0)
    merged = pa.concat_tables(parts)
    con = duckdb.connect()
    con.execute(f'SET threads TO {max(1, int(threads))}')
    con.register('t_partials', merged)
    con.execute('CREATE TEMP TABLE t_o1 AS '
                'SELECT hash(token) AS h, sum(partial) AS c '
                'FROM t_partials GROUP BY token '
                'ORDER BY c, hash(token)')
    res = con.execute('SELECT h, CAST(rowid + 1 AS INTEGER) AS rnk '
                      'FROM t_o1 ORDER BY h').arrow()
    hot = con.execute(
        'SELECT CAST(rowid + 1 AS BIGINT) AS rnk, CAST(c AS BIGINT) AS c '
        f'FROM t_o1 WHERE c >= {int(salt_df_threshold)}').arrow()
    # total token OCCURRENCES across the corpus = exact length of the
    # broadcast signature table's int32 rank_flat payload — the gate
    # between the broadcast and distributed join regimes keys on this,
    # not on the (much larger) tokenized string bytes
    tot = con.execute('SELECT CAST(sum(c) AS BIGINT) FROM t_o1').fetchone()[0]
    con.close()
    sh = res['h'].to_numpy().astype(np.uint64)
    rnk = res['rnk'].to_numpy().astype(np.int32)
    n = len(sh)
    if n > 1 and bool((sh[1:] == sh[:-1]).any()):  # pragma: no cover
        return None, None, True, 0
    heavy: dict = {}
    for hidx, (rk, c) in enumerate(zip(hot['rnk'].to_pylist(),
                                       hot['c'].to_pylist())):
        g = int(min(max_grid,
                    max(2, round((c / salt_df_threshold) ** 0.5) + 1)))
        heavy[int(rk)] = (hidx, g)
    return {'hashes': sh, 'ranks': rnk}, heavy, False, int(tot or 0)


def _vocab_shard(shard: int, nshards: int, *blocks):
    """Sharded vocabulary build, phase A: aggregate the token-hash range
    ``hash >> shift == shard`` of the combiner partials.  Returns, ordered
    by hash within the shard: (hashes, counts, li) where li is the token's
    index within its count group in (count, hash) order — plus the shard's
    count-value histogram (cv, cf), a collision flag, and the occurrence
    total.  Hash-range sharding makes the within-count cross-shard order
    equal the global hash order, so stitching preserves the exact
    (count asc, token-hash asc) rank semantics of the single-task build."""
    import duckdb
    shift = 64 - max(1, (int(nshards) - 1).bit_length())
    lo = np.uint64(int(shard) << shift)
    hi = np.uint64((int(shard) + 1) << shift) if shard + 1 < nshards else None
    parts = []
    for t in blocks:
        if not isinstance(t, pa.Table):
            t = pa.Table.from_pandas(t, preserve_index=False)
        if len(t) == 0 or 'token' not in t.column_names:
            continue
        # blocks are hash-sorted by the combiner: the shard's range is a
        # zero-copy binary-search slice, not a scan
        hcol = t['h'].to_numpy(zero_copy_only=False)
        a = int(np.searchsorted(hcol, lo, 'left'))
        b = int(np.searchsorted(hcol, hi, 'left')) if hi is not None \
            else len(hcol)
        if b > a:
            parts.append(t.slice(a, b - a))
    empty = (np.empty(0, np.uint64), np.empty(0, np.int64),
             np.empty(0, np.int64), np.empty(0, np.int64),
             np.empty(0, np.int64), False, 0)
    if not parts:
        return empty
    merged = pa.concat_tables(parts)
    con = duckdb.connect()
    con.execute('SET threads TO 1')  # matches the task's num_cpus=1
    con.register('t_partials', merged)
    res = con.execute("""
        SELECT any_value(h) AS h, sum(partial) AS c
        FROM t_partials GROUP BY token""").arrow()
    con.close()
    if len(res) == 0:
        return empty
    h = res['h'].to_numpy().astype(np.uint64)
    c = res['c'].to_numpy().astype(np.int64)
    order = np.lexsort((h, c))
    h_s, c_s = h[order], c[order]
    # duplicate hash across DISTINCT tokens (counts were grouped by token,
    # so equal adjacent hashes after the sort mean a real collision)
    hh = np.sort(h)
    coll = bool(len(hh) > 1 and (hh[1:] == hh[:-1]).any())
    firstc = np.concatenate(([True], c_s[1:] != c_s[:-1]))
    starts = np.where(firstc, np.arange(len(c_s)), 0)
    li = np.arange(len(c_s)) - np.maximum.accumulate(starts)
    cv, cf64 = np.unique(c_s, return_counts=True)
    oh = np.argsort(h_s, kind='stable')
    return (h_s[oh], c_s[oh], li[oh], cv, cf64.astype(np.int64),
            coll, int(c.sum()))


def _vocab_offsets(pieces):
    """Global rank offsets from the per-shard count-value histograms.
    rank(token) = 1 + base(count) + prefix(shard, count) + li, where base
    is the exclusive total below the count value and prefix the same-count
    mass in lower hash ranges (hash-contiguous shards, so within-count
    cross-shard order == global hash order)."""
    K = len(pieces)
    all_cv = np.unique(np.concatenate([p[3] for p in pieces])) \
        if pieces else np.empty(0, np.int64)
    ncv = len(all_cv)
    f = np.zeros((K, ncv), dtype=np.int64)
    for s, p in enumerate(pieces):
        if len(p[3]):
            f[s, np.searchsorted(all_cv, p[3])] = p[4]
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


def _vocab_stitch(salt_df_threshold, max_grid, *pieces):
    """In-process composition of offsets -> rank pieces -> concat; the
    reference semantics of the distributed three-round flow in
    ``fused_rank_lookup`` (and the form the unit test pins)."""
    all_cv, base, prefix = _vocab_offsets(pieces)
    ranked = [_vocab_rank_piece(all_cv, base, prefix[s], salt_df_threshold, p)
              for s, p in enumerate(pieces)]
    lut, heavy = _vocab_concat(salt_df_threshold, max_grid, *ranked)
    coll = any(bool(p[5]) for p in pieces)
    tot = sum(int(p[6]) for p in pieces)
    return lut, heavy, coll, int(tot)


# sharded vocabulary build kicks in above this partial-row total; below it
# a single merge task is faster than K-task scheduling
_VOCAB_SHARD_MIN_ROWS = 2_000_000


def fused_rank_lookup(tokenized, salt_df_threshold: int,
                      max_grid: int = 16) -> tuple:
    """One-pass ordering artifact for the hash-tie join path: per-block
    combiner partials feed a single DuckDB parallel hash aggregate +
    radix sort (count asc, token-hash tie) that yields the rank lookup AND
    the heavy-token table — replaces the
    token_frequencies → make_rank_lookup → heavy_token_table chain
    (three serial vocabulary passes) with one.  The merge runs in a Ray
    task over the partial-block REFS (the driver never streams the
    partials).  Returns (lut_ref: ObjectRef, heavy: dict,
    total_token_occurrences: int — the broadcast-gate size driver)."""
    import ray

    from .tokenize import partial_token_counts_hashed
    partial = tokenized.map_batches(partial_token_counts_hashed,
                                    batch_format='pyarrow',
                                    batch_size=None).materialize()
    refs = []
    for bundle in partial.iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
    if not refs:
        return (ray.put({'hashes': np.empty(0, np.uint64),
                         'ranks': np.empty(0, np.int32)}), {}, 0)
    cpus = session_cpus()
    if partial.count() >= _VOCAB_SHARD_MIN_ROWS:
        # three-round sharded build (the single merge task was 57% of the
        # flagship matches stage at 1.5M records): K parallel hash-range
        # slice+aggregate tasks; a tiny driver-side histogram exchange; K
        # parallel rank-assignment tasks; one pure-concat stitch.  The
        # driver reads only the small histogram fields of each piece
        # (numpy payloads resolve as zero-copy plasma views).
        nshards = 1 << max(2, min(5, cpus.bit_length() - 1))
        shard_task = ray.remote(num_cpus=1)(_vocab_shard)
        piece_refs = [shard_task.remote(s, nshards, *refs)
                      for s in range(nshards)]
        pieces = ray.get(piece_refs)
        coll = any(bool(p[5]) for p in pieces)
        tot = sum(int(p[6]) for p in pieces)
        all_cv, base, prefix = _vocab_offsets(pieces)
        rank_task = ray.remote(num_cpus=1)(_vocab_rank_piece)
        ranked_refs = [rank_task.remote(all_cv, base, prefix[s],
                                        salt_df_threshold, piece_refs[s])
                       for s in range(nshards)]
        concat_task = ray.remote(num_cpus=1, num_returns=2)(_vocab_concat)
        lut_ref, heavy_ref = concat_task.remote(salt_df_threshold, max_grid,
                                                *ranked_refs)
        heavy = ray.get(heavy_ref)
    else:
        # the merge's DuckDB runs as many threads as the task holds CPUs
        ncpu = cpu_request(max(2, min(8, cpus // 2)))
        builder = ray.remote(num_cpus=ncpu, num_returns=4)(_fused_rank_build)
        lut_ref, heavy_ref, coll_ref, tot_ref = builder.remote(
            salt_df_threshold, max_grid, ncpu, *refs)
        heavy = ray.get(heavy_ref)
        tot = int(ray.get(tot_ref))
        coll = bool(ray.get(coll_ref))
    if coll:  # pragma: no cover
        # vocabulary hash collision: rebuild exactly via the slow chain
        from .tokenize import token_frequencies as _tf
        freq = _tf(tokenized)
        lut = make_rank_lookup(freq)
        return (ray.put(lut),
                heavy_token_table(freq, lut, salt_df_threshold, max_grid),
                tot)
    return lut_ref, heavy, tot


# Per-worker-process cache for the exact-fallback pandas Index (collision
# case only; the hash path needs no per-worker state).
_ORD_INDEX_CACHE: dict = {}


def _fallback_index(ref_key, tokens_arr):  # pragma: no cover
    idx = _ORD_INDEX_CACHE.get(ref_key)
    if idx is None:
        import pandas as pd
        idx = pd.Index(tokens_arr.to_pandas())
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
        th = _token_hashes(token_values)
        # dedup + sort the probes first: token batches repeat heavily, and
        # sorted probes walk the (DRAM-resident, multi-million-entry) LUT
        # monotonically instead of issuing a random ~24-miss binary search
        # per occurrence
        uh, inv = np.unique(th, return_inverse=True)
        pos = np.minimum(np.searchsorted(sh, uh), len(sh) - 1)
        ranks_u = np.where(sh[pos] == uh, ranks[pos], 0).astype(np.int64)
        return ranks_u[inv]
    idx = _fallback_index(ref_key, lut['tokens'])  # pragma: no cover
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

    The ordering artifact (``make_rank_lookup`` / ``fused_rank_lookup``'s
    sorted token hashes and their ranks) resolves from the object store
    ZERO-COPY; each batch maps its tokens to ranks with one hash pass and
    one binary search over the distinct hashes (``map_tokens_to_ranks``),
    and ``rank_rows`` sorts every row's ranks with one int64 key — no
    per-token Python work.  ``sz`` is the token count under the
    tokenizer's set/bag semantics.
    """

    def __init__(self, ordering_ref, sim_type: str, threshold, qval=None,
                 keep_string: bool = False):
        self.ordering_ref = ordering_ref  # make_rank_lookup payload (or ref)
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
