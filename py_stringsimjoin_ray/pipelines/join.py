"""Public join API — reference-parity surface on Ray Data.

Each join mirrors the 15-argument surface of the reference's dispatchers
(e.g. the reference's ``join/jaccard_join.py:3-112``) and runs, like the
``filter_tables`` candidates modes, through ``match_pairs_dataset``: the
size-gated local route (``stages/localjoin.py``), else a Ray Data pipeline
(SURVEY.md §7.0):

    read → tokenize(map_batches) → vocabulary (``fused_rank_lookup``:
    per-block combiners, then Ray tasks build the ordering artifact, an
    object ref) → rank+prefix(map_batches) → slim-postings pipeline
    (``stages/slimjoin.py``: signature dedup, rank-free postings with
    heavy-token grid salting, candgen, verify) → matches

Inputs may be ``pandas.DataFrame`` or ``ray.data.Dataset``.  With
``output='pandas'`` (default, reference parity) the result is a DataFrame
with a dense ``_id`` column; with ``output='dataset'`` a Dataset of match
rows (no ``_id`` by default — dense global numbering is a deliberate
non-goal at web scale, SURVEY.md §7.4 — but ``dense_id=True`` opts into a
streaming 0..N-1 ``_id`` via ``add_dense_id``'s counter-actor range
allotment, VERDICT r3 #8).
"""

from __future__ import annotations

from math import floor

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..core import validation as V
from ..core.tokenizers import QgramTokenizer
from ..stages.postings import RankPrefixStage, hash_tie
# the string-path vocabulary chain: no route calls it; it is the tests'
# oracle, and ``ssjbench/trace.py`` wraps these names on this module
from ..stages.postings import heavy_token_table, make_rank_lookup  # noqa: F401
from ..stages.tokenize import TokenizeStage
from ..stages.tokenize import token_frequencies  # noqa: F401
from ..state.session import block_count, session_cpus

# cap on shuffle buckets; the per-join formula scales buckets with input
# rows (rows/400) so big corpora get fine-grained, cache-friendly kernel
# groups — measured ~25% kernel win at 744k records with 2048 buckets
DEFAULT_NUM_BUCKETS = 4096
# Salting bounds per-bucket candidate work at ~threshold^2 pair checks per
# token; qgram vocabularies (small alphabets, high df) need a much lower
# threshold than the old 20000 — measured 1.5-3x wall-time wins on qgram
# joins at sf0.1 with no regression on word corpora.
DEFAULT_SALT_DF_THRESHOLD = 300
# allow_empty key sets the pandas assembler collects on the driver;
# past it, output='dataset' attaches the empty cross product distributed
_EMPTY_KEYS_GATE = 5_000_000
# rows per broadcast chunk of the smaller side of an empty / missing cross
# product (the driver holds one chunk at a time)
_CROSS_CHUNK_ROWS = 200_000


def _to_dataset(table) -> ray.data.Dataset:
    if isinstance(table, pd.DataFrame):
        return ray.data.from_pandas(table.reset_index(drop=True))
    return table


def _remove_redundant_attrs(out_attrs, key_attr):
    if out_attrs is None:
        return None
    uniq, seen = [], set()
    for a in out_attrs:
        if a == key_attr or a in seen:
            continue
        seen.add(a)
        uniq.append(a)
    return uniq


def output_header(l_key_attr, r_key_attr, l_out_attrs, r_out_attrs,
                  l_out_prefix, r_out_prefix):
    header = [l_out_prefix + l_key_attr, r_out_prefix + r_key_attr]
    if l_out_attrs:
        header += [l_out_prefix + a for a in l_out_attrs]
    if r_out_attrs:
        header += [r_out_prefix + a for a in r_out_attrs]
    return header


class _JoinConfig:
    def __init__(self, sim_type, tokenizer, threshold, comp_op, allow_empty,
                 allow_missing, out_sim_score, mode='join',
                 num_buckets=DEFAULT_NUM_BUCKETS,
                 salt_df_threshold=DEFAULT_SALT_DF_THRESHOLD,
                 self_join=False, counter_name=None):
        self.sim_type = sim_type
        self.tokenizer = tokenizer
        self.threshold = threshold
        self.comp_op = comp_op
        self.allow_empty = allow_empty
        self.allow_missing = allow_missing
        self.out_sim_score = out_sim_score
        self.mode = mode
        self.num_buckets = num_buckets
        self.salt_df_threshold = salt_df_threshold
        self.self_join = self_join
        self.counter_name = counter_name
        self.qval = getattr(tokenizer, 'qval', None)
        # only EDIT_DISTANCE joins read the strings (Levenshtein verify);
        # the candidates modes never do
        self.keep_string = sim_type == 'EDIT_DISTANCE' and mode == 'join'
        # per-task candgen / verify volumes of a local-route join, appended
        # in process (``record_linkage`` resets and summarizes them)
        self.skew_volumes: dict = {}
        # name of the SkewStats actor the Dataset-route kernels report to
        self.skew_name: str | None = None
        # the caller already sized the input against the local caps and
        # chose the Dataset route
        self.skip_local_probe = False


def match_pairs_dataset(l_ds, r_ds, l_key_attr, r_key_attr,
                        l_join_attr, r_join_attr, cfg: _JoinConfig):
    """Core distributed pipeline → Dataset[(l_key, r_key[, _sim_score])],
    plus the empty-record key lists needed for the allow_empty fast path."""
    same_relation = (l_ds is r_ds and l_key_attr == r_key_attr
                     and l_join_attr == r_join_attr)

    # size-gated local route (stages/localjoin.py), for joins and the
    # filter_tables candidates modes: the slim-postings kernels run
    # in-process (or in one task, for the candidates modes; plain-task
    # fan-out for big candidate sets), skipping the Dataset stage barriers
    # that dominate small-input latency.  The probe-and-fetch is bounded
    # (limit(cap+1)), so huge inputs pay O(cap) rows to be routed to the
    # distributed pipeline below; a row cap of 0 skips the probe.
    from ..stages import localjoin
    if not cfg.skip_local_probe and localjoin.DEFAULT_LOCAL_MAX_ROWS > 0:
        res = localjoin.local_match_pairs(l_ds, r_ds, l_key_attr, r_key_attr,
                                          l_join_attr, r_join_attr, cfg,
                                          same_relation)
        if res is not None:
            return res

    l_ds, r_ds = _to_dataset(l_ds), _to_dataset(r_ds)

    def _tokenized(ds, key_attr, join_attr):
        tok = ds.select_columns(list(dict.fromkeys([key_attr, join_attr]))) \
            .map_batches(TokenizeStage(key_attr, join_attr, cfg.tokenizer,
                                       keep_string=cfg.keep_string),
                         batch_format='pyarrow').materialize()
        # the downstream shuffles' task counts follow the block count:
        # split a coarse input up to ``block_count`` blocks, never a tiny
        # table into empty ones, and never merge an input's own blocks
        want = block_count(tok.count())
        if want > tok.num_blocks():
            tok = tok.repartition(want).materialize()
        return tok

    tok_l = _tokenized(l_ds, l_key_attr, l_join_attr)
    if same_relation:
        tok_r = tok_l  # tokenize once; postings are emitted per side below
    else:
        tok_r = _tokenized(r_ds, r_key_attr, r_join_attr)

    # corpus-wide ordering over BOTH join columns (token_ordering.py:24-42
    # semantics; one global artifact instead of per-worker rebuilds), built
    # in Ray tasks: the lut stays off the driver (ref only).  For a
    # self-join doubling every count leaves the ordering unchanged, so the
    # single tokenized Dataset suffices.
    from ..stages.postings import fused_rank_lookup
    ordering_ref, heavy, tot_tokens = fused_rank_lookup(
        tok_l if same_relation else tok_l.union(tok_r),
        cfg.salt_df_threshold, by_hash=hash_tie(cfg))
    heavy_ref = ray.put(heavy) if heavy else None

    def ranked(tok_ds):
        # overlap_candidates posts every token: OVERLAP_COEFFICIENT's
        # prefix is the whole token list
        full = cfg.mode == 'overlap_candidates'
        prefix_type = 'OVERLAP_COEFFICIENT' if full else cfg.sim_type
        stage = RankPrefixStage(ordering_ref, prefix_type,
                                cfg.threshold, cfg.qval,
                                keep_string=cfg.keep_string)
        return tok_ds.map_batches(stage, batch_format='pyarrow')

    # a self-relation posts each record ONCE and every signature acts as
    # both sides — except for position_candidates, whose size bounds are
    # not symmetric under the bounds' rounding
    one_side = same_relation and cfg.mode != 'position_candidates'

    # Adapt bucket count to the input: each bucket group pays a fixed kernel
    # cost, so small inputs want fewer, fuller buckets; large inputs keep
    # cfg.num_buckets for packing/skew.
    rows_est = tok_l.count() + (0 if one_side else tok_r.count())
    cfg.num_buckets = int(min(cfg.num_buckets,
                              max(32, session_cpus() * 4,
                                  rows_est // 400)))

    # scale path: signature dedup + slim rank-free postings + verify-time
    # re-attach (stages/slimjoin.py) — candidate-generation shuffle volume
    # is O(p) per distinct record.  Gate hint = estimated bytes of the
    # broadcast signature table (_TsigBroadcast), NOT the tokenized
    # dataset: rank arrays are int32 (4 B/token occurrence, strings only for
    # EDIT_DISTANCE joins whose verify needs them, ~1 B/token for qgram
    # bags) plus ~64 B/record of keys/offsets/sizes.  The string-bytes
    # estimate routed corpora to the distributed path 2x+ too early
    # (measured 10x slower at 1.5M records than the broadcast kernel it was
    # protecting).
    from ..stages.slimjoin import slim_match_pairs
    per_tok = 5 if cfg.keep_string else 4
    size_hint = tot_tokens * per_tok + rows_est * 64
    pairs = slim_match_pairs(ranked(tok_l),
                             None if one_side else ranked(tok_r),
                             cfg, heavy_ref, one_side,
                             size_bytes_hint=size_hint)
    return pairs, _empty_key_sets(cfg, tok_l, tok_r)


def _empty_key_sets(cfg, tok_l, tok_r):
    """allow_empty fast path inputs: keys of records whose token list is
    empty (``join/set_sim_join.py:81-96`` semantics).  Returned LAZY, as
    key Datasets — the pandas assembler collects them behind a count gate,
    the dataset assembler crosses them distributed (VERDICT r2 #2/#3)."""
    empties = {}
    if cfg.allow_empty and cfg.sim_type not in ('OVERLAP', 'EDIT_DISTANCE') \
            and cfg.mode != 'overlap_candidates':
        def empty_keys(batch: pa.Table) -> pa.Table:
            lens = pa.compute.list_value_length(batch['tokens'])
            m = pa.compute.equal(lens, 0)
            return pa.table({'key': batch['key'].filter(m)})
        for name, tds in (('l', tok_l), ('r', tok_r)):
            empties[name] = tds.map_batches(empty_keys,
                                            batch_format='pyarrow')
    return empties


def _empties_to_lists(empties):
    """Driver-side key lists from an empties dict whose values may be lists
    (local fast path) or key Datasets.  Dataset collects are gated: a corpus
    whose join attr is mostly empty would otherwise OOM the driver."""
    out = {}
    for name, v in empties.items():
        if isinstance(v, ray.data.Dataset):
            v = v.materialize()
            n = v.count()
            if n > _EMPTY_KEYS_GATE:
                raise MemoryError(
                    f'allow_empty key set has {n} rows, beyond the driver '
                    f'collect gate ({_EMPTY_KEYS_GATE} rows). Use '
                    f"output='dataset' — the empty cross product attaches "
                    f'distributed there.')
            out[name] = [r['key'] for r in v.take_all()]
        else:
            out[name] = v
    return out


def _keys_dataset(v):
    """list-or-Dataset of keys → Dataset with column ``key``."""
    if isinstance(v, ray.data.Dataset):
        return v
    return ray.data.from_pandas(pd.DataFrame({'key': list(v)}))


def _cross_pairs_dataset(l_keys, r_keys, score):
    """``l_keys × r_keys`` as a Dataset[(l_key, r_key, _sim_score)],
    distributed: the smaller key set broadcasts in bounded chunks (one
    ``ray.put`` per chunk, driver holds one chunk at a time) while the
    larger side streams through ``map_batches``.  Returns None when either
    side is empty."""
    l_keys = _keys_dataset(l_keys).materialize()
    r_keys = _keys_dataset(r_keys).materialize()
    nl, nr = l_keys.count(), r_keys.count()
    if nl == 0 or nr == 0:
        return None
    small_is_l = nl <= nr
    small, big = (l_keys, r_keys) if small_is_l else (r_keys, l_keys)
    # broadcast ALL small-side chunk refs once and emit the cross product
    # in a SINGLE pass over the big side (ADVICE r3: one full big-side
    # scan per chunk + a deep union chain scaled with the small side);
    # the driver streams one chunk at a time while putting, and the
    # per-chunk generator output keeps each emitted block bounded
    refs = [ray.put(sb['key'].to_numpy(zero_copy_only=False))
            for sb in small.iter_batches(batch_format='pyarrow',
                                         batch_size=_CROSS_CHUNK_ROWS)]

    def cross(b: pa.Table):
        bk = b['key'].to_numpy(zero_copy_only=False)
        for ref in refs:
            sk = ray.get(ref)
            si = np.repeat(sk, len(bk))
            bi = np.tile(bk, len(sk))
            lcol, rcol = (si, bi) if small_is_l else (bi, si)
            yield pa.table({'l_key': pa.array(lcol),
                            'r_key': pa.array(rcol),
                            '_sim_score': pa.array(
                                np.full(len(lcol), score, np.float64))})
    cross.__name__ = 'cross_pairs'
    return big.map_batches(cross, batch_format='pyarrow')


def _null_split_keys(table, key_attr, join_attr):
    """(null-join-attr keys, non-null keys) as key Datasets."""
    ds = _to_dataset(table).select_columns(
        list(dict.fromkeys([key_attr, join_attr])))

    def nulls(b: pa.Table) -> pa.Table:
        m = pa.compute.is_null(b[join_attr])
        return pa.table({'key': b[key_attr].filter(m)})
    nulls.__name__ = 'null_keys'

    def notnulls(b: pa.Table) -> pa.Table:
        m = pa.compute.is_valid(b[join_attr])
        return pa.table({'key': b[key_attr].filter(m)})
    notnulls.__name__ = 'notnull_keys'
    return (ds.map_batches(nulls, batch_format='pyarrow'),
            ds.map_batches(notnulls, batch_format='pyarrow'))


def _score_to_float(pairs_ds):
    """Normalize the pair stream for a union with NaN-scored extras:
    `_sim_score` cast to float64, added as all-null when the stream has no
    score column (filter candsets emit bare key pairs)."""
    def f(b: pa.Table) -> pa.Table:
        if '_sim_score' not in b.column_names:
            return b.append_column('_sim_score',
                                   pa.nulls(len(b), pa.float64()))
        if b['_sim_score'].type != pa.float64():
            i = b.column_names.index('_sim_score')
            b = b.set_column(i, '_sim_score',
                             b['_sim_score'].cast(pa.float64()))
        return b
    f.__name__ = 'score_to_float'
    return pairs_ds.map_batches(f, batch_format='pyarrow')


def _dataset_with_extras(pairs, empties, cfg, ltable, rtable,
                         l_key_attr, r_key_attr, l_join_attr, r_join_attr):
    """``output='dataset'`` assembler: attach the allow_empty (∅,∅)
    score-1.0 pairs and the allow_missing null cross-products to the match
    stream, fully distributed (the pandas assembler's semantics —
    ``set_sim_join.py:81-96``, ``utils/missing_value_handler.py:10-92`` —
    without the driver materialization).  Schema stays
    (l_key, r_key, _sim_score)."""
    pairs_ds = _to_dataset(pairs) if isinstance(pairs, pd.DataFrame) else pairs
    parts = []
    if 'l' in empties and 'r' in empties:
        c = _cross_pairs_dataset(empties['l'], empties['r'], 1.0)
        if c is not None:
            parts.append(c)
    if cfg.allow_missing:
        l_null, l_notnull = _null_split_keys(ltable, l_key_attr, l_join_attr)
        r_null, _ = _null_split_keys(rtable, r_key_attr, r_join_attr)
        r_all = _to_dataset(rtable).select_columns([r_key_attr]) \
            .map_batches(lambda b: pa.table({'key': b[b.column_names[0]]}),
                         batch_format='pyarrow')
        # L-null × all R, then L-non-null × R-null: null×null pairs emitted
        # exactly once (reference's two loops)
        for lk, rk in ((l_null, r_all), (l_notnull, r_null)):
            c = _cross_pairs_dataset(lk, rk, np.nan)
            if c is not None:
                parts.append(c)
    if not parts:
        return pairs_ds
    out = _score_to_float(pairs_ds)
    for p in parts:
        out = out.union(p)
    return out


def _missing_pairs_pandas(l_pd, r_pd, l_key_attr, r_key_attr,
                          l_join_attr, r_join_attr,
                          l_out_attrs, r_out_attrs,
                          l_out_prefix, r_out_prefix, out_sim_score):
    """allow_missing cross products, reproducing
    ``utils/missing_value_handler.py:10-92``: L-null × (all R), plus
    R-null × (L non-null); every missing pair carries a NaN score when
    ``out_sim_score``."""
    header = output_header(l_key_attr, r_key_attr, l_out_attrs, r_out_attrs,
                           l_out_prefix, r_out_prefix)

    def cross(ldf, rdf):
        nl, nr = len(ldf), len(rdf)
        if nl == 0 or nr == 0:
            return None
        li = np.repeat(np.arange(nl), nr)
        ri = np.tile(np.arange(nr), nl)
        cols = [ldf[l_key_attr].to_numpy()[li], rdf[r_key_attr].to_numpy()[ri]]
        for a in (l_out_attrs or []):
            cols.append(ldf[a].to_numpy()[li])
        for a in (r_out_attrs or []):
            cols.append(rdf[a].to_numpy()[ri])
        return pd.DataFrame(dict(zip(header, cols)))

    # L-null × all R, then R-null × L-non-null — null×null emitted exactly
    # once, matching the reference's two loops
    parts = [cross(l_pd[pd.isnull(l_pd[l_join_attr])], r_pd),
             cross(l_pd[pd.notnull(l_pd[l_join_attr])],
                   r_pd[pd.isnull(r_pd[r_join_attr])])]
    parts = [p for p in parts if p is not None]
    out = (pd.concat(parts, ignore_index=True) if parts
           else pd.DataFrame(columns=header))
    if out_sim_score:
        out['_sim_score'] = np.nan
    return out


def content_signature(table, cols) -> str:
    """Order-independent content signature of the given columns:
    ``<row count>:<xor of per-row hashes>``.  pandas inputs hash every row
    (driver-resident already); Dataset inputs hash a bounded prefix sample
    (4096 rows) plus the exact row count, so a same-cardinality content
    change beyond the sample can still alias — callers with stronger
    lineage (file mtimes etc.) should pass ``input_fingerprint``
    explicitly (``state/manifests.file_fingerprint``)."""
    cols = list(dict.fromkeys(cols))
    if isinstance(table, pd.DataFrame):
        sub, n = table[cols], len(table)
    else:
        sub = table.select_columns(cols).limit(4096).to_pandas()
        n = table.count()
    if len(sub):
        h = pd.util.hash_pandas_object(sub, index=False).to_numpy()
        acc = int(np.bitwise_xor.reduce(h))
    else:
        acc = 0
    return f'{n}:{acc:016x}'


def _join_fingerprint(sim_type, tokenizer, threshold, comp_op,
                      allow_empty, allow_missing, ltable, rtable,
                      l_key_attr, r_key_attr, l_join_attr, r_join_attr):
    """Default checkpoint fingerprint: join parameters + a content
    signature of each input's key+join columns (ADVICE r3: row counts
    alone let a same-cardinality content change silently reuse stale
    checkpointed pairs).  Callers with stronger lineage (file mtimes etc.)
    pass ``input_fingerprint`` explicitly
    (state/manifests.file_fingerprint)."""
    import hashlib
    import json as _json

    tok_sig = (type(tokenizer).__name__ if tokenizer is not None else None,
               getattr(tokenizer, 'qval', None),
               getattr(tokenizer, 'delim_set', None) and
               sorted(tokenizer.delim_set))
    payload = [sim_type, repr(threshold), comp_op, bool(allow_empty),
               bool(allow_missing), list(tok_sig), l_key_attr, r_key_attr,
               l_join_attr, r_join_attr,
               content_signature(ltable, [l_key_attr, l_join_attr]),
               content_signature(rtable, [r_key_attr, r_join_attr])]
    return hashlib.md5(_json.dumps(payload).encode()).hexdigest()


def add_dense_id(ds: ray.data.Dataset, col: str = '_id') -> ray.data.Dataset:
    """Prepend a dense ``_id`` column (0..N-1, unique, no gaps) to a
    streaming Dataset: a zero-CPU counter actor allots one contiguous id
    range per batch, so no pass over the data is ever driver-side.  Ids
    are dense but their assignment order follows block arrival — stable
    within a run, not across runs (the pandas assembler's ``_id`` is the
    deterministic reference surface; this is the opt-in dataset-mode
    equivalent, VERDICT r3 #8)."""
    @ray.remote(num_cpus=0)
    class _IdAllocator:
        def __init__(self):
            self.n = 0

        def allot(self, k: int) -> int:
            s = self.n
            self.n += int(k)
            return s

    alloc = _IdAllocator.remote()

    def with_id(b: pa.Table) -> pa.Table:
        start = ray.get(alloc.allot.remote(len(b)))
        ids = pa.array(np.arange(start, start + len(b), dtype=np.int64))
        cols = {col: ids}
        for name in b.column_names:
            cols[name] = b[name]
        return pa.table(cols)
    with_id.__name__ = 'dense_id'
    return ds.map_batches(with_id, batch_format='pyarrow')


def _assemble_pandas(pairs_ds, empties, l_table, r_table, l_key_attr,
                     r_key_attr, l_join_attr, r_join_attr, cfg,
                     l_out_attrs, r_out_attrs, l_out_prefix, r_out_prefix,
                     out_sim_score, score_dtype=None, extras_attached=False):
    """Materialize matches, add allow_empty / allow_missing pairs, attach
    output attrs, set the reference output header and dense _id."""
    l_pd = l_table if isinstance(l_table, pd.DataFrame) else l_table.to_pandas()
    r_pd = r_table if isinstance(r_table, pd.DataFrame) else r_table.to_pandas()

    pairs = (pairs_ds if isinstance(pairs_ds, pd.DataFrame)
             else pairs_ds.to_pandas())
    if len(pairs) == 0:
        pairs = pd.DataFrame({'l_key': [], 'r_key': [], '_sim_score': []})
    if '_sim_score' not in pairs.columns:
        pairs['_sim_score'] = np.nan

    # allow_empty fast path: (∅,∅) pairs, score 1.0, comp_op bypassed —
    # bug-compatible with set_sim_join.py:81-96.  Dataset-valued key sets
    # collect behind the count gate (VERDICT r2 #3).  A checkpoint-resumed
    # pair stream already carries the empty/missing classes.
    empties = {} if extras_attached else _empties_to_lists(empties)
    le, re_ = empties.get('l', []), empties.get('r', [])
    if le and re_:
        el = np.repeat(np.asarray(le, dtype=object), len(re_))
        er = np.tile(np.asarray(re_, dtype=object), len(le))
        pairs = pd.concat([pairs, pd.DataFrame(
            {'l_key': el, 'r_key': er, '_sim_score': 1.0})], ignore_index=True)

    header = output_header(l_key_attr, r_key_attr, l_out_attrs, r_out_attrs,
                           l_out_prefix, r_out_prefix)
    out = pd.DataFrame({header[0]: pairs['l_key'], header[1]: pairs['r_key']})
    if l_out_attrs:
        lmap = l_pd.set_index(l_key_attr)
        for a in l_out_attrs:
            out[l_out_prefix + a] = lmap[a].reindex(pairs['l_key']).to_numpy()
    if r_out_attrs:
        rmap = r_pd.set_index(r_key_attr)
        for a in r_out_attrs:
            out[r_out_prefix + a] = rmap[a].reindex(pairs['r_key']).to_numpy()
    if out_sim_score:
        score = pairs['_sim_score']
        if score_dtype is not None and not score.isna().any():
            score = score.astype(score_dtype)
        out['_sim_score'] = score.to_numpy()

    if cfg.allow_missing and not extras_attached:
        miss = _missing_pairs_pandas(l_pd, r_pd, l_key_attr, r_key_attr,
                                     l_join_attr, r_join_attr,
                                     l_out_attrs, r_out_attrs,
                                     l_out_prefix, r_out_prefix, out_sim_score)
        out = pd.concat([out, miss], ignore_index=True)

    out.insert(0, '_id', range(len(out)))
    return out


def _set_sim_join(sim_type, ltable, rtable, l_key_attr, r_key_attr,
                  l_join_attr, r_join_attr, tokenizer, threshold,
                  comp_op='>=', allow_empty=True, allow_missing=False,
                  l_out_attrs=None, r_out_attrs=None,
                  l_out_prefix='l_', r_out_prefix='r_',
                  out_sim_score=True, output='pandas', self_join=False,
                  num_buckets=DEFAULT_NUM_BUCKETS,
                  salt_df_threshold=DEFAULT_SALT_DF_THRESHOLD,
                  validate_keys=None, score_dtype=None,
                  checkpoint_dir=None, input_fingerprint=None,
                  dense_id=False):
    # ---- validation (mirrors jaccard_join_py.py:107-142) ----
    V.validate_input_table(ltable, 'left table')
    V.validate_input_table(rtable, 'right table')
    l_cols, r_cols = V.table_columns(ltable), V.table_columns(rtable)
    V.validate_attr(l_key_attr, l_cols, 'key attribute', 'left table')
    V.validate_attr(r_key_attr, r_cols, 'key attribute', 'right table')
    V.validate_attr(l_join_attr, l_cols, 'join attribute', 'left table')
    V.validate_attr(r_join_attr, r_cols, 'join attribute', 'right table')
    V.validate_attr_type(l_join_attr, V.get_attr_type(ltable, l_join_attr),
                         'join attribute', 'left table')
    V.validate_attr_type(r_join_attr, V.get_attr_type(rtable, r_join_attr),
                         'join attribute', 'right table')
    if sim_type == 'OVERLAP':
        V.validate_tokenizer(tokenizer)
    else:
        V.validate_tokenizer_for_sim_measure(tokenizer, sim_type)
    V.validate_threshold(threshold, 'JACCARD' if sim_type == 'OVERLAP_COEFFICIENT'
                         else sim_type)
    V.validate_comp_op_for_sim_measure(comp_op, sim_type)
    V.validate_output_attrs(l_out_attrs, l_cols, r_out_attrs, r_cols)
    if validate_keys is None:
        validate_keys = isinstance(ltable, pd.DataFrame)
    if validate_keys:
        V.validate_key_attr(l_key_attr, ltable, 'left table')
        V.validate_key_attr(r_key_attr, rtable, 'right table')

    # set-measure joins force set semantics and restore the flag afterwards
    # (jaccard_join_py.py:144-148, 213-215)
    revert = False
    if not tokenizer.get_return_set():
        tokenizer.set_return_set(True)
        revert = True
    try:
        l_out_attrs = _remove_redundant_attrs(l_out_attrs, l_key_attr)
        r_out_attrs = _remove_redundant_attrs(r_out_attrs, r_key_attr)
        cfg = _JoinConfig(sim_type, tokenizer, threshold, comp_op, allow_empty,
                          allow_missing, out_sim_score, self_join=self_join,
                          num_buckets=num_buckets,
                          salt_df_threshold=salt_df_threshold)
        if checkpoint_dir:
            # north-rule resumability for the standalone join entry point
            # (VERDICT r2 #4): the full pair stream (verified matches +
            # empty/missing classes) checkpoints as partitioned Parquet
            # with a lineage manifest; a matching fingerprint skips the
            # whole pipeline on re-run.
            from ..state import manifests as mf
            fp = input_fingerprint or _join_fingerprint(
                sim_type, tokenizer, threshold, comp_op, allow_empty,
                allow_missing, ltable, rtable, l_key_attr, r_key_attr,
                l_join_attr, r_join_attr)
            if mf.is_complete(checkpoint_dir, 'pairs', fp):
                full = mf.read_stage(checkpoint_dir, 'pairs')
            else:
                pairs, empties = match_pairs_dataset(
                    ltable, rtable, l_key_attr, r_key_attr, l_join_attr,
                    r_join_attr, cfg)
                full = _dataset_with_extras(pairs, empties, cfg, ltable,
                                            rtable, l_key_attr, r_key_attr,
                                            l_join_attr, r_join_attr)
                full = mf.write_stage(full, checkpoint_dir, 'pairs', fp)
            if output == 'dataset':
                return add_dense_id(full) if dense_id else full
            return _assemble_pandas(full, {}, ltable, rtable, l_key_attr,
                                    r_key_attr, l_join_attr, r_join_attr,
                                    cfg, l_out_attrs, r_out_attrs,
                                    l_out_prefix, r_out_prefix,
                                    out_sim_score, score_dtype=score_dtype,
                                    extras_attached=True)
        pairs, empties = match_pairs_dataset(
            ltable, rtable, l_key_attr, r_key_attr, l_join_attr, r_join_attr, cfg)
        if output == 'dataset':
            out_ds = _dataset_with_extras(pairs, empties, cfg, ltable,
                                          rtable, l_key_attr, r_key_attr,
                                          l_join_attr, r_join_attr)
            return add_dense_id(out_ds) if dense_id else out_ds
        return _assemble_pandas(pairs, empties, ltable, rtable, l_key_attr,
                                r_key_attr, l_join_attr, r_join_attr, cfg,
                                l_out_attrs, r_out_attrs, l_out_prefix,
                                r_out_prefix, out_sim_score,
                                score_dtype=score_dtype)
    finally:
        if revert:
            tokenizer.set_return_set(False)


def jaccard_join(ltable, rtable, l_key_attr, r_key_attr, l_join_attr,
                 r_join_attr, tokenizer, threshold, comp_op='>=',
                 allow_empty=True, allow_missing=False, l_out_attrs=None,
                 r_out_attrs=None, l_out_prefix='l_', r_out_prefix='r_',
                 out_sim_score=True, **kw):
    """Jaccard join (reference: ``join/jaccard_join.py`` + py/cy twins)."""
    return _set_sim_join('JACCARD', ltable, rtable, l_key_attr, r_key_attr,
                         l_join_attr, r_join_attr, tokenizer, threshold,
                         comp_op, allow_empty, allow_missing, l_out_attrs,
                         r_out_attrs, l_out_prefix, r_out_prefix,
                         out_sim_score, **kw)


def cosine_join(ltable, rtable, l_key_attr, r_key_attr, l_join_attr,
                r_join_attr, tokenizer, threshold, comp_op='>=',
                allow_empty=True, allow_missing=False, l_out_attrs=None,
                r_out_attrs=None, l_out_prefix='l_', r_out_prefix='r_',
                out_sim_score=True, **kw):
    """Cosine join (reference: ``join/cosine_join.py``)."""
    return _set_sim_join('COSINE', ltable, rtable, l_key_attr, r_key_attr,
                         l_join_attr, r_join_attr, tokenizer, threshold,
                         comp_op, allow_empty, allow_missing, l_out_attrs,
                         r_out_attrs, l_out_prefix, r_out_prefix,
                         out_sim_score, **kw)


def dice_join(ltable, rtable, l_key_attr, r_key_attr, l_join_attr,
              r_join_attr, tokenizer, threshold, comp_op='>=',
              allow_empty=True, allow_missing=False, l_out_attrs=None,
              r_out_attrs=None, l_out_prefix='l_', r_out_prefix='r_',
              out_sim_score=True, **kw):
    """Dice join (reference: ``join/dice_join.py``)."""
    return _set_sim_join('DICE', ltable, rtable, l_key_attr, r_key_attr,
                         l_join_attr, r_join_attr, tokenizer, threshold,
                         comp_op, allow_empty, allow_missing, l_out_attrs,
                         r_out_attrs, l_out_prefix, r_out_prefix,
                         out_sim_score, **kw)


def overlap_coefficient_join(ltable, rtable, l_key_attr, r_key_attr,
                             l_join_attr, r_join_attr, tokenizer, threshold,
                             comp_op='>=', allow_empty=True,
                             allow_missing=False, l_out_attrs=None,
                             r_out_attrs=None, l_out_prefix='l_',
                             r_out_prefix='r_', out_sim_score=True, **kw):
    """Overlap-coefficient join (reference:
    ``join/overlap_coefficient_join_py.py``; full inverted index, unrounded
    score)."""
    return _set_sim_join('OVERLAP_COEFFICIENT', ltable, rtable, l_key_attr,
                         r_key_attr, l_join_attr, r_join_attr, tokenizer,
                         threshold, comp_op, allow_empty, allow_missing,
                         l_out_attrs, r_out_attrs, l_out_prefix, r_out_prefix,
                         out_sim_score, **kw)


def overlap_join(ltable, rtable, l_key_attr, r_key_attr, l_join_attr,
                 r_join_attr, tokenizer, threshold, comp_op='>=',
                 allow_empty=True, allow_missing=False, l_out_attrs=None,
                 r_out_attrs=None, l_out_prefix='l_', r_out_prefix='r_',
                 out_sim_score=True, **kw):
    """Overlap join (reference: ``join/overlap_join_py.py`` — delegates to
    OverlapFilter; integer overlap count is the score).  ``allow_empty`` is
    ignored for OVERLAP (reference treats it per measure)."""
    return _set_sim_join('OVERLAP', ltable, rtable, l_key_attr, r_key_attr,
                         l_join_attr, r_join_attr, tokenizer, threshold,
                         comp_op, False, allow_missing, l_out_attrs,
                         r_out_attrs, l_out_prefix, r_out_prefix,
                         out_sim_score, score_dtype=np.int64, **kw)


def edit_distance_join(ltable, rtable, l_key_attr, r_key_attr, l_join_attr,
                       r_join_attr, threshold, comp_op='<=',
                       allow_missing=False, l_out_attrs=None,
                       r_out_attrs=None, l_out_prefix='l_', r_out_prefix='r_',
                       out_sim_score=True, tokenizer=None, **kw):
    """Edit-distance join (reference: ``join/edit_distance_join_py.py``).

    Like the reference this is APPROXIMATE by design: only pairs sharing at
    least one qgram between their ordered prefixes are found
    (``edit_distance_join_py.py:45-56``).  The threshold is floored to int
    (``:160-161``) and the qgram tokenizer is forced to bag semantics
    (``:163-167``)."""
    if tokenizer is None:
        tokenizer = QgramTokenizer(qval=2)
    V.validate_tokenizer_for_sim_measure(tokenizer, 'EDIT_DISTANCE')
    V.validate_threshold(threshold, 'EDIT_DISTANCE')
    V.validate_comp_op_for_sim_measure(comp_op, 'EDIT_DISTANCE')
    threshold = int(floor(threshold))

    revert = False
    if tokenizer.get_return_set():
        tokenizer.set_return_set(False)
        revert = True
    try:
        V.validate_input_table(ltable, 'left table')
        V.validate_input_table(rtable, 'right table')
        l_cols, r_cols = V.table_columns(ltable), V.table_columns(rtable)
        V.validate_attr(l_key_attr, l_cols, 'key attribute', 'left table')
        V.validate_attr(r_key_attr, r_cols, 'key attribute', 'right table')
        V.validate_attr(l_join_attr, l_cols, 'join attribute', 'left table')
        V.validate_attr(r_join_attr, r_cols, 'join attribute', 'right table')
        V.validate_output_attrs(l_out_attrs, l_cols, r_out_attrs, r_cols)
        if isinstance(ltable, pd.DataFrame):
            V.validate_key_attr(l_key_attr, ltable, 'left table')
            V.validate_key_attr(r_key_attr, rtable, 'right table')

        l_out_attrs = _remove_redundant_attrs(l_out_attrs, l_key_attr)
        r_out_attrs = _remove_redundant_attrs(r_out_attrs, r_key_attr)
        cfg = _JoinConfig('EDIT_DISTANCE', tokenizer, threshold, comp_op,
                          False, allow_missing, out_sim_score,
                          **{k: kw[k] for k in ('num_buckets', 'salt_df_threshold',
                                                'self_join') if k in kw})
        checkpoint_dir = kw.get('checkpoint_dir')
        if checkpoint_dir:
            # same resumable-pairs protocol as _set_sim_join
            from ..state import manifests as mf
            fp = kw.get('input_fingerprint') or _join_fingerprint(
                'EDIT_DISTANCE', tokenizer, threshold, comp_op, False,
                allow_missing, ltable, rtable, l_key_attr, r_key_attr,
                l_join_attr, r_join_attr)
            if mf.is_complete(checkpoint_dir, 'pairs', fp):
                full = mf.read_stage(checkpoint_dir, 'pairs')
            else:
                pairs, empties = match_pairs_dataset(
                    ltable, rtable, l_key_attr, r_key_attr, l_join_attr,
                    r_join_attr, cfg)
                full = _dataset_with_extras(pairs, empties, cfg, ltable,
                                            rtable, l_key_attr, r_key_attr,
                                            l_join_attr, r_join_attr)
                full = mf.write_stage(full, checkpoint_dir, 'pairs', fp)
            if kw.get('output') == 'dataset':
                return add_dense_id(full) if kw.get('dense_id') else full
            return _assemble_pandas(full, {}, ltable, rtable, l_key_attr,
                                    r_key_attr, l_join_attr, r_join_attr,
                                    cfg, l_out_attrs, r_out_attrs,
                                    l_out_prefix, r_out_prefix,
                                    out_sim_score, score_dtype=np.int64,
                                    extras_attached=True)
        pairs, empties = match_pairs_dataset(
            ltable, rtable, l_key_attr, r_key_attr, l_join_attr, r_join_attr, cfg)
        if kw.get('output') == 'dataset':
            out_ds = _dataset_with_extras(pairs, empties, cfg, ltable,
                                          rtable, l_key_attr, r_key_attr,
                                          l_join_attr, r_join_attr)
            return add_dense_id(out_ds) if kw.get('dense_id') else out_ds
        # reference emits integer edit distances (dtype parity)
        return _assemble_pandas(pairs, empties, ltable, rtable, l_key_attr,
                                r_key_attr, l_join_attr, r_join_attr, cfg,
                                l_out_attrs, r_out_attrs, l_out_prefix,
                                r_out_prefix, out_sim_score,
                                score_dtype=np.int64)
    finally:
        if revert:
            tokenizer.set_return_set(True)
