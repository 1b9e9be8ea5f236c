"""Correctness-gate query registry: one entry per implemented operator
(SURVEY.md §2), each paired with an ANSI-SQL oracle that DuckDB can run on
the same parquet tables.  Column names/types match between the Ray pipeline
output and the SQL so the driver's order-insensitive value-hash compare
passes iff the semantics match.

Score-rounding note: queries that would emit set-measure scores with
denominators admitting exact-decimal-half ties (Python banker's rounding vs
SQL half-away) run with ``out_sim_score=False`` — the PAIR SET is the
semantic contract; scores are separately pinned by the unit-test oracles.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pandas as pd

import ray.data

from ..core.tokenizers import (QgramTokenizer, WhitespaceTokenizer,
                               WordQgramTokenizer)
from ..functions import textstats
from ..functions.profiler import profile_counts
from ..stages import ann, attach, cluster, dedup, localjoin, media
from . import filters, join, matcher
from .suffix_oracle import suffix_filter_oracle_sql


def _t(sf_dir: str, name: str) -> ray.data.Dataset:
    return ray.data.read_parquet(f'{sf_dir}/{name}.parquet')


def _ws():
    return WhitespaceTokenizer(return_set=True)


def _keys_int(df: pd.DataFrame, cols) -> pd.DataFrame:
    for c in cols:
        df[c] = df[c].astype(np.int64)
    return df


@contextlib.contextmanager
def _pinned(module, **constants):
    """Set a module's gate constants for one query (the regime-pinning
    queries), restored on exit, on error too."""
    prev = {k: getattr(module, k) for k in constants}
    for k, v in constants.items():
        setattr(module, k, v)
    try:
        yield
    finally:
        for k, v in prev.items():
            setattr(module, k, v)


# ------------------------------------------------------------------- joins

def q_jaccard_join_part(sf_dir):
    part = _t(sf_dir, 'part')
    out = join.jaccard_join(part, part, 'p_partkey', 'p_partkey', 'p_name',
                            'p_name', _ws(), 0.5)
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_jaccard_dense_id_part(sf_dir):
    """Dataset-mode join with the opt-in dense ``_id`` (VERDICT r3 #8):
    asserts the ids are a dense 0..N-1 range, then compares the pair
    stream to the shared jaccard oracle (ids themselves are
    assignment-ordered, so they stay out of the hashed columns)."""
    part = _t(sf_dir, 'part')
    ds = join.jaccard_join(part, part, 'p_partkey', 'p_partkey', 'p_name',
                           'p_name', _ws(), 0.5, output='dataset',
                           validate_keys=False, dense_id=True)
    out = ds.to_pandas()
    assert list(out.columns)[0] == '_id'
    assert sorted(out['_id']) == list(range(len(out))), 'ids not dense'
    out = out.rename(columns={'l_key': 'l_p_partkey',
                              'r_key': 'r_p_partkey'})
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_jaccard_two_relation_part(sf_dir):
    """Two-relation (R ≠ S) join through the FORCED sharded-broadcast scale
    path: the table is read as two distinct Datasets, so ``same_relation``
    is False and the postings carry side tags
    (``slimjoin.SlimPostingsStage(emit_sides=True)``), and a row cap of 0
    routes past the local fast path to the Dataset route's sharded Tsig
    plan — the exact path a cross-table linkage takes beyond the local
    caps.  Joining a table against an identical copy of
    itself must equal the self-join oracle (reference semantics:
    ``jaccard_join`` has no special casing for ltable == rtable —
    ``join/jaccard_join_py.py``)."""
    l_part = _t(sf_dir, 'part')
    r_part = _t(sf_dir, 'part')
    assert l_part is not r_part
    with _pinned(localjoin, DEFAULT_LOCAL_MAX_ROWS=0):
        out = join.jaccard_join(l_part, r_part, 'p_partkey', 'p_partkey',
                                'p_name', 'p_name', _ws(), 0.5)
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_cosine_join_part(sf_dir):
    part = _t(sf_dir, 'part')
    out = join.cosine_join(part, part, 'p_partkey', 'p_partkey', 'p_name',
                           'p_name', _ws(), 0.7)
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_dice_join_part(sf_dir):
    part = _t(sf_dir, 'part')
    out = join.dice_join(part, part, 'p_partkey', 'p_partkey', 'p_name',
                         'p_name', _ws(), 0.6)
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_overlap_join_part(sf_dir):
    part = _t(sf_dir, 'part')
    out = join.overlap_join(part, part, 'p_partkey', 'p_partkey', 'p_name',
                            'p_name', _ws(), 2)
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey', '_sim_score'])


def q_overlap_join_candgen_part(sf_dir):
    """The same OVERLAP join with the counting-kernel route disabled —
    the prefix-candgen + verify regime gets its own driver-hash-checked
    row (both regimes must produce the identical oracle pair set;
    routing is by relative threshold, stages/localjoin.py)."""
    part = _t(sf_dir, 'part')
    with _pinned(localjoin, _OVERLAP_COUNT_REL=0):
        out = join.overlap_join(part, part, 'p_partkey', 'p_partkey',
                                'p_name', 'p_name', _ws(), 2)
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey', '_sim_score'])


def q_overlap_join_gt_part(sf_dir):
    """``comp_op='>'`` through a full join at driver scale (the reference
    supports '>=', '>' and '=' on every join — ``join/overlap_join.py``
    comp_op doc; truth tables are unit-tested, this pins the strict
    operator end-to-end against SQL).  threshold=1 with '>' differs from
    every '>=' query's pair set at o=1, so a comp_op regression cannot
    hide behind an equal result."""
    part = _t(sf_dir, 'part')
    out = join.overlap_join(part, part, 'p_partkey', 'p_partkey', 'p_name',
                            'p_name', _ws(), 1, comp_op='>')
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey', '_sim_score'])


def q_overlap_coefficient_join_part(sf_dir):
    part = _t(sf_dir, 'part')
    out = join.overlap_coefficient_join(part, part, 'p_partkey', 'p_partkey',
                                        'p_name', 'p_name', _ws(), 0.7)
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_jaccard_out_attrs_part(sf_dir):
    """``l_out_attrs``/``r_out_attrs`` with CUSTOM prefixes through a full
    set-sim join (reference surface: ``join/jaccard_join.py``
    l_out_attrs/l_out_prefix docs; the disk-join queries cover out attrs
    on the ED path, this pins them on the set-sim path)."""
    part = _t(sf_dir, 'part')
    out = join.jaccard_join(part, part, 'p_partkey', 'p_partkey', 'p_name',
                            'p_name', _ws(), 0.5,
                            l_out_attrs=['p_brand'], r_out_attrs=['p_type'],
                            l_out_prefix='L_', r_out_prefix='R_')
    assert list(out.columns) == ['_id', 'L_p_partkey', 'R_p_partkey',
                                 'L_p_brand', 'R_p_type', '_sim_score'], \
        list(out.columns)
    return _keys_int(out[['L_p_partkey', 'R_p_partkey', 'L_p_brand',
                          'R_p_type', '_sim_score']].copy(),
                     ['L_p_partkey', 'R_p_partkey'])


def q_allow_missing_edit_distance_customer(sf_dir):
    """allow_missing=True on the EDIT_DISTANCE path: null join-attrs
    cross-pair with the other side exactly like the set-sim case
    (reference: ``utils/missing_value_handler.py`` shared by every join)."""
    cust = _t(sf_dir, 'customer').to_pandas()
    cust['c_name'] = cust['c_name'].mask(cust['c_custkey'] % 101 == 0)
    out = join.edit_distance_join(cust, cust, 'c_custkey', 'c_custkey',
                                  'c_name', 'c_name', 2,
                                  allow_missing=True, out_sim_score=False)
    return _keys_int(out[['l_c_custkey', 'r_c_custkey']].copy(),
                     ['l_c_custkey', 'r_c_custkey'])


def q_jaccard_join_supplier_qgram3(sf_dir):
    sup = _t(sf_dir, 'supplier')
    out = join.jaccard_join(sup, sup, 's_suppkey', 's_suppkey', 's_name',
                            's_name', QgramTokenizer(qval=3, return_set=True),
                            0.4, out_sim_score=False)
    return _keys_int(out[['l_s_suppkey', 'r_s_suppkey']].copy(),
                     ['l_s_suppkey', 'r_s_suppkey'])


def q_edit_distance_join_customer(sf_dir):
    cust = _t(sf_dir, 'customer')
    out = join.edit_distance_join(cust, cust, 'c_custkey', 'c_custkey',
                                  'c_name', 'c_name', 2)
    return _keys_int(out[['l_c_custkey', 'r_c_custkey', '_sim_score']].copy(),
                     ['l_c_custkey', 'r_c_custkey'])


# ----------------------------------------------------------------- filters

def q_overlap_filter_part(sf_dir):
    part = _t(sf_dir, 'part')
    f = filters.OverlapFilter(_ws(), 2)
    out = f.filter_tables(part, part, 'p_partkey', 'p_partkey', 'p_name',
                          'p_name', out_sim_score=True)
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey', '_sim_score'])


def q_size_filter_documents(sf_dir):
    docs = _t(sf_dir, 'documents')
    f = filters.SizeFilter(_ws(), 'JACCARD', 0.7)
    out = f.filter_tables(docs, docs, 'doc_id', 'doc_id', 'text', 'text')
    return _keys_int(out[['l_doc_id', 'r_doc_id']].copy(),
                     ['l_doc_id', 'r_doc_id'])


def q_prefix_filter_part(sf_dir):
    part = _t(sf_dir, 'part')
    f = filters.PrefixFilter(_ws(), 'JACCARD', 0.8)
    out = f.filter_tables(part, part, 'p_partkey', 'p_partkey', 'p_name',
                          'p_name')
    return _keys_int(out[['l_p_partkey', 'r_p_partkey']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_prefix_filter_salted_part(sf_dir):
    """PrefixFilter.filter_tables under FORCED heavy-token salting (every
    token df >= 2 is grid-salted): the output must be identical to the
    unsalted run — this pins the round-5 grid-cell-range fix (overlapping
    per-token strides polluted cell-local memberships and emitted
    duplicate pairs) with a driver-hash-checked row."""
    part = _t(sf_dir, 'part')
    f = filters.PrefixFilter(_ws(), 'JACCARD', 0.8)
    out = f.filter_tables(part, part, 'p_partkey', 'p_partkey', 'p_name',
                          'p_name', salt_df_threshold=2)
    return _keys_int(out[['l_p_partkey', 'r_p_partkey']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_prefix_filter_dataset_part(sf_dir):
    """PrefixFilter.filter_tables through output='dataset' — the candset
    stays a distributed pair stream (the 100-TB path feeding
    filter_candset / apply_matcher); rows equal the pandas surface."""
    part = _t(sf_dir, 'part')
    f = filters.PrefixFilter(_ws(), 'JACCARD', 0.8)
    ds = f.filter_tables(part, part, 'p_partkey', 'p_partkey', 'p_name',
                         'p_name', output='dataset')
    out = ds.to_pandas().rename(columns={'l_key': 'l_p_partkey',
                                         'r_key': 'r_p_partkey'})
    return _keys_int(out[['l_p_partkey', 'r_p_partkey']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_position_filter_part(sf_dir):
    part = _t(sf_dir, 'part')
    f = filters.PositionFilter(_ws(), 'JACCARD', 0.6)
    out = f.filter_tables(part, part, 'p_partkey', 'p_partkey', 'p_name',
                          'p_name')
    return _keys_int(out[['l_p_partkey', 'r_p_partkey']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_suffix_filter_part(sf_dir):
    part = _t(sf_dir, 'part')
    f = filters.SuffixFilter(_ws(), 'JACCARD', 0.6)
    out = f.filter_tables(part, part, 'p_partkey', 'p_partkey', 'p_name',
                          'p_name')
    return _keys_int(out[['l_p_partkey', 'r_p_partkey']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_apply_matcher_part(sf_dir):
    from ..core.measures import jaccard
    part = _t(sf_dir, 'part')
    cand = filters.OverlapFilter(_ws(), 1).filter_tables(
        part, part, 'p_partkey', 'p_partkey', 'p_name', 'p_name')
    out = matcher.apply_matcher(cand, 'l_p_partkey', 'r_p_partkey', part,
                                part, 'p_partkey', 'p_partkey', 'p_name',
                                'p_name', _ws(), jaccard, 0.5)
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_apply_matcher_dataset_part(sf_dir):
    """apply_matcher with a streaming Dataset candset and
    output='dataset' — the candset is never collected to the driver
    (VERDICT r2 #1); result equals the pandas-mode oracle."""
    from ..core.measures import jaccard
    part = _t(sf_dir, 'part')
    cand = filters.OverlapFilter(_ws(), 1).filter_tables(
        part, part, 'p_partkey', 'p_partkey', 'p_name', 'p_name')
    import ray.data as rd
    out = matcher.apply_matcher(rd.from_pandas(cand), 'l_p_partkey',
                                'r_p_partkey', part, part, 'p_partkey',
                                'p_partkey', 'p_name', 'p_name', _ws(),
                                jaccard, 0.5, output='dataset').to_pandas()
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_apply_matcher_dist_part(sf_dir):
    """apply_matcher through the beyond-gate bucketed-attach regime
    (``attach._BUCKETED_ONLY``): no side-table broadcast, hash-shuffle
    attach only; result equals the broadcast-regime oracle."""
    from ..core.measures import jaccard
    part = _t(sf_dir, 'part')
    cand = filters.OverlapFilter(_ws(), 1).filter_tables(
        part, part, 'p_partkey', 'p_partkey', 'p_name', 'p_name')
    with _pinned(attach, _BUCKETED_ONLY=True):
        out = matcher.apply_matcher(cand, 'l_p_partkey', 'r_p_partkey',
                                    part, part, 'p_partkey', 'p_partkey',
                                    'p_name', 'p_name', _ws(), jaccard, 0.5)
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


# ------------------------------------------------------- profiler / utils

def q_profile_part(sf_dir):
    out = profile_counts(_t(sf_dir, 'part'))
    out['unique_values'] = out['unique_values'].astype(np.int64)
    out['missing_values'] = out['missing_values'].astype(np.int64)
    return out


# ------------------------------------------------------------------ dedup

def q_exact_dedup_documents(sf_dir):
    docs = _t(sf_dir, 'documents')
    out = dedup.exact_dedup(docs, 'doc_id', 'text').to_pandas()
    return _keys_int(out, ['rep_id', 'dup_count'])


def q_ngram_dedup_documents(sf_dir):
    docs = _t(sf_dir, 'documents')
    out = join.jaccard_join(docs, docs, 'doc_id', 'doc_id', 'text', 'text',
                            WordQgramTokenizer(kval=5, return_set=True), 0.6,
                            out_sim_score=False)
    out = out[out['l_doc_id'] < out['r_doc_id']]
    return _keys_int(out[['l_doc_id', 'r_doc_id']].copy(),
                     ['l_doc_id', 'r_doc_id'])


def q_minhash_lsh_documents(sf_dir):
    docs = _t(sf_dir, 'documents')
    out = dedup.minhash_lsh_pairs(docs, 'doc_id', 'text', threshold=0.6,
                                  k=5).to_pandas()
    return _keys_int(out[['l_id', 'r_id']].copy(), ['l_id', 'r_id'])


def q_normalize_text_documents(sf_dir):
    """Vectorized text normalization (casefold + whitespace collapse +
    trim) over the documents table."""
    docs = _t(sf_dir, 'documents').select_columns(['doc_id', 'text'])
    out = docs.map_batches(textstats.normalize_text_batch,
                           batch_format='pyarrow').to_pandas()
    return _keys_int(out[['doc_id', 'text_norm']].copy(), ['doc_id'])


def q_near_dedup_documents(sf_dir):
    """End-to-end near-dedup: minhash-LSH pairs -> connected components ->
    min-id representative per cluster; every document gets (rep_id, keep)."""
    docs = _t(sf_dir, 'documents')
    out = dedup.near_dedup(docs, 'doc_id', 'text', threshold=0.6,
                           k=5).to_pandas()
    return _keys_int(out, ['doc_id', 'rep_id', 'keep'])


def q_simhash_documents(sf_dir):
    docs = _t(sf_dir, 'documents')
    out = docs.map_batches(dedup.SimHashStage('doc_id', 'text'),
                           batch_format='pyarrow').to_pandas()
    return _keys_int(out.rename(columns={'id': 'doc_id'}),
                     ['doc_id', 'simhash'])


# ------------------------------------------------------------ text stats

def q_token_count_documents(sf_dir):
    docs = _t(sf_dir, 'documents').select_columns(['doc_id', 'text'])
    out = docs.map_batches(textstats.token_count_batch,
                           batch_format='pyarrow').to_pandas()
    return _keys_int(out, ['doc_id', 'n_tokens', 'n_bpeish_tokens'])


def q_quality_documents(sf_dir):
    docs = _t(sf_dir, 'documents').select_columns(['doc_id', 'text'])
    out = docs.map_batches(textstats.quality_score_batch,
                           batch_format='pyarrow').to_pandas()
    return _keys_int(out, ['doc_id', 'n_chars_calc', 'n_tokens'])


def q_langid_documents(sf_dir):
    docs = _t(sf_dir, 'documents').select_columns(['doc_id', 'text'])
    out = docs.map_batches(textstats.langid_batch,
                           batch_format='pyarrow').to_pandas()
    return _keys_int(out, ['doc_id'])


def q_top_tokens_documents(sf_dir):
    # exact heavy hitters: combiner partial counts -> bucketed global sum ->
    # per-block top-k candidates -> driver merge (ties: count desc, token asc)
    docs = _t(sf_dir, 'documents').select_columns(['doc_id', 'text'])
    out = textstats.top_tokens(docs, 'text', k=50)
    return _keys_int(out, ['count'])


def q_fingerprint_documents(sf_dir):
    docs = _t(sf_dir, 'documents').select_columns(['doc_id', 'text'])
    out = docs.map_batches(textstats.fingerprint_batch,
                           batch_format='pyarrow').to_pandas()
    return _keys_int(out, ['doc_id', 'fingerprint'])


# --------------------------------------------------------------- ann

def _query_matrix(emb, n=10):
    """First n vectors by vec_id, stacked in vec_id order — ``take`` after a
    filter does NOT preserve row order under Ray Data's default
    preserve_order=False, so sort explicitly (query_id i must be vec_id i
    for the SQL oracle's positional mapping)."""
    rows = sorted(emb.filter(expr=f'vec_id < {n}').take(n),
                  key=lambda r: r['vec_id'])
    return np.stack([np.asarray(r['embedding'], dtype=np.float64)
                     for r in rows])


def q_ann_topk_embeddings(sf_dir):
    emb = _t(sf_dir, 'embeddings')
    Q = _query_matrix(emb)
    out = ann.ann_topk_bruteforce(emb, Q, 'vec_id', 'embedding', k=5)
    out = out[['query_id', 'vec_id', 'rank']].copy()
    return _keys_int(out, ['query_id', 'vec_id', 'rank'])


def q_ann_topk_ivf_embeddings(sf_dir):
    # IVF with nprobe == nlist probes every inverted list, so the result is
    # exact and shares the brute-force SQL oracle; recall at nprobe < nlist
    # is gated in tests/test_cluster_dedup_ann.py
    emb = _t(sf_dir, 'embeddings')
    Q = _query_matrix(emb)
    out = ann.ann_topk_ivf(emb, Q, 'vec_id', 'embedding', k=5,
                           nlist=8, nprobe=8)
    out = out[['query_id', 'vec_id', 'rank']].copy()
    return _keys_int(out, ['query_id', 'vec_id', 'rank'])


def q_ann_topk_lsh_embeddings(sf_dir):
    # sign-LSH with nbits=2 and Hamming-radius-2 multi-probe enumerates all
    # 2^2 buckets for every query, so the search is exhaustive and shares the
    # brute-force SQL oracle — this pins the whole LSH plumbing (signature
    # bucketing, per-bucket exact search, global merge) exactly; recall at
    # non-exhaustive settings is gated in tests/test_cluster_dedup_ann.py
    emb = _t(sf_dir, 'embeddings')
    Q = _query_matrix(emb)
    out = ann.ann_topk_lsh(emb, Q, 'vec_id', 'embedding', k=5,
                           nbits=2, probes=2)
    out = out[['query_id', 'vec_id', 'rank']].copy()
    return _keys_int(out, ['query_id', 'vec_id', 'rank'])


def q_cosine_neardup_embeddings(sf_dir):
    # exact brute-force baseline (broadcast corpus + per-batch matmul block);
    # the LSH-table variant is the 100-TB path, recall-gated in tests
    emb = _t(sf_dir, 'embeddings')
    out = ann.cosine_neardup_pairs(emb, 'vec_id', 'embedding', threshold=0.4)
    return _keys_int(out, ['l_id', 'r_id'])


# ------------------------------------------------------------- clustering

def q_cluster_components_part(sf_dir):
    part = _t(sf_dir, 'part')
    pairs = join.jaccard_join(part, part, 'p_partkey', 'p_partkey', 'p_name',
                              'p_name', _ws(), 0.5, out_sim_score=False,
                              output='dataset')
    out = cluster.connected_components(pairs).to_pandas()
    return _keys_int(out, ['node', 'component'])


# ------------------------------------------------------------------ media

def q_media_meta_documents(sf_dir):
    docs = _t(sf_dir, 'documents').select_columns(['doc_id', 'text'])
    m = docs.map_batches(
        lambda b: media.encode_text_as_media(b, 'text', 'doc_id'),
        batch_format='pyarrow')
    out = m.to_pandas()[['doc_id', 'byte_len', 'payload_md5']]
    return _keys_int(out.copy(), ['doc_id', 'byte_len'])


def q_media_decode_documents(sf_dir):
    docs = _t(sf_dir, 'documents').select_columns(['doc_id', 'text'])
    out = media.media_pipeline(docs).to_pandas()
    # features are md5-byte/256 floats; ×256 recovers exact integers, so the
    # SQL oracle can reproduce the value without float-rounding hazards
    out['feat_sum_256'] = out['features'].map(
        lambda f: int(np.round(np.sum(np.asarray(f, dtype=np.float64)) * 256)))
    return _keys_int(out[['doc_id', 'byte_len', 'feat_sum_256']].copy(),
                     ['doc_id', 'byte_len', 'feat_sum_256'])


# ---------------------------------------------------------------- windows

def q_window_agg_events(sf_dir):
    from ..stages.windows import tumbling_window_agg
    ev = _t(sf_dir, 'events')
    out = tumbling_window_agg(ev, 'ts', 'user_id', 'value', 3600).to_pandas()
    out = out[['user_id', 'window_id', 'n_events', 'sum_value']].copy()
    # inputs are cents-valued; FP error on the partial sums is ~1e-12, far
    # from any 4-decimal rounding boundary (avg is excluded from the gate —
    # a rational sum/n CAN sit exactly on a half-tie)
    out['sum_value'] = out['sum_value'].round(4)
    return _keys_int(out, ['user_id', 'window_id', 'n_events'])


def q_sessionize_events(sf_dir):
    from ..stages.windows import sessionize
    ev = _t(sf_dir, 'events')
    out = sessionize(ev, 'ts', 'user_id', 'event_id', 1800).to_pandas()
    return _keys_int(out[['event_id', 'user_id', 'session_seq']].copy(),
                     ['event_id', 'user_id', 'session_seq'])


def q_sessionize_bytype_events(sf_dir):
    """sessionize keyed by a STRING column (event_type): the bucket stage
    hashes non-numeric keys via a deterministic array hash instead of the
    int64 cast (round-4 fix; the int-keyed query can't regress this
    path)."""
    from ..stages.windows import sessionize
    ev = _t(sf_dir, 'events')
    out = sessionize(ev, 'ts', 'event_type', 'event_id', 600).to_pandas()
    return _keys_int(out[['event_id', 'event_type',
                          'session_seq']].copy(),
                     ['event_id', 'session_seq'])


# ------------------------------------------------ surface-parity operators

def q_disk_edit_distance_join_customer(sf_dir):
    """Disk-sink join: stream matches to partitioned parquet, read back.
    Exercises the resumable file sink end-to-end at the driver gate."""
    import shutil
    import tempfile

    from .disk_join import disk_edit_distance_join
    cust = _t(sf_dir, 'customer')
    tmp = tempfile.mkdtemp(prefix='ssj_disk_join_')
    try:
        out_path = f'{tmp}/pairs'
        disk_edit_distance_join(cust, cust, 'c_custkey', 'c_custkey',
                                'c_name', 'c_name', 1,
                                output_file_path=out_path,
                                output_format='parquet')
        out = ray.data.read_parquet(out_path).to_pandas()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out['_sim_score'] = out['_sim_score'].astype(np.int64)
    return _keys_int(out[['l_c_custkey', 'r_c_custkey', '_sim_score']].copy(),
                     ['l_c_custkey', 'r_c_custkey'])


def q_disk_edit_distance_join_out_attrs_customer(sf_dir):
    """Disk-sink join WITH out attrs (VERDICT r3 #1): l/r out attrs attach
    onto the streaming pair Dataset and land in the sink under the
    reference header — they used to be silently dropped."""
    import shutil
    import tempfile

    from .disk_join import disk_edit_distance_join
    cust = _t(sf_dir, 'customer')
    tmp = tempfile.mkdtemp(prefix='ssj_disk_join_oa_')
    try:
        out_path = f'{tmp}/pairs'
        disk_edit_distance_join(cust, cust, 'c_custkey', 'c_custkey',
                                'c_name', 'c_name', 1,
                                output_file_path=out_path,
                                l_out_attrs=['c_name'],
                                r_out_attrs=['c_mktsegment'],
                                output_format='parquet')
        out = ray.data.read_parquet(out_path).to_pandas()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out['_sim_score'] = out['_sim_score'].astype(np.int64)
    return _keys_int(
        out[['l_c_custkey', 'r_c_custkey', 'l_c_name', 'r_c_mktsegment',
             '_sim_score']].copy(),
        ['l_c_custkey', 'r_c_custkey'])


def q_col_to_str_customer(sf_dir):
    """dataframe/series → str converters (functions/converter.py), run as a
    distributed map_batches: int branch and integral-float branch."""
    from ..functions import converter

    def conv(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({'c_custkey': b['c_custkey'].astype(np.int64)})
        out['key_str'] = converter.series_to_str(b['c_custkey'])
        out['intfloat_str'] = converter.series_to_str(
            b['c_custkey'].astype(np.float64))
        return out
    return _t(sf_dir, 'customer').select_columns(['c_custkey']) \
        .map_batches(conv, batch_format='pandas').to_pandas()


def q_remove_non_ascii_documents(sf_dir):
    """remove_non_ascii over a deterministically-dirtied text column (the
    test corpus is pure ASCII, so inject 'é' on doc_id % 3 == 0 first)."""
    from ..functions import remove_non_ascii

    def clean(b: pd.DataFrame) -> pd.DataFrame:
        dirty = np.where(b['doc_id'].to_numpy() % 3 == 0,
                         b['text'] + 'é', b['text'])
        cleaned = [remove_non_ascii(s) for s in dirty]
        return pd.DataFrame({
            'doc_id': b['doc_id'].astype(np.int64),
            'clean_text': cleaned,
            'n_removed': np.asarray([len(d) - len(c) for d, c
                                     in zip(dirty, cleaned)], np.int64)})
    return _t(sf_dir, 'documents').select_columns(['doc_id', 'text']) \
        .map_batches(clean, batch_format='pandas').to_pandas()


def q_filter_candset_part(sf_dir):
    """Filter.filter_candset: re-check an overlap candset with a size
    filter, streamed through map_batches."""
    part = _t(sf_dir, 'part')
    cand = filters.OverlapFilter(_ws(), 2).filter_tables(
        part, part, 'p_partkey', 'p_partkey', 'p_name', 'p_name')
    out = filters.SizeFilter(_ws(), 'JACCARD', 0.8).filter_candset(
        cand, 'l_p_partkey', 'r_p_partkey', part, part,
        'p_partkey', 'p_partkey', 'p_name', 'p_name')
    return _keys_int(out[['l_p_partkey', 'r_p_partkey']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_composable_dataset_pipeline_part(sf_dir):
    """SURVEY §3.3's composable filter → candset → matcher chain run FULLY
    streaming: filter_tables(output='dataset') → filter_candset (Dataset
    in/out) → apply_matcher(output='dataset') — no pandas stop anywhere.
    Oracle: overlap ≥ 2 candidates ∧ size-filter bounds ∧ jaccard ≥ 0.5."""
    from ..core.measures import jaccard
    part = _t(sf_dir, 'part')
    cand = filters.OverlapFilter(_ws(), 2).filter_tables(
        part, part, 'p_partkey', 'p_partkey', 'p_name', 'p_name',
        output='dataset')
    import pyarrow as pa

    def add_id(b: pa.Table) -> pa.Table:
        import numpy as np
        t = pa.table({'_id': pa.array(np.zeros(len(b), np.int64)),
                      'l_key': b['l_key'], 'r_key': b['r_key']})
        return t
    cand = cand.map_batches(add_id, batch_format='pyarrow')
    cand = filters.SizeFilter(_ws(), 'JACCARD', 0.5).filter_candset(
        cand, 'l_key', 'r_key', part, part, 'p_partkey', 'p_partkey',
        'p_name', 'p_name')
    out = matcher.apply_matcher(cand, 'l_key', 'r_key', part, part,
                                'p_partkey', 'p_partkey', 'p_name',
                                'p_name', _ws(), jaccard, 0.5,
                                output='dataset').to_pandas()
    out = out.rename(columns={'l_l_key': 'l_p_partkey',
                              'r_r_key': 'r_p_partkey'})
    return _keys_int(out[['l_p_partkey', 'r_p_partkey', '_sim_score']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_allow_missing_jaccard_part(sf_dir):
    """allow_missing=True join semantics: null join-attrs cross-pair with
    the other side (L-null × all R, plus R-null × L-non-null)."""
    part = _t(sf_dir, 'part').to_pandas()
    part['p_name'] = part['p_name'].mask(part['p_partkey'] % 97 == 0)
    out = join.jaccard_join(part, part, 'p_partkey', 'p_partkey', 'p_name',
                            'p_name', _ws(), 0.5, allow_missing=True,
                            out_sim_score=False)
    return _keys_int(out[['l_p_partkey', 'r_p_partkey']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_allow_missing_jaccard_dataset_part(sf_dir):
    """Same pair classes as allow_missing_jaccard_part but through
    output='dataset': verified matches + allow_empty + allow_missing
    cross-products all attach DISTRIBUTED (VERDICT r2 #2)."""
    part = _t(sf_dir, 'part').to_pandas()
    part['p_name'] = part['p_name'].mask(part['p_partkey'] % 97 == 0)
    import ray.data as rd
    ds = join.jaccard_join(rd.from_pandas(part), rd.from_pandas(part),
                           'p_partkey', 'p_partkey', 'p_name', 'p_name',
                           _ws(), 0.5, allow_missing=True, output='dataset')
    out = ds.to_pandas().rename(columns={'l_key': 'l_p_partkey',
                                         'r_key': 'r_p_partkey'})
    return _keys_int(out[['l_p_partkey', 'r_p_partkey']].copy(),
                     ['l_p_partkey', 'r_p_partkey'])


def q_person_dataset_join(sf_dir):
    """Bundled person dataset (sources/datasets.py, the reference's demo
    tables) joined end-to-end: whitespace Jaccard t=0.3 on name, incl. the
    allow_empty (' ' × ' ' → score 1.0) and null-drop paths.  The oracle
    re-creates the fixture rows as inline VALUES."""
    from ..sources.datasets import load_person_dataset
    A, B = load_person_dataset()
    out = join.jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name',
                            _ws(), 0.3)
    return out[['l_A.ID', 'r_B.ID', '_sim_score']].copy()


QUERIES = {
    'jaccard_join_part': q_jaccard_join_part,
    'jaccard_dense_id_part': q_jaccard_dense_id_part,
    'jaccard_two_relation_part': q_jaccard_two_relation_part,
    'jaccard_out_attrs_part': q_jaccard_out_attrs_part,
    'allow_missing_edit_distance_customer':
        q_allow_missing_edit_distance_customer,
    'cosine_join_part': q_cosine_join_part,
    'dice_join_part': q_dice_join_part,
    'overlap_join_part': q_overlap_join_part,
    'overlap_join_candgen_part': q_overlap_join_candgen_part,
    'overlap_join_gt_part': q_overlap_join_gt_part,
    'overlap_coefficient_join_part': q_overlap_coefficient_join_part,
    'jaccard_join_supplier_qgram3': q_jaccard_join_supplier_qgram3,
    'edit_distance_join_customer': q_edit_distance_join_customer,
    'overlap_filter_part': q_overlap_filter_part,
    'size_filter_documents': q_size_filter_documents,
    'prefix_filter_part': q_prefix_filter_part,
    'prefix_filter_salted_part': q_prefix_filter_salted_part,
    'prefix_filter_dataset_part': q_prefix_filter_dataset_part,
    'position_filter_part': q_position_filter_part,
    'suffix_filter_part': q_suffix_filter_part,
    'apply_matcher_part': q_apply_matcher_part,
    'apply_matcher_dataset_part': q_apply_matcher_dataset_part,
    'apply_matcher_dist_part': q_apply_matcher_dist_part,
    'profile_part': q_profile_part,
    'exact_dedup_documents': q_exact_dedup_documents,
    'ngram_dedup_documents': q_ngram_dedup_documents,
    'minhash_lsh_documents': q_minhash_lsh_documents,
    'near_dedup_documents': q_near_dedup_documents,
    'normalize_text_documents': q_normalize_text_documents,
    'simhash_documents': q_simhash_documents,
    'token_count_documents': q_token_count_documents,
    'quality_documents': q_quality_documents,
    'langid_documents': q_langid_documents,
    'fingerprint_documents': q_fingerprint_documents,
    'top_tokens_documents': q_top_tokens_documents,
    'ann_topk_embeddings': q_ann_topk_embeddings,
    'ann_topk_ivf_embeddings': q_ann_topk_ivf_embeddings,
    'ann_topk_lsh_embeddings': q_ann_topk_lsh_embeddings,
    'cosine_neardup_embeddings': q_cosine_neardup_embeddings,
    'cluster_components_part': q_cluster_components_part,
    'media_meta_documents': q_media_meta_documents,
    'media_decode_documents': q_media_decode_documents,
    'window_agg_events': q_window_agg_events,
    'sessionize_events': q_sessionize_events,
    'sessionize_bytype_events': q_sessionize_bytype_events,
    'disk_edit_distance_join_customer': q_disk_edit_distance_join_customer,
    'disk_edit_distance_join_out_attrs_customer':
        q_disk_edit_distance_join_out_attrs_customer,
    'col_to_str_customer': q_col_to_str_customer,
    'remove_non_ascii_documents': q_remove_non_ascii_documents,
    'filter_candset_part': q_filter_candset_part,
    'composable_dataset_pipeline_part': q_composable_dataset_pipeline_part,
    'allow_missing_jaccard_part': q_allow_missing_jaccard_part,
    'allow_missing_jaccard_dataset_part': q_allow_missing_jaccard_dataset_part,
    'person_dataset_join': q_person_dataset_join,
}


# ---------------------------------------------------------------- oracles

def _minhash_perm_values(num_perm: int = 64, seed: int = 42) -> str:
    """Inline VALUES rows for the seeded minhash permutation constants —
    the SAME rng stream as ``dedup.MinHasher`` so the SQL oracle reproduces
    signatures bit-exactly."""
    rng = np.random.default_rng(seed)
    m61 = (1 << 61) - 1
    a = rng.integers(1, m61, size=num_perm, dtype=np.uint64)
    b = rng.integers(0, m61, size=num_perm, dtype=np.uint64)
    return ', '.join(f'({j}, {int(a[j])}, {int(b[j])})'
                     for j in range(num_perm))


_TOK_PART = """
tok as (SELECT p_partkey AS id,
               unnest(list_distinct(list_filter(
                   string_split_regex(p_name, '\\s+'), x -> x <> ''))) AS t
        FROM part),
sz as (SELECT id, count(*) AS n FROM tok GROUP BY id),
ov as (SELECT a.id AS la, b.id AS rb, count(*) AS o
       FROM tok a JOIN tok b ON a.t = b.t GROUP BY 1, 2)
"""

ORACLE_SQL = {
    'jaccard_join_part': f"""
WITH {_TOK_PART}
SELECT la AS l_p_partkey, rb AS r_p_partkey,
       round(o * 1.0 / (sa.n + sb.n - o), 4) AS _sim_score
FROM ov JOIN sz sa ON la = sa.id JOIN sz sb ON rb = sb.id
WHERE round(o * 1.0 / (sa.n + sb.n - o), 4) >= 0.5
""",
    'cosine_join_part': f"""
WITH {_TOK_PART}
SELECT la AS l_p_partkey, rb AS r_p_partkey,
       round(o / sqrt(sa.n * sb.n), 4) AS _sim_score
FROM ov JOIN sz sa ON la = sa.id JOIN sz sb ON rb = sb.id
WHERE round(o / sqrt(sa.n * sb.n), 4) >= 0.7
""",
    'dice_join_part': f"""
WITH {_TOK_PART}
SELECT la AS l_p_partkey, rb AS r_p_partkey,
       round(2.0 * o / (sa.n + sb.n), 4) AS _sim_score
FROM ov JOIN sz sa ON la = sa.id JOIN sz sb ON rb = sb.id
WHERE round(2.0 * o / (sa.n + sb.n), 4) >= 0.6
""",
    'overlap_join_part': f"""
WITH {_TOK_PART}
SELECT la AS l_p_partkey, rb AS r_p_partkey, CAST(o AS BIGINT) AS _sim_score
FROM ov WHERE o >= 2
""",
    'overlap_join_candgen_part': f"""
WITH {_TOK_PART}
SELECT la AS l_p_partkey, rb AS r_p_partkey, CAST(o AS BIGINT) AS _sim_score
FROM ov WHERE o >= 2
""",
    'overlap_join_gt_part': f"""
WITH {_TOK_PART}
SELECT la AS l_p_partkey, rb AS r_p_partkey, CAST(o AS BIGINT) AS _sim_score
FROM ov WHERE o > 1
""",
    'overlap_coefficient_join_part': f"""
WITH {_TOK_PART}
SELECT la AS l_p_partkey, rb AS r_p_partkey,
       o * 1.0 / least(sa.n, sb.n) AS _sim_score
FROM ov JOIN sz sa ON la = sa.id JOIN sz sb ON rb = sb.id
WHERE o * 1.0 / least(sa.n, sb.n) >= 0.7
""",
    'jaccard_out_attrs_part': f"""
WITH {_TOK_PART}
SELECT la AS L_p_partkey, rb AS R_p_partkey,
       pl.p_brand AS L_p_brand, pr.p_type AS R_p_type,
       round(o * 1.0 / (sa.n + sb.n - o), 4) AS _sim_score
FROM ov JOIN sz sa ON la = sa.id JOIN sz sb ON rb = sb.id
JOIN part pl ON la = pl.p_partkey JOIN part pr ON rb = pr.p_partkey
WHERE round(o * 1.0 / (sa.n + sb.n - o), 4) >= 0.5
""",
    'allow_missing_edit_distance_customer': """
WITH c AS (SELECT c_custkey, CASE WHEN c_custkey % 101 = 0 THEN NULL
                                  ELSE c_name END AS nm FROM customer)
SELECT a.c_custkey AS l_c_custkey, b.c_custkey AS r_c_custkey
FROM c a, c b
WHERE (a.nm IS NOT NULL AND b.nm IS NOT NULL
       AND levenshtein(a.nm, b.nm) <= 2)
   OR a.nm IS NULL
   OR (a.nm IS NOT NULL AND b.nm IS NULL)
""",
    'jaccard_join_supplier_qgram3': """
WITH padded AS (SELECT s_suppkey AS id, '##' || s_name || '$$' AS s
                FROM supplier),
tok AS (SELECT id, t FROM (
          SELECT id, substr(s, CAST(i AS INT), 3) AS t
          FROM padded, LATERAL unnest(range(1, length(s) - 1)) AS g(i))
        GROUP BY id, t),
sz AS (SELECT id, count(*) AS n FROM tok GROUP BY id),
ov AS (SELECT a.id AS la, b.id AS rb, count(*) AS o
       FROM tok a JOIN tok b ON a.t = b.t GROUP BY 1, 2)
SELECT la AS l_s_suppkey, rb AS r_s_suppkey
FROM ov JOIN sz sa ON la = sa.id JOIN sz sb ON rb = sb.id
WHERE round(o * 1.0 / (sa.n + sb.n - o), 4) >= 0.4
""",
    'edit_distance_join_customer': """
SELECT a.c_custkey AS l_c_custkey, b.c_custkey AS r_c_custkey,
       CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS _sim_score
FROM customer a, customer b
WHERE levenshtein(a.c_name, b.c_name) <= 2
""",
    'overlap_filter_part': f"""
WITH {_TOK_PART}
SELECT la AS l_p_partkey, rb AS r_p_partkey, CAST(o AS BIGINT) AS _sim_score
FROM ov WHERE o >= 2
""",
    'size_filter_documents': """
WITH sz AS (SELECT doc_id, length(list_distinct(list_filter(
                string_split_regex(text, '\\s+'), x -> x <> ''))) AS n
            FROM documents)
SELECT a.doc_id AS l_doc_id, b.doc_id AS r_doc_id
FROM sz a, sz b
WHERE a.n > 0 AND b.n > 0
  AND a.n >= ceil(round(0.7 * b.n, 4)) AND a.n <= floor(round(b.n / 0.7, 4))
""",
    'prefix_filter_part': """
WITH tok AS (SELECT p_partkey AS id,
                    unnest(list_distinct(list_filter(
                        string_split_regex(p_name, '\\s+'), x -> x <> ''))) AS t
             FROM part),
freq AS (SELECT t, count(*) AS c FROM tok GROUP BY t),
rk AS (SELECT t, row_number() OVER (ORDER BY c, t) AS r FROM freq),
ranked AS (SELECT id, r,
                  row_number() OVER (PARTITION BY id ORDER BY r) AS pos,
                  count(*) OVER (PARTITION BY id) AS n
           FROM tok JOIN rk USING (t)),
prefix AS (SELECT id, r FROM ranked
           WHERE pos <= n - ceil(round(0.8 * n, 4)) + 1)
SELECT DISTINCT a.id AS l_p_partkey, b.id AS r_p_partkey
FROM prefix a JOIN prefix b ON a.r = b.r
""",
    'prefix_filter_salted_part': """
WITH tok AS (SELECT p_partkey AS id,
                    unnest(list_distinct(list_filter(
                        string_split_regex(p_name, '\\s+'), x -> x <> ''))) AS t
             FROM part),
freq AS (SELECT t, count(*) AS c FROM tok GROUP BY t),
rk AS (SELECT t, row_number() OVER (ORDER BY c, t) AS r FROM freq),
ranked AS (SELECT id, r,
                  row_number() OVER (PARTITION BY id ORDER BY r) AS pos,
                  count(*) OVER (PARTITION BY id) AS n
           FROM tok JOIN rk USING (t)),
prefix AS (SELECT id, r FROM ranked
           WHERE pos <= n - ceil(round(0.8 * n, 4)) + 1)
SELECT DISTINCT a.id AS l_p_partkey, b.id AS r_p_partkey
FROM prefix a JOIN prefix b ON a.r = b.r
""",
    'position_filter_part': """
WITH tok AS (SELECT p_partkey AS id,
                    unnest(list_distinct(list_filter(
                        string_split_regex(p_name, '\\s+'), x -> x <> ''))) AS t
             FROM part),
freq AS (SELECT t, count(*) AS c FROM tok GROUP BY t),
rk AS (SELECT t, row_number() OVER (ORDER BY c, t) AS r FROM freq),
ranked AS (SELECT id, r,
                  row_number() OVER (PARTITION BY id ORDER BY r) - 1 AS pos,
                  count(*) OVER (PARTITION BY id) AS n
           FROM tok JOIN rk USING (t)),
prefix AS (SELECT * FROM ranked
           WHERE pos + 1 <= n - ceil(round(0.6 * n, 4)) + 1),
shared AS (SELECT a.id AS la, b.id AS rb, a.r AS r,
                  a.pos AS lpos, b.pos AS rpos, a.n AS ln, b.n AS rn,
                  row_number() OVER (PARTITION BY a.id, b.id ORDER BY a.r) - 1
                      AS i
           FROM prefix a JOIN prefix b ON a.r = b.r),
checked AS (SELECT la, rb,
                   bool_and(i + least(rn - rpos, ln - lpos) >=
                            ceil(round((0.6 / 1.6) * (ln + rn), 4))) AS ok,
                   max(ln) AS ln, max(rn) AS rn
            FROM shared GROUP BY la, rb)
SELECT la AS l_p_partkey, rb AS r_p_partkey
FROM checked
WHERE ok
  AND ln >= ceil(round(0.6 * rn, 4)) AND ln <= floor(round(rn / 0.6, 4))
""",
    'apply_matcher_part': f"""
WITH {_TOK_PART}
SELECT la AS l_p_partkey, rb AS r_p_partkey,
       o * 1.0 / (sa.n + sb.n - o) AS _sim_score
FROM ov JOIN sz sa ON la = sa.id JOIN sz sb ON rb = sb.id
WHERE o * 1.0 / (sa.n + sb.n - o) >= 0.5
""",
    'profile_part': """
SELECT 'p_partkey' AS attribute, count(DISTINCT p_partkey) AS unique_values,
       CAST(sum(CASE WHEN p_partkey IS NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS missing_values FROM part
UNION ALL SELECT 'p_name', count(DISTINCT p_name),
       CAST(sum(CASE WHEN p_name IS NULL THEN 1 ELSE 0 END) AS BIGINT)
       FROM part
UNION ALL SELECT 'p_brand', count(DISTINCT p_brand),
       CAST(sum(CASE WHEN p_brand IS NULL THEN 1 ELSE 0 END) AS BIGINT)
       FROM part
UNION ALL SELECT 'p_type', count(DISTINCT p_type),
       CAST(sum(CASE WHEN p_type IS NULL THEN 1 ELSE 0 END) AS BIGINT)
       FROM part
UNION ALL SELECT 'p_size', count(DISTINCT p_size),
       CAST(sum(CASE WHEN p_size IS NULL THEN 1 ELSE 0 END) AS BIGINT)
       FROM part
UNION ALL SELECT 'p_retailprice', count(DISTINCT p_retailprice),
       CAST(sum(CASE WHEN p_retailprice IS NULL THEN 1 ELSE 0 END) AS BIGINT)
       FROM part
""",
    'exact_dedup_documents': """
SELECT min(doc_id) AS rep_id, count(*) AS dup_count
FROM documents GROUP BY text
""",
    'ngram_dedup_documents': """
WITH words AS (SELECT doc_id,
                      list_filter(string_split_regex(text, '\\s+'),
                                  x -> x <> '') AS w
               FROM documents),
sh AS (SELECT doc_id,
              CASE WHEN len(w) = 0 THEN []
                   WHEN len(w) < 5 THEN [array_to_string(w, ' ')]
                   ELSE list_transform(range(1, len(w) - 3),
                        i -> array_to_string(w[i:i+4], ' '))
              END AS shingles
       FROM words),
tok AS (SELECT doc_id AS id, unnest(list_distinct(shingles)) AS t FROM sh),
sz AS (SELECT id, count(*) AS n FROM tok GROUP BY id),
ov AS (SELECT a.id AS la, b.id AS rb, count(*) AS o
       FROM tok a JOIN tok b ON a.t = b.t WHERE a.id < b.id GROUP BY 1, 2)
SELECT la AS l_doc_id, rb AS r_doc_id
FROM ov JOIN sz sa ON la = sa.id JOIN sz sb ON rb = sb.id
WHERE round(o * 1.0 / (sa.n + sb.n - o), 4) >= 0.6
""",
    'token_count_documents': """
SELECT doc_id,
       CAST(len(list_filter(string_split_regex(text, '\\s+'), x -> x <> ''))
            AS BIGINT) AS n_tokens,
       CAST(len(regexp_extract_all(text, '\\w+|[^\\w\\s]')) AS BIGINT)
           AS n_bpeish_tokens
FROM documents
""",
    'quality_documents': """
WITH base AS (
  SELECT doc_id,
         CAST(length(text) AS BIGINT) AS n_chars_calc,
         CAST(len(list_filter(string_split_regex(text, '\\s+'),
                              x -> x <> '')) AS BIGINT) AS n_tokens,
         CAST(length(regexp_replace(text, '[^.,;:!?]', '', 'g')) AS BIGINT)
             AS n_punct,
         CAST(length(regexp_replace(text, '[^A-Z]', '', 'g')) AS BIGINT)
             AS n_upper
  FROM documents)
SELECT doc_id, n_chars_calc, n_tokens,
       n_punct * 1.0 / greatest(n_chars_calc, 1) AS punct_ratio,
       n_upper * 1.0 / greatest(n_chars_calc, 1) AS upper_ratio,
       (n_chars_calc - greatest(n_tokens - 1, 0)) * 1.0
           / greatest(n_tokens, 1) AS mean_token_len
FROM base
""",
    'langid_documents': """
WITH w AS (SELECT doc_id,
                  list_distinct(list_filter(
                      string_split_regex(lower(text), '\\s+'),
                      x -> x <> '')) AS words
           FROM documents),
s AS (SELECT doc_id,
             len(list_intersect(words, ['the','and','of','to','a','in','is',
                                        'it','for','that'])) AS en,
             len(list_intersect(words, ['der','die','das','und','ist','nicht',
                                        'ein','zu','mit'])) AS de,
             len(list_intersect(words, ['le','la','les','et','est','un','une',
                                        'pour','dans'])) AS fr
      FROM w)
SELECT doc_id,
       CASE WHEN greatest(en, de, fr) = 0 THEN 'und'
            WHEN de >= en AND de >= fr THEN 'de'
            WHEN en >= fr THEN 'en'
            ELSE 'fr' END AS lang_pred
FROM s
""",
    'top_tokens_documents': """
WITH tok AS (SELECT unnest(list_filter(string_split_regex(text, '\\s+'),
                                       x -> x <> '')) AS token
             FROM documents)
SELECT token, CAST(count(*) AS BIGINT) AS count
FROM tok GROUP BY token
ORDER BY count DESC, token ASC
LIMIT 50
""",
    'ann_topk_embeddings': """
WITH q AS (SELECT vec_id AS query_id, embedding AS qv FROM embeddings
           WHERE vec_id < 10),
scored AS (SELECT q.query_id, e.vec_id,
                  list_cosine_similarity(q.qv, e.embedding) AS sim
           FROM q, embeddings e)
SELECT query_id, vec_id,
       CAST(row_number() OVER (PARTITION BY query_id
                               ORDER BY sim DESC, vec_id) AS BIGINT) AS rank
FROM scored
QUALIFY rank <= 5
""",
    'cosine_neardup_embeddings': """
SELECT a.vec_id AS l_id, b.vec_id AS r_id
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4
ORDER BY l_id, r_id
""",
    'cluster_components_part': """
WITH tok AS (SELECT p_partkey AS id,
                    unnest(list_distinct(list_filter(
                        string_split_regex(p_name, '\\s+'), x -> x <> ''))) AS t
             FROM part),
sz AS (SELECT id, count(*) AS n FROM tok GROUP BY id),
ov AS (SELECT a.id AS la, b.id AS rb, count(*) AS o
       FROM tok a JOIN tok b ON a.t = b.t GROUP BY 1, 2),
match AS (SELECT la, rb FROM ov JOIN sz sa ON la = sa.id
          JOIN sz sb ON rb = sb.id
          WHERE round(o * 1.0 / (sa.n + sb.n - o), 4) >= 0.5 AND la <> rb),
edges AS (SELECT la AS src, rb AS dst FROM match
          UNION SELECT rb, la FROM match),
nodes AS (SELECT DISTINCT src AS node FROM edges)
SELECT node, min(label) AS component FROM (
  WITH RECURSIVE walk(node, label) AS (
    SELECT node, node FROM nodes
    UNION
    SELECT e.dst, w.label FROM walk w JOIN edges e ON w.node = e.src
  ) SELECT node, label FROM walk
) GROUP BY node
""",
    'media_meta_documents': """
SELECT doc_id, CAST(octet_length(CAST(text AS BLOB)) AS BIGINT) AS byte_len,
       md5(text) AS payload_md5
FROM documents
""",
    # fake-decode features are md5-byte/256: ×256-summed they are the sum of
    # the first 8 md5 bytes — exact integer arithmetic on both sides
    'media_decode_documents': """
WITH h AS (SELECT doc_id,
                  CAST(octet_length(CAST(text AS BLOB)) AS BIGINT) AS byte_len,
                  CAST(md5_number_upper(text) AS HUGEINT) AS u
           FROM documents)
SELECT doc_id, byte_len,
       CAST(list_sum(list_transform(range(0, 8),
            i -> CAST((u >> CAST(8 * i AS INT)) & 255 AS BIGINT))) AS BIGINT)
           AS feat_sum_256
FROM h
""",
    # token-polynomial rolling fingerprint: Horner over md5 token hashes
    # mod 2^61-1 (functions/textstats.py fingerprint64)
    'fingerprint_documents': """
WITH toks AS (SELECT doc_id, list_filter(string_split_regex(text, '\\s+'),
                                         x -> x <> '') AS w FROM documents),
mx AS (SELECT coalesce(max(len(w)), 1) AS m FROM toks),
powers AS (
  WITH RECURSIVE pw(k, p) AS (
    SELECT 0, CAST(1 AS HUGEINT)
    UNION ALL
    SELECT k + 1, (p * 1000003) % 2305843009213693951
    FROM pw WHERE k < (SELECT m FROM mx)
  ) SELECT k, p FROM pw),
expl AS (SELECT doc_id, len(w) AS n, CAST(i AS BIGINT) AS i,
                w[CAST(i AS INT)] AS tok
         FROM toks, LATERAL unnest(range(1, len(w) + 1)) AS g(i)),
hashed AS (SELECT doc_id, n, i,
                  CAST(md5_number_upper(tok) AS HUGEINT)
                      % 2305843009213693951 AS th
           FROM expl),
parts AS (SELECT h.doc_id, (h.th * p.p) % 2305843009213693951 AS part
          FROM hashed h JOIN powers p ON p.k = h.n - h.i),
agg AS (SELECT doc_id, CAST(sum(part) % 2305843009213693951 AS BIGINT)
            AS fingerprint
        FROM parts GROUP BY doc_id)
SELECT d.doc_id, coalesce(a.fingerprint, 0) AS fingerprint
FROM documents d LEFT JOIN agg a USING (doc_id)
""",
    # 64-bit simhash over word-bigram shingle md5 hashes (stages/dedup.py
    # simhash64): per-bit ±1 vote, bit set iff the vote is positive
    'simhash_documents': """
WITH toks AS (SELECT doc_id, list_filter(string_split_regex(text, '\\s+'),
                                         x -> x <> '') AS w FROM documents),
sh AS (SELECT doc_id,
              CASE WHEN len(w) = 0 THEN []
                   WHEN len(w) < 2 THEN [array_to_string(w, ' ')]
                   ELSE list_transform(range(1, len(w)),
                        i -> w[CAST(i AS INT)] || ' ' || w[CAST(i AS INT) + 1])
              END AS shingles
       FROM toks),
hs AS (SELECT doc_id, md5_number_upper(s) AS h
       FROM sh, LATERAL unnest(shingles) AS g(s)),
bits AS (SELECT doc_id, CAST(b AS INT) AS b,
                sum(CASE WHEN (h >> CAST(b AS INT)) & 1 = 1
                         THEN 1 ELSE -1 END) AS v
         FROM hs, LATERAL unnest(range(0, 64)) AS g(b)
         GROUP BY 1, 2),
acc AS (SELECT doc_id,
               sum(CASE WHEN v > 0 THEN (CAST(1 AS HUGEINT) << b)
                        ELSE 0 END) AS u
        FROM bits GROUP BY doc_id)
SELECT d.doc_id,
       CAST(CASE WHEN coalesce(u, 0) >= CAST(1 AS HUGEINT) << 63
                 THEN coalesce(u, 0) - (CAST(1 AS HUGEINT) << 64)
                 ELSE coalesce(u, 0) END AS BIGINT) AS simhash
FROM documents d LEFT JOIN acc USING (doc_id)
""",
    # recursive suffix Hamming-bound survivors, closed-form depth-2
    # expansion (pipelines/suffix_oracle.py; reference
    # filter/suffix_filter.py:321-409)
    'suffix_filter_part': suffix_filter_oracle_sql('part', 'p_partkey',
                                                   'p_name', 0.6),
    # banded minhash LSH (k=5 shingles, 64 perms, 16 bands of 4) with exact
    # shingle-set Jaccard >= 0.6 verification (stages/dedup.py
    # minhash_lsh_pairs); permutation constants inlined from the same seed
    'minhash_lsh_documents': f"""
WITH perms(j, a, b) AS (VALUES {_minhash_perm_values()}),
toks AS (SELECT doc_id, list_filter(string_split_regex(text, '\\s+'),
                                    x -> x <> '') AS w FROM documents),
sh AS (SELECT doc_id,
              CASE WHEN len(w) = 0 THEN []
                   WHEN len(w) < 5 THEN [array_to_string(w, ' ')]
                   ELSE list_transform(range(1, len(w) - 3),
                        i -> array_to_string(
                            w[CAST(i AS INT):CAST(i AS INT)+4], ' '))
              END AS shingles
       FROM toks),
hs AS (SELECT doc_id, CAST(md5_number_upper(s) AS HUGEINT) AS h
       FROM sh, LATERAL unnest(shingles) AS g(s)),
sigs0 AS (SELECT hs.doc_id, p.j,
                 min(((CAST(p.a AS HUGEINT) * hs.h) % 18446744073709551616
                      + p.b) % 18446744073709551616
                     % 2305843009213693951) AS sig
          FROM hs, perms p GROUP BY 1, 2),
empty_docs AS (SELECT doc_id FROM sh WHERE len(shingles) = 0),
sigs AS (SELECT * FROM sigs0
         UNION ALL
         SELECT e.doc_id, p.j, CAST(2305843009213693951 AS HUGEINT)
         FROM empty_docs e, perms p),
bands AS (SELECT doc_id, j // 4 AS band,
                 array_agg(sig ORDER BY j) AS bs
          FROM sigs GROUP BY 1, 2),
cand AS (SELECT DISTINCT x.doc_id AS l_id, y.doc_id AS r_id
         FROM bands x JOIN bands y
           ON x.band = y.band AND x.bs = y.bs AND x.doc_id < y.doc_id),
ssets AS (SELECT doc_id, list_distinct(shingles) AS ss FROM sh),
verified AS (
  SELECT c.l_id, c.r_id,
         CASE WHEN len(sa.ss) = 0 AND len(sb.ss) = 0 THEN 1.0
              WHEN len(sa.ss) = 0 OR len(sb.ss) = 0 THEN 0.0
              ELSE len(list_intersect(sa.ss, sb.ss)) * 1.0 /
                   (len(sa.ss) + len(sb.ss)
                    - len(list_intersect(sa.ss, sb.ss)))
         END AS j
  FROM cand c JOIN ssets sa ON c.l_id = sa.doc_id
              JOIN ssets sb ON c.r_id = sb.doc_id)
SELECT l_id, r_id FROM verified WHERE j >= 0.6
""",
    # tumbling 1-hour windows over the events stream
    # (stages/windows.py tumbling_window_agg)
    'window_agg_events': """
SELECT user_id, epoch_us(ts) // 3600000000 AS window_id,
       count(*) AS n_events,
       round(sum(value), 4) AS sum_value
FROM events GROUP BY 1, 2
""",
    # 30-minute-gap session windows, ties broken by event_id
    # (stages/windows.py sessionize)
    'sessionize_events': """
WITH lagd AS (
  SELECT event_id, user_id, epoch_us(ts) AS tu,
         lag(epoch_us(ts)) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) AS pt
  FROM events)
SELECT event_id, user_id,
       CAST(sum(CASE WHEN pt IS NULL OR tu - pt > 1800000000
                     THEN 1 ELSE 0 END)
            OVER (PARTITION BY user_id ORDER BY tu, event_id
                  ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_seq
FROM lagd
""",
    # 10-minute-gap sessions keyed by the STRING event_type column
    'sessionize_bytype_events': """
WITH lagd AS (
  SELECT event_id, event_type, epoch_us(ts) AS tu,
         lag(epoch_us(ts)) OVER (PARTITION BY event_type
                                 ORDER BY ts, event_id) AS pt
  FROM events)
SELECT event_id, event_type,
       CAST(sum(CASE WHEN pt IS NULL OR tu - pt > 600000000
                     THEN 1 ELSE 0 END)
            OVER (PARTITION BY event_type ORDER BY tu, event_id
                  ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_seq
FROM lagd
""",
    # disk sink round-trip preserves exactly the in-memory join result
    'disk_edit_distance_join_customer': """
SELECT a.c_custkey AS l_c_custkey, b.c_custkey AS r_c_custkey,
       CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS _sim_score
FROM customer a, customer b
WHERE levenshtein(a.c_name, b.c_name) <= 1
""",
    # out attrs reach the sink under the reference header
    'disk_edit_distance_join_out_attrs_customer': """
SELECT a.c_custkey AS l_c_custkey, b.c_custkey AS r_c_custkey,
       a.c_name AS l_c_name, b.c_mktsegment AS r_c_mktsegment,
       CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS _sim_score
FROM customer a, customer b
WHERE levenshtein(a.c_name, b.c_name) <= 1
""",
    # int branch and integral-float branch both render without '.0'
    'col_to_str_customer': """
SELECT c_custkey, CAST(c_custkey AS VARCHAR) AS key_str,
       CAST(c_custkey AS VARCHAR) AS intfloat_str
FROM customer
""",
    'remove_non_ascii_documents': """
WITH d AS (SELECT doc_id,
                  CASE WHEN doc_id % 3 = 0 THEN text || chr(233)
                       ELSE text END AS dirty
           FROM documents)
SELECT doc_id,
       regexp_replace(dirty, '[^[:ascii:]]', '', 'g') AS clean_text,
       CAST(length(dirty)
            - length(regexp_replace(dirty, '[^[:ascii:]]', '', 'g'))
            AS BIGINT) AS n_removed
FROM d
""",
    # overlap>=2 candset re-checked by the JACCARD t=0.8 size bounds
    # (bounds from the LEFT size, tested against the RIGHT size — the
    # filter_pair direction)
    'filter_candset_part': f"""
WITH {_TOK_PART}
SELECT la AS l_p_partkey, rb AS r_p_partkey
FROM ov JOIN sz sa ON la = sa.id JOIN sz sb ON rb = sb.id
WHERE o >= 2
  AND sb.n >= ceil(round(0.8 * sa.n, 4))
  AND sb.n <= floor(round(sa.n / 0.8, 4))
""",
    # jaccard>=0.5 pairs over the non-null rows, plus the missing-pair
    # cross products (L-null x all R, then L-non-null x R-null)
    'allow_missing_jaccard_part': """
WITH p AS (SELECT p_partkey,
                  CASE WHEN p_partkey % 97 = 0 THEN NULL ELSE p_name END
                      AS p_name
           FROM part),
tok AS (SELECT p_partkey AS id,
               unnest(list_distinct(list_filter(
                   string_split_regex(p_name, '\\s+'), x -> x <> ''))) AS t
        FROM p WHERE p_name IS NOT NULL),
sz AS (SELECT id, count(*) AS n FROM tok GROUP BY id),
ov AS (SELECT a.id AS la, b.id AS rb, count(*) AS o
       FROM tok a JOIN tok b ON a.t = b.t GROUP BY 1, 2)
SELECT la AS l_p_partkey, rb AS r_p_partkey
FROM ov JOIN sz sa ON la = sa.id JOIN sz sb ON rb = sb.id
WHERE round(o * 1.0 / (sa.n + sb.n - o), 4) >= 0.5
UNION ALL
SELECT a.p_partkey, b.p_partkey FROM p a, p b WHERE a.p_name IS NULL
UNION ALL
SELECT a.p_partkey, b.p_partkey FROM p a, p b
WHERE a.p_name IS NOT NULL AND b.p_name IS NULL
""",
}

# regime variants share the base operators' oracles (identical output rows)
ORACLE_SQL['composable_dataset_pipeline_part'] = r"""
WITH tok AS (SELECT p_partkey AS id,
                    unnest(list_filter(string_split_regex(trim(p_name),
                                                          '\s+'),
                                       x -> x <> '')) AS t
             FROM part),
dtok AS (SELECT DISTINCT id, t FROM tok),
sz AS (SELECT id, count(*) AS n FROM dtok GROUP BY id),
ovb AS (SELECT a.id AS la, b.id AS rb, count(*) AS o
        FROM tok a JOIN tok b ON a.t = b.t GROUP BY 1, 2),
cand AS (SELECT la, rb FROM ovb WHERE o >= 2),
sized AS (SELECT c.la, c.rb FROM cand c
          JOIN sz sa ON c.la = sa.id JOIN sz sb ON c.rb = sb.id
          WHERE sb.n >= ceil(round(0.5 * sa.n, 4))
            AND sb.n <= floor(round(sa.n / 0.5, 4))),
ov AS (SELECT a.id AS la, b.id AS rb, count(*) AS o
       FROM dtok a JOIN dtok b ON a.t = b.t GROUP BY 1, 2)
SELECT s.la AS l_p_partkey, s.rb AS r_p_partkey,
       o * 1.0 / (sa.n + sb.n - o) AS _sim_score
FROM sized s JOIN ov ON s.la = ov.la AND s.rb = ov.rb
JOIN sz sa ON s.la = sa.id JOIN sz sb ON s.rb = sb.id
WHERE o * 1.0 / (sa.n + sb.n - o) >= 0.5
"""
ORACLE_SQL['normalize_text_documents'] = r"""
SELECT doc_id, trim(regexp_replace(lower(text), '\s+', ' ', 'g'))
           AS text_norm
FROM documents
"""
ORACLE_SQL['near_dedup_documents'] = f"""
WITH perms(j, a, b) AS (VALUES {_minhash_perm_values()}),
toks AS (SELECT doc_id, list_filter(string_split_regex(text, '\\s+'),
                                    x -> x <> '') AS w FROM documents),
sh AS (SELECT doc_id,
              CASE WHEN len(w) = 0 THEN []
                   WHEN len(w) < 5 THEN [array_to_string(w, ' ')]
                   ELSE list_transform(range(1, len(w) - 3),
                        i -> array_to_string(
                            w[CAST(i AS INT):CAST(i AS INT)+4], ' '))
              END AS shingles
       FROM toks),
hs AS (SELECT doc_id, CAST(md5_number_upper(s) AS HUGEINT) AS h
       FROM sh, LATERAL unnest(shingles) AS g(s)),
sigs0 AS (SELECT hs.doc_id, p.j,
                 min(((CAST(p.a AS HUGEINT) * hs.h) % 18446744073709551616
                      + p.b) % 18446744073709551616
                     % 2305843009213693951) AS sig
          FROM hs, perms p GROUP BY 1, 2),
empty_docs AS (SELECT doc_id FROM sh WHERE len(shingles) = 0),
sigs AS (SELECT * FROM sigs0
         UNION ALL
         SELECT e.doc_id, p.j, CAST(2305843009213693951 AS HUGEINT)
         FROM empty_docs e, perms p),
bands AS (SELECT doc_id, j // 4 AS band,
                 array_agg(sig ORDER BY j) AS bs
          FROM sigs GROUP BY 1, 2),
cand AS (SELECT DISTINCT x.doc_id AS l_id, y.doc_id AS r_id
         FROM bands x JOIN bands y
           ON x.band = y.band AND x.bs = y.bs AND x.doc_id < y.doc_id),
ssets AS (SELECT doc_id, list_distinct(shingles) AS ss FROM sh),
verified AS (
  SELECT c.l_id, c.r_id,
         CASE WHEN len(sa.ss) = 0 AND len(sb.ss) = 0 THEN 1.0
              WHEN len(sa.ss) = 0 OR len(sb.ss) = 0 THEN 0.0
              ELSE len(list_intersect(sa.ss, sb.ss)) * 1.0 /
                   (len(sa.ss) + len(sb.ss)
                    - len(list_intersect(sa.ss, sb.ss)))
         END AS j
  FROM cand c JOIN ssets sa ON c.l_id = sa.doc_id
              JOIN ssets sb ON c.r_id = sb.doc_id),
match AS (SELECT l_id, r_id FROM verified WHERE j >= 0.6),
edges AS (SELECT l_id AS src, r_id AS dst FROM match
          UNION SELECT r_id, l_id FROM match),
nodes AS (SELECT DISTINCT src AS node FROM edges),
walkres AS (SELECT node, min(label) AS comp FROM (
  WITH RECURSIVE walk(node, label) AS (
    SELECT node, node FROM nodes
    UNION
    SELECT e.dst, w.label FROM walk w JOIN edges e ON w.node = e.src
  ) SELECT node, label FROM walk) GROUP BY node)
SELECT d.doc_id, coalesce(w.comp, d.doc_id) AS rep_id,
       CAST(coalesce(w.comp, d.doc_id) = d.doc_id AS BIGINT) AS keep
FROM documents d LEFT JOIN walkres w ON d.doc_id = w.node
"""
ORACLE_SQL['jaccard_dense_id_part'] = ORACLE_SQL['jaccard_join_part']
ORACLE_SQL['jaccard_two_relation_part'] = ORACLE_SQL['jaccard_join_part']
ORACLE_SQL['apply_matcher_dataset_part'] = ORACLE_SQL['apply_matcher_part']
ORACLE_SQL['prefix_filter_dataset_part'] = ORACLE_SQL['prefix_filter_part']
ORACLE_SQL['apply_matcher_dist_part'] = ORACLE_SQL['apply_matcher_part']
ORACLE_SQL['allow_missing_jaccard_dataset_part'] = \
    ORACLE_SQL['allow_missing_jaccard_part']

# IVF at nprobe == nlist is exact, so it shares the brute-force top-k oracle
# bundled person fixture re-created as inline VALUES (rows with a NULL
# join attr are dropped pre-join; the ' ' names tokenize to the empty set
# and pair with each other at score 1.0 under allow_empty)
ORACLE_SQL['person_dataset_join'] = """
WITH a(id, name) AS (VALUES
    ('a1','Kevin Smith'), ('a2','Michael Franklin'), ('a3','William Bridge'),
    ('a4','Binto George'), ('a5','Alphonse Kemper'), ('a6',' ')),
b(id, name) AS (VALUES
    ('b1','Mark Levene'), ('b2','Bill Bridge'), ('b3','Mike Franklin'),
    ('b4','Joseph Kuan'), ('b5','Alfons Kemper'), ('b6','Michael Brodie'),
    ('b7',' ')),
ta AS (SELECT id, unnest(list_distinct(list_filter(
           string_split_regex(name, '\\s+'), x -> x <> ''))) AS t FROM a),
tb AS (SELECT id, unnest(list_distinct(list_filter(
           string_split_regex(name, '\\s+'), x -> x <> ''))) AS t FROM b),
sza AS (SELECT id, len(list_distinct(list_filter(
            string_split_regex(name, '\\s+'), x -> x <> ''))) AS n FROM a),
szb AS (SELECT id, len(list_distinct(list_filter(
            string_split_regex(name, '\\s+'), x -> x <> ''))) AS n FROM b),
ov AS (SELECT ta.id AS la, tb.id AS rb, count(*) AS o
       FROM ta JOIN tb ON ta.t = tb.t GROUP BY 1, 2)
SELECT la AS "l_A.ID", rb AS "r_B.ID",
       round(o * 1.0 / (sa.n + sb.n - o), 4) AS _sim_score
FROM ov JOIN sza sa ON la = sa.id JOIN szb sb ON rb = sb.id
WHERE round(o * 1.0 / (sa.n + sb.n - o), 4) >= 0.3
UNION ALL
SELECT sa.id, sb.id, 1.0 FROM sza sa, szb sb WHERE sa.n = 0 AND sb.n = 0
"""

ORACLE_SQL['ann_topk_ivf_embeddings'] = ORACLE_SQL['ann_topk_embeddings']
ORACLE_SQL['ann_topk_lsh_embeddings'] = ORACLE_SQL['ann_topk_embeddings']
