"""Driver-compare rehearsal: run every queries() entry at sf0.001 and check
row count + order-insensitive value equality against its oracle_sql() twin
(DuckDB on the same parquet), mimicking CORRECTNESS_r{N}.json."""

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

SF_DIR = '/root/testdata/sf0.001'
TABLES = ['region', 'nation', 'customer', 'supplier', 'part', 'orders',
          'lineitem', 'events', 'documents', 'embeddings']


@pytest.fixture(scope='module')
def con():
    c = duckdb.connect()
    for t in TABLES:
        p = f'{SF_DIR}/{t}.parquet'
        if os.path.exists(p):
            c.execute(f"CREATE VIEW {t} AS SELECT * FROM '{p}'")
    return c


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(9)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _compare(name, con):
    import __ray_entry__ as e
    q = e.queries()[name]
    sql = e.oracle_sql().get(name)
    mine = q(SF_DIR)
    if not isinstance(mine, pd.DataFrame):
        mine = mine.to_pandas()
    if sql is None:
        assert len(mine) >= 0  # rows-only check
        return
    oracle = con.sql(sql).df()
    assert len(mine) == len(oracle), \
        f'{name}: rows {len(mine)} vs oracle {len(oracle)}'
    a, b = canon(mine), canon(oracle)
    assert list(a.columns) == list(b.columns), (a.columns, b.columns)
    pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                  check_exact=False, rtol=0, atol=1e-9)


def test_all_queries_have_callables():
    import __ray_entry__ as e
    qs = e.queries()
    assert len(qs) >= 20
    for name, sql in e.oracle_sql().items():
        assert name in qs, f'oracle without query: {name}'


@pytest.mark.parametrize('name', [
    'jaccard_join_part', 'jaccard_dense_id_part',
    'jaccard_two_relation_part', 'cosine_join_part',
    'dice_join_part',
    'overlap_join_part', 'overlap_join_gt_part',
    'overlap_join_candgen_part', 'prefix_filter_salted_part',
    'overlap_coefficient_join_part',
    'jaccard_join_supplier_qgram3', 'edit_distance_join_customer',
    'jaccard_out_attrs_part', 'allow_missing_edit_distance_customer',
    'overlap_filter_part', 'size_filter_documents', 'prefix_filter_part',
    'prefix_filter_dataset_part',
    'position_filter_part', 'apply_matcher_part',
    'apply_matcher_dataset_part', 'apply_matcher_dist_part',
    'allow_missing_jaccard_dataset_part', 'profile_part',
    'composable_dataset_pipeline_part',
    'exact_dedup_documents', 'ngram_dedup_documents',
    'token_count_documents', 'quality_documents', 'langid_documents',
    'ann_topk_embeddings', 'cluster_components_part', 'media_meta_documents',
    'minhash_lsh_documents', 'near_dedup_documents',
    'normalize_text_documents', 'simhash_documents',
    'fingerprint_documents', 'media_decode_documents',
    'top_tokens_documents',
    'allow_missing_jaccard_part', 'col_to_str_customer',
    'filter_candset_part', 'person_dataset_join',
    'remove_non_ascii_documents',
    'disk_edit_distance_join_customer',
    'disk_edit_distance_join_out_attrs_customer',
    'suffix_filter_part', 'ann_topk_ivf_embeddings',
    'ann_topk_lsh_embeddings',
    'cosine_neardup_embeddings', 'window_agg_events', 'sessionize_events',
    'sessionize_bytype_events',
])
def test_query_vs_oracle(name, con):
    _compare(name, con)


def test_entry_smoke():
    import __ray_entry__ as e
    out = e.entry()
    df = out.to_pandas() if not isinstance(out, pd.DataFrame) else out
    assert len(df) > 0
    assert set(df.columns) == {'doc_id', 'cluster'}


# The regime-pinning queries: both regimes give the oracle's rows, so an
# oracle match alone would not notice a pin that stopped working.  Each test
# spies on the pinned regime's entry point, and checks that the pin leaves
# the process environment as it found it.

def _spy(monkeypatch, module, name, seen, result=False):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(out if result else 1)
        return out
    monkeypatch.setattr(module, name, spy)


def test_two_relation_query_takes_the_dataset_route(monkeypatch):
    from py_stringsimjoin_ray.pipelines import queries
    from py_stringsimjoin_ray.stages import localjoin, slimjoin
    local, slim = [], []
    _spy(monkeypatch, localjoin, 'local_match_pairs', local)
    _spy(monkeypatch, slimjoin, 'slim_match_pairs', slim)
    env, cap = dict(os.environ), localjoin.DEFAULT_LOCAL_MAX_ROWS
    assert len(queries.q_jaccard_two_relation_part(SF_DIR)) > 0
    assert local == [] and slim == [1]
    assert dict(os.environ) == env
    assert localjoin.DEFAULT_LOCAL_MAX_ROWS == cap


def test_overlap_candgen_query_skips_the_counting_kernel(monkeypatch):
    from py_stringsimjoin_ray.pipelines import queries
    from py_stringsimjoin_ray.stages import localjoin
    counted = []
    _spy(monkeypatch, localjoin, '_overlap_count_pairs', counted)
    # the sf0.001 names have 2 tokens, so threshold 2 routes to the
    # counting kernel only under a relative gate of 1.0: the unpinned
    # query takes it there, the pinned one must not
    monkeypatch.setattr(localjoin, '_OVERLAP_COUNT_REL', 1.0)
    assert len(queries.q_overlap_join_part(SF_DIR)) > 0
    assert counted == [1]
    env = dict(os.environ)
    assert len(queries.q_overlap_join_candgen_part(SF_DIR)) > 0
    assert counted == [1]
    assert dict(os.environ) == env
    assert localjoin._OVERLAP_COUNT_REL == 1.0


def test_matcher_dist_query_plans_the_bucketed_attach(monkeypatch):
    from py_stringsimjoin_ray.pipelines import matcher, queries
    from py_stringsimjoin_ray.stages import attach
    plans = []
    _spy(monkeypatch, matcher, 'plan_side', plans, result=True)
    env = dict(os.environ)
    assert len(queries.q_apply_matcher_dist_part(SF_DIR)) > 0
    assert [p[0] for p in plans] == ['dataset', 'dataset']
    assert dict(os.environ) == env
    assert attach._BUCKETED_ONLY is False
