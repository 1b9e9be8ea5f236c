"""Local route of ``filter_tables`` (stages/localjoin.py) vs the Dataset
route.

Every case runs the SAME ``filter_tables`` call twice — with the local
row cap lifted (one Ray task: tokenize, vocabulary, signature table, slim
postings, candgen and verify in memory) and closed (the slim-postings
Dataset pipeline: postings, candgen and verify shuffles) —
and asserts exact frame equality including dtypes, after dropping the
order-dependent ``_id`` and sorting.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from py_stringsimjoin_ray import (OverlapFilter, PositionFilter, PrefixFilter,
                                  QgramTokenizer, WhitespaceTokenizer)
from py_stringsimjoin_ray.pipelines import join
from py_stringsimjoin_ray.stages import localjoin

from test_filters import oracle_position_tables, oracle_prefix_tables

VOCAB = np.array(['tok%03d' % i for i in range(60)])
WS = WhitespaceTokenizer(return_set=True)


def _table(n, seed):
    r = np.random.RandomState(seed)
    texts = [' '.join(r.choice(VOCAB, r.randint(1, 9))) for _ in range(n)]
    texts[3] = ''      # empty token set (allow_empty pairs)
    texts[5] = None    # null filter attr (allow_missing pairs)
    return pd.DataFrame({'id': np.arange(n), 'txt': texts,
                         'extra': r.randint(0, 5, n)})


@pytest.fixture(scope='module')
def tables(ray_session):
    return _table(300, 1), _table(250, 2)


@pytest.fixture
def routes(monkeypatch):
    """Records what each ``local_match_pairs`` call returned: None means
    the call fell through to the Dataset route."""
    seen = []
    orig = localjoin.local_match_pairs

    def spy(*args, **kwargs):
        res = orig(*args, **kwargs)
        seen.append(res is not None)
        return res
    monkeypatch.setattr(localjoin, 'local_match_pairs', spy)
    return seen


def _canon(df):
    df = df.drop(columns=['_id'])
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _both_routes(monkeypatch, routes, call):
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 2 ** 62)
    loc = call()
    assert routes == [True]
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    dist = call()
    assert routes == [True], 'a row cap of 0 took the local route'
    pd.testing.assert_frame_equal(_canon(loc), _canon(dist),
                                  check_dtype=True)
    return loc


FILTERS = [
    ('prefix_jaccard', lambda: PrefixFilter(WS, 'JACCARD', 0.5), {}),
    ('prefix_cosine', lambda: PrefixFilter(WS, 'COSINE', 0.6), {}),
    ('prefix_qgram_ed', lambda: PrefixFilter(
        QgramTokenizer(qval=3, return_set=False), 'EDIT_DISTANCE', 2), {}),
    ('position_jaccard', lambda: PositionFilter(WS, 'JACCARD', 0.5), {}),
    ('position_cosine', lambda: PositionFilter(WS, 'COSINE', 0.6), {}),
    ('position_qgram_ed', lambda: PositionFilter(
        QgramTokenizer(qval=3, return_set=False), 'EDIT_DISTANCE', 2), {}),
    ('overlap', lambda: OverlapFilter(WS, 2), dict(out_sim_score=True)),
    ('overlap_qgram_bag', lambda: OverlapFilter(
        QgramTokenizer(qval=2, return_set=False), 12, '>'),
     dict(out_sim_score=True)),
]


@pytest.mark.parametrize('name,make,kw', FILTERS, ids=[f[0] for f in FILTERS])
def test_two_table_parity(tables, monkeypatch, routes, name, make, kw):
    A, B = tables
    out = _both_routes(monkeypatch, routes, lambda: make().filter_tables(
        A, B, 'id', 'id', 'txt', 'txt', l_out_attrs=['extra'],
        r_out_attrs=['txt'], **kw))
    assert len(out) > 0


@pytest.mark.parametrize('name,make,kw', FILTERS, ids=[f[0] for f in FILTERS])
def test_same_relation_parity(tables, monkeypatch, routes, name, make, kw):
    A, _ = tables
    out = _both_routes(monkeypatch, routes, lambda: make().filter_tables(
        A, A, 'id', 'id', 'txt', 'txt', **kw))
    assert len(out) > 0


@pytest.mark.parametrize('same', [False, True])
def test_salted_grid_parity(tables, monkeypatch, routes, same):
    # salt_df_threshold=5 grid-salts every frequent token on both routes
    A, B = tables
    R = A if same else B
    for f, kw in ((PrefixFilter(WS, 'JACCARD', 0.3), {}),
                  (PositionFilter(WS, 'JACCARD', 0.3), {}),
                  (OverlapFilter(WS, 1), dict(out_sim_score=True))):
        routes.clear()
        _both_routes(monkeypatch, routes, lambda: f.filter_tables(
            A, R, 'id', 'id', 'txt', 'txt', salt_df_threshold=5, **kw))


def test_allow_missing_and_empty_strings(tables, monkeypatch, routes):
    A, B = tables
    f = PositionFilter(WS, 'JACCARD', 0.5, allow_missing=True)
    out = _both_routes(monkeypatch, routes, lambda: f.filter_tables(
        A, B, 'id', 'id', 'txt', 'txt'))
    got = set(zip(out['l_id'], out['r_id']))
    assert (3, 3) in got          # empty × empty, allow_empty
    assert all((5, r) in got for r in B['id'])   # null × every R


def test_all_null_side_parity(monkeypatch, routes, ray_session):
    # one side tokenizes to no records at all: its postings are empty
    A = pd.DataFrame({'id': range(3), 'txt': [None] * 3})
    B = pd.DataFrame({'id': range(4),
                      'txt': ['tok001 tok002', None, 'tok001', '']})
    for f in (PrefixFilter(WS, 'JACCARD', 0.4),
              PositionFilter(WS, 'JACCARD', 0.4), OverlapFilter(WS, 1)):
        routes.clear()
        out = _both_routes(monkeypatch, routes, lambda: f.filter_tables(
            A, B, 'id', 'id', 'txt', 'txt'))
        assert len(out) == 0


def test_dataset_output_parity(tables, monkeypatch, routes):
    A, B = tables
    f = PrefixFilter(WS, 'JACCARD', 0.5, allow_missing=True)

    def call():
        return f.filter_tables(A, B, 'id', 'id', 'txt', 'txt',
                               output='dataset').to_pandas() \
            .sort_values(['l_key', 'r_key']).reset_index(drop=True)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 2 ** 62)
    loc = call()
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    dist = call()
    assert routes == [True]
    pd.testing.assert_frame_equal(loc, dist, check_dtype=True)
    assert len(loc) > 0


def test_fanout_parity(tables, monkeypatch, routes):
    # the fixture's session has 4 CPUs: with no posting threshold the
    # candgen buckets split over plain tasks
    A, B = tables
    monkeypatch.setattr(localjoin, '_FANOUT_POSTINGS', 0)
    for f, kw in ((PositionFilter(WS, 'JACCARD', 0.5), {}),
                  (OverlapFilter(WS, 2), dict(out_sim_score=True))):
        routes.clear()
        _both_routes(monkeypatch, routes, lambda: f.filter_tables(
            A, B, 'id', 'id', 'txt', 'txt', **kw))


def test_bucket_chunks_plan():
    buckets = np.array([3, 3, 3, 3, 1, 1, 7, 9, 9, 9])
    assert localjoin._bucket_chunks(buckets, 1, 0, 0) is None
    assert localjoin._bucket_chunks(buckets, 4, 10, 100) is None
    ntasks, chunk_of = localjoin._bucket_chunks(buckets, 3, 0, 0)
    assert ntasks == 3
    # whole buckets per task; the heaviest bucket (3) sits alone
    for b in np.unique(buckets):
        assert len(set(chunk_of[buckets == b])) == 1
    assert set(chunk_of[buckets == 3]).isdisjoint(chunk_of[buckets != 3])


def test_byte_cap_falls_back_to_dataset_route(tables, monkeypatch, routes):
    # the inputs pass the fetch gate, but the estimated slim postings
    # (every token of every distinct signature for overlap_candidates,
    # 24 B a row) do not: the task returns None and the Dataset route
    # answers
    A, B = tables
    fetched = sum(pa.Table.from_pandas(t[['id', 'txt']],
                                       preserve_index=False).nbytes
                  for t in (A, B))
    f = OverlapFilter(WS, 2)
    cap = localjoin.DEFAULT_LOCAL_MAX_ROWS
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    dist = f.filter_tables(A, B, 'id', 'id', 'txt', 'txt')
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', cap)
    monkeypatch.setenv('SSJ_LOCAL_MAX_BYTES', str(2 * fetched))
    got = f.filter_tables(A, B, 'id', 'id', 'txt', 'txt')
    assert routes == [False]
    pd.testing.assert_frame_equal(_canon(got), _canon(dist))
    assert len(got) > 0


@pytest.mark.parametrize('cls,oracle', [(PrefixFilter, oracle_prefix_tables),
                                        (PositionFilter,
                                         oracle_position_tables)])
def test_edit_distance_postings_carry_no_string(tables, monkeypatch, cls,
                                                oracle):
    A, B = tables
    A, B = A.head(80), B.head(80)
    tok = QgramTokenizer(qval=2, return_set=False)
    f = cls(tok, 'EDIT_DISTANCE', 2)
    exp = oracle(A, B, 'id', 'id', 'txt', 'txt', tok, 'EDIT_DISTANCE', 2)
    for route in (2 ** 62, 0):
        monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', route)
        out = f.filter_tables(A, B, 'id', 'id', 'txt', 'txt')
        assert set(zip(out['l_id'], out['r_id'])) == exp, route

    # the candidates body, run in this process, builds a string-free
    # signature table and postings
    mode = ('prefix_candidates' if cls is PrefixFilter
            else 'position_candidates')
    cfg = join._JoinConfig('EDIT_DISTANCE', tok, 2, '<=', False, False,
                           False, mode=mode)
    assert not cfg.keep_string
    columns = []
    orig = localjoin.SlimPostingsStage.__call__

    def record(self, batch):
        out = orig(self, batch)
        columns.extend([batch.column_names, out.column_names])
        return out
    monkeypatch.setattr(localjoin.SlimPostingsStage, '__call__', record)
    arr = [pa.Table.from_pandas(t[['id', 'txt']], preserve_index=False)
           for t in (A, B)]
    pairs, _ = localjoin._local_pairs(
        arr[0], arr[1], 'id', 'id', 'txt', 'txt', cfg,
        dict(localjoin._gates(), byte_cap=2 ** 62))
    assert set(zip(pairs['l_key'], pairs['r_key'])) == exp
    assert len(columns) == 2 and all('s' not in c for c in columns)
