"""Local fast path (stages/localjoin.py) vs the distributed pipeline.

Every case runs the SAME join twice — the local row cap lifted (in-process
kernels) and closed (the full Dataset pipeline) — and asserts
exact frame equality including dtypes.  The local path reuses the
distributed stages' kernels, so any divergence is a routing bug.
"""

import numpy as np
import pandas as pd
import pytest

from py_stringsimjoin_ray.core.tokenizers import (QgramTokenizer,
                                                  WhitespaceTokenizer)
from py_stringsimjoin_ray.pipelines import join
from py_stringsimjoin_ray.stages import localjoin

VOCAB = np.array(['tok%03d' % i for i in range(60)])


def _table(n, seed):
    r = np.random.RandomState(seed)
    texts = [' '.join(r.choice(VOCAB, r.randint(1, 9))) for _ in range(n)]
    texts[3] = ''      # empty token set (allow_empty fast path)
    texts[5] = None    # null join attr (dropped pre-join)
    return pd.DataFrame({'id': np.arange(n), 'txt': texts,
                         'extra': r.randint(0, 5, n)})


@pytest.fixture(scope='module')
def tables(ray_session):
    return _table(400, 1), _table(350, 2)


def _canon(df):
    df = df.drop(columns=['_id'])
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _both_paths(monkeypatch, fn, *args, **kwargs):
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 2 ** 62)
    loc = fn(*args, **kwargs)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    dist = fn(*args, **kwargs)
    pd.testing.assert_frame_equal(_canon(loc), _canon(dist),
                                  check_dtype=True)
    return loc


CASES = [
    ('jaccard', dict(threshold=0.3)),
    ('cosine', dict(threshold=0.4)),
    ('dice', dict(threshold=0.4)),
    ('overlap', dict(threshold=2)),
    ('overlap_coefficient', dict(threshold=0.5)),
]


@pytest.mark.parametrize('measure,kw', CASES)
def test_two_table_parity(tables, monkeypatch, measure, kw):
    A, B = tables
    fn = getattr(join, f'{measure}_join')
    out = _both_paths(monkeypatch, fn, A, B, 'id', 'id', 'txt', 'txt',
                      WhitespaceTokenizer(return_set=True), **kw,
                      l_out_attrs=['extra'], r_out_attrs=['txt'])
    assert len(out) > 0


def test_self_join_parity(tables, monkeypatch):
    A, _ = tables
    out = _both_paths(monkeypatch, join.jaccard_join, A, A, 'id', 'id',
                      'txt', 'txt', WhitespaceTokenizer(return_set=True),
                      0.4)
    assert len(out) > 0


def test_qgram_parity(tables, monkeypatch):
    A, B = tables
    out = _both_paths(monkeypatch, join.jaccard_join, A, B, 'id', 'id',
                      'txt', 'txt', QgramTokenizer(qval=3, return_set=True),
                      0.35)
    assert len(out) > 0


def test_qgram_unicode_parity(monkeypatch):
    """Mixed ASCII/non-ASCII batches: the qgram Arrow byte-window fast path
    must bail to the per-row slicer and both join paths must match a
    brute-force ground truth computed with the per-row tokenizer."""
    A = pd.DataFrame({'id': range(6), 'txt': [
        'café au lait', 'cafe au lait', 'naïve test', 'naive test',
        '日本語のテキスト', 'plain ascii text']})
    tok = QgramTokenizer(qval=2, return_set=True)
    out = _both_paths(monkeypatch, join.jaccard_join, A, A.copy(), 'id',
                      'id', 'txt', 'txt', tok, 0.5)
    got = {(int(a), int(b)) for a, b in zip(out['l_id'], out['r_id'])}
    exp = set()
    for i, s in zip(A['id'], A['txt']):
        ti = set(tok.tokenize(s))
        for j, u in zip(A['id'], A['txt']):
            tj = set(tok.tokenize(u))
            if ti | tj and len(ti & tj) / len(ti | tj) >= 0.5:
                exp.add((int(i), int(j)))
    assert got == exp and (0, 1) in got and (4, 4) in got


def test_edit_distance_parity(tables, monkeypatch):
    # EDIT_DISTANCE output depends on the token ordering — the local path
    # must reproduce the reference (count, token) order exactly
    A, B = tables
    out = _both_paths(monkeypatch, join.edit_distance_join, A, B, 'id',
                      'id', 'txt', 'txt', 3)
    assert len(out) > 0


def test_salted_grid_parity(tables, monkeypatch):
    # salt_df_threshold=5 forces heavy-token grid salting on both paths
    A, B = tables
    _both_paths(monkeypatch, join.jaccard_join, A, B, 'id', 'id', 'txt',
                'txt', WhitespaceTokenizer(return_set=True), 0.3,
                salt_df_threshold=5)
    _both_paths(monkeypatch, join.jaccard_join, A, A, 'id', 'id', 'txt',
                'txt', WhitespaceTokenizer(return_set=True), 0.3,
                salt_df_threshold=5)


def test_allow_missing_and_comp_op(tables, monkeypatch):
    A, B = tables
    _both_paths(monkeypatch, join.jaccard_join, A, B, 'id', 'id', 'txt',
                'txt', WhitespaceTokenizer(return_set=True), 0.5,
                allow_missing=True)
    _both_paths(monkeypatch, join.jaccard_join, A, B, 'id', 'id', 'txt',
                'txt', WhitespaceTokenizer(return_set=True), 0.3,
                comp_op='>')


def test_string_keys(tables, monkeypatch):
    A, B = tables
    A2 = A.assign(id=['a%d' % i for i in range(len(A))])
    B2 = B.assign(id=['b%d' % i for i in range(len(B))])
    out = _both_paths(monkeypatch, join.jaccard_join, A2, B2, 'id', 'id',
                      'txt', 'txt', WhitespaceTokenizer(return_set=True),
                      0.3)
    assert out['l_id'].str.startswith('a').all()


def test_dataset_io_parity(tables, monkeypatch, ray_session):
    import ray.data
    A, B = tables
    dsA = ray.data.from_pandas(A.dropna(subset=['txt']))
    dsB = ray.data.from_pandas(B.dropna(subset=['txt']))
    tok = WhitespaceTokenizer(return_set=True)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 2 ** 62)
    loc = join.jaccard_join(dsA, dsB, 'id', 'id', 'txt', 'txt', tok, 0.3,
                            output='dataset', validate_keys=False)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    dist = join.jaccard_join(dsA, dsB, 'id', 'id', 'txt', 'txt', tok, 0.3,
                             output='dataset', validate_keys=False)
    lp = loc.to_pandas().sort_values(['l_key', 'r_key']).reset_index(drop=True)
    dp = dist.to_pandas().sort_values(['l_key', 'r_key']).reset_index(drop=True)
    pd.testing.assert_frame_equal(lp, dp, check_dtype=False)


def test_empty_result(monkeypatch, ray_session):
    A = pd.DataFrame({'id': [0, 1], 'txt': ['aa bb', 'cc dd']})
    B = pd.DataFrame({'id': [0, 1], 'txt': ['ee ff', 'gg hh']})
    out = _both_paths(monkeypatch, join.jaccard_join, A, B, 'id', 'id',
                      'txt', 'txt', WhitespaceTokenizer(return_set=True),
                      0.9)
    assert len(out) == 0


def test_fanout_thresholds(tables, monkeypatch, ray_session):
    # drive the plain-task fan-out branches (candgen + verify) and pin
    # equality against the inline branch
    A, B = tables
    tok = WhitespaceTokenizer(return_set=True)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 2 ** 62)
    base = join.jaccard_join(A, B, 'id', 'id', 'txt', 'txt', tok, 0.3)
    monkeypatch.setattr(localjoin, '_FANOUT_POSTINGS', 1)
    monkeypatch.setattr(localjoin, '_FANOUT_PAIRS', 1)
    fanned = join.jaccard_join(A, B, 'id', 'id', 'txt', 'txt', tok, 0.3)
    pd.testing.assert_frame_equal(_canon(base), _canon(fanned))


def test_gate_routing(monkeypatch, ray_session):
    cfg = join._JoinConfig('JACCARD', WhitespaceTokenizer(return_set=True),
                           0.5, '>=', True, False, True)
    small = pd.DataFrame({'id': [0], 'txt': ['a']})

    def local(mode):
        cfg.mode = mode
        return localjoin.local_match_pairs(small, small, 'id', 'id', 'txt',
                                           'txt', cfg, True) is not None
    # the filter_tables candidates modes share the gate
    modes = ('join', 'prefix_candidates', 'position_candidates',
             'overlap_candidates')
    assert all(local(m) for m in modes)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    assert not any(local(m) for m in modes)


def test_fetch_gate(monkeypatch, ray_session):
    import ray.data
    big = pd.DataFrame({'id': range(5), 'txt': ['a'] * 5})
    BIGB = 2 ** 62
    assert localjoin._fetch_local(big, ['id', 'txt'], 3, BIGB) is None
    got = localjoin._fetch_local(big, ['id', 'txt'], 5, BIGB)
    assert got is not None and len(got) == 5
    # byte gate: tiny byte budget rejects even a row-eligible input
    assert localjoin._fetch_local(big, ['id', 'txt'], 5, 8) is None
    # oversized Dataset input is rejected after a BOUNDED fetch
    ds = ray.data.range(10_000)
    assert localjoin._fetch_local(ds, ['id'], 50, BIGB) is None
    # Dataset over the byte gate is rejected mid-stream
    assert localjoin._fetch_local(ds, ['id'], 20_000, 64) is None
    # two-table sum crosses the gate even when each side fits: the join
    # routes to the distributed path and still returns correct output
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 3)
    two = pd.DataFrame({'id': [0, 1], 'txt': ['aa bb', 'cc dd']})
    out = join.jaccard_join(two, two.copy(), 'id', 'id', 'txt', 'txt',
                            WhitespaceTokenizer(return_set=True), 0.9)
    assert len(out) == 2  # each row matches only itself across tables


def test_fetch_metadata_shortcut(ray_session):
    import ray.data
    # a bare-read plan exposes a free size estimate; when it exceeds the
    # byte gate by the 64x margin, _fetch_local must reject WITHOUT
    # consuming the stream (select_columns poisoned to prove it)
    ds = ray.data.range(100_000_000)  # est ~800 MB, metadata-only
    est = localjoin._cheap_size_bytes(ds)
    assert est is not None and est > 64 * 1024
    class Poisoned:
        def __init__(self, inner): self._inner = inner
        def __getattr__(self, name):
            if name in ('select_columns', 'iter_batches'):
                raise AssertionError('shortcut should reject before reading')
            return getattr(self._inner, name)
    assert localjoin._fetch_local(Poisoned(ds), ['id'], 2**40, 1024) is None
    # transformed lazy plans yield no free estimate (must not execute)
    m = ds.map_batches(lambda b: b, batch_format='pyarrow')
    assert localjoin._cheap_size_bytes(m) is None


class TestOverlapCountKernel:
    """Absolute-threshold OVERLAP counting kernel (VERDICT r4 #3): routed
    at low relative thresholds, must emit EXACTLY the candgen+verify
    path's rows for every comp_op and relation shape."""

    def _tables(self, n=800):
        rng = np.random.RandomState(3)
        words = [f'w{i}' for i in range(120)]
        def mk(shift):
            return pd.DataFrame({
                'id': np.arange(n) + shift,
                's': [' '.join(rng.choice(words, rng.randint(2, 9)))
                      for _ in range(n)]})
        return mk(0), mk(100000)

    @staticmethod
    def _canon(df):
        return sorted(map(tuple, df[['l_id', 'r_id', '_sim_score']]
                          .itertuples(index=False)))

    @pytest.mark.parametrize('t,op', [(2, '>='), (3, '>'), (3, '=')])
    def test_two_table_parity(self, ray_session, monkeypatch, t, op):
        from py_stringsimjoin_ray.pipelines.join import overlap_join
        A, B = self._tables()
        tok = WhitespaceTokenizer(return_set=True)
        monkeypatch.setattr(localjoin, '_OVERLAP_COUNT_REL', 1.0)
        fast = overlap_join(A, B, 'id', 'id', 's', 's', tok, t, comp_op=op)
        monkeypatch.setattr(localjoin, '_OVERLAP_COUNT_REL', 0)
        slow = overlap_join(A, B, 'id', 'id', 's', 's', tok, t, comp_op=op)
        assert self._canon(fast) == self._canon(slow)
        assert len(fast) > 0

    @pytest.mark.parametrize('t', [2, 3])
    def test_same_relation_parity(self, ray_session, monkeypatch, t):
        from py_stringsimjoin_ray.pipelines.join import overlap_join
        A, _ = self._tables()
        tok = WhitespaceTokenizer(return_set=True)
        monkeypatch.setattr(localjoin, '_OVERLAP_COUNT_REL', 1.0)
        fast = overlap_join(A, A, 'id', 'id', 's', 's', tok, t)
        monkeypatch.setattr(localjoin, '_OVERLAP_COUNT_REL', 0)
        slow = overlap_join(A, A, 'id', 'id', 's', 's', tok, t)
        assert self._canon(fast) == self._canon(slow)
        pairs = list(zip(fast['l_id'], fast['r_id']))
        assert len(pairs) == len(set(pairs))
        # identity pairs present with score = distinct token count
        assert all((i, i) in set(pairs) for i in A['id']
                   if len(set(A.loc[A['id'] == i, 's'].iloc[0].split()))
                   >= t)

    def test_exact_duplicate_classes(self, ray_session, monkeypatch):
        from py_stringsimjoin_ray.pipelines.join import overlap_join
        rows = ['alpha beta gamma delta'] * 5 + ['alpha beta zeta'] * 3 \
            + ['solo token'] * 2
        A = pd.DataFrame({'id': range(len(rows)), 's': rows})
        B = pd.DataFrame({'id': range(500, 500 + len(rows)), 's': rows})
        tok = WhitespaceTokenizer(return_set=True)
        monkeypatch.setattr(localjoin, '_OVERLAP_COUNT_REL', 1.0)
        fast = overlap_join(A, B, 'id', 'id', 's', 's', tok, 2)
        monkeypatch.setattr(localjoin, '_OVERLAP_COUNT_REL', 0)
        slow = overlap_join(A, B, 'id', 'id', 's', 's', tok, 2)
        assert self._canon(fast) == self._canon(slow)
        pairs = list(zip(fast['l_id'], fast['r_id']))
        assert len(pairs) == len(set(pairs))

    def test_incidence_cap_falls_back_to_candgen(self, ray_session,
                                                 monkeypatch):
        # a stopword-shaped corpus must NOT route to the counting kernel
        # (its token-incidence volume is quadratic there); the candgen path
        # grid-salts the heavy token and produces the same pairs
        from py_stringsimjoin_ray.pipelines.join import overlap_join
        from py_stringsimjoin_ray.stages import localjoin
        A, B = self._tables(300)
        A['s'] = 'stopword ' + A['s']
        B['s'] = 'stopword ' + B['s']
        tok = WhitespaceTokenizer(return_set=True)
        monkeypatch.setattr(localjoin, '_OVERLAP_COUNT_MAX_INC', 1000)
        routed = []
        orig = localjoin._overlap_count_pairs
        monkeypatch.setattr(localjoin, '_overlap_count_pairs',
                            lambda *a, **k: routed.append(1) or orig(*a, **k))
        capped = overlap_join(A, B, 'id', 'id', 's', 's', tok, 2)
        assert not routed, 'counting kernel routed past the incidence cap'
        monkeypatch.setattr(localjoin, '_OVERLAP_COUNT_MAX_INC', 1e9)
        counted = overlap_join(A, B, 'id', 'id', 's', 's', tok, 2)
        assert routed
        assert self._canon(capped) == self._canon(counted)
