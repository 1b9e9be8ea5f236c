import numpy as np
import pandas as pd
import pytest

from py_stringsimjoin_ray import (OverlapFilter, WhitespaceTokenizer,
                                  apply_matcher, dataframe_column_to_str,
                                  profile_counts, profile_table_for_join,
                                  series_to_str)
from py_stringsimjoin_ray.core import measures
from py_stringsimjoin_ray.stages import attach

WS = WhitespaceTokenizer(return_set=True)


def make_candset(A, B):
    return OverlapFilter(WS, 1).filter_tables(A, B, 'A.ID', 'B.ID',
                                              'A.name', 'B.name')


def test_apply_matcher_jaccard(person_tables):
    A, B = person_tables
    cand = make_candset(A, B)
    out = apply_matcher(cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID', 'B.ID',
                        'A.name', 'B.name', WS, measures.jaccard, 0.3)
    lmap = dict(zip(A['A.ID'], A['A.name']))
    rmap = dict(zip(B['B.ID'], B['B.name']))
    exp = {}
    for _id, lk, rk in zip(cand['_id'], cand['l_A.ID'], cand['r_B.ID']):
        lv, rv = lmap[lk], rmap[rk]
        if pd.isnull(lv) or pd.isnull(rv):
            continue
        s = measures.jaccard(WS.tokenize(lv), WS.tokenize(rv))
        if s >= 0.3:
            exp[(lk, rk)] = (_id, s)
    got = {(l, r): (i, s) for i, l, r, s in
           zip(out['_id'], out['l_A.ID'], out['r_B.ID'], out['_sim_score'])}
    assert got == exp
    assert list(out.columns) == ['_id', 'l_A.ID', 'r_B.ID', '_sim_score']


def test_apply_matcher_no_tokenizer_and_out_attrs(person_tables):
    A, B = person_tables

    def exact(l, r):
        return 1.0 if l == r else 0.0

    cand = make_candset(A, B)
    out = apply_matcher(cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID', 'B.ID',
                        'A.zipcode', 'B.zipcode', None, exact, 1.0, '=',
                        l_out_attrs=['A.zipcode'], r_out_attrs=['B.zipcode'])
    assert len(out) > 0
    assert (out['l_A.zipcode'] == out['r_B.zipcode']).all()
    assert list(out.columns) == ['_id', 'l_A.ID', 'r_B.ID', 'l_A.zipcode',
                                 'r_B.zipcode', '_sim_score']


def test_apply_matcher_allow_missing(person_tables):
    A, B = person_tables
    cand = pd.DataFrame({'_id': [0, 1], 'l_A.ID': ['a7', 'a1'],
                         'r_B.ID': ['b1', 'b1']})
    out = apply_matcher(cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID', 'B.ID',
                        'A.name', 'B.name', WS, measures.jaccard, 0.9,
                        allow_missing=True)
    assert ('a7', 'b1') in set(zip(out['l_A.ID'], out['r_B.ID']))
    assert np.isnan(out.loc[out['l_A.ID'] == 'a7', '_sim_score'].iloc[0])


def test_apply_matcher_instance_method(person_tables):
    """The reference needs copyreg pickling hooks for bound methods; Ray's
    cloudpickle must handle them natively (apply_matcher.py:21-28)."""
    A, B = person_tables

    class Scorer:
        def __init__(self, w):
            self.w = w

        def score(self, l, r):
            return self.w * measures.jaccard(l, r)

    cand = make_candset(A, B)
    out = apply_matcher(cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID', 'B.ID',
                        'A.name', 'B.name', WS, Scorer(2.0).score, 1.0)
    exp = apply_matcher(cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID', 'B.ID',
                        'A.name', 'B.name', WS, measures.jaccard, 0.5)
    assert set(zip(out['l_A.ID'], out['r_B.ID'])) == \
        set(zip(exp['l_A.ID'], exp['r_B.ID']))


def test_converter_int_and_float():
    df = pd.DataFrame({'i': [1, 2], 'f': [1.0, np.nan], 'g': [1.5, np.nan],
                       's': ['x', 'y']})
    out = dataframe_column_to_str(df, 'i')
    assert list(out['i']) == ['1', '2']
    out = dataframe_column_to_str(df, 'f')
    assert out['f'][0] == '1' and pd.isnull(out['f'][1])
    out = dataframe_column_to_str(df, 'g')
    assert out['g'][0] == '1.5' and pd.isnull(out['g'][1])
    col = dataframe_column_to_str(df, 'i', return_col=True)
    assert isinstance(col, pd.Series) and list(col) == ['1', '2']
    assert dataframe_column_to_str(df, 'i', inplace=True) is True
    assert list(df['i']) == ['1', '2']
    with pytest.raises(AssertionError):
        dataframe_column_to_str(df, 'i', inplace=True, return_col=True)
    with pytest.raises(AssertionError):
        dataframe_column_to_str(df, 'nope')


def test_series_to_str_empty():
    s = pd.Series([], dtype=float)
    out = series_to_str(s)
    assert out.dtype == object


def test_join_on_converted_numeric(person_tables):
    from py_stringsimjoin_ray import jaccard_join
    A, B = person_tables
    A2 = dataframe_column_to_str(A, 'A.birth_year')
    B2 = dataframe_column_to_str(B, 'B.birth_year')
    out = jaccard_join(A2, B2, 'A.ID', 'B.ID', 'A.birth_year', 'B.birth_year',
                       WhitespaceTokenizer(return_set=True), 1.0)
    exp = {(a, b) for a in A2.index for b in B2.index
           if A2['A.birth_year'][a] == B2['B.birth_year'][b]}
    exp = {(A2['A.ID'][a], B2['B.ID'][b]) for a, b in exp}
    assert set(zip(out['l_A.ID'], out['r_B.ID'])) == exp


def test_profiler_pandas(person_tables):
    A, _ = person_tables
    out = profile_table_for_join(A)
    assert out.loc['A.ID', 'Unique values'] == '7 (100.0%)'
    assert out.loc['A.ID', 'Comments'] == \
        'This attribute can be used as a key attribute.'
    assert out.loc['A.name', 'Missing values'].startswith('1 ')


def test_profiler_dataset(person_tables):
    import ray.data
    A, _ = person_tables
    ds = ray.data.from_pandas(A)
    out = profile_table_for_join(ds, ['A.ID', 'A.name', 'A.zipcode'])
    pd_out = profile_table_for_join(A, ['A.ID', 'A.name', 'A.zipcode'])
    assert out.equals(pd_out)


def test_profile_counts(person_tables):
    A, _ = person_tables
    out = profile_counts(A, ['A.ID', 'A.name'])
    assert list(out['unique_values']) == [7, 7]  # 6 names + NaN
    assert list(out['missing_values']) == [0, 1]


def test_get_install_path_points_at_package_parent():
    import os

    import py_stringsimjoin_ray as ssj
    p = ssj.get_install_path()
    assert os.path.isdir(os.path.join(p, 'py_stringsimjoin_ray'))


def _matcher_all_paths(A, B, **kw):
    """Run apply_matcher over every attach regime / output mode."""
    import ray.data

    cand = make_candset(A, B)
    args = (cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID', 'B.ID',
            'A.name', 'B.name', WS, measures.jaccard, 0.3)
    base = apply_matcher(*args, **kw)

    def norm(df):
        return df.sort_values('_id').reset_index(drop=True)

    results = {'broadcast_pandas': base}
    # Dataset candset + Dataset tables, dataset output
    ds_args = (ray.data.from_pandas(cand), 'l_A.ID', 'r_B.ID',
               ray.data.from_pandas(A), ray.data.from_pandas(B),
               'A.ID', 'B.ID', 'A.name', 'B.name', WS, measures.jaccard, 0.3)
    results['dataset_io'] = apply_matcher(*ds_args, output='dataset',
                                          **kw).to_pandas()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(attach, '_BUCKETED_ONLY', True)
        results['forced_dist'] = apply_matcher(*args, **kw)
        results['forced_dist_dataset'] = apply_matcher(
            *args, output='dataset', **kw).to_pandas()
    for name, df in results.items():
        pd.testing.assert_frame_equal(norm(df), norm(base),
                                      check_like=True, obj=name)
    return base


def test_apply_matcher_regime_equality(person_tables):
    """Broadcast, forced hash-join, and dataset-output regimes emit the
    identical pair set (VERDICT r2 #1)."""
    A, B = person_tables
    base = _matcher_all_paths(A, B, l_out_attrs=['A.name'],
                              r_out_attrs=['B.name'])
    assert len(base) > 0


def test_apply_matcher_forced_dist_keyerror(person_tables, monkeypatch):
    """The hash-join regime preserves the KeyError on candset keys absent
    from the input tables."""
    A, B = person_tables
    cand = pd.DataFrame({'_id': [0], 'l_A.ID': ['zz_missing'],
                         'r_B.ID': ['b1']})
    monkeypatch.setattr(attach, '_BUCKETED_ONLY', True)
    with pytest.raises(Exception) as ei:
        apply_matcher(cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID', 'B.ID',
                      'A.name', 'B.name', WS, measures.jaccard, 0.3)
    assert 'not present' in str(ei.value)


def test_apply_matcher_dataset_streaming_no_driver_collect(person_tables):
    """A Dataset candset streams through without a to_pandas round-trip:
    the result Dataset is lazy until consumed."""
    import ray.data
    A, B = person_tables
    cand = ray.data.from_pandas(make_candset(A, B))
    out = apply_matcher(cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID', 'B.ID',
                        'A.name', 'B.name', WS, measures.jaccard, 0.3,
                        output='dataset')
    assert isinstance(out, ray.data.Dataset)
    df = out.to_pandas()
    assert set(df.columns) == {'_id', 'l_A.ID', 'r_B.ID', '_sim_score'}
    assert (df['_sim_score'] >= 0.3).all()


def test_apply_matcher_salted_attach_equality(person_tables, monkeypatch):
    """``attach._ATTACH_SALT`` > 1 replicates side rows across sub-buckets
    (skew hardening); the attached result must be identical."""
    A, B = person_tables
    base = _matcher_all_paths(A, B, l_out_attrs=['A.name'])
    monkeypatch.setattr(attach, '_BUCKETED_ONLY', True)
    monkeypatch.setattr(attach, '_ATTACH_SALT', 4)
    cand = make_candset(A, B)
    salted = apply_matcher(cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID',
                           'B.ID', 'A.name', 'B.name', WS,
                           measures.jaccard, 0.3,
                           l_out_attrs=['A.name'])
    pd.testing.assert_frame_equal(
        salted.sort_values('_id').reset_index(drop=True),
        base.sort_values('_id').reset_index(drop=True), check_like=True)


@pytest.mark.parametrize('key_dtype', ['int64', 'str'])
def test_bucketed_attach_dtypes_and_null_values(key_dtype):
    """bucketed_attach preserves value dtypes (incl. int64 with nulls via
    arrow) and attaches correct values for int and string key domains."""
    import ray.data

    from py_stringsimjoin_ray.stages.attach import (arrow_schema_of,
                                                    bucketed_attach)
    n = 57
    if key_dtype == 'int64':
        keys = np.arange(n, dtype=np.int64) * 7
    else:
        keys = np.array([f'k{i:03d}' for i in range(n)], dtype=object)
    side = pd.DataFrame({'k': keys,
                         'val_i': np.arange(n, dtype=np.int64) * 11,
                         'val_s': [f'v{i}' if i % 5 else None
                                   for i in range(n)]})
    rng = np.random.default_rng(3)
    cand = pd.DataFrame({'_id': np.arange(200),
                         'ck': keys[rng.integers(0, n, 200)],
                         'other': rng.integers(0, 10, 200)})
    cand_ds = ray.data.from_pandas(cand)
    att, colmap, _ = bucketed_attach(cand_ds, arrow_schema_of(cand),
                                     side, 'ck', 'k',
                                     ['k', 'val_i', 'val_s'], 't',
                                     salt_col='other', salt=3)
    got = att.to_pandas()
    assert len(got) == len(cand)
    smap_i = dict(zip(side['k'], side['val_i']))
    smap_s = dict(zip(side['k'], side['val_s']))
    for _, row in got.iterrows():
        assert row[colmap['val_i']] == smap_i[row['ck']]
        exp = smap_s[row['ck']]
        assert (pd.isnull(row[colmap['val_s']]) and pd.isnull(exp)) \
            or row[colmap['val_s']] == exp


class TestRecognizedSimFastPath:
    """VERDICT r3 #4: when sim_function IS one of the engine's own set
    measures, apply_matcher scores the whole batch with the vectorized
    token-set kernel; any other callable takes the per-pair loop.  The two
    paths must agree exactly."""

    @staticmethod
    def _score_both(lv, rv, tokenizer, fn, comp_op, threshold,
                    allow_missing=False):
        from py_stringsimjoin_ray.core.comp_ops import COMP_OP_MAP
        from py_stringsimjoin_ray.pipelines.matcher import _score_mask
        lv = np.asarray(lv, dtype=object)
        rv = np.asarray(rv, dtype=object)
        fast = _score_mask(lv, rv, tokenizer, fn, COMP_OP_MAP[comp_op],
                           threshold, allow_missing)
        wrapped = lambda a, b: fn(a, b)  # defeats identity recognition
        slow = _score_mask(lv, rv, tokenizer, wrapped, COMP_OP_MAP[comp_op],
                           threshold, allow_missing)
        return fast, slow

    @pytest.mark.parametrize('fn', [measures.jaccard, measures.cosine,
                                    measures.dice, measures.overlap,
                                    measures.overlap_coefficient])
    @pytest.mark.parametrize('comp_op', ['>=', '<', '='])
    def test_fast_equals_loop(self, fn, comp_op):
        lv = ['a b c', 'a b', '', 'x y z w', 'a b c', None, 'q',
              'dup dup words words', 'a b c']
        rv = ['a b d', 'a b', '', 'z w', 'a b c', 'a b', None,
              'dup words other', 'c b a']
        t = 1.0 if fn is measures.overlap else 0.5
        (fs, fk), (ss, sk) = self._score_both(lv, rv, WS, fn, comp_op, t)
        np.testing.assert_array_equal(fs, ss)
        np.testing.assert_array_equal(fk, sk)

    def test_allow_missing_and_bag_tokenizer(self):
        from py_stringsimjoin_ray import WhitespaceTokenizer as W
        bag = W(return_set=False)  # tokenize() yields duplicate tokens
        lv = ['a a b', None, 'c c c']
        rv = ['a b b', 'x', 'c']
        (fs, fk), (ss, sk) = self._score_both(
            lv, rv, bag, measures.jaccard, '>=', 0.4, allow_missing=True)
        np.testing.assert_array_equal(fs, ss)
        np.testing.assert_array_equal(fk, sk)
        assert fk[1] and np.isnan(fs[1])  # missing kept with NaN score

    def test_end_to_end_matches_oracle_shape(self, person_tables):
        A, B = person_tables
        cand = make_candset(A, B)
        fast = apply_matcher(cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID', 'B.ID',
                             'A.name', 'B.name', WS, measures.jaccard, 0.3)
        slow = apply_matcher(cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID', 'B.ID',
                             'A.name', 'B.name', WS,
                             lambda a, b: measures.jaccard(a, b), 0.3)
        pd.testing.assert_frame_equal(
            fast.sort_values('_id', ignore_index=True),
            slow.sort_values('_id', ignore_index=True))
