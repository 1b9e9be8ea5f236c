"""stages/groupagg.py — bucketed replacements for ray's native
high-cardinality groupby aggregates, pinned against pandas ground truth."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from py_stringsimjoin_ray.stages.groupagg import (bucketed_distinct,
                                                  bucketed_distinct_count,
                                                  bucketed_group_agg)


def _ds(df, blocks=5):
    return ray.data.from_pandas(df).repartition(blocks)


@pytest.fixture(scope='module')
def frame(ray_session):
    rng = np.random.RandomState(3)
    return pd.DataFrame({
        'k': rng.randint(0, 200, 2000),
        's': rng.choice(['a', 'b', 'c', 'd'], 2000),
        'v': rng.randint(-50, 50, 2000).astype(np.int64),
        'w': rng.random(2000),
    })


def test_min_max_sum_count_single_key(frame):
    got = bucketed_group_agg(
        _ds(frame), ['k'],
        [('vmin', 'v', 'min'), ('vmax', 'v', 'max'),
         ('wsum', 'w', 'sum'), ('n', None, 'count')],
        num_buckets=7).to_pandas().sort_values('k', ignore_index=True)
    g = frame.groupby('k')
    exp = pd.DataFrame({'k': sorted(frame['k'].unique()),
                        'vmin': g['v'].min().values,
                        'vmax': g['v'].max().values,
                        'wsum': g['w'].sum().values,
                        'n': g.size().values})
    assert got['k'].tolist() == exp['k'].tolist()
    assert got['vmin'].tolist() == exp['vmin'].tolist()
    assert got['vmax'].tolist() == exp['vmax'].tolist()
    assert np.allclose(got['wsum'], exp['wsum'])
    assert got['n'].tolist() == exp['n'].tolist()


def test_multi_key_string_and_int(frame):
    got = bucketed_group_agg(_ds(frame), ['s', 'k'],
                             [('n', None, 'count')]) \
        .to_pandas().sort_values(['s', 'k'], ignore_index=True)
    exp = frame.groupby(['s', 'k']).size().reset_index(name='n')
    assert got['n'].tolist() == exp['n'].tolist()
    assert got['s'].tolist() == exp['s'].tolist()


def test_distinct_and_distinct_count(frame):
    got = bucketed_distinct(_ds(frame), ['s', 'k']).to_pandas()
    exp = frame[['s', 'k']].drop_duplicates()
    assert len(got) == len(exp)
    assert set(map(tuple, got.values)) == set(map(tuple, exp.values))
    assert bucketed_distinct_count(_ds(frame), ['k']) == \
        frame['k'].nunique()


def test_empty_input(ray_session):
    empty = pd.DataFrame({'k': pd.Series([], dtype=np.int64),
                          'v': pd.Series([], dtype=np.int64)})
    out = bucketed_group_agg(ray.data.from_pandas(empty), ['k'],
                             [('m', 'v', 'min')]).to_pandas()
    assert len(out) == 0
    assert bucketed_distinct_count(ray.data.from_pandas(empty), ['k']) == 0


def test_nullable_int_key_buckets_consistently(ray_session):
    # regression: a nullable int64 key converts to float64 only in blocks
    # that contain a null; dtype-raw hashing routed the same key value to
    # two buckets and emitted duplicate group rows
    import pyarrow as pa
    blk_a = pa.table({'k': pa.array([5, None, 7], pa.int64()),
                      'v': pa.array([10, 20, 30], pa.int64())})
    blk_b = pa.table({'k': pa.array([5, 7], pa.int64()),
                      'v': pa.array([1, 2], pa.int64())})
    ds = ray.data.from_arrow([blk_a, blk_b])
    out = bucketed_group_agg(ds, ['k'], [('m', 'v', 'min'),
                                         ('n', None, 'count')],
                             num_buckets=64).to_pandas()
    by_key = {(-1 if pd.isnull(r['k']) else int(r['k'])): (r['m'], r['n'])
              for _, r in out.iterrows()}
    assert len(out) == 3  # one row per distinct key incl the null group
    assert by_key[5] == (1, 2) and by_key[7] == (2, 2)
    assert by_key[-1] == (20, 1)


def test_matches_native_aggregate_small(ray_session):
    # cross-check vs ray's own aggregate on a LOW-cardinality key (where
    # the native path is usable)
    df = pd.DataFrame({'k': [1, 1, 2, 2, 2, 3], 'v': [5, 3, 9, 1, 4, 7]})
    got = bucketed_group_agg(ray.data.from_pandas(df), ['k'],
                             [('m', 'v', 'min')]) \
        .to_pandas().sort_values('k', ignore_index=True)
    native = ray.data.from_pandas(df).groupby('k').min('v').to_pandas() \
        .sort_values('k', ignore_index=True)
    assert got['m'].tolist() == native['min(v)'].tolist()


def test_nullable_int_key_dtype_fidelity(ray_session):
    # Arrow-native reduce (round 4): a nullable int64 key keeps its int64
    # Arrow type end to end — the pandas reducer widened it to float64
    import pyarrow as pa
    blk = pa.table({'k': pa.array([5, None, 7, 5], pa.int64()),
                    'v': pa.array([1, 2, 3, 4], pa.int64())})
    ds = ray.data.from_arrow([blk])
    out = bucketed_group_agg(ds, ['k'], [('s', 'v', 'sum')], num_buckets=8)
    schema = out.schema()
    assert dict(zip(schema.names, schema.types))['k'] == pa.int64()
    got = out.to_pandas()
    by = {(-1 if pd.isnull(r['k']) else int(r['k'])): r['s']
          for _, r in got.iterrows()}
    assert by == {5: 5, 7: 3, -1: 2}


def test_string_keys_shared_agg_columns(ray_session):
    # two outs off the same (col, kind) pair share one Arrow aggregate
    # pass; min+max+count over a string key
    df = pd.DataFrame({'t': ['a', 'b', 'a', 'a'], 'v': [3, 9, 1, 5]})
    out = bucketed_group_agg(
        ray.data.from_pandas(df), ['t'],
        [('lo', 'v', 'min'), ('lo2', 'v', 'min'), ('hi', 'v', 'max'),
         ('n', None, 'count')]).to_pandas().set_index('t')
    assert out.loc['a', 'lo'] == 1 and out.loc['a', 'lo2'] == 1
    assert out.loc['a', 'hi'] == 5 and out.loc['a', 'n'] == 3
    assert out.loc['b', 'lo'] == 9 and out.loc['b', 'n'] == 1


def test_out_name_colliding_with_key_rejected(ray_session):
    import pytest
    df = pd.DataFrame({'k': [1, 2], 'v': [3, 4]})
    with pytest.raises(ValueError, match='collide'):
        bucketed_group_agg(ray.data.from_pandas(df), ['k'],
                           [('k', 'v', 'sum')])


def test_property_vs_duckdb(ray_session):
    """Randomized cross-check of the Arrow combine/reduce against DuckDB
    GROUP BY on the same data — nullable int keys, string keys, negative
    values, multiple aggregates."""
    import duckdb
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(
        st.tuples(st.one_of(st.integers(-3, 3), st.none()),
                  st.sampled_from(['x', 'y', 'z']),
                  st.integers(-100, 100)),
        min_size=1, max_size=40))
    def check(rows):
        df = pd.DataFrame(rows, columns=['k1', 'k2', 'v'])
        df['k1'] = df['k1'].astype('Int64')
        got = bucketed_group_agg(
            ray.data.from_pandas(df), ['k1', 'k2'],
            [('mn', 'v', 'min'), ('mx', 'v', 'max'),
             ('sm', 'v', 'sum'), ('n', None, 'count')],
            num_buckets=8).to_pandas()
        con = duckdb.connect()
        con.register('t', df)
        exp = con.sql("""
            SELECT k1, k2, min(v) mn, max(v) mx, sum(v) sm, count(*) n
            FROM t GROUP BY 1, 2""").df()
        key = lambda r: (-10**9 if pd.isnull(r['k1']) else int(r['k1']),
                         r['k2'])
        g = {key(r): (r['mn'], r['mx'], r['sm'], r['n'])
             for _, r in got.iterrows()}
        e = {key(r): (r['mn'], r['mx'], r['sm'], r['n'])
             for _, r in exp.iterrows()}
        assert g == e
    check()


def test_key_named_like_internal_agg_output(frame):
    """ADVICE r4: a key named '{col}_{func}' (e.g. 'v_sum' while summing
    'v') collides with Arrow's internal aggregate output name; outputs are
    now resolved positionally so the clash is harmless."""
    df = pd.DataFrame({'v_sum': ['x', 'x', 'y', 'y', 'y'],
                       'v': [1, 2, 3, 4, 5]})
    got = bucketed_group_agg(_ds(df, blocks=2), ['v_sum'],
                             [('total', 'v', 'sum'), ('n', None, 'count')],
                             num_buckets=4) \
        .to_pandas().sort_values('v_sum', ignore_index=True)
    assert got['v_sum'].tolist() == ['x', 'y']
    assert got['total'].tolist() == [3, 12]
    assert got['n'].tolist() == [2, 3]


def test_dictionary_encoded_string_key(frame):
    """ADVICE r4: dictionary-encoded key columns (e.g. from parquet
    read_dictionary or dict-encoded blocks) are decoded to their value type
    before the Arrow group_by."""
    import pyarrow as pa
    tbl = pa.table({'k': pa.array(['a', 'b', 'a', 'c', 'b', 'a'])
                    .dictionary_encode(),
                    'v': pa.array([1, 2, 3, 4, 5, 6], pa.int64())})
    ds = ray.data.from_arrow(tbl).repartition(3)
    got = bucketed_group_agg(ds, ['k'], [('s', 'v', 'sum')],
                             num_buckets=4) \
        .to_pandas().sort_values('k', ignore_index=True)
    assert got['k'].tolist() == ['a', 'b', 'c']
    assert got['s'].tolist() == [10, 7, 4]
    dd = bucketed_distinct(ds, ['k'], num_buckets=4).to_pandas()
    assert sorted(dd['k'].tolist()) == ['a', 'b', 'c']


def test_group_by_layout_change_fails_loudly():
    """_grouped maps pyarrow's group_by output by position; a layout with
    the keys NOT first must raise (even under ``python -O``) instead of
    swapping key and aggregate columns."""
    import pyarrow as pa

    from py_stringsimjoin_ray.stages.groupagg import _grouped

    class KeysLast:
        def __init__(self, tbl):
            self.tbl = tbl
            self.schema = tbl.schema

        def group_by(self, keys, use_threads=True):
            grouped = self.tbl.group_by(keys, use_threads=use_threads)

            class Agg:
                def aggregate(self, plan):
                    res = grouped.aggregate(plan)
                    n = len(keys)
                    return res.select(list(range(n, res.num_columns))
                                      + list(range(n)))
            return Agg()

    tbl = pa.table({'k': [1, 1, 2], 'v': [1, 2, 3]})
    assert _grouped(tbl, ['k'], [('s', 'v', 'sum')]).column_names == ['k', 's']
    with pytest.raises(RuntimeError, match='group_by layout'):
        _grouped(KeysLast(tbl), ['k'], [('s', 'v', 'sum')])
