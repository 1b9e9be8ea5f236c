import os

import pandas as pd
import pytest

from py_stringsimjoin_ray import (QgramTokenizer, disk_edit_distance_join,
                                  edit_distance_join, load_books_dataset,
                                  load_person_dataset, remove_non_ascii)
from py_stringsimjoin_ray.stages import attach


def test_disk_edit_distance_join_csv(tmp_path, person_tables):
    A, B = person_tables
    out_file = str(tmp_path / 'out.csv')
    ok = disk_edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 3,
                                 out_file, output_format='csv', data_limit=2)
    assert ok is True
    got = pd.read_csv(out_file)
    exp = edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 3)
    assert set(zip(got['l_A.ID'], got['r_B.ID'])) == \
        set(zip(exp['l_A.ID'], exp['r_B.ID']))
    assert list(got.columns) == ['l_A.ID', 'r_B.ID', '_sim_score']


def test_disk_edit_distance_join_parquet(tmp_path, person_tables):
    A, B = person_tables
    out_dir = str(tmp_path / 'outp')
    os.makedirs(out_dir)
    ok = disk_edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 2,
                                 out_dir)
    assert ok
    got = pd.read_parquet(out_dir)
    exp = edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 2)
    assert set(zip(got['l_A.ID'], got['r_B.ID'])) == \
        set(zip(exp['l_A.ID'], exp['r_B.ID']))


def test_disk_join_invalid_args(person_tables):
    A, B = person_tables
    with pytest.raises(AssertionError):
        disk_edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 2,
                                '/nonexistent-dir-xyz/out.csv')
    with pytest.raises(AssertionError):
        disk_edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 2,
                                '/tmp/out.csv', data_limit=0)


def test_disk_join_out_attrs_parquet(tmp_path, person_tables):
    """VERDICT r3 #1: l_out_attrs/r_out_attrs must reach the sink with the
    reference header (generic_helper.py:43-60) — they used to be silently
    dropped."""
    A, B = person_tables
    out_dir = str(tmp_path / 'outp')
    os.makedirs(out_dir)
    ok = disk_edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 2,
                                 out_dir, l_out_attrs=['A.name'],
                                 r_out_attrs=['B.name', 'B.ID'])
    assert ok
    got = pd.read_parquet(out_dir)
    exp = edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 2,
                             l_out_attrs=['A.name'],
                             r_out_attrs=['B.name', 'B.ID'])
    # reference header order (B.ID is redundant with the key and dropped)
    assert list(got.columns) == ['l_A.ID', 'r_B.ID', 'l_A.name', 'r_B.name',
                                 '_sim_score']
    key = ['l_A.ID', 'r_B.ID']
    g = got.sort_values(key, ignore_index=True)
    e = exp.drop(columns=['_id']).sort_values(key, ignore_index=True)
    pd.testing.assert_frame_equal(
        g, e[g.columns].astype(g.dtypes.to_dict()), check_like=True)


def test_disk_join_out_attrs_csv_header(tmp_path, person_tables):
    A, B = person_tables
    out_file = str(tmp_path / 'out.csv')
    disk_edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 1,
                            out_file, output_format='csv', data_limit=2,
                            l_out_attrs=['A.name'], r_out_attrs=['B.name'],
                            out_sim_score=False)
    got = pd.read_csv(out_file)
    assert list(got.columns) == ['l_A.ID', 'r_B.ID', 'l_A.name', 'r_B.name']
    exp = edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 1,
                             l_out_attrs=['A.name'], r_out_attrs=['B.name'])
    assert sorted(zip(got['l_A.ID'], got['r_B.ID'], got['l_A.name'],
                      got['r_B.name'])) == \
        sorted(zip(exp['l_A.ID'], exp['r_B.ID'], exp['l_A.name'],
                   exp['r_B.name']))


def test_disk_join_out_attrs_bucketed_regime(tmp_path, person_tables,
                                             monkeypatch):
    """Beyond-gate path: out attrs attach via the bucketed hash-shuffle
    (``attach._BUCKETED_ONLY``) — result identical to the broadcast
    regime."""
    A, B = person_tables
    out_dir = str(tmp_path / 'outd')
    os.makedirs(out_dir)
    monkeypatch.setattr(attach, '_BUCKETED_ONLY', True)
    disk_edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 2,
                            out_dir, l_out_attrs=['A.name'],
                            r_out_attrs=['B.name'])
    monkeypatch.undo()
    got = pd.read_parquet(out_dir)
    exp = edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 2,
                             l_out_attrs=['A.name'], r_out_attrs=['B.name'])
    key = ['l_A.ID', 'r_B.ID']
    g = got.sort_values(key, ignore_index=True)
    e = exp.drop(columns=['_id']).sort_values(key, ignore_index=True)
    pd.testing.assert_frame_equal(g[sorted(g.columns)],
                                  e[sorted(g.columns)].astype(
                                      g.dtypes[sorted(g.columns)].to_dict()))


def test_disk_join_invalid_out_attr(person_tables):
    A, B = person_tables
    with pytest.raises(AssertionError):
        disk_edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 2,
                                '/tmp/out.csv', l_out_attrs=['no_such_col'])


def test_load_person_dataset():
    A, B = load_person_dataset()
    assert len(A) == 7 and len(B) == 8
    assert A['A.ID'].is_unique


def test_load_books_dataset_deterministic():
    A1, B1 = load_books_dataset(200)
    A2, B2 = load_books_dataset(200)
    pd.testing.assert_frame_equal(A1, A2)
    pd.testing.assert_frame_equal(B1, B2)
    assert list(A1.columns) == ['ID', 'Title', 'Price', 'Author', 'ISBN13',
                                'Publisher', 'Pages']


def test_books_join_medium_scale():
    """Medium-scale oracle run on the books fixture (FIXTURES.md F2)."""
    from py_stringsimjoin_ray import WhitespaceTokenizer, jaccard_join
    from py_stringsimjoin_ray.core.measures import jaccard
    A, B = load_books_dataset(400)
    tok = WhitespaceTokenizer(return_set=True)
    out = jaccard_join(A, B, 'ID', 'ID', 'Title', 'Title', tok, 0.6)
    # sampled oracle check over returned pairs + count cross-check
    amap = dict(zip(A['ID'], A['Title']))
    bmap = dict(zip(B['ID'], B['Title']))
    n_exp = 0
    for ta in A['Title']:
        sa = set(tok.tokenize(ta))
        for tb in B['Title']:
            sb = set(tok.tokenize(tb))
            if not sa and not sb:
                n_exp += 1
                continue
            o = len(sa & sb)
            if sa and sb and round(o / (len(sa) + len(sb) - o), 4) >= 0.6:
                n_exp += 1
    assert len(out) == n_exp
    for _, row in out.head(50).iterrows():
        sa = set(tok.tokenize(amap[row['l_ID']]))
        sb = set(tok.tokenize(bmap[row['r_ID']]))
        if sa or sb:
            o = len(sa & sb)
            assert round(o / (len(sa) + len(sb) - o), 4) == row['_sim_score']


def test_remove_non_ascii():
    assert remove_non_ascii('abćdéf') == 'abdf'
