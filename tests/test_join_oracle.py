"""Brute-force-oracle join tests — the reference's core test strategy
(``/root/reference/py_stringsimjoin/tests/test_join.py:33-161``) applied to
the Ray pipeline: compute the full cartesian product with pandas, score each
pair with the raw measure (round 4 for set measures), take pairs passing
comp_op as the expected set, and require exact set equality with the join
output (plus exact output-column headers and tokenizer-flag restoration)."""

import numpy as np
import pandas as pd
import pytest

from py_stringsimjoin_ray import (QgramTokenizer, WhitespaceTokenizer,
                                  cosine_join, dice_join, edit_distance_join,
                                  jaccard_join, overlap_coefficient_join,
                                  overlap_join)
from py_stringsimjoin_ray.core import measures
from py_stringsimjoin_ray.core.comp_ops import COMP_OP_MAP
from py_stringsimjoin_ray.pipelines import join
from py_stringsimjoin_ray.stages import localjoin

JOINS = {
    'JACCARD': (jaccard_join, measures.jaccard, True),
    'COSINE': (cosine_join, measures.cosine, True),
    'DICE': (dice_join, measures.dice, True),
    'OVERLAP': (overlap_join, measures.overlap, False),
    'OVERLAP_COEFFICIENT': (overlap_coefficient_join,
                            measures.overlap_coefficient, False),
}


def expected_pairs_set(A, B, l_key, r_key, l_attr, r_attr, tokenizer,
                       sim_fn, threshold, comp_op='>=', round4=True,
                       allow_empty=True, empty_score_one=True):
    comp = COMP_OP_MAP[comp_op]
    exp = set()
    for _, la in A.iterrows():
        if pd.isnull(la[l_attr]):
            continue
        for _, rb in B.iterrows():
            if pd.isnull(rb[r_attr]):
                continue
            ltok = tokenizer.tokenize(la[l_attr])
            rtok = tokenizer.tokenize(rb[r_attr])
            if len(ltok) == 0 and len(rtok) == 0:
                # join fast path emits (∅,∅) iff allow_empty, score 1.0,
                # without applying comp_op (set_sim_join.py:81-96)
                if allow_empty and empty_score_one:
                    exp.add((la[l_key], rb[r_key]))
                continue
            score = sim_fn(ltok, rtok)
            if round4:
                score = round(score, 4)
            if comp(score, threshold):
                exp.add((la[l_key], rb[r_key]))
    return exp


@pytest.mark.parametrize('measure', list(JOINS))
@pytest.mark.parametrize('threshold', [0.3, 0.7, 1.0])
def test_ws_tokenizer_sweep(person_tables, measure, threshold):
    A, B = person_tables
    join_fn, sim_fn, round4 = JOINS[measure]
    t = threshold if measure != 'OVERLAP' else max(1, int(threshold * 3))
    tok = WhitespaceTokenizer(return_set=True)
    out = join_fn(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, t)
    allow_empty = measure not in ('OVERLAP',)
    exp = expected_pairs_set(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok,
                             sim_fn, t, round4=round4,
                             allow_empty=allow_empty,
                             empty_score_one=measure != 'OVERLAP')
    got = set(zip(out['l_A.ID'], out['r_B.ID']))
    assert got == exp, f'{measure}@{t}: {got ^ exp}'
    assert list(out.columns) == ['_id', 'l_A.ID', 'r_B.ID', '_sim_score']
    assert list(out['_id']) == list(range(len(out)))


@pytest.mark.parametrize('measure', ['JACCARD', 'COSINE', 'DICE'])
@pytest.mark.parametrize('qv', [2, 3])
def test_qgram_tokenizer_sweep(person_tables, measure, qv):
    A, B = person_tables
    join_fn, sim_fn, _ = JOINS[measure]
    tok = QgramTokenizer(qval=qv, return_set=True)
    out = join_fn(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, 0.5)
    exp = expected_pairs_set(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok,
                             sim_fn, 0.5)
    got = set(zip(out['l_A.ID'], out['r_B.ID']))
    assert got == exp


def test_scores_rounded_to_4(person_tables):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    out = jaccard_join(A, B, 'A.ID', 'B.ID', 'A.address', 'B.address', tok, 0.3)
    for _, row in out.iterrows():
        la = A.loc[A['A.ID'] == row['l_A.ID'], 'A.address'].iloc[0]
        rb = B.loc[B['B.ID'] == row['r_B.ID'], 'B.address'].iloc[0]
        expected = round(measures.jaccard(tok.tokenize(la), tok.tokenize(rb)), 4)
        assert row['_sim_score'] == expected


def test_comp_op_gt_and_eq(person_tables):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    for comp_op in ['>', '=']:
        out = jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok,
                           0.5, comp_op=comp_op)
        exp = expected_pairs_set(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name',
                                 tok, measures.jaccard, 0.5, comp_op=comp_op)
        assert set(zip(out['l_A.ID'], out['r_B.ID'])) == exp


def test_allow_empty_false(person_tables):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    out = jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, 0.7,
                       allow_empty=False)
    exp = expected_pairs_set(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok,
                             measures.jaccard, 0.7, allow_empty=False)
    assert set(zip(out['l_A.ID'], out['r_B.ID'])) == exp
    # whitespace-only names tokenize to empty: a6-b7 must NOT be present
    assert ('a6', 'b7') not in exp


def test_allow_empty_true_includes_empty_pairs(person_tables):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    out = jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, 0.7)
    got = set(zip(out['l_A.ID'], out['r_B.ID']))
    assert ('a6', 'b7') in got
    sc = out.loc[(out['l_A.ID'] == 'a6') & (out['r_B.ID'] == 'b7'),
                 '_sim_score'].iloc[0]
    assert sc == 1.0


def test_allow_missing(person_tables):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    out = jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, 0.7,
                       allow_missing=True)
    got = set(zip(out['l_A.ID'], out['r_B.ID']))
    # a7 has NaN name → paired with every B row; b8 NaN → with every
    # non-missing A row
    for bid in B['B.ID']:
        assert ('a7', bid) in got
    for aid in A.loc[A['A.name'].notnull(), 'A.ID']:
        assert (aid, 'b8') in got
    # missing pairs carry NaN score
    sc = out.loc[(out['l_A.ID'] == 'a7') & (out['r_B.ID'] == 'b1'),
                 '_sim_score'].iloc[0]
    assert np.isnan(sc)


def test_out_attrs_and_prefixes(person_tables):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    out = jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, 0.7,
                       l_out_attrs=['A.name', 'A.zipcode'],
                       r_out_attrs=['B.name'],
                       l_out_prefix='ltable.', r_out_prefix='rtable.')
    assert list(out.columns) == ['_id', 'ltable.A.ID', 'rtable.B.ID',
                                 'ltable.A.name', 'ltable.A.zipcode',
                                 'rtable.B.name', '_sim_score']
    row = out.loc[(out['ltable.A.ID'] == 'a5')]
    if len(row):
        assert row['ltable.A.name'].iloc[0] == 'Alphonse Kemper'


def test_out_sim_score_off(person_tables):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    out = jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, 0.7,
                       out_sim_score=False)
    assert '_sim_score' not in out.columns


def test_tokenizer_flag_restored(person_tables):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=False)
    jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, 0.7)
    assert tok.get_return_set() is False
    tok2 = QgramTokenizer(qval=2, return_set=True)
    edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 2,
                       tokenizer=tok2)
    assert tok2.get_return_set() is True


def test_overlap_join_score_is_int(person_tables):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    out = overlap_join(A, B, 'A.ID', 'B.ID', 'A.address', 'B.address', tok, 1)
    assert len(out) > 0
    assert out['_sim_score'].dtype == np.int64


def test_edit_distance_oracle(person_tables):
    """Approximation-aware oracle: expected pairs restricted to those sharing
    ≥1 qgram (test_edit_dist_join.py:88-93)."""
    A, B = person_tables
    tok = QgramTokenizer(qval=2)
    for t in [1, 2, 3, 5]:
        out = edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', t)
        exp = set()
        for _, la in A.iterrows():
            if pd.isnull(la['A.name']):
                continue
            for _, rb in B.iterrows():
                if pd.isnull(rb['B.name']):
                    continue
                lt, rt = tok.tokenize(la['A.name']), tok.tokenize(rb['B.name'])
                if not set(lt) & set(rt):
                    continue
                if measures.levenshtein(la['A.name'], rb['B.name']) <= t:
                    exp.add((la['A.ID'], rb['B.ID']))
        got = set(zip(out['l_A.ID'], out['r_B.ID']))
        assert got == exp, f'ed@{t}: {got ^ exp}'


def test_numeric_attrs_rejected(person_tables):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    with pytest.raises(AssertionError):
        jaccard_join(A, B, 'A.ID', 'B.ID', 'A.birth_year', 'B.birth_year',
                     tok, 0.7)


def test_invalid_args(person_tables):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    with pytest.raises(TypeError):
        jaccard_join([], B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, 0.7)
    with pytest.raises(AssertionError):
        jaccard_join(A, B, 'A.IDX', 'B.ID', 'A.name', 'B.name', tok, 0.7)
    with pytest.raises(AssertionError):
        jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, 1.5)
    with pytest.raises(AssertionError):
        jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, 0.7,
                     comp_op='<')
    with pytest.raises(TypeError):
        jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', None, 0.7)
    with pytest.raises(AssertionError):
        edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 2,
                           tokenizer=WhitespaceTokenizer())


def test_dataset_inputs(person_tables):
    import ray.data
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    dsA = ray.data.from_pandas(A)
    dsB = ray.data.from_pandas(B)
    out = jaccard_join(dsA, dsB, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, 0.7)
    exp = expected_pairs_set(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok,
                             measures.jaccard, 0.7)
    assert set(zip(out['l_A.ID'], out['r_B.ID'])) == exp


# ----------------------------------------------------- randomized stress

def _random_tables(seed, n_a=45, n_b=55, vocab=14):
    """Small vocabulary forces heavy token collisions, wide size spread
    (0..10 tokens incl. empties/dups) stresses the size/position bounds."""
    rng = np.random.default_rng(seed)
    words = [f'w{i}' for i in range(vocab)]

    def make(n, prefix):
        vals = []
        for i in range(n):
            k = int(rng.integers(0, 11))
            vals.append(' '.join(rng.choice(words) for _ in range(k)))
        return pd.DataFrame({'id': range(n), 'txt': vals})
    return make(n_a, 'a'), make(n_b, 'b')


@pytest.mark.parametrize('seed', [7, 19])
@pytest.mark.parametrize('measure', list(JOINS))
@pytest.mark.parametrize('threshold,ov_threshold',
                         [(0.45, 2), (0.8, 3)])
def test_random_tables_oracle(seed, measure, threshold, ov_threshold):
    A, B = _random_tables(seed)
    join_fn, sim_fn, round4 = JOINS[measure]
    t = ov_threshold if measure == 'OVERLAP' else threshold
    tok = WhitespaceTokenizer(return_set=True)
    out = join_fn(A, B, 'id', 'id', 'txt', 'txt', tok, t)
    exp = expected_pairs_set(
        A, B, 'id', 'id', 'txt', 'txt', tok, sim_fn, t, round4=round4,
        empty_score_one=measure not in ('OVERLAP',))
    if measure == 'OVERLAP':
        exp = {p for p in exp}  # no empty-pair fast path for overlap
    assert set(zip(out['l_id'], out['r_id'])) == exp


def _pairs_key_set(df, lcol, rcol):
    return set(zip(df[lcol], df[rcol]))


@pytest.mark.parametrize('force_dist', [False, True])
def test_dataset_output_attaches_empty_and_missing(person_tables,
                                                   monkeypatch, force_dist):
    """output='dataset' emits the SAME pair classes as the pandas
    assembler: verified matches + allow_empty (∅,∅) score-1.0 pairs +
    allow_missing NaN cross-products (VERDICT r2 #2) — on both the local
    fast path and the forced distributed pipeline."""
    import ray.data
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    if force_dist:
        monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    ref = jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok,
                       0.7, allow_missing=True)
    ds = jaccard_join(ray.data.from_pandas(A), ray.data.from_pandas(B),
                      'A.ID', 'B.ID', 'A.name', 'B.name', tok, 0.7,
                      allow_missing=True, output='dataset')
    got = ds.to_pandas()
    assert _pairs_key_set(got, 'l_key', 'r_key') \
        == _pairs_key_set(ref, 'l_A.ID', 'r_B.ID')
    # per-pair score parity (NaN == NaN)
    ref_scores = {(l, r): s for l, r, s in
                  zip(ref['l_A.ID'], ref['r_B.ID'], ref['_sim_score'])}
    for l, r, s in zip(got['l_key'], got['r_key'], got['_sim_score']):
        e = ref_scores[(l, r)]
        assert (np.isnan(s) and np.isnan(e)) or s == e
    # the (∅,∅) whitespace-name pair rides along with score 1.0
    assert got.loc[(got['l_key'] == 'a6') & (got['r_key'] == 'b7'),
                   '_sim_score'].iloc[0] == 1.0


def test_dataset_output_edit_distance_allow_missing(person_tables):
    """edit_distance_join dataset mode attaches the allow_missing NaN
    cross-product (no allow_empty class for EDIT_DISTANCE)."""
    import ray.data
    A, B = person_tables
    ref = edit_distance_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', 3,
                             allow_missing=True)
    got = edit_distance_join(ray.data.from_pandas(A),
                             ray.data.from_pandas(B),
                             'A.ID', 'B.ID', 'A.name', 'B.name', 3,
                             allow_missing=True, output='dataset').to_pandas()
    assert _pairs_key_set(got, 'l_key', 'r_key') \
        == _pairs_key_set(ref, 'l_A.ID', 'r_B.ID')
    assert np.isnan(got.loc[got['l_key'] == 'a7', '_sim_score']).all()


def test_empty_keys_collect_gate(person_tables, monkeypatch):
    """The pandas assembler's allow_empty key collect is gated: beyond
    ``join._EMPTY_KEYS_GATE`` it raises with a pointer at output='dataset'
    instead of OOMing the driver (VERDICT r2 #3)."""
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    monkeypatch.setattr(join, '_EMPTY_KEYS_GATE', 0)
    # the local path returns plain lists
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    with pytest.raises(MemoryError) as ei:
        jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, 0.7)
    assert "output='dataset'" in str(ei.value)
    # dataset mode still works under the same gate
    out = jaccard_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok,
                       0.7, output='dataset').to_pandas()
    assert ('a6', 'b7') in set(zip(out['l_key'], out['r_key']))


def test_cross_pairs_chunked_equality(monkeypatch):
    """_cross_pairs_dataset with a 1-row chunk budget (many broadcast
    chunks) emits the identical cross product."""
    from py_stringsimjoin_ray.pipelines.join import _cross_pairs_dataset
    lk = ['a1', 'a2', 'a3']
    rk = ['b1', 'b2', 'b3', 'b4', 'b5']
    exp = {(l, r) for l in lk for r in rk}
    base = _cross_pairs_dataset(lk, rk, 1.0).to_pandas()
    monkeypatch.setattr(join, '_CROSS_CHUNK_ROWS', 1)
    chunked = _cross_pairs_dataset(lk, rk, 1.0).to_pandas()
    assert set(zip(base['l_key'], base['r_key'])) == exp
    assert set(zip(chunked['l_key'], chunked['r_key'])) == exp
    assert (chunked['_sim_score'] == 1.0).all()


def test_dataset_output_overlap_allow_missing_score_cast(person_tables):
    """OVERLAP emits int64 scores; unioning the allow_missing NaN
    cross-product in dataset mode must promote the stream to float64
    without corrupting values."""
    import ray.data
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    ref = overlap_join(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok, 1,
                       allow_missing=True)
    got = overlap_join(ray.data.from_pandas(A), ray.data.from_pandas(B),
                       'A.ID', 'B.ID', 'A.name', 'B.name', tok, 1,
                       allow_missing=True, output='dataset').to_pandas()
    assert _pairs_key_set(got, 'l_key', 'r_key') \
        == _pairs_key_set(ref, 'l_A.ID', 'r_B.ID')
    ref_scores = {(l, r): s for l, r, s in
                  zip(ref['l_A.ID'], ref['r_B.ID'], ref['_sim_score'])}
    for l, r, s in zip(got['l_key'], got['r_key'], got['_sim_score']):
        e = ref_scores[(l, r)]
        assert (np.isnan(s) and np.isnan(e)) or float(s) == float(e)
