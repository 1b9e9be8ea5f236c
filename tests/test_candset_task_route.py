"""The pandas-candset task route of ``apply_matcher`` and
``Filter.filter_candset``: a pandas candset with a pandas result, no
checkpoint and both side tables broadcast runs the batch body once in one
plain Ray task and builds no ``ray.data.Dataset``.  Its output must equal
the Dataset route's (the same candset through ``ray.data.from_pandas``)."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from py_stringsimjoin_ray import (OverlapFilter, PositionFilter,
                                  QgramTokenizer, WhitespaceTokenizer,
                                  apply_matcher, jaccard_join)
from py_stringsimjoin_ray.core import measures
from py_stringsimjoin_ray.core.tokenizers import (AlphanumericTokenizer,
                                                  DelimiterTokenizer,
                                                  Tokenizer,
                                                  has_arrow_kernel)

WS = WhitespaceTokenizer(return_set=True)
KEYS = ('l_A.ID', 'r_B.ID')


def _user_tokenizers():
    """User tokenizer classes, defined in a function so that Ray pickles
    them by value (workers cannot import this test module)."""
    class SplitOnly(Tokenizer):
        """Only the reference's ``tokenize`` contract."""

        def tokenize(self, s):
            return s.lower().split()

    class LowerWhitespace(WhitespaceTokenizer):
        """Overrides ``tokenize`` below a class with an Arrow kernel."""

        def tokenize(self, s):
            return s.lower().split()
    return SplitOnly, LowerWhitespace


SplitOnly, LowerWhitespace = _user_tokenizers()


def _candset(A, B):
    """Overlap candidates plus two pairs with a missing (NaN) name."""
    cand = OverlapFilter(WS, 1).filter_tables(A, B, 'A.ID', 'B.ID',
                                              'A.name', 'B.name')
    n = int(cand['_id'].max()) + 1
    extra = pd.DataFrame({'_id': [n, n + 1], 'l_A.ID': ['a7', 'a1'],
                          'r_B.ID': ['b1', 'b8']})
    return pd.concat([cand, extra], ignore_index=True)


def _sorted(df):
    return df.sort_values('_id').reset_index(drop=True)


@pytest.fixture
def no_datasets(monkeypatch):
    """Make building a Dataset on the driver raise."""
    def refuse(*a, **k):
        raise AssertionError('a ray.data.Dataset was built')
    monkeypatch.setattr(ray.data, 'from_pandas', refuse)
    monkeypatch.setattr(ray.data.Dataset, '__init__', refuse)


def test_pandas_candset_builds_no_dataset(person_tables, no_datasets):
    A, B = person_tables
    cand = pd.DataFrame({'_id': [0, 1, 2], 'l_A.ID': ['a1', 'a3', 'a2'],
                         'r_B.ID': ['b1', 'b2', 'b3']})
    out = apply_matcher(cand, *KEYS, A, B, 'A.ID', 'B.ID', 'A.name',
                        'B.name', WS, measures.jaccard, 0.3)
    assert list(zip(out['l_A.ID'], out['r_B.ID'])) == [('a3', 'b2'),
                                                       ('a2', 'b3')]
    f = PositionFilter(WS, 'JACCARD', 0.3)
    kept = f.filter_candset(cand, *KEYS, A, B, 'A.ID', 'B.ID', 'A.name',
                            'B.name')
    assert list(kept.index) == [1, 2]


MATCHER_CASES = {
    'out_attrs': dict(l_out_attrs=['A.name', 'A.zipcode'],
                      r_out_attrs=['B.address']),
    'allow_missing': dict(allow_missing=True),
    'lambda_sim': dict(sim_function=lambda a, b: measures.jaccard(a, b)),
    'comp_op_gt': dict(comp_op='>'),
    'tokenize_only': dict(tokenizer=SplitOnly(return_set=True)),
    'no_rows': dict(comp_op='>', threshold=1.0),
}


@pytest.mark.parametrize('case', sorted(MATCHER_CASES))
def test_apply_matcher_route_parity(person_tables, case):
    A, B = person_tables
    cand = _candset(A, B)
    kw = dict(tokenizer=WS, sim_function=measures.jaccard, threshold=0.3)
    kw.update(MATCHER_CASES[case])

    def run(c):
        return apply_matcher(c, *KEYS, A, B, 'A.ID', 'B.ID', 'A.name',
                             'B.name', **kw)
    got = run(cand)
    exp = run(ray.data.from_pandas(cand))
    if case == 'no_rows':
        assert len(got) == 0
        assert list(got.columns) == ['_id', *KEYS, '_sim_score']
        # the Dataset route rebuilds a lost header with float columns
        pd.testing.assert_frame_equal(_sorted(got), _sorted(exp),
                                      check_dtype=False,
                                      check_index_type=False)
    else:
        assert len(got) > 0
        pd.testing.assert_frame_equal(_sorted(got), _sorted(exp))
    if case == 'allow_missing':
        assert got['_sim_score'].isna().any()


def test_filter_candset_route_parity(person_tables):
    A, B = person_tables
    cand = _candset(A, B)
    cand.index = cand.index * 10 + 5  # row identities the result keeps
    f = PositionFilter(WS, 'JACCARD', 0.3)
    args = (*KEYS, A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
    got = f.filter_candset(cand, *args)
    assert 0 < len(got) < len(cand)
    assert got.index.is_monotonic_increasing
    pd.testing.assert_frame_equal(got, cand.loc[got.index])
    exp = f.filter_candset(ray.data.from_pandas(cand), *args).to_pandas()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(exp))


def test_filter_candset_no_rows_keeps_header(person_tables):
    A, B = person_tables
    cand = pd.DataFrame({'_id': [0], 'l_A.ID': ['a1'], 'r_B.ID': ['b4']})
    out = PositionFilter(WS, 'JACCARD', 0.9).filter_candset(
        cand, *KEYS, A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
    assert len(out) == 0
    assert list(out.columns) == list(cand.columns)


def test_missing_candset_key_raises_keyerror(person_tables):
    A, B = person_tables
    cand = pd.DataFrame({'_id': [0], 'l_A.ID': ['zz_missing'],
                         'r_B.ID': ['b1']})
    with pytest.raises(KeyError):
        apply_matcher(cand, *KEYS, A, B, 'A.ID', 'B.ID', 'A.name',
                      'B.name', WS, measures.jaccard, 0.3)
    with pytest.raises(KeyError):
        PositionFilter(WS, 'JACCARD', 0.3).filter_candset(
            cand, *KEYS, A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')


class _PerString:
    """Hides a tokenizer's Arrow kernel: only ``tokenize`` is visible."""

    def __init__(self, tok):
        self.tok = tok

    def tokenize(self, s):
        return self.tok.tokenize(s)


@pytest.mark.parametrize('tok', [
    WhitespaceTokenizer(return_set=True),
    WhitespaceTokenizer(return_set=False),
    QgramTokenizer(qval=3, return_set=True),
    QgramTokenizer(qval=2, padding=False),
    DelimiterTokenizer({',', ' '}),
    AlphanumericTokenizer(return_set=True),
], ids=['ws_set', 'ws_bag', 'qgram3', 'qgram2_nopad', 'delim', 'alnum'])
@pytest.mark.parametrize('sim', ['JACCARD', 'COSINE', 'DICE', 'OVERLAP',
                                 'OVERLAP_COEFFICIENT'])
def test_bulk_scores_arrow_equals_per_string(tok, sim):
    from py_stringsimjoin_ray.pipelines.matcher import (_bulk_set_scores,
                                                        _token_ids)
    lv = np.asarray(['a b c', 'a a b', ' ', '', 'x  y, z', 'dup dup w',
                     'héllo wörld', 'ab', 'a b c'], dtype=object)
    rv = np.asarray(['c b a', 'a b b', '', 'q', 'z,y', 'w dup',
                     'hello world', 'abc', 'a b d'], dtype=object)
    assert has_arrow_kernel(tok)
    np.testing.assert_array_equal(
        _bulk_set_scores(lv, rv, tok, sim),
        _bulk_set_scores(lv, rv, _PerString(tok), sim))
    strings = np.concatenate([lv, rv])
    _, lens, _ = _token_ids(strings, tok)
    assert list(lens) == [len(set(tok.tokenize(s))) for s in strings]


def test_has_arrow_kernel_respects_overrides():
    class RawOverride(WhitespaceTokenizer):
        def _raw_tokenize(self, s):
            return s.lower().split()

    class RawOnly(Tokenizer):
        def _raw_tokenize(self, s):
            return s.split()

    assert has_arrow_kernel(WS) and has_arrow_kernel(RawOnly())
    assert not has_arrow_kernel(SplitOnly())
    assert not has_arrow_kernel(LowerWhitespace())
    assert not has_arrow_kernel(RawOverride())
    assert not has_arrow_kernel(_PerString(WS))


def test_join_honours_tokenize_override():
    """A subclass's ``tokenize`` override reaches the join's tokenize
    stage instead of raising or being skipped by an inherited kernel."""
    A = pd.DataFrame({'id': [0, 1], 's': ['A b', 'a B']})
    for tok in (SplitOnly(return_set=True), LowerWhitespace(return_set=True)):
        out = jaccard_join(A, A, 'id', 'id', 's', 's', tok, 0.9)
        assert set(zip(out['l_id'], out['r_id'])) == \
            {(0, 0), (0, 1), (1, 0), (1, 1)}, type(tok).__name__


def test_broadcast_gate_adaptive(monkeypatch):
    """The broadcast gate floors at 2 GiB, scaling with the per-node object
    store; the attach regime reads it."""
    import ray

    from py_stringsimjoin_ray.stages import attach
    from py_stringsimjoin_ray.state.broadcast import broadcast_gate_bytes
    assert broadcast_gate_bytes() >= 2 * 1024 ** 3
    big = 100 * 1024 ** 3
    with monkeypatch.context() as m:
        m.setattr(ray, 'cluster_resources',
                  lambda: {'object_store_memory': big})
        m.setattr(ray, 'nodes', lambda: [{'Alive': True}] * 2)
        assert broadcast_gate_bytes() == int(0.15 * big / 2)
    proj = pd.DataFrame({'k': [1, 2], 'v': ['a', 'b']})
    assert attach.plan_side(ray.data.from_pandas(proj), 'k',
                            ['k', 'v'])[0] == 'broadcast'
    monkeypatch.setattr(attach, 'broadcast_gate_bytes', lambda: 0)
    assert attach.plan_side(ray.data.from_pandas(proj), 'k',
                            ['k', 'v'])[0] == 'dataset'
