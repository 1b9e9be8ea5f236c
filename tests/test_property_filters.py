"""Property-based tests: every Filter.filter_tables vs its literal
brute-force/index oracle (the deterministic oracle functions in
``test_filters.py``) over hypothesis-generated tables.

Generators aim tokens at a tiny vocabulary so shared tokens, duplicate
rows, empty strings and nulls occur constantly (reference semantics anchor:
``filter/*.py`` in the public py_stringsimjoin repo).
"""

import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from py_stringsimjoin_ray.core import bounds
from py_stringsimjoin_ray.core.ordering import apply_ordering
from py_stringsimjoin_ray.core.tokenizers import (QgramTokenizer,
                                                  WhitespaceTokenizer)
from py_stringsimjoin_ray.pipelines.filters import (OverlapFilter,
                                                    PositionFilter,
                                                    PrefixFilter, SizeFilter,
                                                    SuffixFilter)
from test_filters import (global_ordering, oracle_overlap_tables,
                          oracle_position_tables, oracle_prefix_tables,
                          oracle_size_tables)

WORDS = ['aa', 'ab', 'abc', 'bc', 'ca', 'dab', 'e', 'aa']  # dup → collisions


def _text():
    return st.one_of(
        st.none(),
        st.lists(st.sampled_from(WORDS), min_size=0, max_size=6)
        .map(' '.join))


def _table(max_rows=10):
    return st.lists(_text(), min_size=1, max_size=max_rows).map(
        lambda ss: pd.DataFrame({'id': range(len(ss)), 's': ss}))


def _pairs(out):
    return set(zip(out['l_id'], out['r_id']))


_SETTINGS = dict(max_examples=12, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize('sim_type,threshold', [
    ('JACCARD', 0.4), ('COSINE', 0.7), ('DICE', 0.55),
])
@settings(**_SETTINGS)
@given(l=_table(), r=_table())
def test_prefix_filter_matches_oracle(sim_type, threshold, l, r):
    tok = WhitespaceTokenizer(return_set=True)
    f = PrefixFilter(tok, sim_type, threshold)
    out = f.filter_tables(l, r, 'id', 'id', 's', 's')
    assert _pairs(out) == oracle_prefix_tables(
        l, r, 'id', 'id', 's', 's', tok, sim_type, threshold)


@pytest.mark.parametrize('sim_type,threshold', [
    ('JACCARD', 0.4), ('DICE', 0.6),
])
@settings(**_SETTINGS)
@given(l=_table(), r=_table())
def test_position_filter_matches_oracle(sim_type, threshold, l, r):
    tok = WhitespaceTokenizer(return_set=True)
    f = PositionFilter(tok, sim_type, threshold)
    out = f.filter_tables(l, r, 'id', 'id', 's', 's')
    assert _pairs(out) == oracle_position_tables(
        l, r, 'id', 'id', 's', 's', tok, sim_type, threshold)


@settings(**_SETTINGS)
@given(l=_table(), r=_table(), t=st.sampled_from([0.3, 0.6, 0.9]))
def test_size_filter_matches_oracle(l, r, t):
    tok = WhitespaceTokenizer(return_set=True)
    f = SizeFilter(tok, 'JACCARD', t)
    out = f.filter_tables(l, r, 'id', 'id', 's', 's')
    assert _pairs(out) == oracle_size_tables(
        l, r, 'id', 'id', 's', 's', tok, 'JACCARD', t)


@pytest.mark.parametrize('tok', [
    WhitespaceTokenizer(return_set=True),
    QgramTokenizer(qval=2, return_set=False),  # bag → occurrence products
], ids=['ws_set', 'qgram_bag'])
@settings(**_SETTINGS)
@given(l=_table(), r=_table(), k=st.sampled_from([1, 2, 3]))
def test_overlap_filter_matches_oracle(tok, l, r, k):
    f = OverlapFilter(tok, k)
    out = f.filter_tables(l, r, 'id', 'id', 's', 's', out_sim_score=True)
    got = {(a, b): s for a, b, s in
           zip(out['l_id'], out['r_id'], out['_sim_score'])}
    assert got == oracle_overlap_tables(l, r, 'id', 'id', 's', 's', tok,
                                        k, '>=')


def _suffix_oracle(l, r, tok, sim_type, t, f):
    ordering = global_ordering(l, r, 's', 's', tok)
    exp = set()
    for _, la in l.iterrows():
        if pd.isnull(la['s']):
            continue
        lt = apply_ordering(tok.tokenize(la['s']), ordering)
        lp = bounds.prefix_length(len(lt), sim_type, t)
        for _, rb in r.iterrows():
            if pd.isnull(rb['s']):
                continue
            rt = apply_ordering(tok.tokenize(rb['s']), ordering)
            rp = bounds.prefix_length(len(rt), sim_type, t)
            if len(lt) == 0 and len(rt) == 0:
                exp.add((la['id'], rb['id']))
                continue
            if lp <= 0 or rp <= 0:
                continue
            if not f._filter_suffix(lt[lp:], rt[rp:], lp, rp,
                                    len(lt), len(rt)):
                exp.add((la['id'], rb['id']))
    return exp


@pytest.mark.parametrize('tok', [
    WhitespaceTokenizer(return_set=True),   # vectorized probe
    QgramTokenizer(qval=2, return_set=False),  # probe_python branch
], ids=['ws_set', 'qgram_bag'])
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(l=_table(max_rows=8), r=_table(max_rows=8),
       t=st.sampled_from([0.4, 0.7]))
def test_suffix_filter_matches_oracle(tok, l, r, t):
    f = SuffixFilter(tok, 'JACCARD', t)
    out = f.filter_tables(l, r, 'id', 'id', 's', 's')
    assert _pairs(out) == _suffix_oracle(l, r, tok, 'JACCARD', t, f)


def _overlap_oracle(tok, k):
    return (OverlapFilter(tok, k),
            lambda l, r: set(oracle_overlap_tables(l, r, 'id', 'id', 's', 's',
                                                   tok, k, '>=')))


def _prefix_oracle(tok, sim_type, t):
    return (PrefixFilter(tok, sim_type, t),
            lambda l, r: oracle_prefix_tables(l, r, 'id', 'id', 's', 's',
                                              tok, sim_type, t))


def _position_oracle(tok, sim_type, t):
    return (PositionFilter(tok, sim_type, t),
            lambda l, r: oracle_position_tables(l, r, 'id', 'id', 's', 's',
                                                tok, sim_type, t))


@pytest.mark.parametrize('build', [
    lambda: _overlap_oracle(WhitespaceTokenizer(return_set=True), 2),
    lambda: _overlap_oracle(QgramTokenizer(qval=2, return_set=False), 2),
    lambda: _prefix_oracle(WhitespaceTokenizer(return_set=True),
                           'JACCARD', 0.4),
    lambda: _position_oracle(WhitespaceTokenizer(return_set=True),
                             'COSINE', 0.6),
], ids=['ov_set', 'ov_bag', 'pf_jac', 'pos_cos'])
@settings(**_SETTINGS)
@given(l=_table(), r=_table(), salt=st.sampled_from([10 ** 9, 2]))
def test_np_kernel_path_equality(build, l, r, salt):
    """Kernel-vs-oracle under hypothesis inputs (nulls, empties, duplicate
    rows, tiny vocab): the numpy bucket kernel must emit each oracle pair
    exactly once, salted or not."""
    f, oracle = build()
    out = f.filter_tables(l, r, 'id', 'id', 's', 's',
                          salt_df_threshold=salt)
    pairs = list(zip(out['l_id'], out['r_id']))
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == oracle(l, r)
