"""Candidate pair generation of the filter_tables candidates modes (the
slim-postings kernel of stages/slimjoin.py, with ``cfg.mode`` selecting the
candgen gates and the verify predicate): on both routes, every mode must
emit EXACTLY the pairs of the brute-force, row-by-row oracles in
``test_filters.py`` (a literal re-implementation of the reference's probe
loops), each pair once — including forced heavy-token salting, duplicate
signature classes, bag tokenizers and same-table inputs."""

import numpy as np
import pandas as pd
import pytest

from py_stringsimjoin_ray import (OverlapFilter, PositionFilter, PrefixFilter,
                                  QgramTokenizer, WhitespaceTokenizer)
from test_filters import (each_route, oracle_overlap_tables,  # noqa: F401
                          oracle_position_tables, oracle_prefix_tables)


def _tables(n=40, seed=11):
    rng = np.random.default_rng(seed)
    words = [f'w{i}' for i in range(12)]

    def mk(shift):
        rows = []
        for i in range(n):
            k = int(rng.integers(1, 6))
            toks = ['common'] + list(rng.choice(words, size=k))
            if i % 7 == 0:     # exact-duplicate classes
                toks = ['common', 'dup', 'dup2']
            rows.append(' '.join(toks))
        return pd.DataFrame({'id': [shift + i for i in range(n)],
                             's': rows})
    return mk(0), mk(1000)


def _pairs_once(out):
    """Pair set of a filter output, asserting no pair is emitted twice."""
    pairs = list(zip(out['l_id'], out['r_id']))
    assert len(pairs) == len(set(pairs))
    return set(pairs)


def _scored(out):
    return {(a, b): s for a, b, s in
            zip(out['l_id'], out['r_id'], out['_sim_score'])}


def _overlap(tok, k):
    return (OverlapFilter(tok, k),
            lambda l, r, kw: oracle_overlap_tables(l, r, 'id', 'id', 's', 's',
                                                   tok, k, '>='))


def _prefix(tok, st, t):
    return (PrefixFilter(tok, st, t),
            lambda l, r, kw: oracle_prefix_tables(l, r, 'id', 'id', 's', 's',
                                                  tok, st, t))


def _position(tok, st, t):
    return (PositionFilter(tok, st, t),
            lambda l, r, kw: oracle_position_tables(l, r, 'id', 'id', 's',
                                                    's', tok, st, t))


@pytest.mark.parametrize('salt', [10 ** 9, 2])
@pytest.mark.parametrize('build,kw', [
    (lambda: _overlap(WhitespaceTokenizer(return_set=True), 2), {}),
    (lambda: _overlap(QgramTokenizer(qval=2, return_set=False), 3),
     {'out_sim_score': True}),
    (lambda: _prefix(WhitespaceTokenizer(return_set=True), 'JACCARD', 0.4),
     {}),
    (lambda: _position(WhitespaceTokenizer(return_set=True), 'DICE', 0.55),
     {}),
    (lambda: _position(WhitespaceTokenizer(return_set=True), 'OVERLAP', 2),
     {}),
], ids=['overlap_set', 'overlap_bag_score', 'prefix_jac', 'position_dice',
        'position_overlap'])
def test_np_kernel_matches_rowwise(ray_session, each_route, salt, build,
                                   kw):
    """Kernel vs the row-by-row oracle, salted and unsalted."""
    l, r = _tables()
    f, oracle = build()
    exp = oracle(l, r, kw)
    for route in each_route():
        out = f.filter_tables(l, r, 'id', 'id', 's', 's',
                              salt_df_threshold=salt, **kw)
        assert _pairs_once(out) == set(exp), route
        if kw.get('out_sim_score'):
            assert _scored(out) == exp, route
        assert len(out) > 0


def test_np_kernel_same_table_identity(ray_session, each_route):
    # same DataFrame on both sides: single-side postings, identity
    # signature pairs, duplicate signature classes
    l, _ = _tables(24, seed=3)
    tok = WhitespaceTokenizer(return_set=True)
    f = PrefixFilter(tok, 'JACCARD', 0.5)
    exp = oracle_prefix_tables(l, l, 'id', 'id', 's', 's', tok, 'JACCARD',
                               0.5)
    for route in each_route():
        pairs = _pairs_once(f.filter_tables(l, l, 'id', 'id', 's', 's'))
        assert pairs == exp, route
        assert all((i, i) in pairs for i in l['id'])


def test_np_kernel_prefix_edit_distance(ray_session, each_route):
    rng = np.random.default_rng(5)
    base = ['martha', 'marhta', 'jones', 'jonse', 'aaaaa', 'aaaab',
            'different', 'differant']
    l = pd.DataFrame({'id': range(len(base)), 's': base})
    r = pd.DataFrame({'id': range(100, 100 + len(base)),
                      's': [x + rng.choice(['', 's']) for x in base]})
    tok = QgramTokenizer(qval=2, return_set=False)
    f = PrefixFilter(tok, 'EDIT_DISTANCE', 1)
    exp = oracle_prefix_tables(l, r, 'id', 'id', 's', 's', tok,
                               'EDIT_DISTANCE', 1)
    assert exp
    for route in each_route():
        out = f.filter_tables(l, r, 'id', 'id', 's', 's')
        assert _pairs_once(out) == exp, route


def test_np_kernel_salted_dup_classes(ray_session, each_route):
    # several identical records share a salted heavy token: signature
    # collapse + grid roles + identity emission must still be exact-once
    rows = ['common heavy alpha beta'] * 6 + \
           ['common heavy alpha gamma'] * 3 + ['rare solo text'] * 2
    l = pd.DataFrame({'id': range(len(rows)), 's': rows})
    r = pd.DataFrame({'id': range(500, 500 + len(rows)), 's': rows})
    tok = WhitespaceTokenizer(return_set=True)
    f = OverlapFilter(tok, 2)
    exp = set(oracle_overlap_tables(l, r, 'id', 'id', 's', 's', tok, 2,
                                    '>='))
    for route in each_route():
        out = f.filter_tables(l, r, 'id', 'id', 's', 's',
                              salt_df_threshold=2)
        assert _pairs_once(out) == exp, route


def test_np_kernel_position_edit_distance(ray_session, each_route):
    """The EDIT_DISTANCE position-filter path (qgram bags, ED overlap
    threshold with qval, ED size bounds) must match the row-by-row oracle
    on both routes."""
    names = ['martha', 'marhta', 'marta', 'jones', 'jonse', 'joness',
             'aaaaaa', 'aaaaab', 'zzzzz', 'different']
    l = pd.DataFrame({'id': range(len(names)), 's': names})
    r = pd.DataFrame({'id': range(200, 200 + len(names)),
                      's': [n + x for n, x in
                            zip(names, ['', 's', '', 'x', '', '', 'a', '',
                                        '', 'ly'])]})
    tok = QgramTokenizer(qval=2, return_set=False)
    f = PositionFilter(tok, 'EDIT_DISTANCE', 2)
    exp = oracle_position_tables(l, r, 'id', 'id', 's', 's', tok,
                                 'EDIT_DISTANCE', 2)
    assert exp
    for route in each_route():
        out = f.filter_tables(l, r, 'id', 'id', 's', 's')
        assert _pairs_once(out) == exp, route
