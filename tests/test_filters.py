"""Filter parity tests: filter_pair truth cases + filter_tables against
reference-probe oracles re-implemented independently in this file (global
ordering + index/probe double loop, mirroring the reference's
``_filter_tables_split`` kernels)."""

import numpy as np
import pandas as pd
import pytest

from py_stringsimjoin_ray import (OverlapFilter, PositionFilter, PrefixFilter,
                                  QgramTokenizer, SizeFilter, SuffixFilter,
                                  WhitespaceTokenizer)
from py_stringsimjoin_ray.core import bounds
from py_stringsimjoin_ray.core.comp_ops import COMP_OP_MAP
from py_stringsimjoin_ray.core.ordering import (apply_ordering,
                                                build_ordering_for_lists)

WS = WhitespaceTokenizer(return_set=True)

# filter_tables routes: the local route (one Ray task) and the Dataset route
# (the slim-postings pipeline's candgen and verify shuffles); small inputs
# take the local route by default, so the oracle tests pin both explicitly
# through the local row cap.  'sharded' is the Dataset route again with a
# Tsig shard target so small that the inputs fold into several shards
# instead of one (2-8 on the person tables)
ROUTES = ('local', 'dataset', 'sharded')
_SMALL_SHARD_TARGET = 300


@pytest.fixture
def each_route(monkeypatch):
    """``for route in each_route(): ...`` runs the loop body once per
    route, with its row cap (and shard target) pinned; after the loop,
    each route must have run: ``local_match_pairs`` produced the pairs
    under the local pin, ``slim_match_pairs`` ran under the other two, and
    the sharded route built more than one shard."""
    from py_stringsimjoin_ray.stages import localjoin, slimjoin
    ran = {route: set() for route in ROUTES}
    shard_counts = []
    current = []
    local = localjoin.local_match_pairs
    slim = slimjoin.slim_match_pairs
    build = slimjoin.collect_tsig_shards

    def local_spy(*args, **kwargs):
        res = local(*args, **kwargs)
        if res is not None:
            ran[current[-1]].add('local')
        return res

    def slim_spy(*args, **kwargs):
        ran[current[-1]].add('slim')
        return slim(*args, **kwargs)

    def counted(tagged, same_relation, keep_string, nshards):
        shard_counts.append(nshards)
        return build(tagged, same_relation, keep_string, nshards)

    monkeypatch.setattr(localjoin, 'local_match_pairs', local_spy)
    monkeypatch.setattr(slimjoin, 'slim_match_pairs', slim_spy)

    def routes():
        for route in ROUTES:
            current.append(route)
            monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS',
                                2 ** 62 if route == 'local' else 0)
            if route == 'sharded':
                monkeypatch.setattr(slimjoin, '_SHARD_TARGET_BYTES',
                                    _SMALL_SHARD_TARGET)
                monkeypatch.setattr(slimjoin, 'collect_tsig_shards', counted)
            yield route
        assert ran == {'local': {'local'}, 'dataset': {'slim'},
                       'sharded': {'slim'}}, ran
        assert shard_counts and min(shard_counts) > 1, shard_counts
    return routes


# ------------------------------------------------------------------ oracles

def global_ordering(A, B, l_attr, r_attr, tokenizer):
    lists = []
    for _, r in A.iterrows():
        if pd.notnull(r[l_attr]):
            lists.append(tokenizer.tokenize(r[l_attr]))
    for _, r in B.iterrows():
        if pd.notnull(r[r_attr]):
            lists.append(tokenizer.tokenize(r[r_attr]))
    return build_ordering_for_lists(lists)


def oracle_position_tables(A, B, l_key, r_key, l_attr, r_attr, tokenizer,
                           sim_type, threshold, allow_empty=True):
    """Literal re-implementation of PositionIndex build + find_candidates."""
    qv = getattr(tokenizer, 'qval', None)
    ordering = global_ordering(A, B, l_attr, r_attr, tokenizer)
    handle_empty = allow_empty and sim_type not in ('OVERLAP', 'EDIT_DISTANCE')
    # build index over A
    index = {}
    size_cache = {}
    empties = []
    l_rows = A[pd.notnull(A[l_attr])].reset_index(drop=True)
    r_rows = B[pd.notnull(B[r_attr])].reset_index(drop=True)
    min_len, max_len = 10**9, 0
    for i, row in l_rows.iterrows():
        toks = apply_ordering(tokenizer.tokenize(row[l_attr]), ordering)
        n = len(toks)
        size_cache[i] = n
        if n == 0:
            empties.append(i)
        min_len, max_len = min(min_len, n), max(max_len, n)
        p = bounds.prefix_length(n, sim_type, threshold, qv)
        for pos in range(p):
            index.setdefault(toks[pos], []).append((i, pos))
    exp = set()
    for _, rrow in r_rows.iterrows():
        rtoks = apply_ordering(tokenizer.tokenize(rrow[r_attr]), ordering)
        rn = len(rtoks)
        if handle_empty and rn == 0:
            for i in empties:
                exp.add((l_rows.iloc[i][l_key], rrow[r_key]))
            continue
        if not index:
            continue
        lb = max(bounds.size_lower_bound(rn, sim_type, threshold), min_len)
        ub = min(bounds.size_upper_bound(rn, sim_type, threshold), max_len)
        overlap_cache = {}
        rp = bounds.prefix_length(rn, sim_type, threshold, qv)
        for rpos in range(rp):
            for (cand, cpos) in index.get(rtoks[rpos], ()):
                cur = overlap_cache.get(cand, 0)
                if cur != -1:
                    cn = size_cache[cand]
                    if lb <= cn <= ub:
                        oub = min(rn - rpos, cn - cpos)
                        T = bounds.overlap_threshold(cn, rn, sim_type,
                                                     threshold, qv)
                        if cur + oub >= T:
                            overlap_cache[cand] = cur + 1
                        else:
                            overlap_cache[cand] = -1
        for cand, ov in overlap_cache.items():
            if ov > 0:
                exp.add((l_rows.iloc[cand][l_key], rrow[r_key]))
    return exp


def oracle_prefix_tables(A, B, l_key, r_key, l_attr, r_attr, tokenizer,
                         sim_type, threshold, allow_empty=True):
    qv = getattr(tokenizer, 'qval', None)
    ordering = global_ordering(A, B, l_attr, r_attr, tokenizer)
    handle_empty = allow_empty and sim_type not in ('OVERLAP', 'EDIT_DISTANCE')
    exp = set()
    for _, la in A.iterrows():
        if pd.isnull(la[l_attr]):
            continue
        ltoks = apply_ordering(tokenizer.tokenize(la[l_attr]), ordering)
        lp = bounds.prefix_length(len(ltoks), sim_type, threshold, qv)
        for _, rb in B.iterrows():
            if pd.isnull(rb[r_attr]):
                continue
            rtoks = apply_ordering(tokenizer.tokenize(rb[r_attr]), ordering)
            rp = bounds.prefix_length(len(rtoks), sim_type, threshold, qv)
            if len(ltoks) == 0 and len(rtoks) == 0:
                if handle_empty:
                    exp.add((la[l_key], rb[r_key]))
                continue
            if lp <= 0 or rp <= 0:
                continue
            if set(ltoks[:lp]) & set(rtoks[:rp]):
                exp.add((la[l_key], rb[r_key]))
    return exp


def oracle_overlap_tables(A, B, l_key, r_key, l_attr, r_attr, tokenizer,
                          overlap_size, comp_op):
    comp = COMP_OP_MAP[comp_op]
    exp = {}
    for _, la in A.iterrows():
        if pd.isnull(la[l_attr]):
            continue
        for _, rb in B.iterrows():
            if pd.isnull(rb[r_attr]):
                continue
            lt = tokenizer.tokenize(la[l_attr])
            rt = tokenizer.tokenize(rb[r_attr])
            # inverted-index probe counts occurrence pairs (bag product)
            from collections import Counter
            cl, cr = Counter(lt), Counter(rt)
            ov = sum(cl[t] * cr[t] for t in cl.keys() & cr.keys())
            if ov > 0 and comp(ov, overlap_size):
                exp[(la[l_key], rb[r_key])] = ov
    return exp


def oracle_size_tables(A, B, l_key, r_key, l_attr, r_attr, tokenizer,
                       sim_type, threshold, allow_empty=True):
    handle_empty = allow_empty and sim_type not in ('OVERLAP', 'EDIT_DISTANCE')
    exp = set()
    l_rows = A[pd.notnull(A[l_attr])]
    sizes = {k: len(tokenizer.tokenize(v))
             for k, v in zip(l_rows[l_key], l_rows[l_attr])}
    nonzero = [s for s in sizes.values() if s > 0]
    for _, rb in B.iterrows():
        if pd.isnull(rb[r_attr]):
            continue
        rn = len(tokenizer.tokenize(rb[r_attr]))
        if rn == 0:
            if handle_empty:
                for k, s in sizes.items():
                    if s == 0:
                        exp.add((k, rb[r_key]))
            continue
        lb = bounds.size_lower_bound(rn, sim_type, threshold)
        ub = bounds.size_upper_bound(rn, sim_type, threshold)
        if lb > rn:  # reference guard: filter/size_filter.py:282-283
            continue
        for k, s in sizes.items():
            if s > 0 and lb <= s <= ub:
                exp.add((k, rb[r_key]))
    return exp


# -------------------------------------------------------------- pair truth

class TestFilterPair:
    def test_overlap_filter_pair(self):
        f = OverlapFilter(WS, 2)
        assert f.filter_pair('aa bb cc', 'aa bb dd') is False
        assert f.filter_pair('aa bb cc', 'aa dd ee') is True
        assert f.filter_pair('', 'aa') is True
        assert f.filter_pair(np.nan, 'aa') is True
        assert OverlapFilter(WS, 1, allow_missing=True).filter_pair(np.nan, 'aa') is False
        assert OverlapFilter(WS, 1, '>').filter_pair('aa bb', 'aa cc') is True
        assert OverlapFilter(WS, 1, '=').filter_pair('aa bb', 'aa cc') is False

    def test_size_filter_pair(self):
        f = SizeFilter(WS, 'JACCARD', 0.5)
        # l_n=4 → bounds [2, 8]
        assert f.filter_pair('a b c d', 'x y') is False
        assert f.filter_pair('a b c d', 'x') is True
        assert f.filter_pair('', '') is False          # allow_empty default
        assert SizeFilter(WS, 'JACCARD', 0.5, allow_empty=False) \
            .filter_pair('', '') is True

    def test_prefix_filter_pair(self):
        f = PrefixFilter(WS, 'JACCARD', 0.8)
        # 5 tokens, t=0.8 → prefix 2 rarest tokens each; identical strings
        # share prefix
        assert f.filter_pair('a b c d e', 'a b c d e') is False
        f2 = PrefixFilter(WS, 'JACCARD', 0.8)
        # disjoint strings share nothing
        assert f2.filter_pair('a b c d e', 'v w x y z') is True

    def test_position_filter_pair(self):
        f = PositionFilter(WS, 'JACCARD', 0.6)
        assert f.filter_pair('a b c d e', 'a b c d e') is False
        assert f.filter_pair('a b c', 'x y z') is True
        assert f.filter_pair('', '') is False
        assert PositionFilter(WS, 'JACCARD', 0.6, allow_empty=False) \
            .filter_pair('', '') is True
        assert f.filter_pair(np.nan, 'a') is True

    def test_suffix_filter_pair(self):
        f = SuffixFilter(WS, 'JACCARD', 0.8)
        assert f.filter_pair('a b c d e', 'a b c d e') is False
        assert f.filter_pair('a b c d e', 'a v w x y') is True


# ------------------------------------------------------------ table parity

@pytest.mark.parametrize('sim_type,threshold', [
    ('JACCARD', 0.3), ('JACCARD', 0.7), ('COSINE', 0.5), ('DICE', 0.6),
])
def test_position_filter_tables(person_tables, each_route, sim_type,
                                threshold):
    A, B = person_tables
    f = PositionFilter(WhitespaceTokenizer(return_set=True), sim_type, threshold)
    exp = oracle_position_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name',
                                 WhitespaceTokenizer(return_set=True),
                                 sim_type, threshold)
    for route in each_route():
        out = f.filter_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
        got = set(zip(out['l_A.ID'], out['r_B.ID']))
        assert got == exp, (route, got ^ exp)
        assert list(out.columns) == ['_id', 'l_A.ID', 'r_B.ID']


@pytest.mark.parametrize('sim_type,threshold,tok', [
    ('JACCARD', 0.5, WhitespaceTokenizer(return_set=True)),
    ('DICE', 0.7, WhitespaceTokenizer(return_set=True)),
    ('JACCARD', 0.5, QgramTokenizer(qval=2, return_set=True)),
])
def test_prefix_filter_tables(person_tables, each_route, sim_type, threshold,
                              tok):
    A, B = person_tables
    f = PrefixFilter(tok, sim_type, threshold)
    exp = oracle_prefix_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok,
                               sim_type, threshold)
    for route in each_route():
        out = f.filter_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
        assert set(zip(out['l_A.ID'], out['r_B.ID'])) == exp, route


@pytest.mark.parametrize('k,comp', [(1, '>='), (2, '>='), (1, '=')])
def test_overlap_filter_tables(person_tables, each_route, k, comp):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    f = OverlapFilter(tok, k, comp)
    exp = oracle_overlap_tables(A, B, 'A.ID', 'B.ID', 'A.address',
                                'B.address', tok, k, comp)
    for route in each_route():
        out = f.filter_tables(A, B, 'A.ID', 'B.ID', 'A.address', 'B.address',
                              out_sim_score=True)
        got = {(l, r): s for l, r, s in
               zip(out['l_A.ID'], out['r_B.ID'], out['_sim_score'])}
        assert got == exp, route


def test_overlap_filter_tables_bag_tokenizer(person_tables, each_route):
    """Bag tokenizer → inverted-index probe counts occurrence products."""
    A, B = person_tables
    tok = QgramTokenizer(qval=2, return_set=False)
    f = OverlapFilter(tok, 3)
    exp = oracle_overlap_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name',
                                tok, 3, '>=')
    for route in each_route():
        out = f.filter_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name',
                              out_sim_score=True)
        got = {(l, r): s for l, r, s in
               zip(out['l_A.ID'], out['r_B.ID'], out['_sim_score'])}
        assert got == exp, route


@pytest.mark.parametrize('sim_type,threshold', [
    ('JACCARD', 0.5), ('COSINE', 0.7), ('DICE', 0.3),
])
def test_size_filter_tables(person_tables, sim_type, threshold):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    f = SizeFilter(tok, sim_type, threshold)
    out = f.filter_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
    exp = oracle_size_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name', tok,
                             sim_type, threshold)
    assert set(zip(out['l_A.ID'], out['r_B.ID'])) == exp


def test_suffix_filter_tables(person_tables):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    f = SuffixFilter(tok, 'JACCARD', 0.5)
    out = f.filter_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
    # oracle: the filter's own pair kernel under GLOBAL ordering
    ordering = global_ordering(A, B, 'A.name', 'B.name', tok)
    exp = set()
    for _, la in A.iterrows():
        if pd.isnull(la['A.name']):
            continue
        lt = apply_ordering(tok.tokenize(la['A.name']), ordering)
        lp = bounds.prefix_length(len(lt), 'JACCARD', 0.5)
        for _, rb in B.iterrows():
            if pd.isnull(rb['B.name']):
                continue
            rt = apply_ordering(tok.tokenize(rb['B.name']), ordering)
            rp = bounds.prefix_length(len(rt), 'JACCARD', 0.5)
            if len(lt) == 0 and len(rt) == 0:
                exp.add((la['A.ID'], rb['B.ID']))
                continue
            if lp <= 0 or rp <= 0:
                continue
            if not f._filter_suffix(lt[lp:], rt[rp:], lp, rp, len(lt), len(rt)):
                exp.add((la['A.ID'], rb['B.ID']))
    assert set(zip(out['l_A.ID'], out['r_B.ID'])) == exp


def test_suffix_filter_tables_bag_tokenizer(person_tables):
    """Bag tokenizer → the non-vectorized probe_python branch (duplicate
    tokens break the vectorized lower-bound equivalence)."""
    A, B = person_tables
    tok = QgramTokenizer(qval=2, return_set=False)
    f = SuffixFilter(tok, 'JACCARD', 0.5)
    out = f.filter_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
    ordering = global_ordering(A, B, 'A.name', 'B.name', tok)
    exp = set()
    for _, la in A.iterrows():
        if pd.isnull(la['A.name']):
            continue
        lt = apply_ordering(tok.tokenize(la['A.name']), ordering)
        lp = bounds.prefix_length(len(lt), 'JACCARD', 0.5)
        for _, rb in B.iterrows():
            if pd.isnull(rb['B.name']):
                continue
            rt = apply_ordering(tok.tokenize(rb['B.name']), ordering)
            rp = bounds.prefix_length(len(rt), 'JACCARD', 0.5)
            if len(lt) == 0 and len(rt) == 0:
                exp.add((la['A.ID'], rb['B.ID']))
                continue
            if lp <= 0 or rp <= 0:
                continue
            if not f._filter_suffix(lt[lp:], rt[rp:], lp, rp,
                                    len(lt), len(rt)):
                exp.add((la['A.ID'], rb['B.ID']))
    assert set(zip(out['l_A.ID'], out['r_B.ID'])) == exp


def test_filter_candset(person_tables):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    cand = OverlapFilter(tok, 1).filter_tables(A, B, 'A.ID', 'B.ID',
                                               'A.name', 'B.name')
    f = PositionFilter(tok, 'JACCARD', 0.8)
    out = f.filter_candset(cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID', 'B.ID',
                           'A.name', 'B.name')
    lmap = dict(zip(A['A.ID'], A['A.name']))
    rmap = dict(zip(B['B.ID'], B['B.name']))
    exp_rows = [i for i, (lk, rk) in
                enumerate(zip(cand['l_A.ID'], cand['r_B.ID']))
                if not f.filter_pair(lmap[lk], rmap[rk])]
    assert list(out.index) == exp_rows
    assert list(out.columns) == list(cand.columns)


def test_allow_missing_filter_tables(person_tables, each_route):
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    f = PositionFilter(tok, 'JACCARD', 0.8, allow_missing=True)
    for route in each_route():
        out = f.filter_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
        got = set(zip(out['l_A.ID'], out['r_B.ID']))
        for bid in B['B.ID']:
            assert ('a7', bid) in got, route


# ---------------------------------------------------------------------------
# find_candidates probe shims (reference surface:
# filter/prefix_filter.py:292-308, filter/position_filter.py:307-366)

def test_prefix_filter_find_candidates():
    from py_stringsimjoin_ray.core.index_shims import PrefixIndex
    from py_stringsimjoin_ray.pipelines.filters import PrefixFilter
    from py_stringsimjoin_ray import WhitespaceTokenizer
    f = PrefixFilter(WhitespaceTokenizer(return_set=True), 'JACCARD', 0.6)
    # ordered token lists (ints play the role of ranks)
    lists = [[1, 2, 3, 4], [2, 5, 6], [7, 8, 9]]
    idx = PrefixIndex(lists, 'JACCARD', 0.6)
    # probe [1, 5, 9, 10]: prefix length = 4 - ceil(2.4) + 1 = 2 -> {1, 5}
    cands = f.find_candidates([1, 5, 9, 10], idx)
    assert cands == {0, 1}
    assert f.find_candidates([42], PrefixIndex([], 'JACCARD', 0.6)) == set()


def test_position_filter_find_candidates_early_abandon():
    from py_stringsimjoin_ray.core.index_shims import PositionIndex
    from py_stringsimjoin_ray.pipelines.filters import PositionFilter
    from py_stringsimjoin_ray import WhitespaceTokenizer
    f = PositionFilter(WhitespaceTokenizer(return_set=True), 'JACCARD', 0.8)
    lists = [[1, 2, 3, 4, 5], [3, 6, 7, 8, 9]]
    idx = PositionIndex(lists, 'JACCARD', 0.8)
    # probe prefix [3, 4]: record 1 indexes token 3 at position 0 — bound
    # min(5, 5) reaches the overlap threshold 5, candidate accumulated
    out = f.find_candidates([3, 4, 5, 10, 11], idx)
    assert out == {1: 1}
    # early abandon: candidate holds token 3 at a LATE prefix position, so
    # the first hit's upper bound min(5, 5-1)=4 < T=5 → marked -1
    idx2 = PositionIndex([[1, 3, 9, 10, 11]], 'JACCARD', 0.8)
    out2 = f.find_candidates([3, 20, 21, 22, 23], idx2)
    assert out2 == {0: -1}
    assert f.find_candidates([1, 2],
                             PositionIndex([], 'JACCARD', 0.8)) == {}


def test_filter_candset_dataset_input(person_tables):
    import ray.data
    from py_stringsimjoin_ray.pipelines.filters import OverlapFilter
    from py_stringsimjoin_ray import WhitespaceTokenizer
    A, B = person_tables
    f = OverlapFilter(WhitespaceTokenizer(return_set=True), 1)
    cand = f.filter_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
    # pandas path keeps original row identities
    out_pd = f.filter_candset(cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID', 'B.ID',
                              'A.name', 'B.name')
    assert list(out_pd.index) == list(cand.index[:len(out_pd)]) or \
        set(out_pd.index).issubset(set(cand.index))
    # Dataset path streams and returns a Dataset
    out_ds = f.filter_candset(ray.data.from_pandas(cand), 'l_A.ID', 'r_B.ID',
                              A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
    got = out_ds.to_pandas()
    assert sorted(zip(got['l_A.ID'], got['r_B.ID'])) == \
        sorted(zip(out_pd['l_A.ID'], out_pd['r_B.ID']))


def test_size_filter_overlap_short_probe(ray_session):
    """Reference guard: an R record with fewer tokens than the OVERLAP
    threshold can never reach the required overlap — it must emit NO pairs
    even when some L record's size falls inside [lb, ub]."""
    A = pd.DataFrame({'id': [0], 's': ['a b c d e']})        # 5 tokens
    B = pd.DataFrame({'id': [9], 's': ['a b']})              # 2 tokens
    f = SizeFilter(WhitespaceTokenizer(return_set=True), 'OVERLAP', 3)
    out = f.filter_tables(A, B, 'id', 'id', 's', 's')
    assert len(out) == 0
    # filter_pair agrees
    assert f.filter_pair('a b c d e', 'a b') is True  # True = filtered OUT


def test_prefix_filter_edit_distance_unverified(ray_session, each_route):
    """PrefixFilter with EDIT_DISTANCE emits every prefix-sharing candidate
    UNVERIFIED (reference semantics) — close pairs must not be dropped by
    an accidental >= comparison on the distance."""
    A = pd.DataFrame({'id': range(4), 's': ['abcde', 'abcdf', 'zzzzz',
                                            'abcde']})
    tok = QgramTokenizer(qval=2, return_set=True)
    f = PrefixFilter(tok, 'EDIT_DISTANCE', 2)
    exp = oracle_prefix_tables(A, A.copy(), 'id', 'id', 's', 's', tok,
                               'EDIT_DISTANCE', 2)
    for route in each_route():
        out = f.filter_tables(A, A.copy(), 'id', 'id', 's', 's')
        pairs = set(zip(out['l_id'], out['r_id']))
        # identical strings (distance 0) and distance-1 neighbors present
        assert (0, 3) in pairs and (0, 1) in pairs and (0, 0) in pairs, route
        assert pairs == exp, route


def test_filter_candset_forced_distributed_equality(person_tables,
                                                    monkeypatch):
    """The bucketed hash-shuffle attach regime (``attach._BUCKETED_ONLY``)
    emits the byte-identical filtered candset (VERDICT r2 #3)."""
    import ray.data

    from py_stringsimjoin_ray.stages import attach
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    cand = OverlapFilter(tok, 1).filter_tables(A, B, 'A.ID', 'B.ID',
                                               'A.name', 'B.name')
    f = PositionFilter(tok, 'JACCARD', 0.3)
    base = f.filter_candset(cand, 'l_A.ID', 'r_B.ID', A, B, 'A.ID', 'B.ID',
                            'A.name', 'B.name')
    assert len(base) > 0
    monkeypatch.setattr(attach, '_BUCKETED_ONLY', True)
    forced = f.filter_candset(cand, 'l_A.ID', 'r_B.ID', A, B,
                              'A.ID', 'B.ID', 'A.name', 'B.name')
    ds = f.filter_candset(ray.data.from_pandas(cand), 'l_A.ID', 'r_B.ID',
                          A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
    monkeypatch.undo()
    pd.testing.assert_frame_equal(forced, base)
    got = ds.to_pandas().sort_values(['_id']).reset_index(drop=True)
    exp = base.sort_values(['_id']).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_like=True)


def test_inverted_index_shim_reference_behavior():
    """InvertedIndex shim mirrors index/inverted_index.py:29-68: all tokens
    indexed (bag multiplicity), size cache optional, empty records
    reported, probe returns row-id lists."""
    from py_stringsimjoin_ray import WhitespaceTokenizer as WT
    from py_stringsimjoin_ray.core.index_shims import InvertedIndex
    tok = WT(return_set=False)
    table = [('r0', 'aa bb aa'), ('r1', 'bb cc'), ('r2', ' '), ('r3', 'aa')]
    idx = InvertedIndex(table, 1, tok, cache_size_flag=True)
    info = idx.build()
    assert info['empty_records'] == [2]
    assert idx.probe('aa') == [0, 0, 3]  # bag tokenizer: both occurrences
    assert idx.probe('cc') == [1]
    assert idx.probe('zz') == []
    assert idx.size_cache == [3, 2, 0, 1]
    # OverlapFilter.find_candidates accepts the shim directly
    f = OverlapFilter(WT(return_set=True), 1)
    ov = f.find_candidates(['aa', 'cc'], idx)
    # 'aa' postings [0, 0, 3] → r0 counted twice; 'cc' → r1 once
    assert ov == {0: 2, 1: 1, 3: 1}


def test_size_index_shim_reference_behavior():
    """SizeIndex shim mirrors index/size_index.py:22-58: empty records not
    indexed, min/max lengths tracked, probe by exact size."""
    from py_stringsimjoin_ray import WhitespaceTokenizer as WT
    from py_stringsimjoin_ray.core.index_shims import SizeIndex
    tok = WT(return_set=True)
    table = [('r0', 'aa bb cc'), ('r1', 'bb cc'), ('r2', ' '), ('r3', 'aa')]
    idx = SizeIndex(table, 1, tok)
    info = idx.build()
    assert info['empty_records'] == [2]
    assert idx.min_length == 0 and idx.max_length == 3
    assert idx.probe(2) == [1]
    assert idx.probe(0) == []  # empties never indexed
    # SizeFilter.find_candidates accepts the shim directly
    f = SizeFilter(tok, 'JACCARD', 0.5)
    # probe size 2 → bounds [1, 4] → all non-empty records
    assert f.find_candidates(2, idx) == {0, 1, 3}


def test_filter_tables_dataset_output(person_tables, each_route):
    """filter_tables(output='dataset') keeps the candset distributed with
    the same pair classes as the pandas surface (incl. allow_empty)."""
    import ray.data
    A, B = person_tables
    tok = WhitespaceTokenizer(return_set=True)
    for route in each_route():
        for f in (OverlapFilter(tok, 1),
                  PrefixFilter(tok, 'JACCARD', 0.3),
                  PositionFilter(tok, 'JACCARD', 0.3),
                  SizeFilter(tok, 'JACCARD', 0.5)):
            name = (route, type(f).__name__)
            base = f.filter_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
            ds = f.filter_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name',
                                 output='dataset')
            assert isinstance(ds, ray.data.Dataset), name
            got = ds.to_pandas()
            assert set(zip(got['l_key'], got['r_key'])) \
                == set(zip(base['l_A.ID'], base['r_B.ID'])), name


def test_suffix_filter_tables_broadcast_gate(person_tables, monkeypatch):
    """VERDICT r3 #5: filter_tables ships the prepared L frame to every
    task — beyond the object-store gate it must fail fast with the
    filter_candset composition instead of silently OOMing at scale."""
    A, B = person_tables
    f = SuffixFilter(WhitespaceTokenizer(return_set=True), 'JACCARD', 0.5)
    from py_stringsimjoin_ray.pipelines import filters
    monkeypatch.setattr(filters, 'broadcast_gate_bytes', lambda: 1)
    with pytest.raises(ValueError, match='filter_candset'):
        f.filter_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
    monkeypatch.undo()
    out = f.filter_tables(A, B, 'A.ID', 'B.ID', 'A.name', 'B.name')
    assert len(out) > 0  # below-gate path unaffected
