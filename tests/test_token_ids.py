"""The local route's int-id front end (``localjoin._local_ranked``: one
dictionary encode, one sort of the dictionary, one sort of the ranks)
against the string path it replaced, kept here as the oracle:
``TokenizeStage`` -> vocabulary -> ``RankPrefixStage``."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import py_stringsimjoin_ray as ssj
from py_stringsimjoin_ray.core.tokenizers import (AlphanumericTokenizer,
                                                  DelimiterTokenizer,
                                                  QgramTokenizer,
                                                  WhitespaceTokenizer,
                                                  WordQgramTokenizer,
                                                  _dedup_lists,
                                                  _dedup_preserving_order)
from py_stringsimjoin_ray.pipelines import linkage
from py_stringsimjoin_ray.pipelines.join import _JoinConfig
from py_stringsimjoin_ray.sources.repos_corpus import generate_repos_corpus
from py_stringsimjoin_ray.stages import cluster, localjoin, postings, tokenize
from py_stringsimjoin_ray.stages.postings import (RankPrefixStage,
                                                  _vocab_build,
                                                  hash_tie,
                                                  heavy_token_table,
                                                  make_rank_lookup)
from py_stringsimjoin_ray.stages.tokenize import (
    TokenizeStage, partial_token_counts, partial_token_counts_hashed,
    token_ids)
from py_stringsimjoin_ray.state import manifests as mf

LEFT = ['a b c a', 'b c', None, '', '   ', 'héllo wörld héllo',
        '日本 語 日本', 'x,y  z', 'c b a', 'b', 'aa ab ba', 'a', 'b a']
RIGHT = ['c a', None, 'wörld', 'z y x', '', 'b b b', 'ab', '語 日本',
         'q  r', 'a b']


class _PerString:
    """A user tokenizer with only the reference's ``tokenize`` contract."""

    def __init__(self, return_set):
        self.return_set = return_set

    def get_return_set(self):
        return self.return_set

    def set_return_set(self, flag):
        self.return_set = flag
        return True

    def tokenize(self, s):
        toks = s.lower().split()
        return _dedup_preserving_order(toks) if self.return_set else toks


class _LowerWords(WhitespaceTokenizer):
    """Overrides ``_raw_tokenize`` below its Arrow kernel: no Arrow kernel
    (``has_arrow_kernel``), so it tokenizes one string at a time."""

    def _raw_tokenize(self, s):
        return s.lower().split()


TOKENIZERS = {
    'ws_set': WhitespaceTokenizer(return_set=True),
    'ws_bag': WhitespaceTokenizer(return_set=False),
    'delim_set': DelimiterTokenizer({',', ' '}, return_set=True),
    'delim_bag': DelimiterTokenizer({',', ' '}),
    'qgram2_set': QgramTokenizer(qval=2, return_set=True),
    'qgram2_bag': QgramTokenizer(qval=2),
    'qgram3_nopad': QgramTokenizer(qval=3, padding=False, return_set=True),
    'alnum_set': AlphanumericTokenizer(return_set=True),
    'alnum_bag': AlphanumericTokenizer(),
    'wordqgram_set': WordQgramTokenizer(kval=2, return_set=True),
    'user_set': _PerString(True),
    'user_bag': _PerString(False),
    'raw_override_set': _LowerWords(return_set=True),
}

# (sim_type, mode): a set-measure join breaks df ties by token hash, an
# EDIT_DISTANCE join (which keeps the strings) and a candidates mode by
# token
CONFIGS = {
    'jaccard_join': ('JACCARD', 'join'),
    'ed_join': ('EDIT_DISTANCE', 'join'),
    'overlap_candidates': ('OVERLAP', 'overlap_candidates'),
}
THRESHOLD = {'JACCARD': 0.5, 'EDIT_DISTANCE': 2, 'OVERLAP': 1}
# EDIT_DISTANCE takes q-gram tokenizers only
CASES = [(t, c) for t in TOKENIZERS for c in CONFIGS
         if c != 'ed_join' or isinstance(TOKENIZERS[t], QgramTokenizer)]


def _cfg(tok, sim_type, mode, salt=2):
    return _JoinConfig(sim_type, tok, THRESHOLD[sim_type], '>=',
                       allow_empty=True, allow_missing=False,
                       out_sim_score=True, mode=mode, salt_df_threshold=salt)


def _side(values, prefix):
    return pa.table({'id': [f'{prefix}{i}' for i in range(len(values))],
                     'v': pa.array(values, pa.string())})


def _string_path(sides, cfg):
    """The oracle: per-side ``TokenizeStage``, one vocabulary over both,
    ``RankPrefixStage``.  The hash tie is the Dataset route's vocabulary
    build, the token tie the string-path chain ``make_rank_lookup`` ->
    ``heavy_token_table``."""
    toks = [TokenizeStage('id', 'v', cfg.tokenizer,
                          keep_string=cfg.keep_string)(t) for t in sides]
    if hash_tie(cfg):
        lut, heavy, _tot = _vocab_build(
            cfg.salt_df_threshold, postings.MAX_GRID, True,
            *[partial_token_counts_hashed(t) for t in toks])
    else:
        parts = [p for p in (partial_token_counts(t) for t in toks)
                 if len(p)]
        merged = pa.concat_tables(parts)
        agg = merged.group_by('token').aggregate([('partial', 'sum')])
        freq = pa.table({'token': agg['token'],
                         'count': agg['partial_sum']})
        lut = make_rank_lookup(freq)
        heavy = heavy_token_table(freq, lut, cfg.salt_df_threshold)
    prefix_type = ('OVERLAP_COEFFICIENT' if cfg.mode == 'overlap_candidates'
                   else cfg.sim_type)
    rp = RankPrefixStage(lut, prefix_type, cfg.threshold, cfg.qval,
                         keep_string=cfg.keep_string)
    return [rp(t) for t in toks], heavy


def _grid(heavy: dict) -> dict:
    """rank -> grid size; the heavy index only has to be a permutation."""
    assert sorted(h for h, _ in heavy.values()) == list(range(len(heavy)))
    return {r: g for r, (_, g) in heavy.items()}


@pytest.mark.parametrize('two_relations', [False, True],
                         ids=['one_relation', 'two_relations'])
@pytest.mark.parametrize('tok_name,config', CASES,
                         ids=[f'{t}-{c}' for t, c in CASES])
def test_int_ids_equal_string_path(tok_name, config, two_relations):
    sim_type, mode = CONFIGS[config]
    cfg = _cfg(TOKENIZERS[tok_name], sim_type, mode)
    sides = [_side(LEFT, 'l')] + ([_side(RIGHT, 'r')] if two_relations
                                  else [])
    got, heavy = localjoin._local_ranked([(t, 'id', 'v') for t in sides],
                                         cfg)
    want, want_heavy = _string_path(sides, cfg)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.column_names == w.column_names
        assert g.equals(w), (g.to_pydict(), w.to_pydict())
    assert heavy and _grid(heavy) == _grid(want_heavy)


def test_all_null_side_equals_string_path():
    cfg = _cfg(WhitespaceTokenizer(return_set=True), 'JACCARD', 'join')
    sides = [_side(LEFT, 'l'), _side([None, None], 'r')]
    got, _ = localjoin._local_ranked([(t, 'id', 'v') for t in sides], cfg)
    want, _ = _string_path(sides, cfg)
    assert len(got[1]) == 0 and got[0].equals(want[0])


def test_token_ids_one_dictionary_for_both_sides():
    tok = WhitespaceTokenizer(return_set=True)
    sides, dictionary, df = token_ids(
        [pa.array(['b a b', 'c']), pa.array(['a c', '', 'd'])], tok)
    words = np.array(dictionary.to_pylist(), object)

    def rows(lens, ids):
        return [set(words[ids[a:b]]) for a, b in
                zip(np.cumsum(lens) - lens, np.cumsum(lens))]
    assert [rows(*s) for s in sides] == [[{'a', 'b'}, {'c'}],
                                         [{'a', 'c'}, set(), {'d'}]]
    assert dict(zip(words, df)) == {'a': 2, 'b': 1, 'c': 2, 'd': 1}


def test_dedup_lists_keeps_first_occurrences():
    lists = pa.array([['b', 'a', 'b', 'c', 'a'], [], ['x', 'x'],
                      ['é', 'e', 'é']], pa.list_(pa.string()))
    assert _dedup_lists(lists).to_pylist() == [['b', 'a', 'c'], [], ['x'],
                                               ['é', 'e']]
    unique = pa.array([['a', 'b'], ['a']], pa.list_(pa.string()))
    assert _dedup_lists(unique) is unique


@pytest.fixture(scope='module')
def linkage_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp('token_ids_corpus')
    repos, _truth = generate_repos_corpus(str(d), num_clusters=10,
                                          max_cluster=3, num_singletons=10,
                                          tokens_per_file=40, seed=5)
    return repos


def test_no_token_strings_after_the_split(monkeypatch, linkage_corpus):
    """While a local join, a local candidates run and an in-process
    ``_local_linkage`` run, no token string is hashed or searched past the
    dictionary and ``TokenizeStage`` never runs."""
    calls = {'map': 0, 'stage': 0, 'hashes': []}
    orig_hashes = postings._duck_hashes

    def hashes(values):
        calls['hashes'].append(len(values))
        return orig_hashes(values)

    def refuse(name):
        def f(*a, **k):
            calls[name] += 1
            raise AssertionError(f'{name} called on the local route')
        return f
    monkeypatch.setattr(postings, '_duck_hashes', hashes)
    monkeypatch.setattr(localjoin, '_duck_hashes', hashes)
    monkeypatch.setattr(postings, 'map_tokens_to_ranks', refuse('map'))
    monkeypatch.setattr(tokenize.TokenizeStage, '__call__', refuse('stage'))

    left = pd.DataFrame({'id': range(len(LEFT)), 'v': LEFT})
    right = pd.DataFrame({'id': range(len(RIGHT)), 'v': RIGHT})
    tok = WhitespaceTokenizer(return_set=True)
    distinct = {t for v in LEFT + RIGHT if v for t in v.split()}
    out = ssj.jaccard_join(left, right, 'id', 'id', 'v', 'v', tok, 0.5)
    assert len(out) > 0
    assert calls['hashes'] and max(calls['hashes']) <= len(distinct)

    cfg = _cfg(tok, 'OVERLAP', 'overlap_candidates')
    pairs, _ = localjoin._local_pairs(
        pa.Table.from_pandas(left), pa.Table.from_pandas(right), 'id', 'id',
        'v', 'v', cfg, localjoin._gates())
    assert len(pairs) > 0

    calls['hashes'].clear()
    files = linkage._input_files(linkage_corpus)
    lcfg = _JoinConfig('JACCARD', WhitespaceTokenizer(return_set=True), 0.7,
                       '>=', allow_empty=False, allow_missing=False,
                       out_sim_score=True, self_join=True)
    res = linkage._local_linkage(files, None,
                                 mf.file_fingerprint(linkage_corpus), lcfg,
                                 localjoin._gates(), cluster._CC_TASK_GATE)
    assert res['counters']['num_matches'] > 0
    content = pa.concat_tables(
        [pq.read_table(f, columns=['content']) for f in files])
    vocab = {t for v in content['content'].to_pylist() for t in v.split()}
    assert calls['hashes'] and max(calls['hashes']) <= len(vocab)
    assert calls['map'] == 0 and calls['stage'] == 0
