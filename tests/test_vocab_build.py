"""The Dataset route's one vocabulary build (``postings.fused_rank_lookup``
and the bodies its tasks run) against the rank oracles:
``core.ordering.build_ordering_from_counts`` for the reference's token tie
and ``sorted((count, hash))`` for the hash tie — at K = 1 and K > 1
hash-range shards, over one and two relations, with the heavy-token table
and the occurrence total, and through a vocabulary hash collision."""

from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray

from py_stringsimjoin_ray import WhitespaceTokenizer, jaccard_join
from py_stringsimjoin_ray.core.ordering import build_ordering_from_counts
from py_stringsimjoin_ray.stages import localjoin, postings, tokenize
from py_stringsimjoin_ray.stages.postings import (MAX_GRID, _duck_hashes,
                                                  _vocab_build,
                                                  _vocab_shard,
                                                  _vocab_stitch,
                                                  map_tokens_to_ranks)
from py_stringsimjoin_ray.stages.tokenize import partial_token_counts_hashed

SALT = 40


def _relation(seed, n=600):
    """Token-set records over a skewed vocabulary: many equal counts, and
    a head of tokens at or above ``SALT``."""
    rng = np.random.default_rng(seed)
    vocab = np.array([f'tok{i}' for i in range(3000)])
    p = 1.0 / np.arange(1, len(vocab) + 1)
    rows = []
    for _ in range(n):
        k = int(rng.integers(1, 12))
        rows.append(list(dict.fromkeys(rng.choice(vocab, k, p=p / p.sum()))))
    return rows


def _blocks(relations, nblocks=5):
    """Each relation's (key, tokens) blocks through the combiner."""
    out = []
    for rows in relations:
        for part in np.array_split(np.arange(len(rows)), nblocks):
            out.append(partial_token_counts_hashed(pa.table({
                'key': pa.array(part, pa.int64()),
                'tokens': pa.array([rows[i] for i in part],
                                   pa.list_(pa.string()))})))
    return out


def _oracle(relations, by_hash, hashes=None):
    """token -> rank, rank -> grid, occurrence total."""
    counts = Counter(t for rows in relations for r in rows for t in r)
    tokens = sorted(counts)
    if by_hash:
        h = dict(zip(tokens, hashes if hashes is not None
                     else _duck_hashes(pa.array(tokens))))
        order = sorted(tokens, key=lambda t: (counts[t], h[t]))
        rank = {t: i + 1 for i, t in enumerate(order)}
    else:
        rank = build_ordering_from_counts(tokens, [counts[t] for t in tokens])
    heavy = {rank[t]: int(min(MAX_GRID,
                              max(2, round((counts[t] / SALT) ** 0.5) + 1)))
             for t in tokens if counts[t] >= SALT}
    return rank, heavy, sum(counts.values())


def _check(lut, heavy, tot, want):
    rank, grid, total = want
    tokens = sorted(rank)
    got = map_tokens_to_ranks(lut, pa.array(tokens))
    assert got.tolist() == [rank[t] for t in tokens]
    # heavy indexes follow rank order
    assert sorted(heavy) == sorted(grid) and grid
    assert [heavy[r][0] for r in sorted(heavy)] == list(range(len(heavy)))
    assert {r: g for r, (_, g) in heavy.items()} == grid
    assert tot == total


RELATIONS = {'one_relation': [_relation(1)],
             'two_relations': [_relation(1), _relation(2, n=400)]}


@pytest.mark.parametrize('rel', list(RELATIONS))
@pytest.mark.parametrize('by_hash,K', [(False, 1), (True, 1), (True, 2),
                                       (True, 8)],
                         ids=['token_tie', 'hash_K1', 'hash_K2', 'hash_K8'])
def test_vocab_build_matches_rank_oracles(rel, by_hash, K):
    relations = RELATIONS[rel]
    blocks = _blocks(relations)
    if K == 1:
        lut, heavy, tot = _vocab_build(SALT, MAX_GRID, by_hash, *blocks)
    else:
        shards = [_vocab_shard(s, K, by_hash, *blocks) for s in range(K)]
        # every hash range holds tokens
        assert all(len(p[0]) for p, _ in shards)
        lut, heavy, coll, tot = _vocab_stitch(SALT, MAX_GRID, *shards)
        assert not coll
    _check(lut, heavy, tot, _oracle(relations, by_hash))


def _colliding_blocks(relations):
    """``_blocks`` with the hashes of two tokens of different counts made
    equal (blocks stay hash-sorted, the combiner's contract)."""
    counts = Counter(t for rows in relations for r in rows for t in r)
    a, b = 'tok0', 'tok7'
    assert counts[a] != counts[b]
    tokens = sorted(counts)
    real = dict(zip(tokens, _duck_hashes(pa.array(tokens))))
    fake = dict(real, **{b: real[a]})
    out = []
    for t in _blocks(relations):
        h = np.array([fake[x] for x in t['token'].to_pylist()], np.uint64)
        order = np.argsort(h, kind='stable')
        t = t.take(pa.array(order)).drop_columns(['h'])
        out.append(t.append_column('h', pa.array(h[order], pa.uint64())))
    return out, [fake[t] for t in tokens]


@pytest.mark.parametrize('by_hash', [False, True],
                         ids=['token_tie', 'hash_tie'])
@pytest.mark.parametrize('rel', list(RELATIONS))
def test_hash_collision_keeps_exact_ranks(rel, by_hash):
    """A collision makes the one-task build carry the rank-ordered tokens
    (exact ranks through ``map_tokens_to_ranks``'s pandas Index); the K > 1
    shards flag it, which reruns the build as one task."""
    relations = RELATIONS[rel]
    blocks, hashes = _colliding_blocks(relations)
    lut, heavy, tot = _vocab_build(SALT, MAX_GRID, by_hash, *blocks)
    assert 'tokens' in lut
    _check(lut, heavy, tot, _oracle(relations, by_hash, hashes))
    shards = [_vocab_shard(s, 8, True, *blocks) for s in range(8)]
    assert any(m[2] for _, m in shards)


def _docs():
    """200 texts over the skewed vocabulary: 100 records, each with a
    near-duplicate that carries one more token."""
    rows = _relation(3, n=100)
    text = [' '.join(r) for r in rows] + [' '.join(r + ['extra'])
                                          for r in rows]
    return pd.DataFrame({'doc_id': range(len(text)), 'text': text})


def _spy(monkeypatch):
    """Collect every lut ``fused_rank_lookup`` builds."""
    luts = []
    orig = postings.fused_rank_lookup

    def spy(*a, **k):
        res = orig(*a, **k)
        luts.append(ray.get(res[0]))
        return res
    monkeypatch.setattr(postings, 'fused_rank_lookup', spy)
    return luts


def _pairs(df):
    return sorted(map(tuple, df[['l_doc_id', 'r_doc_id', '_sim_score']]
                      .itertuples(index=False)))


def test_dataset_route_sharded_build(monkeypatch):
    """K > 1 hash-range shards (forced by a zero row threshold) give the
    one-task lut and the local route's pairs."""
    docs = _docs()
    tok = WhitespaceTokenizer(return_set=True)
    base = jaccard_join(docs, docs, 'doc_id', 'doc_id', 'text', 'text', tok,
                        0.6, salt_df_threshold=20)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    luts = _spy(monkeypatch)
    one = jaccard_join(docs, docs, 'doc_id', 'doc_id', 'text', 'text', tok,
                       0.6, salt_df_threshold=20)
    monkeypatch.setattr(postings, '_VOCAB_SHARD_MIN_ROWS', 0)
    sharded = jaccard_join(docs, docs, 'doc_id', 'doc_id', 'text', 'text',
                           tok, 0.6, salt_df_threshold=20)
    assert len(base) >= 100
    assert _pairs(base) == _pairs(one) == _pairs(sharded)
    assert len(luts) == 2
    for key in ('hashes', 'ranks'):
        assert np.array_equal(luts[0][key], luts[1][key])


def test_dataset_route_collision_reruns_one_task(monkeypatch):
    """Partials whose hashes collide, on the K > 1 route: the build reruns
    as one task, carries the exact token lut, and the join keeps the local
    route's pairs."""
    docs = _docs()
    tok = WhitespaceTokenizer(return_set=True)
    base = jaccard_join(docs, docs, 'doc_id', 'doc_id', 'text', 'text', tok,
                        0.6, salt_df_threshold=20)

    def colliding(batch):
        # a handful of hash values for the whole vocabulary
        t = partial_token_counts_hashed(batch)
        h = t['h'].to_numpy() % np.uint64(5)
        order = np.argsort(h, kind='stable')
        t = t.take(pa.array(order)).drop_columns(['h'])
        return t.append_column('h', pa.array(h[order], pa.uint64()))
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    monkeypatch.setattr(postings, '_VOCAB_SHARD_MIN_ROWS', 0)
    monkeypatch.setattr(tokenize, 'partial_token_counts_hashed', colliding)
    luts = _spy(monkeypatch)
    out = jaccard_join(docs, docs, 'doc_id', 'doc_id', 'text', 'text', tok,
                       0.6, salt_df_threshold=20)
    assert len(luts) == 1 and 'tokens' in luts[0]
    assert _pairs(base) == _pairs(out)
