"""Dataset-route coverage of the slim join: small inputs take the local
route, so these tests force the Dataset route (a local row cap of 0) and
pin its pair set to the local route's — with the one Tsig shard a small
input folds into, and with many shards (a tiny ``_SHARD_TARGET_BYTES``)."""

import numpy as np
import pandas as pd
import pytest

from py_stringsimjoin_ray import (QgramTokenizer, WhitespaceTokenizer,
                                  edit_distance_join, jaccard_join)
from py_stringsimjoin_ray.stages import localjoin, slimjoin


@pytest.fixture
def parts():
    part = pd.read_parquet('/root/testdata/sf0.001/part.parquet')
    return part[['p_partkey', 'p_name']].head(400).copy()


def _pairs(df, cols=('l_p_partkey', 'r_p_partkey', '_sim_score')):
    return sorted(map(tuple, df[list(cols)].itertuples(index=False)))


def test_distributed_path_matches_broadcast(parts, monkeypatch):
    tok = WhitespaceTokenizer(return_set=True)
    base = jaccard_join(parts, parts, 'p_partkey', 'p_partkey', 'p_name',
                        'p_name', tok, 0.5)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    dist = jaccard_join(parts, parts, 'p_partkey', 'p_partkey', 'p_name',
                        'p_name', tok, 0.5)
    assert _pairs(base) == _pairs(dist)


def test_distributed_path_edit_distance(monkeypatch):
    cust = pd.read_parquet('/root/testdata/sf0.001/customer.parquet')
    cust = cust[['c_custkey', 'c_name']].head(300).copy()
    base = edit_distance_join(cust, cust, 'c_custkey', 'c_custkey',
                              'c_name', 'c_name', 2)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    dist = edit_distance_join(cust, cust, 'c_custkey', 'c_custkey',
                              'c_name', 'c_name', 2)
    cols = ('l_c_custkey', 'r_c_custkey', '_sim_score')
    assert _pairs(base, cols) == _pairs(dist, cols)


def test_distributed_path_two_table_string_keys(monkeypatch):
    A = pd.DataFrame({'id': [f'a{i}' for i in range(40)],
                      's': [f'alpha beta w{i % 7} gamma{i % 3}'
                            for i in range(40)]})
    B = pd.DataFrame({'id': [f'b{i}' for i in range(40)],
                      's': [f'alpha beta w{i % 5} gamma{i % 4}'
                            for i in range(40)]})
    tok = WhitespaceTokenizer(return_set=True)
    base = jaccard_join(A, B, 'id', 'id', 's', 's', tok, 0.5)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    dist = jaccard_join(A, B, 'id', 'id', 's', 's', tok, 0.5)
    cols = ('l_id', 'r_id', '_sim_score')
    assert _pairs(base, cols) == _pairs(dist, cols)


def test_broadcast_salted_self_join_qgram(monkeypatch):
    # qgram bag prefixes + forced salting through the broadcast kernel
    sup = pd.read_parquet('/root/testdata/sf0.001/supplier.parquet')
    sup = sup[['s_suppkey', 's_name']].head(200).copy()
    tok = QgramTokenizer(qval=3, return_set=True)
    base = jaccard_join(sup, sup, 's_suppkey', 's_suppkey', 's_name',
                        's_name', tok, 0.4, salt_df_threshold=10 ** 9)
    salted = jaccard_join(sup, sup, 's_suppkey', 's_suppkey', 's_name',
                          's_name', tok, 0.4, salt_df_threshold=4)
    cols = ('l_s_suppkey', 'r_s_suppkey')
    assert _pairs(base, cols) == _pairs(salted, cols)


def test_dataset_route_with_salting_and_strings(monkeypatch):
    """Heavy-token salting on the Dataset route (the vocabulary's heavy
    table feeding the salted postings) keeps the local route's pairs."""
    docs = pd.read_parquet('/root/testdata/sf0.001/documents.parquet')
    docs = docs[['doc_id', 'text']].head(200).copy()
    tok = WhitespaceTokenizer(return_set=True)
    base = jaccard_join(docs, docs, 'doc_id', 'doc_id', 'text', 'text',
                        tok, 0.6, salt_df_threshold=20)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    dist = jaccard_join(docs, docs, 'doc_id', 'doc_id', 'text', 'text',
                        tok, 0.6, salt_df_threshold=20)
    cols = ('l_doc_id', 'r_doc_id', '_sim_score')
    assert _pairs(base, cols) == _pairs(dist, cols)


def test_self_join_exact_duplicates_counted_once(tmp_path, monkeypatch):
    """Identity signature pairs (exact-duplicate records) must expand to
    each unordered record pair exactly once — regression for the canonical
    candgen double-counting them via min/max reorientation."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from py_stringsimjoin_ray.pipelines.linkage import record_linkage

    base = 'shared alpha beta gamma delta epsilon zeta eta theta iota'
    rows = []
    # a 4-way exact-duplicate cluster, a 3-way one, and distinct fillers
    for i in range(4):
        rows.append(('r0', f'a{i}.py', 'c0', 'py', base + ' dupA'))
    base_b = 'other kappa lam mu nu xi omicron pi rho sigma'
    for i in range(3):
        rows.append(('r1', f'b{i}.py', 'c1', 'py', base_b + ' dupB'))
    for i in range(30):
        rows.append(('r2', f'f{i}.py', 'c2', 'py',
                     f'unique{i} token{i} word{i} filler{i} onlyone{i} '
                     f'solo{i} single{i} lone{i} alone{i} apart{i}'))
    tbl = pa.table({
        'repo': [r[0] for r in rows], 'path': [r[1] for r in rows],
        'commit': [r[2] for r in rows], 'lang': [r[3] for r in rows],
        'content': [r[4] for r in rows]})
    path = str(tmp_path / 'repos.parquet')
    pq.write_table(tbl, path)

    res = record_linkage(path, checkpoint_dir=None, threshold=0.7)
    # C(4,2) + C(3,2) = 6 + 3 = 9 exact-dup pairs, no cross matches
    assert res['counters']['num_matches'] == 9

    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    res_d = record_linkage(path, checkpoint_dir=None, threshold=0.7)
    assert res_d['counters']['num_matches'] == 9


def test_expand_slab_boundary_duplicate_class(monkeypatch):
    """The verify-side membership expansion is slabbed over the flat
    expansion space; with a tiny slab a duplicate class whose m x m cross
    spans many slabs must still emit the exact pair set (incl. the
    self-join upper triangle and the same-relation mirror)."""
    from py_stringsimjoin_ray.stages import slimjoin
    monkeypatch.setattr(slimjoin, '_EXPAND_SLAB', 7)
    # force the slim pipeline
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    # 12 identical records (one sig class, 144 expanded rows) + distinct
    A = pd.DataFrame({'id': range(20),
                      's': ['same tokens here'] * 12
                           + [f'uniq{i} token{i % 3} x' for i in range(8)]})
    tok = WhitespaceTokenizer(return_set=True)
    out = jaccard_join(A, A.copy(), 'id', 'id', 's', 's', tok, 0.9)
    got = {(int(a), int(b)) for a, b in zip(out['l_id'], out['r_id'])}
    exp = {(i, j) for i in range(12) for j in range(12)} \
        | {(i, i) for i in range(12, 20)}
    assert got == exp


def test_small_dataset_route_join_builds_one_shard(parts, monkeypatch):
    """Below ``_SHARD_TARGET_BYTES`` the Dataset route folds the whole
    signature table into ONE shard, and its pair set is the local
    route's."""
    import py_stringsimjoin_ray.stages.slimjoin as sj
    tok = WhitespaceTokenizer(return_set=True)
    base = jaccard_join(parts, parts, 'p_partkey', 'p_partkey', 'p_name',
                        'p_name', tok, 0.5)
    built = []
    build = sj.collect_tsig_shards

    def counted(tagged, same_relation, keep_string, nshards):
        out = build(tagged, same_relation, keep_string, nshards)
        built.append((nshards, len(out[0])))
        return out
    monkeypatch.setattr(sj, 'collect_tsig_shards', counted)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    dist = jaccard_join(parts, parts, 'p_partkey', 'p_partkey', 'p_name',
                        'p_name', tok, 0.5)
    assert built == [(1, 1)]
    assert _pairs(base) == _pairs(dist)


def test_plan_restores_caller_data_context(parts, monkeypatch):
    """The Dataset route sets push-based sort shuffle and reservation off
    for its own plan only: the caller's DataContext comes back unchanged
    when the call returns and when the plan build raises."""
    import ray.data
    from ray.data.context import ShuffleStrategy

    import py_stringsimjoin_ray.stages.slimjoin as sj
    ctx = ray.data.DataContext.get_current()

    def settings():
        return ctx.shuffle_strategy, ctx.op_resource_reservation_enabled

    saved = settings()
    caller = (ShuffleStrategy.SORT_SHUFFLE_PULL_BASED, True)
    inside = []
    build = sj.collect_tsig_shards

    def observed(*args):
        inside.append(settings())
        return build(*args)

    def failing(*args):
        raise RuntimeError('plan build failed')

    tok = WhitespaceTokenizer(return_set=True)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    try:
        ctx.shuffle_strategy, ctx.op_resource_reservation_enabled = caller
        monkeypatch.setattr(sj, 'collect_tsig_shards', observed)
        out = jaccard_join(parts, parts, 'p_partkey', 'p_partkey', 'p_name',
                           'p_name', tok, 0.5)
        assert len(out) > 0
        assert inside == [(ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED, False)]
        assert settings() == caller
        monkeypatch.setattr(sj, 'collect_tsig_shards', failing)
        with pytest.raises(RuntimeError, match='plan build failed'):
            jaccard_join(parts, parts, 'p_partkey', 'p_partkey', 'p_name',
                         'p_name', tok, 0.5)
        assert settings() == caller
    finally:
        ctx.shuffle_strategy, ctx.op_resource_reservation_enabled = saved


def test_sharded_path_many_shards(parts, monkeypatch):
    """Sharded-broadcast regime with a tiny shard target (max shard count):
    shard-pair routing + two-sided verify must reproduce the broadcast
    pair set exactly (regression: int32 group keys overflowed at high
    shard counts)."""
    tok = WhitespaceTokenizer(return_set=True)
    base = jaccard_join(parts, parts.copy(), 'p_partkey', 'p_partkey',
                        'p_name', 'p_name', tok, 0.5)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    monkeypatch.setattr(slimjoin, '_SHARD_TARGET_BYTES', 2000)
    sharded = jaccard_join(parts, parts.copy(), 'p_partkey', 'p_partkey',
                           'p_name', 'p_name', tok, 0.5)
    assert _pairs(base) == _pairs(sharded)


def test_sharded_path_shard_count_beyond_old_cap(parts, monkeypatch):
    """Round 5: shard builders slice sig-sorted blocks, so the shard count
    scales freely (default cap 64 → 1024).  Max it out on a tiny input —
    ~1024 mostly-EMPTY shards, the top-shard boundary, and shard-pair
    verify routing must still reproduce the broadcast pair set."""
    tok = WhitespaceTokenizer(return_set=True)
    base = jaccard_join(parts, parts.copy(), 'p_partkey', 'p_partkey',
                        'p_name', 'p_name', tok, 0.5)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    monkeypatch.setattr(slimjoin, '_SHARD_TARGET_BYTES', 1)
    sharded = jaccard_join(parts, parts.copy(), 'p_partkey', 'p_partkey',
                           'p_name', 'p_name', tok, 0.5)
    assert _pairs(base) == _pairs(sharded)


def test_candgen_parts_scale_with_sigs(parts, monkeypatch):
    """Partition count is data-dependent and cluster-independent; force
    the beyond-256 branch on a small input and pin the pair set."""
    import py_stringsimjoin_ray.stages.slimjoin as sj
    tok = WhitespaceTokenizer(return_set=True)
    base = jaccard_join(parts, parts.copy(), 'p_partkey', 'p_partkey',
                        'p_name', 'p_name', tok, 0.5)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    monkeypatch.setattr(sj, '_candgen_parts', lambda n: 1024)
    many = jaccard_join(parts, parts.copy(), 'p_partkey', 'p_partkey',
                        'p_name', 'p_name', tok, 0.5)
    assert _pairs(base) == _pairs(many)


def test_tsig_shard_builder_rejects_unsorted_block():
    """The shard builders slice each split block by binary search; a block
    that is not one sig-sorted run (e.g. a batching change splitting the
    split stage's batches) must raise instead of dropping memberships."""
    import pyarrow as pa

    from py_stringsimjoin_ray.stages.slimjoin import _build_tsig_shard
    def blk(sigs):  # membership rows only
        return pa.table({'kind': pa.array([1, 1], pa.int8()),
                         'sig': pa.array(sigs, pa.int64()),
                         'side': pa.array([0, 0], pa.int8()),
                         'key': pa.array([7, 8], pa.int64())})
    sorted_blk, unsorted_blk = blk([1, 5]), blk([5, 1])
    caught = 0
    for shard in range(2):  # one builder per block runs the check
        try:
            _build_tsig_shard(shard, 2, True, False, sorted_blk,
                              unsorted_blk)
        except RuntimeError as e:
            assert 'not sorted' in str(e)
            caught += 1
    assert caught == 1
