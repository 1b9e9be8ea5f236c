import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from py_stringsimjoin_ray.functions import textstats
from py_stringsimjoin_ray.stages import ann, cluster, dedup, media


class TestConnectedComponents:
    @staticmethod
    def edge_ds(edges):
        return ray.data.from_arrow(pa.table({
            'u': pa.array([e[0] for e in edges], pa.int64()),
            'v': pa.array([e[1] for e in edges], pa.int64())}))

    def assert_cc(self, monkeypatch, edges, expected):
        nodes, comps = cluster.connected_components_numpy(
            np.array([e[0] for e in edges], np.int64),
            np.array([e[1] for e in edges], np.int64))
        oracle = dict(zip(nodes.tolist(), comps.tolist()))
        assert oracle == expected
        eds = self.edge_ds(edges)
        # one task below the gate, the star rounds above it
        for gate in (None, 0):
            with monkeypatch.context() as m:
                if gate is not None:
                    m.setattr(cluster, '_CC_TASK_GATE', gate)
                got = cluster.connected_components(eds).to_pandas()
            assert dict(zip(got['node'], got['component'])) == oracle

    def test_two_components(self, monkeypatch):
        self.assert_cc(monkeypatch, [(1, 2), (2, 3), (10, 11)],
                       {1: 1, 2: 1, 3: 1, 10: 10, 11: 10})

    def test_chain(self, monkeypatch):
        n = 30
        edges = [(i, i + 1) for i in range(n)]
        self.assert_cc(monkeypatch, edges, {i: 0 for i in range(n + 1)})

    def test_self_loops_and_dups(self, monkeypatch):
        self.assert_cc(monkeypatch, [(5, 5), (1, 2), (2, 1), (2, 3)],
                       {1: 1, 2: 1, 3: 1})

    def test_star_and_singleton_merge(self, monkeypatch):
        edges = [(7, 1), (7, 2), (7, 3), (2, 9)]
        self.assert_cc(monkeypatch, edges, {1: 1, 2: 1, 3: 1, 7: 1, 9: 1})

    def test_max_rounds_without_fixpoint_raises(self, monkeypatch):
        monkeypatch.setattr(cluster, '_CC_TASK_GATE', 0)
        eds = self.edge_ds([(i, i + 1) for i in range(30)])
        with pytest.raises(RuntimeError, match='no fixpoint after 1'):
            cluster.connected_components(eds, max_rounds=1)

    def test_task_path_pulls_nothing_to_the_driver(self, monkeypatch):
        eds = self.edge_ds([(1, 2), (2, 3), (10, 11)])
        ids = ray.data.from_arrow(pa.table({
            'id': pa.array([1, 2, 3, 10, 11, 12], pa.int64())}))

        def refuse(*a, **k):
            raise AssertionError('rows pulled to the driver')
        with monkeypatch.context() as m:
            for meth in ('to_pandas', 'iter_batches'):
                m.setattr(ray.data.Dataset, meth, refuse)
            comp = cluster.connected_components(eds)
            out = cluster.attach_components(ids, 'id', comp).materialize()
        got = out.to_pandas()
        assert dict(zip(got['id'], got['component'])) \
            == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10, 12: 12}


def _planted_docs():
    """20 planted near-duplicate pairs (2i, 2i+1) and 15 unique docs, with
    the ``near_dedup`` frame they must give."""
    words = [f'tok{i}' for i in range(40)]
    rng = np.random.default_rng(9)
    base = [' '.join(rng.choice(words, 30)) for _ in range(20)]
    texts, ids = [], []
    nid = 0
    for t in base:
        for variant in (t, t + ' extra_tail_token'):
            texts.append(variant)
            ids.append(nid)
            nid += 1
    for _ in range(15):  # uniques
        texts.append(' '.join(rng.choice(words[:20], 8)) + f' uniq{nid}')
        ids.append(nid)
        nid += 1
    docs = ray.data.from_arrow(pa.table({
        'doc_id': pa.array(np.asarray(ids, np.int64)),
        'text': pa.array(texts)}))
    ids = np.asarray(ids, np.int64)
    rep = np.where(ids < 40, ids - ids % 2, ids)
    want = pd.DataFrame({'doc_id': ids, 'rep_id': rep,
                         'keep': (ids == rep).astype(np.int64)})
    return docs, want


@pytest.mark.parametrize('regime', ['broadcast', 'shuffle'])
def test_attach_components_both_regimes(regime, monkeypatch):
    if regime == 'shuffle':
        monkeypatch.setattr(cluster, '_ATTACH_BROADCAST_ROWS', 0)

    # 63-bit ids: the shuffle's null-padded component column must not
    # round them through float64
    big = (1 << 60) + 1  # survives int64, NOT float64
    ingest = ray.data.from_arrow(pa.table({
        'record_id': pa.array([big, big + 2, 7], pa.int64()),
        'repo': ['r'] * 3, 'path': ['p'] * 3, 'commit': ['c'] * 3,
        'sha256': ['s'] * 3}))
    comp = ray.data.from_arrow(pa.table({
        'node': pa.array([big, big + 2], pa.int64()),
        'component': pa.array([big, big], pa.int64())}))
    out = cluster.attach_components(ingest, 'record_id', comp).to_pandas()
    assert list(out.columns) == ['record_id', 'repo', 'path', 'commit',
                                 'sha256', 'component']
    assert dict(zip(out['record_id'], out['component'])) \
        == {big: big, big + 2: big, 7: 7}  # a singleton is its own

    # near_dedup: the planted frame, one row per doc
    docs, want = _planted_docs()
    got = dedup.near_dedup(docs, 'doc_id', 'text', threshold=0.6,
                           k=3).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values('doc_id').reset_index(drop=True), want)

    # the flagship entry: one row per document, cluster = the minimum of
    # the doc's own id and its component (a union + per-doc min)
    import __ray_entry__
    from py_stringsimjoin_ray.core.tokenizers import WordQgramTokenizer
    from py_stringsimjoin_ray.pipelines.join import jaccard_join
    got = __ray_entry__.entry().to_pandas()
    docs = pd.read_parquet(f'{__ray_entry__.SF0001}/documents.parquet')
    pairs = jaccard_join(docs, docs, 'doc_id', 'doc_id', 'text', 'text',
                         WordQgramTokenizer(kval=5, return_set=True), 0.6)
    nodes, comps = cluster.connected_components_numpy(
        pairs['l_doc_id'].to_numpy(np.int64),
        pairs['r_doc_id'].to_numpy(np.int64))
    want = pd.concat([
        pd.DataFrame({'doc_id': docs['doc_id'], 'cluster': docs['doc_id']}),
        pd.DataFrame({'doc_id': nodes, 'cluster': comps})]) \
        .groupby('doc_id')['cluster'].min()
    assert got['doc_id'].is_unique and len(got) == len(docs)
    assert got.set_index('doc_id')['cluster'].sort_index().to_dict() \
        == want.to_dict()
    assert (want.to_numpy() != want.index.to_numpy()).any()  # some merge


@pytest.fixture(scope='module')
def docs_ds():
    texts = [
        'the quick brown fox jumps over the lazy dog again and again',
        'the quick brown fox jumps over the lazy dog again and again',   # dup of 0
        'the quick brown fox jumps over the lazy cat again and again',   # near dup
        'completely different content about ray data pipelines at scale',
        'der schnelle braune fuchs springt und ist nicht langsam',
        '',
    ]
    return ray.data.from_arrow(pa.table({
        'doc_id': pa.array(range(len(texts)), pa.int64()),
        'text': pa.array(texts, pa.string())}))


class TestDedup:
    def test_exact_dedup(self, docs_ds):
        out = dedup.exact_dedup(docs_ds, 'doc_id', 'text').to_pandas()
        reps = dict(zip(out['rep_id'], out['dup_count']))
        assert reps[0] == 2           # docs 0 and 1 identical
        assert reps[2] == 1
        assert len(out) == 5          # 6 docs, one exact dup

    def test_minhash_lsh_pairs(self, docs_ds):
        out = dedup.minhash_lsh_pairs(docs_ds, 'doc_id', 'text',
                                      threshold=0.5, k=3).to_pandas()
        pairs = set(zip(out['l_id'], out['r_id']))
        assert (0, 1) in pairs        # exact dup always found
        for l, r, j in zip(out['l_id'], out['r_id'], out['jaccard']):
            assert j >= 0.5
        assert all(l < r for l, r in pairs)

    def test_minhash_lsh_bucket_join_path(self, docs_ds, monkeypatch):
        # force the beyond-gate bucketed-join verify (local gate off, pair
        # limit 0) and pin it row-identical to the broadcast fast path
        monkeypatch.setattr(dedup, '_LOCAL_MINHASH_MAX_ROWS', 0)
        base = dedup.minhash_lsh_pairs(docs_ds, 'doc_id', 'text',
                                       threshold=0.5, k=3).to_pandas()
        monkeypatch.setattr(dedup, '_LSH_BROADCAST_PAIR_LIMIT', 0)
        out = dedup.minhash_lsh_pairs(docs_ds, 'doc_id', 'text',
                                      threshold=0.5, k=3).to_pandas()
        key = lambda d: sorted(map(tuple, d[['l_id', 'r_id', 'jaccard']]
                                   .round(12).to_numpy().tolist()))
        assert key(out) == key(base)

    def test_minhash_local_equals_distributed(self, docs_ds, monkeypatch):
        """The driver-gated local fast path must emit EXACTLY the
        distributed pipeline's rows (same kernels, same band digests)."""
        local = dedup.minhash_lsh_pairs(docs_ds, 'doc_id', 'text',
                                        threshold=0.5, k=3).to_pandas()
        monkeypatch.setattr(dedup, '_LOCAL_MINHASH_MAX_ROWS', 0)
        dist = dedup.minhash_lsh_pairs(docs_ds, 'doc_id', 'text',
                                       threshold=0.5, k=3).to_pandas()
        key = lambda d: sorted(map(tuple, d[['l_id', 'r_id', 'jaccard']]
                                   .to_numpy().tolist()))
        assert key(local) == key(dist) and len(local) > 0

    def test_minhash_local_equals_distributed_planted(self, ray_session,
                                                      monkeypatch):
        # near-dup clusters + exact-dup classes + uniques, randomized
        rng = np.random.default_rng(17)
        words = [f'w{i}' for i in range(60)]
        texts = []
        for c in range(25):
            base = ' '.join(rng.choice(words, 15))
            texts.append(base)
            texts.append(base)                      # exact dup class
            texts.append(base + ' extra token')     # near dup
        for _ in range(40):
            texts.append(' '.join(rng.choice(words, 15)))
        ds = ray.data.from_arrow(pa.table({
            'doc_id': pa.array(range(len(texts)), pa.int64()),
            'text': pa.array(texts)})).repartition(4)
        local = dedup.minhash_lsh_pairs(ds, 'doc_id', 'text',
                                        threshold=0.6, k=3).to_pandas()
        monkeypatch.setattr(dedup, '_LOCAL_MINHASH_MAX_ROWS', 0)
        dist = dedup.minhash_lsh_pairs(ds, 'doc_id', 'text',
                                       threshold=0.6, k=3).to_pandas()
        key = lambda d: sorted(map(tuple, d[['l_id', 'r_id', 'jaccard']]
                                   .to_numpy().tolist()))
        assert key(local) == key(dist) and len(local) > 25

    def test_minhash_lsh_class_collapse_exact_dups(self, ray_session):
        # degenerate-band-bucket guard: 40 exact copies collapse to ONE
        # class in candidate generation; the expansion must regenerate every
        # intra-class pair exactly once (jaccard 1.0) and cross-class rep
        # pairs must expand to every member
        texts = ['the quick brown fox jumps over the lazy dog again'] * 40
        texts.append('the quick brown fox jumps over the lazy cat again')
        texts.append('a completely different document about rust compilers')
        ds = ray.data.from_arrow(pa.table({
            'doc_id': pa.array(range(len(texts)), pa.int64()),
            'text': pa.array(texts)}))
        out = dedup.minhash_lsh_pairs(ds, 'doc_id', 'text',
                                      threshold=0.5, k=3).to_pandas()
        pairs = list(zip(out['l_id'], out['r_id']))
        assert len(pairs) == len(set(pairs)), 'duplicate pairs emitted'
        dup_cls = {p for p in pairs if p[0] < 40 and p[1] < 40}
        assert dup_cls == {(i, j) for i in range(40)
                           for j in range(i + 1, 40)}
        intra_j = out.loc[(out['l_id'] < 40) & (out['r_id'] < 40), 'jaccard']
        assert (intra_j == 1.0).all()
        # cross-class expansion: pairs (i, 40) exist for ALL class members
        # or none (the near-dup doc is one LSH candidate at class level)
        cross = {p for p in pairs if p[1] == 40}
        assert cross in (set(), {(i, 40) for i in range(40)})
        if cross:
            assert out.loc[out['r_id'] == 40, 'jaccard'].nunique() == 1

    def test_minhash_lsh_many_dup_classes(self, ray_session, monkeypatch):
        # VERDICT r4 #4 (vectorized intra_batch): MANY duplicate classes of
        # varying sizes in one run — every within-class pair must appear
        # exactly once with jaccard 1.0, on the distributed path where the
        # intra-pair generator runs
        monkeypatch.setattr(dedup, '_LOCAL_MINHASH_MAX_ROWS', 0)
        texts, expected = [], set()
        doc_id = 0
        for c, size in enumerate([2, 3, 4, 5, 2, 3, 1, 1]):
            body = (f'document class {c} with shared words alpha beta '
                    f'gamma delta epsilon zeta eta theta run {c}')
            ids = list(range(doc_id, doc_id + size))
            doc_id += size
            texts.extend([body] * size)
            expected |= {(i, j) for i in ids for j in ids if i < j}
        ds = ray.data.from_arrow(pa.table({
            'doc_id': pa.array(range(len(texts)), pa.int64()),
            'text': pa.array(texts)})).repartition(3)
        out = dedup.minhash_lsh_pairs(ds, 'doc_id', 'text',
                                      threshold=0.9, k=3).to_pandas()
        pairs = list(zip(out['l_id'], out['r_id']))
        assert len(pairs) == len(set(pairs)), 'duplicate pairs emitted'
        intra = {p for p in pairs
                 if out.loc[(out['l_id'] == p[0]) & (out['r_id'] == p[1]),
                            'jaccard'].iloc[0] == 1.0}
        assert expected <= set(pairs)
        assert expected <= intra

    def test_set_jaccard_kernels(self):
        rng = np.random.default_rng(7)
        docs = [np.unique(rng.integers(0, 40, size=rng.integers(0, 25)))
                .astype(np.int64) for _ in range(30)]
        docs[3] = np.empty(0, np.int64)      # empty-set edges
        docs[4] = np.empty(0, np.int64)
        flat = (np.concatenate(docs) if sum(map(len, docs))
                else np.empty(0, np.int64))
        off = np.concatenate(
            ([0], np.cumsum([len(d) for d in docs]))).astype(np.int64)
        l_doc = rng.integers(0, 30, size=200).astype(np.int64)
        r_doc = rng.integers(0, 30, size=200).astype(np.int64)

        def ref(a, b):
            s1, s2 = set(docs[a]), set(docs[b])
            if not s1 and not s2:
                return 1.0
            if not s1 or not s2:
                return 0.0
            o = len(s1 & s2)
            return o / (len(s1) + len(s2) - o)

        expect = np.array([ref(a, b) for a, b in zip(l_doc, r_doc)])
        # slabbed store-indexed kernel, tiny slab to force many slabs
        orig = dedup._JACC_SLAB
        dedup._JACC_SLAB = 17
        try:
            _, js = dedup._verify_jaccard_slabbed(l_doc, r_doc, flat, off,
                                                  threshold=0.0)
            np.testing.assert_allclose(js, expect)
            # aligned-slices kernel on gathered pairs
            lv, lo = dedup._gather_slices(flat, off, l_doc)
            rv, ro = dedup._gather_slices(flat, off, r_doc)
            np.testing.assert_allclose(
                dedup._set_jaccard_aligned(lv, lo, rv, ro), expect)
        finally:
            dedup._JACC_SLAB = orig

    def test_simhash_pairs(self, docs_ds):
        out = dedup.simhash_near_dup_pairs(docs_ds, 'doc_id', 'text',
                                           max_hamming=3).to_pandas()
        pairs = set(zip(out['l_id'], out['r_id']))
        assert (0, 1) in pairs        # identical docs → distance 0
        assert (0, 3) not in pairs    # different docs far apart

    def test_simhash_pairs_class_collapse(self, ray_session):
        # 30 exact copies + 1 near-dup + 1 far doc: the collapsed kernel
        # must emit exactly the same pair set a naive all-pairs scan would
        texts = ['alpha beta gamma delta epsilon zeta eta theta'] * 30
        texts.append('alpha beta gamma delta epsilon zeta eta iota')
        texts.append('one two three four five six seven eight nine ten')
        ds = ray.data.from_arrow(pa.table({
            'doc_id': pa.array(range(len(texts)), pa.int64()),
            'text': pa.array(texts)}))
        out = dedup.simhash_near_dup_pairs(ds, 'doc_id', 'text',
                                           max_hamming=3).to_pandas()
        got = set(zip(out['l_id'], out['r_id']))
        assert len(got) == len(out)  # no duplicate rows
        # brute-force expectation from the signatures themselves
        sigs = ds.map_batches(dedup.SimHashStage('doc_id', 'text'),
                              batch_format='pyarrow').to_pandas()
        sm = dict(zip(sigs['id'], sigs['simhash'].astype(np.int64)))
        exp = set()
        n = len(texts)
        for i in range(n):
            for j in range(i + 1, n):
                x = np.uint64(sm[i]) ^ np.uint64(sm[j])
                if int(dedup._popcount64(np.array([x]))[0]) <= 3:
                    # pigeonhole: distance ≤3 always shares a quarter
                    exp.add((i, j))
        assert got == exp

    def test_simhash_deterministic(self):
        h1 = dedup.simhash64('a b c d e f', 2)
        h2 = dedup.simhash64('a b c d e f', 2)
        assert h1 == h2 != 0


class TestANN:
    @pytest.fixture(scope='class')
    def emb_ds(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 16)).astype(np.float32)
        return X, ray.data.from_arrow(pa.table({
            'vec_id': pa.array(range(200), pa.int64()),
            'embedding': pa.array([r.tolist() for r in X],
                                  pa.list_(pa.float32()))}))

    def test_bruteforce_topk(self, emb_ds):
        X, ds = emb_ds
        Q = X[:3].astype(np.float64)
        out = ann.ann_topk_bruteforce(ds, Q, k=5)
        assert len(out) == 15
        # query vector's own row must rank first with cosine ~1
        for qi in range(3):
            top1 = out[(out['query_id'] == qi) & (out['rank'] == 1)]
            assert int(top1['vec_id'].iloc[0]) == qi
            assert top1['cosine'].iloc[0] == pytest.approx(1.0)
        # verify against full numpy computation
        sims = (Q @ X.T.astype(np.float64)) / (
            np.linalg.norm(Q, axis=1)[:, None] *
            np.linalg.norm(X.astype(np.float64), axis=1)[None, :])
        for qi in range(3):
            exp = set(np.argsort(-sims[qi])[:5])
            got = set(out[out['query_id'] == qi]['vec_id'])
            assert got == exp

    def test_lsh_topk_self_recall(self, emb_ds):
        X, ds = emb_ds
        Q = X[:5].astype(np.float64)
        out = ann.ann_topk_lsh(ds, Q, k=3, nbits=4)
        for qi in range(5):
            sub = out[out['query_id'] == qi]
            assert len(sub) >= 1
            assert int(sub[sub['rank'] == 1]['vec_id'].iloc[0]) == qi

    def test_lsh_exhaustive_probe_equals_bruteforce(self, emb_ds):
        # nbits=2 with Hamming-radius-2 multi-probe enumerates all 4
        # buckets, so the LSH machinery must reproduce the exact baseline
        # (this is what licenses the shared SQL oracle for the
        # ann_topk_lsh_embeddings driver query)
        X, ds = emb_ds
        Q = X[:4].astype(np.float64)
        exact = ann.ann_topk_bruteforce(ds, Q, k=5)
        lsh = ann.ann_topk_lsh(ds, Q, k=5, nbits=2, probes=2)
        a = exact.sort_values(['query_id', 'rank'], ignore_index=True)
        b = lsh.sort_values(['query_id', 'rank'], ignore_index=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


class TestTextStats:
    def test_token_count(self, docs_ds):
        out = docs_ds.map_batches(textstats.token_count_batch,
                                  batch_format='pyarrow').to_pandas()
        m = dict(zip(out['doc_id'], out['n_tokens']))
        assert m[0] == 12 and m[5] == 0

    def test_quality(self, docs_ds):
        out = docs_ds.map_batches(textstats.quality_score_batch,
                                  batch_format='pyarrow').to_pandas()
        assert (out['punct_ratio'] >= 0).all()
        assert out.loc[out['doc_id'] == 5, 'n_tokens'].iloc[0] == 0

    def test_langid(self, docs_ds):
        out = docs_ds.map_batches(textstats.langid_batch,
                                  batch_format='pyarrow').to_pandas()
        m = dict(zip(out['doc_id'], out['lang_pred']))
        assert m[0] == 'en' and m[4] == 'de' and m[5] == 'und'

    def test_top_tokens_exact_with_ties(self, ray_session):
        ds = ray.data.from_arrow(pa.table({
            'doc_id': pa.array([0, 1, 2], pa.int64()),
            'text': pa.array(['b a b c', 'a b  a', None])}))
        out = textstats.top_tokens(ds, 'text', k=3)
        # counts: a=3, b=3, c=1 — tie at the top broken token-ascending
        assert list(out['token']) == ['a', 'b', 'c']
        assert list(out['count']) == [3, 3, 1]
        # k smaller than the vocabulary truncates deterministically
        out2 = textstats.top_tokens(ds, 'text', k=2)
        assert list(out2['token']) == ['a', 'b']

    def test_fingerprint_whitespace_insensitive(self):
        assert textstats.fingerprint64('a  b\tc') == \
            textstats.fingerprint64('a b c')
        assert textstats.fingerprint64('a b c') != \
            textstats.fingerprint64('c b a')

    def test_vectorized_kernels_pinned_to_scalar_definitions(self):
        """The batch kernels (Arrow split + dictionary md5 + lockstep
        Horner; index_in stopword vote) must agree with the scalar
        definitions on every row — including RE2-vs-Python whitespace
        edge cases (\\xa0 NBSP is NOT a separator, \\v triggers the
        exact-regex fallback path) and empty/null rows."""
        import pyarrow as pa
        import random
        rng = random.Random(11)
        vocab = ['the', 'and', 'der', 'die', 'le', 'la', 'foo', 'café',
                 'und', 'est', 'in', 'a', 'zu', 'bar']
        texts = []
        for _ in range(200):
            sep = rng.choice([' ', '  ', '\t', '\n', '\f', '\r',
                              ' \xa0 ', '\x0b'])
            texts.append(sep.join(rng.choice(vocab)
                                  for _ in range(rng.randrange(0, 25))))
        texts += ['', '   ', 'the', 'a\xa0b', 'a\x0bthe', None,
                  'the,and of', 'der und ist le la the and of to']
        batch = pa.table({'doc_id': list(range(len(texts))),
                          'text': texts})
        fps = textstats.fingerprint_batch(batch)['fingerprint'].to_pylist()
        langs = textstats.langid_batch(batch)['lang_pred'].to_pylist()
        n_tok = textstats.token_count_batch(batch)['n_tokens'].to_pylist()
        for i, t in enumerate(texts):
            toks = textstats._re2_tokens(t or '')
            assert fps[i] == textstats.fingerprint64(t or ''), (i, t)
            assert n_tok[i] == len(toks), (i, t)
            words = set(w.lower() for w in toks)
            scores = {lang: len(words & sw)
                      for lang, sw in textstats.STOPWORDS.items()}
            best = max(sorted(scores), key=lambda k: scores[k])
            exp = best if scores[best] > 0 else 'und'
            assert langs[i] == exp, (i, t)


class TestMedia:
    def test_pipeline_shape(self, docs_ds):
        out = media.media_pipeline(docs_ds).to_pandas()
        assert set(out.columns) == {'doc_id', 'media_type', 'byte_len',
                                    'payload_md5', 'features'}
        assert all(len(f) == media.DecodeStage.FEATURE_DIM
                   for f in out['features'])
        import hashlib
        row = out[out['doc_id'] == 3].iloc[0]
        assert row['payload_md5'] == hashlib.md5(
            'completely different content about ray data pipelines at scale'
            .encode()).hexdigest()

    def test_decode_stub_raises_without_fake(self):
        st = media.DecodeStage()
        with pytest.raises(NotImplementedError):
            st.decode_one(b'xx')


def _recall(exact, approx):
    hits = tot = 0
    for qi, grp in exact.groupby('query_id'):
        truth = set(grp['vec_id'])
        got = set(approx[approx['query_id'] == qi]['vec_id'])
        hits += len(truth & got)
        tot += len(truth)
    return hits / tot


class TestAnnRecall:
    """VERDICT r1 #9: measured recall of the LSH path vs the exact
    brute-force baseline.  Sign-LSH recall is only meaningful on data with
    neighbor structure (the near-dup dedup use-case) — on isotropic random
    vectors every bucketing scheme that prunes the corpus loses most of the
    (arbitrary) top-k, so the acceptance gate uses planted duplicate
    clusters; the testdata-corpus number is reported in BASELINE.md."""

    def test_lsh_recall_on_clustered_embeddings(self, ray_session):
        import ray.data
        from py_stringsimjoin_ray.stages import ann
        rng = np.random.default_rng(7)
        dim, n_clusters, per = 32, 40, 12
        centers = rng.standard_normal((n_clusters, dim))
        vecs, ids = [], []
        for c in range(n_clusters):
            for j in range(per):
                vecs.append(centers[c] + 0.05 * rng.standard_normal(dim))
                ids.append(c * per + j)
        df = pd.DataFrame({'vec_id': ids,
                           'embedding': [v.tolist() for v in vecs]})
        ds = ray.data.from_pandas(df)
        Q = np.stack(vecs[::per][:15])  # one query per cluster
        exact = ann.ann_topk_bruteforce(ds, Q, k=10)
        r1 = _recall(exact, ann.ann_topk_lsh(ds, Q, k=10, nbits=8,
                                             probes=0))
        r2 = _recall(exact, ann.ann_topk_lsh(ds, Q, k=10, nbits=8,
                                             probes=1))
        assert r2 >= r1  # multi-probe can only widen the candidate set
        assert r2 >= 0.9, f'recall@10 = {r2:.3f}'

    def test_lsh_recall_reported_on_testdata(self, ray_session):
        import ray.data
        from py_stringsimjoin_ray.stages import ann
        emb = ray.data.read_parquet(
            '/root/testdata/sf0.001/embeddings.parquet')
        rows = emb.take(15)
        Q = np.stack([np.asarray(r['embedding'], dtype=np.float64)
                      for r in rows])
        exact = ann.ann_topk_bruteforce(emb, Q, k=10)
        r1 = _recall(exact, ann.ann_topk_lsh(emb, Q, k=10, nbits=8,
                                             probes=1))
        r2 = _recall(exact, ann.ann_topk_lsh(emb, Q, k=10, nbits=8,
                                             probes=2))
        # isotropic corpus: assert the knob works, report the numbers
        assert r2 >= r1 > 0


class TestCosineNearDup:
    """Embedding-cosine near-duplicate pairs (the remaining dedup mode from
    the build brief): brute-force is exact (oracle-checked in the driver
    queries), the LSH-table variant is the scale path with recall gated on
    planted near-dup clusters."""

    @staticmethod
    def _planted(seed=7, dim=32, n_clusters=30, per=6, noise=0.05):
        rng = np.random.default_rng(seed)
        centers = rng.standard_normal((n_clusters, dim))
        vecs, ids = [], []
        for c in range(n_clusters):
            for j in range(per):
                vecs.append(centers[c] + noise * rng.standard_normal(dim))
                ids.append(c * per + j)
        return pd.DataFrame({'vec_id': ids,
                             'embedding': [v.tolist() for v in vecs]})

    def test_bruteforce_matches_numpy(self, ray_session):
        import ray.data
        from py_stringsimjoin_ray.stages import ann
        df = self._planted()
        ds = ray.data.from_pandas(df).repartition(4)
        t = 0.8
        out = ann.cosine_neardup_pairs(ds, threshold=t)
        X = np.stack([np.asarray(v, np.float64) for v in df['embedding']])
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        S = Xn @ Xn.T
        ids = df['vec_id'].to_numpy()
        li, rj = np.nonzero((S >= t) & (ids[:, None] < ids[None, :]))
        want = sorted(zip(ids[li], ids[rj]))
        got = list(map(tuple, out[['l_id', 'r_id']].values))
        assert got == want and len(want) > 100

    def test_lsh_subset_and_recall(self, ray_session):
        import ray.data
        from py_stringsimjoin_ray.stages import ann
        df = self._planted()
        ds = ray.data.from_pandas(df).repartition(4)
        t = 0.8
        exact = set(map(tuple,
                        ann.cosine_neardup_pairs(ds, threshold=t).values))
        lsh = set(map(tuple, ann.cosine_neardup_pairs(
            ds, threshold=t, method='lsh', nbits=8, tables=6).values))
        assert lsh <= exact  # in-bucket scoring is exact: no false pairs
        recall = len(lsh & exact) / len(exact)
        assert recall >= 0.9, f'neardup recall = {recall:.3f}'


class TestIvf:
    """IVF coarse-quantizer ANN: exact at nprobe == nlist (shares the
    brute-force oracle in the driver queries); recall at nprobe < nlist is
    the knob, gated on planted clusters."""

    def test_exact_when_probing_all_lists(self, ray_session):
        import ray.data
        from py_stringsimjoin_ray.stages import ann
        df = TestCosineNearDup._planted(seed=3)
        ds = ray.data.from_pandas(df).repartition(4)
        Q = np.stack([np.asarray(v, np.float64)
                      for v in df['embedding'][:12]])
        exact = ann.ann_topk_bruteforce(ds, Q, k=10)
        ivf = ann.ann_topk_ivf(ds, Q, k=10, nlist=8, nprobe=8)
        pd.testing.assert_frame_equal(
            exact[['query_id', 'vec_id', 'rank']].reset_index(drop=True),
            ivf[['query_id', 'vec_id', 'rank']].reset_index(drop=True))

    def test_recall_monotone_in_nprobe(self, ray_session):
        import ray.data
        from py_stringsimjoin_ray.stages import ann
        df = TestCosineNearDup._planted(seed=11, n_clusters=40, per=12)
        ds = ray.data.from_pandas(df).repartition(4)
        Q = np.stack([np.asarray(v, np.float64)
                      for v in df['embedding'][::12][:15]])
        exact = ann.ann_topk_bruteforce(ds, Q, k=10)
        spec = None
        r = {}
        for npb in (1, 4):
            ivf = ann.ann_topk_ivf(ds, Q, k=10, nlist=16, nprobe=npb,
                                   seed=5)
            r[npb] = _recall(exact, ivf)
        assert r[4] >= r[1]
        assert r[4] >= 0.9, f'ivf recall@10 = {r[4]:.3f}'

    def test_dataset_output_stays_distributed(self, ray_session):
        import ray.data
        from py_stringsimjoin_ray.stages import ann
        df = TestCosineNearDup._planted(seed=5)
        ds = ray.data.from_pandas(df).repartition(4)
        out = ann.cosine_neardup_pairs(ds, threshold=0.8, output='dataset')
        assert isinstance(out, ray.data.Dataset)
        got = sorted(map(tuple, out.to_pandas()[['l_id', 'r_id']].values))
        want = sorted(map(tuple, ann.cosine_neardup_pairs(
            ds, threshold=0.8).values))
        assert got == want

    def test_empty_edges(self, ray_session):
        import ray.data
        from py_stringsimjoin_ray.stages import ann
        df = TestCosineNearDup._planted(seed=2, n_clusters=4, per=3)
        ds = ray.data.from_pandas(df)
        # threshold above any pair: zero near-dups with stable schema
        none = ann.cosine_neardup_pairs(ds, threshold=1.1, method='lsh')
        assert list(none.columns) == ['l_id', 'r_id'] and none.empty
        # empty corpus: IVF returns an empty frame instead of crashing
        empty = ray.data.from_pandas(df.iloc[0:0])
        out = ann.ann_topk_ivf(empty, np.ones((2, 32)), k=3)
        assert out.empty and 'rank' in out.columns


class TestDistributedTopkMerge:
    def test_large_query_set_and_dataset_output(self):
        """The final ANN merge is a bucketed shuffle, not a per-query
        driver loop (VERDICT r2 #5): a 20k-query batch merges distributed,
        output='dataset' stays a Dataset, and sampled queries match a
        numpy oracle exactly."""
        rng = np.random.default_rng(11)
        dim, n, m, k = 8, 400, 20_000, 3
        X = rng.standard_normal((n, dim))
        Q = rng.standard_normal((m, dim))
        ds = ray.data.from_arrow(pa.table({
            'vec_id': pa.array(np.arange(n, dtype=np.int64)),
            'embedding': pa.array(list(X))})).repartition(8)
        out_ds = ann.ann_topk_bruteforce(ds, Q, k=k, output='dataset')
        assert isinstance(out_ds, ray.data.Dataset)
        out = out_ds.to_pandas()
        assert len(out) == m * k
        assert set(out.columns) == {'query_id', 'vec_id', 'cosine', 'rank'}
        # numpy oracle on 25 sampled queries
        xn = X / np.linalg.norm(X, axis=1)[:, None]
        got = out.set_index(['query_id', 'rank'])
        for qi in rng.integers(0, m, 25):
            sims = xn @ (Q[qi] / np.linalg.norm(Q[qi]))
            order = np.lexsort((np.arange(n), -sims))[:k]
            for rank, vid in enumerate(order, 1):
                row = got.loc[(qi, rank)]
                assert int(row['vec_id']) == int(vid)
                assert abs(float(row['cosine']) - sims[vid]) < 1e-9

    def test_pandas_output_sorted(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 4))
        Q = rng.standard_normal((7, 4))
        ds = ray.data.from_arrow(pa.table({
            'vec_id': pa.array(np.arange(50, dtype=np.int64)),
            'embedding': pa.array(list(X))}))
        out = ann.ann_topk_bruteforce(ds, Q, k=4)
        assert list(out.columns) == ['query_id', 'vec_id', 'cosine', 'rank']
        assert out['query_id'].is_monotonic_increasing


def test_near_dedup_planted_clusters():
    """near_dedup keeps exactly one representative (min id) per planted
    near-duplicate cluster and every unique doc."""
    docs, want = _planted_docs()
    out = dedup.near_dedup(docs, 'doc_id', 'text', threshold=0.6,
                           k=3).to_pandas()
    assert len(out) == len(want)
    # planted pairs (2i, 2i+1) collapse to rep 2i
    for i in range(20):
        row = out[out['doc_id'] == 2 * i + 1].iloc[0]
        assert row['rep_id'] == 2 * i and row['keep'] == 0
        row = out[out['doc_id'] == 2 * i].iloc[0]
        assert row['rep_id'] == 2 * i and row['keep'] == 1
    # kept corpus = one per cluster + uniques
    assert out['keep'].sum() == 20 + 15


class TestIvfTrainingSample:
    """VERDICT r3 #3: IVF must train its coarse quantizer on a corpus-wide
    seeded sample — a ``ds.limit`` head sample of a source/time-ordered
    corpus sees one slice of the distribution and recall at nprobe < nlist
    collapses."""

    @staticmethod
    def _sorted_clustered(seed=0, dim=48, n_clusters=32, per=250,
                          noise=0.25):
        """Corpus SORTED by cluster (the normal by-source layout): the
        first ``train_sample`` rows cover only the first cluster or two."""
        rng = np.random.default_rng(seed)
        vecs, ids = [], []
        for c in range(n_clusters):
            e = np.zeros(dim)
            e[c] = 1.0
            for j in range(per):
                vecs.append(e + noise * rng.standard_normal(dim))
                ids.append(c * per + j)
        return pd.DataFrame({'vec_id': ids,
                             'embedding': [v.tolist() for v in vecs]})

    def test_random_sample_beats_head_sample(self, ray_session):
        from py_stringsimjoin_ray.stages import ann
        df = self._sorted_clustered()
        per, nclust, ts = 250, 32, 1000
        ds = ray.data.from_pandas(df).repartition(4)
        Q = np.stack([np.asarray(df['embedding'][c * per], np.float64)
                      for c in range(nclust)])
        exact = ann.ann_topk_bruteforce(ds, Q, k=10)
        # the OLD behavior: centroids trained on the corpus head only
        head = np.stack([np.asarray(v, np.float64)
                         for v in df['embedding'][:ts]])
        head_spec = ann.IVFIndexSpec.train(head, nclust, seed=42)
        r_head = _recall(exact, ann.ann_topk_ivf(
            ds, Q, k=10, nlist=nclust, nprobe=1, spec=head_spec))
        # default path: seeded corpus-wide hash-mod sample
        r_rand = _recall(exact, ann.ann_topk_ivf(
            ds, Q, k=10, nlist=nclust, nprobe=1, train_sample=ts, seed=42))
        assert r_head < 0.45, f'head-sample recall unexpectedly ok: {r_head:.3f}'
        assert r_rand >= 0.6, f'random-sample recall = {r_rand:.3f}'
        assert r_rand >= r_head + 0.2

    def test_sample_is_deterministic_and_corpus_wide(self, ray_session):
        from py_stringsimjoin_ray.stages import ann
        df = self._sorted_clustered(n_clusters=8, per=100)
        ds = ray.data.from_pandas(df).repartition(4)
        s1 = ann._train_sample_matrix(ds, 'vec_id', 'embedding', 200, 42)
        s2 = ann._train_sample_matrix(ds, 'vec_id', 'embedding', 200, 42)
        np.testing.assert_array_equal(s1, s2)
        assert 100 <= len(s1) <= 200
        # rows drawn from every region, not just the head
        ids = {tuple(np.round(v, 6)) for v in s1}
        first_cluster = {tuple(np.round(np.asarray(v, np.float64), 6))
                         for v in df['embedding'][:100]}
        assert len(ids - first_cluster) > 0


class TestNeardupAutoGate:
    """VERDICT r3 #7: the default cosine_neardup path must not broadcast an
    OOM-sized corpus matrix — beyond the object-store gate it degrades to
    the LSH scale path with a log line."""

    def test_auto_below_gate_is_exact(self, ray_session):
        from py_stringsimjoin_ray.stages import ann
        df = TestCosineNearDup._planted(seed=9)
        ds = ray.data.from_pandas(df).repartition(4)
        auto = ann.cosine_neardup_pairs(ds, threshold=0.8)
        forced = ann.cosine_neardup_pairs(ds, threshold=0.8,
                                          method='bruteforce')
        assert auto.equals(forced) and len(auto) > 100

    def test_auto_beyond_gate_degrades_to_lsh(self, ray_session,
                                              monkeypatch, caplog):
        import logging

        from py_stringsimjoin_ray.stages import ann
        df = TestCosineNearDup._planted(seed=9)
        ds = ray.data.from_pandas(df).repartition(4)
        monkeypatch.setattr(ann, 'broadcast_gate_bytes', lambda: 1)
        with caplog.at_level(logging.WARNING, 'py_stringsimjoin_ray.ann'):
            auto = ann.cosine_neardup_pairs(ds, threshold=0.8, seed=3)
        assert any('degrading' in r.message for r in caplog.records)
        lsh = ann.cosine_neardup_pairs(ds, threshold=0.8, method='lsh',
                                       seed=3)
        assert auto.equals(lsh)
        # explicit bruteforce is NOT gated (documented exact baseline)
        forced = ann.cosine_neardup_pairs(ds, threshold=0.8,
                                          method='bruteforce')
        assert len(forced) >= len(auto)


def test_dedup_string_ids_rejected_with_guidance(ray_session):
    # minhash/simhash/near_dedup pack ids into int64 pair keys; a string
    # id column must fail fast with guidance, not crash in a worker
    import pytest
    from py_stringsimjoin_ray.stages.dedup import (exact_dedup,
                                                   minhash_lsh_pairs,
                                                   near_dedup,
                                                   simhash_near_dup_pairs)
    df = pd.DataFrame({'doc_id': ['a', 'b', 'c'],
                       'text': ['x y z', 'x y z', 'q r s']})
    ds = ray.data.from_pandas(df)
    for fn in (lambda: minhash_lsh_pairs(ds, 'doc_id', 'text'),
               lambda: simhash_near_dup_pairs(ds, 'doc_id', 'text'),
               lambda: near_dedup(ds, 'doc_id', 'text')):
        with pytest.raises(TypeError, match='integer.*doc_id'):
            fn()
    # exact_dedup is dtype-agnostic (Arrow group keys)
    out = exact_dedup(ds, 'doc_id', 'text').to_pandas()
    assert sorted(out['rep_id']) == ['a', 'c']


def test_ann_string_ids_rejected_with_guidance(ray_session):
    import pytest
    from py_stringsimjoin_ray.stages.ann import (ann_topk_bruteforce,
                                                 ann_topk_ivf, ann_topk_lsh,
                                                 cosine_neardup_pairs)
    df = pd.DataFrame({'vec_id': ['a', 'b'],
                       'embedding': [[1.0, 0.0], [0.0, 1.0]]})
    ds = ray.data.from_pandas(df)
    Q = np.eye(2)
    for fn in (lambda: ann_topk_bruteforce(ds, Q, k=1),
               lambda: ann_topk_lsh(ds, Q, k=1),
               lambda: ann_topk_ivf(ds, Q, k=1, nlist=1, nprobe=1),
               lambda: cosine_neardup_pairs(ds, threshold=0.5)):
        with pytest.raises(TypeError, match='integer.*vec_id'):
            fn()

    def test_md5_kernels_match_hashlib(self):
        """The DuckDB md5 vectorization must be BIT-identical to the
        hashlib forms it replaced (signatures and content hashes depend
        on it)."""
        import hashlib
        toks = ['hello world', '', 'café ünïcode', 'a' * 100, 'x y z']
        got = dedup._md5_hashes(toks)
        exp = np.array([int.from_bytes(
            hashlib.md5(t.encode()).digest()[:8], 'little')
            for t in toks], np.uint64)
        assert (got == exp).all()
