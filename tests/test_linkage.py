"""End-to-end north-star pipeline tests: F1 vs planted truth, sha256
invariant, checkpoint/resume."""

import json
import os

import pandas as pd
import pytest

from py_stringsimjoin_ray.pipelines.linkage import pairwise_f1, record_linkage
from py_stringsimjoin_ray.sources.repos_corpus import generate_repos_corpus
from py_stringsimjoin_ray.stages import cluster
from py_stringsimjoin_ray.state import manifests as mf


@pytest.fixture(scope='module')
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp('repos_corpus')
    repos, truth = generate_repos_corpus(str(d), num_clusters=40,
                                         max_cluster=4, num_singletons=60,
                                         tokens_per_file=80, seed=7)
    return repos, truth


def test_generator_deterministic(tmp_path):
    p1, t1 = generate_repos_corpus(str(tmp_path / 'a'), num_clusters=5,
                                   num_singletons=5, seed=3)
    p2, t2 = generate_repos_corpus(str(tmp_path / 'b'), num_clusters=5,
                                   num_singletons=5, seed=3)
    a = pd.read_parquet(p1)
    b = pd.read_parquet(p2)
    pd.testing.assert_frame_equal(a, b)
    ta = pd.read_parquet(t1)
    assert set(ta.columns) == {'repo', 'path', 'commit', 'cluster_id',
                               'sha256'}
    # planted sha matches content
    import hashlib
    assert ta['sha256'][0] == hashlib.sha256(
        a['content'][0].encode()).hexdigest()


def test_linkage_f1_and_invariant(corpus, tmp_path):
    repos, truth = corpus
    ckpt = str(tmp_path / 'ckpt')
    res = record_linkage(repos, checkpoint_dir=ckpt, threshold=0.7)
    assert res['counters']['sha256_invariant_ok']
    clusters = res['clusters'].to_pandas()
    truth_pd = pd.read_parquet(truth)
    assert len(clusters) == len(truth_pd)
    scores = pairwise_f1(clusters, truth_pd)
    assert scores['f1'] >= 0.99, scores
    # manifests exist for every stage
    for stage in ('ingest', 'matches', 'clusters'):
        m = mf.load_manifest(ckpt, stage)
        assert m and m['completed'] and m['num_rows'] > 0


def _pairwise_f1_pairs(clusters_pd, truth_pd) -> dict:
    """Pair-set oracle of ``pairwise_f1``: every within-cluster record pair
    of either clustering as a Python tuple (O(sum of size^2) memory)."""
    key = ['repo', 'path', 'commit']
    merged = truth_pd.merge(clusters_pd, on=key, validate='one_to_one')

    def pair_set(labels):
        groups: dict = {}
        for i, lab in enumerate(labels):
            groups.setdefault(lab, []).append(i)
        pairs = set()
        for members in groups.values():
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    pairs.add((members[a], members[b]))
        return pairs

    true_pairs = pair_set(merged['cluster_id'].to_numpy())
    pred_pairs = pair_set(merged['component'].to_numpy())
    tp = len(true_pairs & pred_pairs)
    precision = tp / len(pred_pairs) if pred_pairs else 1.0
    recall = tp / len(true_pairs) if true_pairs else 1.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {'precision': precision, 'recall': recall, 'f1': f1,
            'true_pairs': len(true_pairs), 'pred_pairs': len(pred_pairs)}


def _assert_f1_equal(clusters_pd, truth_pd):
    got = pairwise_f1(clusters_pd, truth_pd)
    want = _pairwise_f1_pairs(clusters_pd, truth_pd)
    assert got['true_pairs'] == want['true_pairs']
    assert got['pred_pairs'] == want['pred_pairs']
    for k in ('precision', 'recall', 'f1'):
        assert got[k] == pytest.approx(want[k], rel=1e-12), k


def test_pairwise_f1_closed_form_equals_pair_oracle(corpus):
    """On the linkage output and on perturbed clusterings of it: merged
    components, split components and random labels."""
    import numpy as np
    repos, truth = corpus
    truth_pd = pd.read_parquet(truth)
    out = record_linkage(repos, threshold=0.7)['clusters'].to_pandas()
    out = out[['repo', 'path', 'commit', 'component']]
    _assert_f1_equal(out, truth_pd)
    rng = np.random.default_rng(5)
    comps = out['component'].to_numpy()
    uniq = np.unique(comps)
    merged = out.assign(component=comps % 7)
    split = out.assign(component=np.where(rng.random(len(out)) < 0.3,
                                          -np.arange(len(out)) - 1, comps))
    noise = out.assign(component=rng.integers(0, len(uniq), len(out)))
    for frame in (merged, split, noise):
        _assert_f1_equal(frame, truth_pd)


def test_pairwise_f1_one_large_cluster():
    """One 3,000-record true cluster split into three components, with
    singletons of which some join the pieces."""
    import numpy as np
    n_big, n_single = 3000, 200
    n = n_big + n_single
    keys = pd.DataFrame({'repo': ['r'] * n,
                         'path': [f'p{i}' for i in range(n)],
                         'commit': ['c'] * n})
    truth_id = np.concatenate([np.zeros(n_big, np.int64),
                               np.arange(1, n_single + 1)])
    comp = np.concatenate([np.arange(n_big) % 3,
                           np.arange(n_single) + 10])
    comp[n_big:n_big + 20] = np.arange(20) % 3
    truth_pd = keys.assign(cluster_id=truth_id)
    clusters_pd = keys.assign(component=comp)
    _assert_f1_equal(clusters_pd, truth_pd)
    got = pairwise_f1(clusters_pd, truth_pd)
    assert got['true_pairs'] == n_big * (n_big - 1) // 2
    assert 0 < got['recall'] < 1 and 0 < got['precision'] < 1


def test_linkage_resume_skips_completed_stages(corpus, tmp_path):
    repos, truth = corpus
    ckpt = str(tmp_path / 'ckpt2')
    r1 = record_linkage(repos, checkpoint_dir=ckpt, threshold=0.7)
    r2 = record_linkage(repos, checkpoint_dir=ckpt, threshold=0.7)
    assert r2['counters'].get('ingest_resumed')
    assert r2['counters'].get('matches_resumed')
    assert r2['counters'].get('clusters_resumed')
    assert r1['counters']['num_matches'] == r2['counters']['num_matches']


def test_linkage_resume_after_partial_failure(corpus, tmp_path):
    """Simulate a crash after the matches stage: delete the clusters
    artifact; the re-run must reuse ingest+matches and rebuild clusters."""
    import shutil
    repos, truth = corpus
    ckpt = str(tmp_path / 'ckpt3')
    record_linkage(repos, checkpoint_dir=ckpt, threshold=0.7)
    shutil.rmtree(os.path.join(ckpt, 'clusters'))
    r = record_linkage(repos, checkpoint_dir=ckpt, threshold=0.7)
    assert r['counters'].get('matches_resumed')
    assert not r['counters'].get('clusters_resumed')
    assert r['counters']['sha256_invariant_ok']


def test_linkage_no_checkpoint(corpus):
    repos, truth = corpus
    res = record_linkage(repos, threshold=0.7)
    assert res['counters']['sha256_invariant_ok']
    assert res['counters']['num_records'] == len(pd.read_parquet(truth))


def test_linkage_forced_star_rounds_equality(corpus, monkeypatch):
    """``cluster._CC_TASK_GATE`` = 0 forces the clusters stage through the
    distributed large/small-star rounds instead of the single-task
    min-label kernel;
    the component assignment must be identical (VERDICT r2 #9).  The
    planted corpus is skewed by construction (clusters up to 4 files plus
    singletons sharing boilerplate tokens)."""
    repos, truth = corpus
    base = record_linkage(repos, threshold=0.7)['clusters'].to_pandas()
    monkeypatch.setattr(cluster, '_CC_TASK_GATE', 0)
    forced = record_linkage(repos, threshold=0.7)['clusters'].to_pandas()
    key = ['repo', 'path', 'commit']
    a = base.sort_values(key).reset_index(drop=True)
    b = forced.sort_values(key).reset_index(drop=True)
    # component LABELS may differ between algorithms; the PARTITION may not
    amap = a.groupby('component').ngroup()
    bmap = b.groupby('component').ngroup()
    assert (amap == bmap).all()
    pd.testing.assert_frame_equal(a.drop(columns=['component']),
                                  b.drop(columns=['component']))


def test_ingest_hashing_pinned():
    """The Arrow-kernel key build emits byte-identical record_ids and
    sha256 to the per-row f-string implementation it replaced."""
    import hashlib

    import pyarrow as pa

    from py_stringsimjoin_ray.pipelines.linkage import _ingest_batch
    rows = [('r/a', 'src/m.py', 'c1', 'print(1)\n'),
            ('r/β', 'päth/ünïcode.py', 'c2', 'héllo wörld'),
            ('r/c', 'x', 'c3', ''),
            ('r/d', 'y', 'c4', None)]
    batch = pa.table({'repo': [r[0] for r in rows],
                      'path': [r[1] for r in rows],
                      'commit': [r[2] for r in rows],
                      'content': pa.array([r[3] for r in rows],
                                          pa.string())})
    out = _ingest_batch(batch)
    for i, (repo, path, commit, content) in enumerate(rows):
        key = f'{repo}\x00{path}\x00{commit}'.encode()
        exp_rid = int.from_bytes(hashlib.sha1(key).digest()[:8],
                                 'little') & 0x7FFFFFFFFFFFFFFF
        exp_sha = hashlib.sha256((content or '').encode()).hexdigest()
        assert out['record_id'][i].as_py() == exp_rid
        assert out['sha256'][i].as_py() == exp_sha


def test_skew_counters_in_matches_manifest(corpus, tmp_path, monkeypatch):
    """VERDICT r4 #7: the matches-stage manifest carries per-task
    candgen/verify volume roll-ups (tasks / total / max / skew ratio) so a
    skewed corpus is diagnosable from the checkpoint dir alone.  Forced
    salting (every token heavy) exercises the grid path too."""
    repos, _truth = corpus
    ckpt = str(tmp_path / 'ckpt_skew')
    res = record_linkage(repos, checkpoint_dir=ckpt, threshold=0.7,
                         salt_df_threshold=4)
    m = mf.load_manifest(ckpt, 'matches')
    assert m and m['completed']
    c = m['counters']
    assert c.get('skew_candgen_tasks', 0) >= 1
    assert c.get('skew_verify_tasks', 0) >= 1
    assert c.get('skew_candgen_max_task', 0) >= 1
    assert c.get('skew_verify_max_task', 0) >= 1
    assert c.get('skew_candgen_total', 0) >= c['skew_candgen_max_task']
    assert c['skew_verify_skew_ratio'] >= 1.0
    assert res['counters']['skew']['verify']['total'] \
        == c['skew_verify_total']


def _stub_summaries(seq):
    """summary() stub returning ``seq`` item by item (its last item after
    that) and counting the reads."""
    calls = []

    def summary():
        calls.append(1)
        return seq[min(len(calls), len(seq)) - 1]
    return summary, calls


def test_skew_poll_stops_on_stable_summary(monkeypatch):
    """A run whose verify stage reports nothing never gains a 'verify' key:
    the poll stops once the non-empty summary repeats, not after all 20
    reads."""
    import time

    from py_stringsimjoin_ray.pipelines.linkage import _poll_skew
    sleeps = []
    monkeypatch.setattr(time, 'sleep', sleeps.append)
    cand = {'candgen': {'tasks': 1, 'total': 3, 'max_task': 3,
                        'skew_ratio': 1.0}}
    grown = {'candgen': dict(cand['candgen'], tasks=2, total=5)}
    summary, calls = _stub_summaries([{}, cand, grown, grown])
    assert _poll_skew(summary) == grown
    assert len(calls) == 4 and len(sleeps) == 3
    # both stages present: the first read is final
    both = dict(cand, verify=cand['candgen'])
    summary, calls = _stub_summaries([both])
    assert _poll_skew(summary) == both and len(calls) == 1
    # nothing reported at all: every read is made, with no trailing wait
    sleeps.clear()
    summary, calls = _stub_summaries([{}])
    assert _poll_skew(summary) == {}
    assert len(calls) == 20 and len(sleeps) == 19
