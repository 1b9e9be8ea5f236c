"""record_linkage's local route (one Ray task on in-memory tables) against
the Dataset route: same components, same manifests, resumable across
routes, and the gate that picks between them."""

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from py_stringsimjoin_ray.pipelines import linkage
from py_stringsimjoin_ray.pipelines.linkage import record_linkage
from py_stringsimjoin_ray.sources.repos_corpus import generate_repos_corpus
from py_stringsimjoin_ray.stages import cluster, localjoin
from py_stringsimjoin_ray.state import manifests as mf
from py_stringsimjoin_ray.state import skewstats

KEY = ['repo', 'path', 'commit']


@pytest.fixture(scope='module')
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp('local_linkage_corpus')
    repos, _truth = generate_repos_corpus(str(d), num_clusters=30,
                                          max_cluster=4, num_singletons=40,
                                          tokens_per_file=60, seed=11)
    return repos


def _frame(res) -> pd.DataFrame:
    return res['clusters'].to_pandas().sort_values(KEY) \
        .reset_index(drop=True)


def _same_partition(a: pd.DataFrame, b: pd.DataFrame) -> None:
    """Same records with the same sha256, grouped into the same
    components (labels may differ between routes)."""
    pd.testing.assert_frame_equal(a[KEY + ['sha256']], b[KEY + ['sha256']])
    assert (a.groupby('component').ngroup()
            == b.groupby('component').ngroup()).all()


def _dir_state(path: str) -> list:
    out = []
    for base, _dirs, files in os.walk(path):
        for f in files:
            st = os.stat(os.path.join(base, f))
            out.append((os.path.relpath(os.path.join(base, f), path),
                        st.st_size, st.st_mtime_ns))
    return sorted(out)


def _manifest_figures(ckpt: str) -> dict:
    return {s: (mf.load_manifest(ckpt, s)['num_rows'],
                mf.load_manifest(ckpt, s).get('sha256_xor'))
            for s in linkage.STAGES}


@pytest.mark.parametrize('checkpointed', [False, True])
def test_local_route_equals_dataset_route(corpus, tmp_path, monkeypatch,
                                          checkpointed):
    ck_local = str(tmp_path / 'local') if checkpointed else None
    ck_ds = str(tmp_path / 'ds') if checkpointed else None
    local = record_linkage(corpus, checkpoint_dir=ck_local)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    ds = record_linkage(corpus, checkpoint_dir=ck_ds)
    assert local['counters']['route'] == 'local'
    assert ds['counters']['route'] == 'dataset'
    assert ds['counters']['route_gate']['reason'] == 'size'
    for c in (local['counters'], ds['counters']):
        assert c['sha256_invariant_ok']
    for k in ('num_matches', 'num_records'):
        assert local['counters'][k] == ds['counters'][k]
    _same_partition(_frame(local), _frame(ds))
    if checkpointed:
        assert _manifest_figures(ck_local) == _manifest_figures(ck_ds)
        assert local['counters']['ingest_rows'] \
            == ds['counters']['ingest_rows']
        assert mf.load_manifest(ck_local, 'clusters')['num_files'] == 1
        assert set(local['timings']) == {'ingest', 'matches', 'clusters',
                                         'invariant'}


def test_route_record_holds_gate_inputs(corpus):
    res = record_linkage(corpus)
    gate = res['counters']['route_gate']
    content = pq.read_table(corpus, columns=['content'])['content']
    assert gate['rows'] == res['counters']['num_records']
    # the footer figure is what the byte cap is compared with; it never
    # exceeds the Arrow bytes the exact check measures
    assert 0 < gate['content_bytes'] <= content.nbytes + 8 * len(content)
    assert gate['row_cap'] == localjoin.DEFAULT_LOCAL_MAX_ROWS
    assert gate['byte_cap'] == localjoin.DEFAULT_LOCAL_MAX_BYTES


@pytest.mark.parametrize('writer,resumer', [('local', 'dataset'),
                                            ('dataset', 'local')])
def test_cross_route_resume(corpus, tmp_path, monkeypatch, writer, resumer):
    """A checkpoint one route wrote resumes on the other: a full resume
    rewrites nothing; with later stages deleted, the resuming route reuses
    the stages left and rebuilds the rest to the same components."""
    ckpt = str(tmp_path / 'ckpt')

    def run():
        with monkeypatch.context() as m:
            if route == 'dataset':
                m.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
            res = record_linkage(corpus, checkpoint_dir=ckpt)
        assert res['counters']['route'] == route
        return res

    route = writer
    first = _frame(run())
    figures = _manifest_figures(ckpt)
    before = _dir_state(ckpt)
    route = resumer
    again = run()
    assert all(again['counters'][f'{s}_resumed'] for s in linkage.STAGES)
    assert _dir_state(ckpt) == before
    _same_partition(first, _frame(again))

    # the local route reads a Dataset-written ingest with its content and
    # joins; the Dataset route reads a local-written one
    dropped = ['matches', 'clusters']
    for s in dropped:
        shutil.rmtree(os.path.join(ckpt, s))
    kept = [e for e in before if e[0].split(os.sep)[0] == 'ingest']
    res = run()
    assert res['counters'].get('ingest_resumed')
    assert not any(res['counters'].get(f'{s}_resumed') for s in dropped)
    assert res['counters']['sha256_invariant_ok']
    assert [e for e in _dir_state(ckpt)
            if e[0].split(os.sep)[0] == 'ingest'] == kept
    assert _manifest_figures(ckpt) == figures
    _same_partition(first, _frame(res))


def test_full_resume_launches_nothing(corpus, tmp_path, monkeypatch):
    ckpt = str(tmp_path / 'ckpt')
    first = record_linkage(corpus, checkpoint_dir=ckpt)

    def refuse(*a, **k):
        raise AssertionError('a full resume ran work')
    with monkeypatch.context() as m:
        m.setattr(linkage._LINKAGE_TASK, 'remote', refuse)
        m.setattr(cluster._cc_task, 'remote', refuse)
        for meth in ('materialize', 'write_parquet', 'iter_batches',
                     'count'):
            m.setattr(ray.data.Dataset, meth, refuse)
        res = record_linkage(corpus, checkpoint_dir=ckpt)
    c = res['counters']
    assert all(c[f'{s}_resumed'] for s in linkage.STAGES)
    assert c['sha256_invariant_ok']
    for k in ('num_matches', 'num_records', 'ingest_rows'):
        assert c[k] == first['counters'][k]
    _same_partition(_frame(first), _frame(res))


def test_local_route_runs_no_dataset_plan(corpus, tmp_path, monkeypatch):
    def refuse(*a, **k):
        raise AssertionError('a Dataset plan executed')
    with monkeypatch.context() as m:
        for meth in ('materialize', 'write_parquet', 'iter_batches',
                     'iter_internal_ref_bundles', 'count', 'to_pandas'):
            m.setattr(ray.data.Dataset, meth, refuse)
        m.setattr(skewstats, 'SkewStats', refuse)
        plain = record_linkage(corpus)
        ckpt = str(tmp_path / 'ckpt')
        checkpointed = record_linkage(corpus, checkpoint_dir=ckpt)
    for res in (plain, checkpointed):
        assert res['counters']['route'] == 'local'
        assert res['counters']['sha256_invariant_ok']
    # the local route's skew counters, gathered with no actor
    c = mf.load_manifest(ckpt, 'matches')['counters']
    assert checkpointed['counters']['skew']['verify']['total'] \
        == c['skew_verify_total'] > 0
    _same_partition(_frame(plain), _frame(checkpointed))


@pytest.mark.parametrize('env', [{'DEFAULT_LOCAL_MAX_ROWS': 0},
                                 {'SSJ_LOCAL_MAX_BYTES': '1000'}])
def test_dataset_route_when_gate_rejects(corpus, monkeypatch, env):
    base = _frame(record_linkage(corpus))
    calls = []
    real = localjoin._fetch_local

    def spy(*a, **k):
        calls.append(1)
        return real(*a, **k)
    monkeypatch.setattr(localjoin, '_fetch_local', spy)
    for k, v in env.items():
        if k.startswith('SSJ_'):
            monkeypatch.setenv(k, v)
        else:
            monkeypatch.setattr(localjoin, k, v)
    res = record_linkage(corpus)
    assert res['counters']['route'] == 'dataset'
    gate = res['counters']['route_gate']
    # decided from the footers: the join does not probe again
    assert gate['reason'] == 'size' and calls == []
    if 'SSJ_LOCAL_MAX_BYTES' in env:
        assert gate['content_bytes'] > 1000
    assert res['counters']['sha256_invariant_ok']
    _same_partition(base, _frame(res))


@pytest.mark.parametrize('checkpointed', [False, True])
def test_cc_gate_falls_back_to_star_rounds(corpus, tmp_path, monkeypatch,
                                           checkpointed):
    """``cluster._CC_TASK_GATE`` = 0: the local task stops before the
    clusters stage and the Dataset route's large/small-star rounds build them, starting
    from the ingest and matches the task made: handed over in memory, or
    resumed from the stages the task wrote.  The corpus is joined once."""
    base = _frame(record_linkage(corpus))
    rounds, joins = [], []

    def spy(calls, real):
        def f(*a, **k):
            calls.append(1)
            return real(*a, **k)
        return f
    monkeypatch.setattr(linkage, 'connected_components',
                        spy(rounds, linkage.connected_components))
    monkeypatch.setattr(linkage, 'match_pairs_dataset',
                        spy(joins, linkage.match_pairs_dataset))
    monkeypatch.setattr(cluster, '_CC_TASK_GATE', 0)
    ckpt = str(tmp_path / 'ckpt') if checkpointed else None
    res = record_linkage(corpus, checkpoint_dir=ckpt)
    c = res['counters']
    assert rounds == [1]
    assert joins == []
    assert c['route'] == 'dataset'
    assert c['route_gate']['fallback'] == 'cc_gate'
    assert bool(c.get('ingest_resumed')) == checkpointed
    assert bool(c.get('matches_resumed')) == checkpointed
    assert c['sha256_invariant_ok']
    _same_partition(base, _frame(res))


def test_payload_check_falls_back(corpus, monkeypatch):
    """The footer figure passes but the exact Arrow payload does not: the
    task hands the call to the Dataset route without its probe."""
    gate = linkage._route_gate(corpus, localjoin._gates())
    monkeypatch.setenv('SSJ_LOCAL_MAX_BYTES', str(gate['content_bytes']))
    calls = []
    monkeypatch.setattr(localjoin, '_fetch_local',
                        lambda *a, **k: calls.append(1))
    res = record_linkage(corpus)
    assert res['counters']['route'] == 'dataset'
    assert res['counters']['route_gate']['fallback'] == 'payload'
    assert calls == []
    assert res['counters']['sha256_invariant_ok']


def test_empty_corpus(tmp_path):
    path = str(tmp_path / 'empty.parquet')
    pq.write_table(pa.table({k: pa.array([], pa.string())
                             for k in KEY + ['content']}), path)
    ckpt = str(tmp_path / 'ckpt')
    for ck in (None, ckpt):
        res = record_linkage(path, checkpoint_dir=ck)
        c = res['counters']
        assert c['route'] == 'local'
        assert c['num_matches'] == 0 and c['num_records'] == 0
        assert c['sha256_invariant_ok']
        assert len(res['clusters'].to_pandas()) == 0
    assert [m[0] for m in _manifest_figures(ckpt).values()] == [0, 0, 0]


def test_component_of_defaults_to_own_id():
    nodes = np.array([2, 5, 9], np.int64)
    comps = np.array([2, 2, 9], np.int64)
    ids = np.array([1, 2, 5, 7, 9, 12], np.int64)
    assert cluster._component_of(ids, nodes, comps).tolist() \
        == [1, 2, 2, 7, 9, 12]
    assert cluster._component_of(ids, nodes[:0], comps[:0]).tolist() \
        == ids.tolist()
