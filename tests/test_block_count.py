"""The Dataset route's block rule (``state/session.block_count``): its
bounds, and that the block count it picks changes no output — a
Dataset-route self-join and ``record_linkage`` forced to one block and to
many give the local route's pairs, scores and components."""

import numpy as np
import pandas as pd
import pytest

from py_stringsimjoin_ray import WhitespaceTokenizer, jaccard_join
from py_stringsimjoin_ray.pipelines import join, linkage
from py_stringsimjoin_ray.sources.repos_corpus import generate_repos_corpus
from py_stringsimjoin_ray.stages import localjoin, slimjoin
from py_stringsimjoin_ray.state import session
from py_stringsimjoin_ray.state.session import block_count

CPUS = (1, 2, 4, 8, 32)
ROWS = (0, 1, 100, 255, 256, 4095, 4096, 11_748, 50_000, 744_000,
        1_860_000, 10 ** 9)
KEY = ['repo', 'path', 'commit']


def _former_counts(rows: int, cpus: int) -> tuple:
    """What each site asked for before the rule: the tokenize repartition,
    the Tsig slices (in total) and the postings repartition."""
    return (min(cpus * 8, max(1, rows // 256)), cpus * 8,
            min(cpus * 8, max(cpus, rows // 128, 1)))


@pytest.mark.parametrize('cpus', CPUS)
def test_floor_and_ceiling(cpus):
    assert block_count(0, cpus) == 1
    assert block_count(255, cpus) == 1
    assert block_count(256 * cpus, cpus) == cpus
    assert block_count(10 ** 12, cpus) == cpus * 8


@pytest.mark.parametrize('cpus', CPUS)
def test_never_above_the_former_sites(cpus):
    for rows in ROWS:
        assert block_count(rows, cpus) <= min(_former_counts(rows, cpus))


@pytest.mark.parametrize('cpus', CPUS)
def test_one_block_per_cpu_where_the_former_sites_gave_that_many(cpus):
    # larger sessions keep every CPU busy: the rule gives fewer blocks
    # than CPUs only where a former site did too
    for rows in ROWS:
        assert block_count(rows, cpus) >= min(cpus,
                                              *_former_counts(rows, cpus))


@pytest.mark.parametrize('cpus', CPUS)
def test_monotone_in_rows(cpus):
    counts = [block_count(r, cpus) for r in range(0, 40 * 4096, 997)]
    assert counts == sorted(counts)


def test_linkage_dist_corpus_at_one_cpu():
    # the 11,748-file benchmark corpus: every stage on at most 3 blocks
    assert block_count(11_748, 1) <= 3


def test_session_cpus_and_cap(ray_session):
    assert session.session_cpus() == 4  # tests/conftest.py


# forced to one block, and to many (the read of the ~100-file corpus
# gets rows // 7 blocks, below the 4-CPU session's ceiling of 32)
FORCED = {'one': 2 ** 62, 'many': 7}


def _spy(monkeypatch):
    """Record every count the rule gives, at each site that uses it."""
    seen = []

    def counted(rows, cpus=None):
        n = block_count(rows, cpus)
        seen.append(n)
        return n
    for mod in (join, slimjoin, linkage):
        monkeypatch.setattr(mod, 'block_count', counted)
    return seen


def _names(n: int = 400) -> pd.DataFrame:
    """``n`` names of 3-6 words from a 50-word vocabulary: overlapping
    enough that a 0.4 Jaccard self-join finds pairs beyond the diagonal."""
    rng = np.random.default_rng(7)
    words = [f'w{i}' for i in range(50)]
    names = [' '.join(rng.choice(words, rng.integers(3, 7)))
             for _ in range(n)]
    return pd.DataFrame({'id': range(n), 'name': names})


def _pairs(df, cols=('l_id', 'r_id', '_sim_score')):
    return sorted(map(tuple, df[list(cols)].itertuples(index=False)))


@pytest.mark.parametrize('forced', sorted(FORCED))
def test_self_join_output_independent_of_blocks(monkeypatch, forced):
    names = _names()
    tok = WhitespaceTokenizer(return_set=True)
    base = jaccard_join(names, names, 'id', 'id', 'name', 'name', tok, 0.4)
    assert len(base) > len(names)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    monkeypatch.setattr(session, '_ROWS_PER_BLOCK', FORCED[forced])
    seen = _spy(monkeypatch)
    dist = jaccard_join(names, names, 'id', 'id', 'name', 'name', tok, 0.4)
    assert _pairs(base) == _pairs(dist)
    assert seen and (max(seen) == 1 if forced == 'one' else min(seen) > 1)


@pytest.fixture(scope='module')
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp('block_count_corpus')
    repos, _truth = generate_repos_corpus(str(d), num_clusters=30,
                                          max_cluster=4, num_singletons=40,
                                          tokens_per_file=60, seed=5)
    return repos


def _components(res) -> pd.DataFrame:
    df = res['clusters'].to_pandas().sort_values(KEY).reset_index(drop=True)
    df['component'] = pd.factorize(df['component'])[0]
    return df[KEY + ['sha256', 'component']]


@pytest.mark.parametrize('forced', sorted(FORCED))
def test_linkage_components_independent_of_blocks(corpus, monkeypatch,
                                                  forced):
    local = linkage.record_linkage(corpus)
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 0)
    monkeypatch.setattr(session, '_ROWS_PER_BLOCK', FORCED[forced])
    seen = _spy(monkeypatch)
    ds = linkage.record_linkage(corpus)
    assert local['counters']['route'] == 'local'
    assert ds['counters']['route'] == 'dataset'
    assert ds['counters']['sha256_invariant_ok']
    assert local['counters']['num_matches'] \
        == ds['counters']['num_matches'] > 0
    pd.testing.assert_frame_equal(_components(local), _components(ds))
    rows = ds['counters']['route_gate']['rows']
    assert seen[0] == (1 if forced == 'one' else rows // 7) < 32
