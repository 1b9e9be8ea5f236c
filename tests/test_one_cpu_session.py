"""The Dataset route finishes on a one-CPU Ray session.

A task that asks for more CPUs than the session has stays pending forever,
so every resource request on the route must fit one CPU.  The test starts
its own ``num_cpus=1`` session in a subprocess (the suite's session has 4
CPUs), under a timeout, and checks an ``edit_distance_join``, a
``PrefixFilter.filter_tables``, a ``jaccard_join`` and a
``record_linkage`` forced onto the Dataset route against the same calls on
this process's local route.
"""

import json
import os
import signal
import subprocess
import sys

import pandas as pd

from py_stringsimjoin_ray import (PrefixFilter, WhitespaceTokenizer,
                                  edit_distance_join, jaccard_join)
from py_stringsimjoin_ray.pipelines.linkage import record_linkage
from py_stringsimjoin_ray.sources.repos_corpus import generate_repos_corpus
from py_stringsimjoin_ray.stages import localjoin

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

A = pd.DataFrame({'id': range(8),
                  's': ['martha', 'marhta', 'jones', 'jonse', 'aaaaa',
                        'aaaab', 'dwayne', 'duane']})
B = pd.DataFrame({'id': range(100, 108),
                  's': ['marta', 'martha', 'jone', 'jones', 'aaaab',
                        'bbbbb', 'dwane', 'dixon']})
WORDS_L = pd.DataFrame({'id': range(6),
                        's': ['a b c', 'a b d', 'c d e', 'x y', 'a c e',
                              'b c d e']})
WORDS_R = pd.DataFrame({'id': range(10, 16),
                        's': ['a b c', 'b c d', 'x y z', 'e', 'a b',
                              'c d e']})

SCRIPT = r'''
import json, sys
import pandas as pd
import ray
from ray.data import DataContext
ray.init(address='local', num_cpus=1, include_dashboard=False,
         logging_level='ERROR')
DataContext.get_current().enable_progress_bars = False
from py_stringsimjoin_ray.stages import localjoin
from tests.test_one_cpu_session import _run
localjoin.DEFAULT_LOCAL_MAX_ROWS = 0  # the Dataset route
inp = json.loads(sys.stdin.read())
print(json.dumps(_run({k: pd.DataFrame(v)
                       for k, v in inp['tables'].items()}, inp['repos'])))
ray.shutdown()
'''


def _triples(df, cols) -> list:
    return sorted(map(list, zip(*(df[c].tolist() for c in cols))))


def _run(t: dict, repos: str) -> dict:
    """The four calls' pairs (with scores where the call gives them), and
    the linkage's components, each as its records' sorted keys."""
    tok = WhitespaceTokenizer(return_set=True)
    ed = edit_distance_join(t['A'], t['B'], 'id', 'id', 's', 's', 1)
    pf = PrefixFilter(tok, 'JACCARD', 0.5).filter_tables(
        t['L'], t['R'], 'id', 'id', 's', 's')
    jac = jaccard_join(t['L'], t['R'], 'id', 'id', 's', 's', tok, 0.3)
    link = record_linkage(repos)
    cl = link['clusters'].to_pandas()
    keys = cl['repo'] + '/' + cl['path'] + '@' + cl['commit']
    return {'ed': _triples(ed, ('l_id', 'r_id', '_sim_score')),
            'prefix': _triples(pf, ('l_id', 'r_id')),
            'jaccard': _triples(jac, ('l_id', 'r_id', '_sim_score')),
            'components': sorted(sorted(g) for g in
                                 keys.groupby(cl['component']).agg(list)),
            'matches': link['counters']['num_matches'],
            'route': link['counters']['route']}


def test_dataset_route_runs_on_one_cpu(ray_session, monkeypatch, tmp_path):
    repos, _truth = generate_repos_corpus(str(tmp_path), num_clusters=12,
                                          max_cluster=3, num_singletons=10,
                                          tokens_per_file=40, seed=3)
    tables = {'A': A, 'B': B, 'L': WORDS_L, 'R': WORDS_R}
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 2 ** 62)
    exp = _run(tables, repos)
    assert exp['ed'] and exp['prefix'] and exp['jaccard'] and exp['matches']
    assert exp['route'] == 'local'
    exp['route'] = 'dataset'

    env = {k: v for k, v in os.environ.items() if k != 'RAY_ADDRESS'}
    env['PYTHONPATH'] = os.pathsep.join(
        [ROOT] + [p for p in [env.get('PYTHONPATH')] if p])
    payload = {'tables': {k: t.to_dict(orient='list')
                          for k, t in tables.items()},
               'repos': repos}
    # own process group: a timeout kills the session's raylet and GCS too
    proc = subprocess.Popen([sys.executable, '-c', SCRIPT], cwd=ROOT,
                            env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(payload), timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError('the one-CPU session did not finish in 240 s')
    assert proc.returncode == 0, err[-2000:]
    assert json.loads(out.strip().splitlines()[-1]) == exp
