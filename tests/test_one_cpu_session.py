"""The Dataset route finishes on a one-CPU Ray session.

A task that asks for more CPUs than the session has stays pending forever,
so every resource request on the route must fit one CPU.  The test starts
its own ``num_cpus=1`` session in a subprocess (the suite's session has 4
CPUs), under a timeout, and checks an ``edit_distance_join`` and a
``PrefixFilter.filter_tables`` forced onto the Dataset route against the
same calls on this process's local route.
"""

import json
import os
import signal
import subprocess
import sys

import pandas as pd

from py_stringsimjoin_ray import (PrefixFilter, WhitespaceTokenizer,
                                  edit_distance_join)
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
import json, os, sys
import pandas as pd
import ray
from ray.data import DataContext
ray.init(address='local', num_cpus=1, include_dashboard=False,
         logging_level='ERROR')
DataContext.get_current().enable_progress_bars = False
from py_stringsimjoin_ray import (PrefixFilter, WhitespaceTokenizer,
                                  edit_distance_join)
from py_stringsimjoin_ray.stages import localjoin
localjoin.DEFAULT_LOCAL_MAX_ROWS = 0  # the Dataset route
t = {k: pd.DataFrame(v) for k, v in json.loads(sys.stdin.read()).items()}
ed = edit_distance_join(t['A'], t['B'], 'id', 'id', 's', 's', 1)
pf = PrefixFilter(WhitespaceTokenizer(return_set=True), 'JACCARD',
                  0.5).filter_tables(t['L'], t['R'], 'id', 'id', 's', 's')
print(json.dumps({
    'ed': sorted(map(list, zip(ed['l_id'].tolist(), ed['r_id'].tolist(),
                               ed['_sim_score'].tolist()))),
    'prefix': sorted(map(list, zip(pf['l_id'].tolist(),
                                   pf['r_id'].tolist())))}))
ray.shutdown()
'''


def _local(ed, pf):
    return {'ed': sorted(map(list, zip(ed['l_id'].tolist(),
                                       ed['r_id'].tolist(),
                                       ed['_sim_score'].tolist()))),
            'prefix': sorted(map(list, zip(pf['l_id'].tolist(),
                                           pf['r_id'].tolist())))}


def test_dataset_route_runs_on_one_cpu(ray_session, monkeypatch):
    monkeypatch.setattr(localjoin, 'DEFAULT_LOCAL_MAX_ROWS', 2 ** 62)
    exp = _local(edit_distance_join(A, B, 'id', 'id', 's', 's', 1),
                 PrefixFilter(WhitespaceTokenizer(return_set=True),
                              'JACCARD', 0.5).filter_tables(
                     WORDS_L, WORDS_R, 'id', 'id', 's', 's'))
    assert exp['ed'] and exp['prefix']

    env = {k: v for k, v in os.environ.items() if k != 'RAY_ADDRESS'}
    env['PYTHONPATH'] = os.pathsep.join(
        [ROOT] + [p for p in [env.get('PYTHONPATH')] if p])
    tables = {name: t.to_dict(orient='list') for name, t in
              (('A', A), ('B', B), ('L', WORDS_L), ('R', WORDS_R))}
    # own process group: a timeout kills the session's raylet and GCS too
    proc = subprocess.Popen([sys.executable, '-c', SCRIPT], cwd=ROOT,
                            env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(tables), timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError('the one-CPU session did not finish in 240 s')
    assert proc.returncode == 0, err[-2000:]
    assert json.loads(out.strip().splitlines()[-1]) == exp
