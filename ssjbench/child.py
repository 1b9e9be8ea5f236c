"""One benchmark operation, run in its own process with its own Ray session.

    python3 -m ssjbench.child <op_dir>

``<op_dir>/spec.json`` (written by run.py) names the workload, the inputs and
whether to trace.  The process writes

* ``call.json`` just before the timed call (start time and CPU so far) and,
  when stopped at the time limit, ``stopped.json`` (CPU and peak RSS so
  far), so the parent can account for an operation it has to stop;
* ``result.json`` after it: set-up and job times, CPU, peak RSS;
* the outputs the parent checks (``clusters.parquet``, ``pairs.npz``) and,
  when traced, ``trace.json``.

Nothing here checks correctness: the parent does that from the files, apart
from the program.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time


def _write_json(path: str, obj) -> None:
    tmp = path + '.tmp'
    with open(tmp, 'w') as f:
        json.dump(obj, f)
    os.replace(tmp, path)


def _dir_state(path: str) -> list:
    out = []
    for base, _dirs, files in os.walk(path):
        for f in files:
            st = os.stat(os.path.join(base, f))
            out.append([os.path.relpath(os.path.join(base, f), path),
                        st.st_size, st.st_mtime_ns])
    return sorted(out)


def _failed_task_attempts() -> int:
    """Task attempts that failed (a retried attempt counts), from the task
    events Ray keeps in its GCS; events reach the GCS about once a second."""
    from ray._private.state import state
    from ray.core.generated import gcs_pb2
    time.sleep(1.5)
    n = 0
    for raw in state.global_state_accessor.get_task_events():
        ev = gcs_pb2.TaskEvents.FromString(raw)
        if ev.state_updates.HasField('error_info'):
            n += 1
    return n


def _linkage(inp: dict, ckpt: str | None):
    from py_stringsimjoin_ray.pipelines import linkage
    return linkage.record_linkage(os.path.join(inp['dir'], 'repos'),
                                  checkpoint_dir=ckpt)


def _clusters_frame(res):
    return res['clusters'].select_columns(
        ['repo', 'path', 'commit', 'sha256', 'component']).to_pandas()


def _blocking(inp: dict, threshold: float, match: bool = True):
    import pyarrow.parquet as pq

    import py_stringsimjoin_ray as ssj
    from py_stringsimjoin_ray.core import measures
    from py_stringsimjoin_ray.pipelines import matcher
    d = inp['dir']
    left = pq.read_table(os.path.join(d, 'left.parquet')).to_pandas()
    right = pq.read_table(os.path.join(d, 'right.parquet')).to_pandas()
    tok = ssj.WhitespaceTokenizer(return_set=True)
    t = threshold
    cand = ssj.PrefixFilter(tok, 'jaccard', t).filter_tables(
        left, right, 'id', 'id', 'content', 'content')
    if not match:
        return cand, None
    out = matcher.apply_matcher(cand, 'l_id', 'r_id', left, right, 'id', 'id',
                                'content', 'content', tok, measures.jaccard, t)
    return cand, out


def main(op_dir: str) -> None:
    with open(os.path.join(op_dir, 'spec.json')) as f:
        spec = json.load(f)
    # Ray's GCS, raylet and workers inherit this
    os.sched_setaffinity(0, spec['cpus'])
    import numpy as np
    import ray
    import ray.data

    from .proc import GroupCpu, peak_rss_mb
    ray.init(num_cpus=spec['num_cpus'], include_dashboard=False,
             object_store_memory=spec['object_store_bytes'],
             _temp_dir=spec['ray_tmp'], logging_level='ERROR',
             log_to_driver=False)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    import logging
    logging.getLogger('ray.data').setLevel(logging.ERROR)
    kind = spec['kind']

    def operation(inp, ckpt, match=True):
        if kind == 'linkage':
            return _linkage(inp, ckpt)
        return _blocking(inp, spec['threshold'], match)

    # Set-up ends with the same call on a small input: worker processes,
    # imports and Ray Data's executor start here, not inside the timed call.
    # The blocking warm-up stops before apply_matcher, whose actor holds the
    # session's CPU until a garbage collection and would stall the timed
    # filter (see CHANGES.md).
    operation(spec['warm_input'], os.path.join(op_dir, 'warm')
              if spec.get('checkpoint') else None, match=False)
    setup_s = time.perf_counter() - spec['t_spawn']

    tracer = None
    if spec['traced']:
        from .trace import Tracer
        tracer = Tracer()
        tracer.install()

    ckpt = os.path.join(op_dir, 'ckpt') if spec.get('checkpoint') else None
    me = os.getpid()  # also the process group: run.py starts a new session
    meter = GroupCpu(me)
    cpu0 = meter.sample()
    meter.watch()

    def on_term(signum, frame):
        # stopped at the time limit: record what the call used so far
        _write_json(os.path.join(op_dir, 'stopped.json'),
                    {'cpu': meter.sample(), 'rss_mb': peak_rss_mb(me)})
        if tracer is not None:
            tracer.dump(os.path.join(op_dir, 'trace.json'))
        os._exit(3)
    signal.signal(signal.SIGTERM, on_term)

    t0 = time.perf_counter()
    _write_json(os.path.join(op_dir, 'call.json'),
                {'t0': t0, 'cpu0': cpu0, 'setup_s': setup_s})
    res = operation(spec['input'], ckpt)
    t1 = time.perf_counter()
    cpu1 = meter.sample()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    result = {'setup_s': setup_s, 'job_s': t1 - t0, 'cpu_s': cpu1 - cpu0,
              'rss_mb': peak_rss_mb(me), 't0': t0, 't1': t1}
    if tracer is not None:
        tracer.uninstall()

    # ---- outputs for the parent's checks (untimed) ----
    extra = {}
    if kind == 'linkage':
        frame = _clusters_frame(res)
        frame.to_parquet(os.path.join(op_dir, 'clusters.parquet'))
        extra['components'] = int(frame['component'].nunique())
        if ckpt:
            before = _dir_state(ckpt)
            extra['ckpt_bytes'] = sum(size for _, size, _ in before)
            r0 = time.perf_counter()
            again = _linkage(spec['input'], ckpt)
            extra['resume_s'] = time.perf_counter() - r0
            extra['resumed'] = sorted(k for k, v in again['counters'].items()
                                      if k.endswith('_resumed') and v)
            extra['ckpt_unchanged'] = _dir_state(ckpt) == before
            _clusters_frame(again).to_parquet(
                os.path.join(op_dir, 'resumed.parquet'))
    else:
        cand, out = res
        np.savez(os.path.join(op_dir, 'pairs.npz'),
                 cand_l=cand['l_id'].to_numpy(np.int64),
                 cand_r=cand['r_id'].to_numpy(np.int64),
                 match_l=out['l_id'].to_numpy(np.int64),
                 match_r=out['r_id'].to_numpy(np.int64))
    result.update(extra)

    if tracer is not None:
        tracer.dump(os.path.join(op_dir, 'trace.json'))
        result['tasks_failed'] = _failed_task_attempts()
    _write_json(os.path.join(op_dir, 'result.json'), result)
    # no ray.shutdown(): the parent stops this process group, Ray processes
    # included, as soon as this process exits
    sys.stdout.flush()
    os._exit(0)


if __name__ == '__main__':
    main(sys.argv[1])
