"""Benchmark of py_stringsimjoin_ray: record linkage and blocking workloads.

    python3 ssjbench/run.py --workload linkage_local --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout.  Inputs are generated from ``--seed`` (see
corpus.py) and cached under ``.ssjbench/``; generation is never timed.  The
run then repeats whole rounds of operations until ``--seconds`` have passed.
Each operation runs in its own process with a fresh Ray session of as many
CPUs as ``nproc`` prints (``--num-cpus`` overrides it), confined to that many
cores together with every Ray process it starts, under a time limit:
an operation past its limit is stopped together with every Ray process it
started and counted as failed.  Outputs are checked here, apart from the
program (checks.py).  One run at a time per checkout.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced operation run next to an untraced one in every round.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from ssjbench import checks, corpus  # noqa: E402
from ssjbench.proc import kill_group  # noqa: E402
from ssjbench.trace import LAYER_METRICS, layer_metrics  # noqa: E402

STATE = os.path.join(ROOT, '.ssjbench')
# Ray puts Unix sockets under its temp dir; AF_UNIX paths stop at 107 bytes
# and Ray appends about 64, so a longer checkout path falls back to Ray's
# default temp dir
_RAY_TMP_MAX = 43

LINKAGE_CORPUS = {'clusters': 2200, 'singletons': 2900}   # ~11.7k files, 18 MB
BLOCKING_CORPUS = {'clusters': 700, 'singletons': 1100}   # ~3.9k files, 6 MB
# set-up ends with one call on this small input (fixed, seed-independent)
WARM_CORPUS = {'clusters': 60, 'singletons': 60}
WARM_SEED = 7
JACCARD = (7, 10)       # blocking threshold 0.7, compared exactly
MIN_F1 = 0.99
DIST_SEED = 0

# name -> (kind, options).  `timeout_s` bounds one operation.
# `linkage_local` is not in BENCHMARK.json: every layer it runs is also
# measured on `linkage_checkpointed`; it stays as the plain job to compare
# the checkpoint overhead against.
WORKLOADS = {
    'linkage_local': ('linkage', {'timeout_s': 90}),
    'linkage_checkpointed': ('linkage', {'timeout_s': 90,
                                         'checkpoint': True}),
    # The local route's payload cap is lowered, through the library's own
    # SSJ_LOCAL_MAX_BYTES, to half this corpus's payload, so the self-join
    # takes the Ray Data route at a size one run can afford.  The input does
    # not depend on --seed: on a 1-CPU session every operation here hangs on
    # tasks that ask for 2 CPUs (fused_rank_lookup, _vocab_concat,
    # _stitch_bc), so each one is stopped at its limit and counted failed.
    'linkage_dist': ('linkage', {'timeout_s': 30, 'dist': True}),
    'blocking_filter_match': ('blocking', {'timeout_s': 100}),
}

E2E_UNITS = {'setup_s': 's', 'job_s': 's', 'cpu_s': 's',
             'driver_peak_rss_mb': 'MB'}


def _nproc() -> int:
    """What `nproc` prints: usable CPUs, lowered by OMP_NUM_THREADS."""
    try:
        return int(subprocess.run(['nproc'], capture_output=True, text=True,
                                  check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))


def _session_cpus(num_cpus: int) -> list:
    """The CPUs an operation's process group is confined to: the last
    ``num_cpus`` of those this process may run on.  Ray's GCS, raylet and
    workers then share the session's cores, as on a machine of that size,
    instead of spreading over idle ones: on a shared VM, spread-out Ray
    processes drew more of the hypervisor's steal and job_s followed it."""
    return sorted(os.sched_getaffinity(0))[-num_cpus:]


def _inputs(kind: str, opts: dict, seed: int) -> tuple:
    """(timed input, warm-up input) manifests."""
    cache = os.path.join(STATE, 'inputs')
    os.makedirs(cache, exist_ok=True)
    if kind == 'blocking':
        return (corpus.blocking_input(cache, seed, *JACCARD,
                                      **BLOCKING_CORPUS),
                corpus.blocking_input(cache, WARM_SEED, *JACCARD,
                                      **WARM_CORPUS))
    if opts.get('dist'):
        seed = DIST_SEED
    return (corpus.linkage_input(cache, seed, **LINKAGE_CORPUS),
            corpus.linkage_input(cache, WARM_SEED, **WARM_CORPUS))


def _ray_tmp() -> str | None:
    path = os.path.join(STATE, 'ray')
    if len(path) > _RAY_TMP_MAX:
        return None
    os.makedirs(path, exist_ok=True)
    return path




def _read_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def run_op(workload: str, inp: dict, warm: dict, op_dir: str, traced: bool,
           num_cpus: int) -> dict:
    """Run one operation in a child process; returns its record."""
    kind, opts = WORKLOADS[workload]
    os.makedirs(op_dir)
    env = dict(os.environ, PYTHONPATH=ROOT, RAY_ADDRESS='local')
    if opts.get('dist'):
        env['SSJ_LOCAL_MAX_BYTES'] = str(inp['payload_bytes'] // 2)
    ray_tmp = _ray_tmp()
    t_spawn = time.perf_counter()
    spec = {'kind': kind, 'input': inp, 'warm_input': warm, 'traced': traced,
            'checkpoint': bool(opts.get('checkpoint')),
            'threshold': JACCARD[0] / JACCARD[1], 'num_cpus': num_cpus,
            'cpus': _session_cpus(num_cpus),
            'object_store_bytes': 512 * 1024 ** 2, 'ray_tmp': ray_tmp,
            't_spawn': t_spawn}
    with open(os.path.join(op_dir, 'spec.json'), 'w') as f:
        json.dump(spec, f)
    stopped = None
    with open(os.path.join(op_dir, 'log.txt'), 'w') as log:
        proc = subprocess.Popen(
            [sys.executable, '-m', 'ssjbench.child', op_dir], cwd=ROOT,
            env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            rc = proc.wait(timeout=opts['timeout_s'])
        except subprocess.TimeoutExpired:
            stopped = time.perf_counter()
            # the operation writes what it used so far (and its spans)
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
            rc = None
        finally:
            if not kill_group(proc.pid):
                raise RuntimeError(f'processes of operation {op_dir} '
                                   'survived SIGKILL')
            proc.wait()
    if ray_tmp:  # Ray names the session dir after the driver's pid
        for name in os.listdir(ray_tmp):
            if name.endswith(f'_{proc.pid}'):
                shutil.rmtree(os.path.join(ray_tmp, name),
                              ignore_errors=True)
    rec = {'traced': traced, 'problems': []}
    result = _read_json(os.path.join(op_dir, 'result.json'))
    if rc == 0 and result is not None:
        rec.update(failed=False, setup_s=result['setup_s'],
                   job_s=result['job_s'], cpu_s=result['cpu_s'],
                   driver_peak_rss_mb=result['rss_mb'], result=result)
        return rec
    call = _read_json(os.path.join(op_dir, 'call.json'))
    rec.update(failed=True, result=None,
               reason=('time limit' if stopped is not None
                       else f'exit code {rc}'))
    if stopped is None:
        with open(os.path.join(op_dir, 'log.txt')) as f:
            print('operation failed, last log lines:\n'
                  + ''.join(f.readlines()[-20:]), file=sys.stderr)
    halt = _read_json(os.path.join(op_dir, 'stopped.json'))
    if call is not None:
        rec['setup_s'] = call['setup_s']
        if stopped is not None:
            # a stopped call counts the time, CPU and memory it took until
            # it was stopped
            rec['job_s'] = stopped - call['t0']
            if halt is not None:
                rec.update(cpu_s=halt['cpu'] - call['cpu0'],
                           driver_peak_rss_mb=halt['rss_mb'])
    return rec


def check_op(workload: str, inp: dict, op_dir: str, rec: dict) -> None:
    kind, opts = WORKLOADS[workload]
    res = rec['result']
    if kind == 'linkage':
        problems, score = checks.linkage(inp['dir'], op_dir, MIN_F1)
        if opts.get('checkpoint'):
            problems += checks.resumed(op_dir, res)
        rec['f1'] = score['f1']
    else:
        problems, counts = checks.blocking(inp['dir'], op_dir,
                                           inp['right_rows'])
        rec.update(counts)
    rec['problems'] = problems


def _steal() -> tuple:
    """(steal, total) jiffies of all CPUs: time the hypervisor ran others."""
    with open('/proc/stat') as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return v[7], sum(v)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _metric(value, unit):
    return {'value': value, 'unit': unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--num-cpus', type=int, default=None,
                    help='Ray session size (default: what nproc prints)')
    args = ap.parse_args(argv)
    # a terminated run still stops the operation it is waiting for: the
    # SystemExit unwinds through run_op's finally
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload not in WORKLOADS:
        print(f'unknown workload {args.workload!r}; one of '
              f'{", ".join(WORKLOADS)}', file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, 'py_stringsimjoin_ray',
                                       '__init__.py')):
        print(f'py_stringsimjoin_ray is not in {ROOT}: nothing to measure',
              file=sys.stderr)
        return 2
    kind, opts = WORKLOADS[args.workload]
    num_cpus = args.num_cpus or _nproc()

    inp, warm = _inputs(kind, opts, args.seed)
    print('input ' + json.dumps({k: v for k, v in inp.items() if k != 'dir'},
                                sort_keys=True), flush=True)
    print(f'num_cpus {num_cpus} cpus {_session_cpus(num_cpus)}', flush=True)
    work = os.path.join(STATE, 'work', f'{os.getpid()}-{time.time_ns()}')
    os.makedirs(work)
    plan = [False, True] if args.trace else [False]
    ops = []
    steal0 = _steal()
    start = time.perf_counter()
    try:
        while True:
            for traced in plan:
                op_dir = os.path.join(work, f'op{len(ops):03d}')
                rec = run_op(args.workload, inp, warm, op_dir, traced,
                             num_cpus)
                if not rec['failed']:
                    check_op(args.workload, inp, op_dir, rec)
                if traced:
                    rec['layers'] = _layers(
                        _read_json(os.path.join(op_dir, 'trace.json')), rec)
                ops.append(rec)
                print('op ' + json.dumps(_summary(rec)), flush=True)
                shutil.rmtree(op_dir, ignore_errors=True)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # CPU time the VM lost to others during the run: the main source of
    # run-to-run spread where it is high
    steal1 = _steal()
    steal = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    print(f'steal_pct {100 * steal:.1f}', flush=True)
    correct = all(not r['problems'] for r in ops)
    failed = sum(1 for r in ops if r['failed'])
    if args.trace:
        metrics = _trace_metrics(ops)
    else:
        metrics = {name: _metric(_median(r.get(name) for r in ops), unit)
                   for name, unit in E2E_UNITS.items()}
        missing = [k for k, v in metrics.items() if v['value'] is None]
        if missing:
            print(f'no operation reached the call: {missing}',
                  file=sys.stderr)
            return 1
    print(json.dumps({'correct': correct, 'attempted': len(ops),
                      'failed': failed, 'metrics': metrics}), flush=True)
    return 0


def _layers(trace, rec) -> dict:
    """Per-layer metrics of one traced operation; a stopped operation has
    only the spans it wrote when stopped."""
    res = rec['result'] or {}
    layers = layer_metrics(trace, res.get('t1')) if trace else {}
    layers['clusters.components'] = res.get('components', 0)
    layers['clusters.pairwise_f1'] = rec.get('f1', 0.0)
    layers['manifests.bytes'] = res.get('ckpt_bytes', 0)
    layers['ray.tasks_failed'] = res.get('tasks_failed', 0)
    return layers


def _trace_metrics(ops) -> dict:
    traced = [r for r in ops if r['traced']]
    plain = [r for r in ops if not r['traced']]
    out = {}
    for name, unit in LAYER_METRICS.items():
        vals = [r['layers'].get(name, 0.0) for r in traced if 'layers' in r]
        out[name] = _metric(_median(vals) or 0.0, unit)
    t_job = _median(r.get('job_s') for r in traced)
    p_job = _median(r.get('job_s') for r in plain)
    if t_job is not None and p_job is not None:
        out['trace.overhead_s'] = _metric(t_job - p_job, 's')
    return out


def _summary(rec) -> dict:
    keys = ('traced', 'failed', 'reason', 'setup_s', 'job_s', 'cpu_s',
            'driver_peak_rss_mb', 'f1', 'candidates', 'matches',
            'oracle_pairs', 'problems')
    out = {k: rec[k] for k in keys if k in rec}
    if rec.get('result'):
        for k in ('resume_s', 'components', 'ckpt_bytes'):
            if k in rec['result']:
                out[k] = rec['result'][k]
    return out


if __name__ == '__main__':
    sys.exit(main())
