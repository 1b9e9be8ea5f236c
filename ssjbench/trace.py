"""Per-layer trace of one operation, installed from outside the program.

Two sources, both read in the operation's own process:

* spans: wrappers installed at run time around the public functions of each
  layer (and around the ``Dataset`` calls that execute a plan).  A span has a
  name, start, end, parent span id and counts; spans stay in memory and are
  written once, when the operation ends or is stopped.
* Ray Data's own per-operator statistics (``Dataset._get_stats_summary``)
  for every dataset those calls execute: wall, CPU, output rows and bytes,
  and rows per task.

``layer_metrics`` folds both into the per-layer metrics of BENCHMARK.json.
Only the traced run installs any of this; timed runs call the program
untouched.
"""

from __future__ import annotations

import functools
import json
import threading
import time

# per-layer metric names and units, in BENCHMARK.json order
LAYER_METRICS = {
    'ingest.wall_s': 's', 'ingest.rows': 'count', 'invariant.wall_s': 's',
    'tokenize.wall_s': 's', 'tokenize.rows': 'count',
    'localjoin.wall_s': 's', 'localjoin.pairs': 'count',
    'vocab.wall_s': 's', 'vocab.tokens': 'count',
    'vocab.heavy_tokens': 'count',
    'tsig.wall_s': 's', 'tsig.signatures': 'count',
    'postings.rows': 'count', 'postings.bytes': 'B',
    'candgen.exchange_s': 's', 'candgen.wall_s': 's', 'candgen.cpu_s': 's',
    'candgen.rows': 'count', 'candgen.task_skew': 'ratio',
    'verify.exchange_s': 's', 'verify.wall_s': 's', 'verify.cpu_s': 's',
    'verify.pairs': 'count', 'verify.yield': 'ratio',
    'verify.task_skew': 'ratio',
    'pairgen.exchange_s': 's', 'pairgen.wall_s': 's', 'pairgen.cpu_s': 's',
    'pairgen.candidates': 'count', 'pairgen.task_skew': 'ratio',
    'matcher.wall_s': 's', 'matcher.candidates': 'count',
    'matcher.matches': 'count', 'matcher.yield': 'ratio',
    'clusters.wall_s': 's', 'clusters.edges': 'count',
    'clusters.components': 'count', 'clusters.pairwise_f1': 'ratio',
    'manifests.write_s': 's', 'manifests.bytes': 'B',
    'manifests.rollup_s': 's', 'skew.poll_s': 's',
    'ray.tasks_failed': 'count', 'trace.overhead_s': 's',
}

# Dataset calls that execute a plan
_EXEC_METHODS = ('materialize', 'write_parquet', 'to_pandas', 'count',
                 'take_all')


def _len(x):
    try:
        return len(x)
    except TypeError:
        return None


def _lut_tokens(lut):
    if isinstance(lut, dict) and 'hashes' in lut:
        return len(lut['hashes'])
    return _len(lut)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.ops: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    # ------------------------------------------------------------ spans
    def _open(self, name: str) -> dict:
        stack = getattr(self._local, 'stack', None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span = {'id': len(self.spans), 'name': name,
                    'parent': stack[-1]['id'] if stack else None,
                    'start': time.perf_counter(), 'end': None}
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span['end'] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span; ``counts``
        maps (args, kwargs, result) to a dict of counts for the span."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                res = orig(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.update(counts(args, kwargs, res))
            return res
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def _wrap_exec(self, cls, meth: str) -> None:
        orig = getattr(cls, meth)
        tracer = self

        @functools.wraps(orig)
        def wrapper(ds, *args, **kwargs):
            span = tracer._open('exec.' + meth)
            span['plan'] = _plan_ops(ds)
            try:
                res = orig(ds, *args, **kwargs)
            finally:
                tracer._close(span)
            tracer._collect(res if meth == 'materialize' else ds)
            return res
        setattr(cls, meth, wrapper)
        self._undo.append((cls, meth, orig))

    def _collect(self, ds) -> None:
        try:
            summary = ds._get_stats_summary()
        except Exception:  # stats are best effort: never fail the operation
            return
        seq = _flatten(summary)
        for i, op in enumerate(seq):
            key = f'{op.operator_name}@{op.earliest_start_time!r}'
            if key in self.ops:
                continue
            rec = {'name': op.operator_name,
                   'sub': bool(op.is_sub_operator),
                   'start': op.earliest_start_time,
                   'end': op.latest_end_time,
                   'wall_s': op.time_total_s,
                   'cpu_s': (op.cpu_time or {}).get('sum', 0.0),
                   'rows': (op.output_num_rows or {}).get('sum', 0),
                   'bytes': (op.output_size_bytes or {}).get('sum', 0),
                   'task_max': (op.task_rows or {}).get('max', 0),
                   'task_mean': (op.task_rows or {}).get('mean', 0)}
            # the shuffle feeding this operator: the run of sort / shuffle
            # sub-operators directly before it in the plan
            ex = []
            j = i - 1
            while j >= 0 and seq[j].is_sub_operator:
                ex.append(seq[j])
                j -= 1
            if ex and not op.is_sub_operator:
                rec['exchange_s'] = (max(e.latest_end_time for e in ex)
                                     - min(e.earliest_start_time for e in ex))
            self.ops[key] = rec

    # ------------------------------------------------------------ install
    def install(self) -> None:
        import ray.data
        from py_stringsimjoin_ray.pipelines import join, matcher
        from py_stringsimjoin_ray.stages import (localjoin, postings,
                                                 slimjoin, tokenize)
        from py_stringsimjoin_ray.state import manifests

        for meth in _EXEC_METHODS:
            self._wrap_exec(ray.data.Dataset, meth)
        w = self.wrap
        w(tokenize.TokenizeStage, '__call__', 'tokenize',
          lambda a, k, r: {'rows': _len(r)})
        w(localjoin, 'local_match_pairs', 'localjoin',
          lambda a, k, r: {'pairs': _len(r[0]) if r is not None else 0})
        w(localjoin, '_local_lut', 'vocab',
          lambda a, k, r: {'tokens': _lut_tokens(r[0]), 'heavy': _len(r[1])})
        w(localjoin, '_local_tsig', 'tsig',
          lambda a, k, r: {'signatures': _len(r[1]) if r[1] is not None
                           else 0})
        w(postings, 'fused_rank_lookup', 'vocab', _fused_counts)
        w(join, 'token_frequencies', 'vocab',
          lambda a, k, r: {'tokens': _len(r)})
        w(join, 'make_rank_lookup', 'vocab')
        w(join, 'heavy_token_table', 'vocab',
          lambda a, k, r: {'heavy': _len(r)})
        w(slimjoin, 'collect_tsig', 'tsig',
          lambda a, k, r: {'signatures': r[2]})
        w(slimjoin, 'collect_tsig_shards', 'tsig',
          lambda a, k, r: {'signatures': r[3]})
        w(slimjoin.SlimPostingsStage, '__call__', 'postings',
          lambda a, k, r: {'rows': _len(r), 'bytes': r.nbytes})
        w(matcher, 'apply_matcher', 'matcher',
          lambda a, k, r: {'candidates': _len(a[0]), 'matches': _len(r)})
        w(manifests, 'write_stage', 'manifests.write',
          lambda a, k, r: {'stage': a[2], 'rows': r.count()})
        w(manifests, 'sha256_xor_rollup', 'manifests.rollup')
        w(manifests, 'update_manifest_counters', 'manifests.update')

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        """Write spans and operator stats; spans still open (the operation
        was stopped inside them) end now and are marked open."""
        now = time.perf_counter()
        with self._lock:
            spans = [dict(s, end=now, open=True) if s['end'] is None else s
                     for s in self.spans]
            ops = list(self.ops.values())
        with open(path, 'w') as f:
            json.dump({'spans': spans, 'ops': ops}, f)


def _fused_counts(args, kwargs, res):
    import ray
    lut_ref, heavy, _tot = res
    return {'tokens': _lut_tokens(ray.get(lut_ref)), 'heavy': _len(heavy)}


def _plan_ops(ds) -> list:
    """Names of the logical operators a call on ``ds`` executes (the walk
    stops at already materialized inputs)."""
    names, todo = [], []
    try:
        todo.append(ds._plan._logical_plan.dag)
    except AttributeError:
        return names
    while todo:
        op = todo.pop()
        names.append(op.name)
        todo.extend(op.input_dependencies)
    return names


def _flatten(summary) -> list:
    """Operator stats of a stats summary and of its parents, in plan order."""
    out = []
    for p in summary.parents or []:
        out.extend(_flatten(p))
    return out + list(summary.operators_stats)


# ---------------------------------------------------------------- folding

def _top(spans: list, name: str) -> list:
    """Spans whose name starts with ``name`` and that have no ancestor of
    such a name (a Dataset call can execute through another one)."""
    by_id = {s['id']: s for s in spans}

    def nested(s):
        p = s['parent']
        while p is not None:
            if by_id[p]['name'].startswith(name):
                return True
            p = by_id[p]['parent']
        return False
    return [s for s in spans if s['name'].startswith(name) and not nested(s)]


def _dur(spans) -> float:
    return sum(s['end'] - s['start'] for s in spans)


def _sum(items, key) -> float:
    return sum(s.get(key) or 0 for s in items)


def _skew(ops) -> float:
    means = [o['task_mean'] for o in ops if o['task_mean']]
    return (max(o['task_max'] for o in ops) / (sum(means) / len(means))
            if means else 0.0)


def layer_metrics(trace: dict, job_end: float | None) -> dict:
    """Per-layer metric values of one traced operation.  Metrics of layers
    the operation never entered read 0."""
    spans, ops = trace['spans'], trace['ops']
    m = dict.fromkeys(LAYER_METRICS, 0.0)

    def execs(fragment):
        return [s for s in _top(spans, 'exec.')
                if any(fragment in n for n in s.get('plan', []))]

    def op_list(fragment):
        return [o for o in ops if fragment in o['name'] and not o['sub']]

    # a checkpointed stage fuses its last operator with the Parquet write,
    # whose output rows are files: take its rows from the written artifact
    writes = _top(spans, 'manifests.write')
    written = {s.get('stage'): s.get('rows') or 0 for s in writes}

    m['ingest.wall_s'] = _dur(execs('_ingest_batch'))
    m['ingest.rows'] = written.get('ingest',
                                   _sum(op_list('_ingest_batch'), 'rows'))

    tok_ops = op_list('TokenizeStage')
    tok_spans = _top(spans, 'tokenize')
    m['tokenize.wall_s'] = _dur(tok_spans) + _sum(tok_ops, 'wall_s')
    m['tokenize.rows'] = _sum(tok_spans, 'rows') + _sum(tok_ops, 'rows')

    local = _top(spans, 'localjoin')
    m['localjoin.wall_s'] = _dur(local)
    m['localjoin.pairs'] = _sum(local, 'pairs')

    vocab = _top(spans, 'vocab')
    m['vocab.wall_s'] = _dur(vocab)
    m['vocab.tokens'] = _sum(vocab, 'tokens')
    m['vocab.heavy_tokens'] = _sum(vocab, 'heavy')

    tsig = _top(spans, 'tsig')
    m['tsig.wall_s'] = _dur(tsig)
    m['tsig.signatures'] = _sum(tsig, 'signatures')

    post_spans = _top(spans, 'postings')
    post_ops = op_list('PostingsStage')
    m['postings.rows'] = _sum(post_spans, 'rows') + _sum(post_ops, 'rows')
    m['postings.bytes'] = _sum(post_spans, 'bytes') + _sum(post_ops, 'bytes')

    for layer, frag, count in (('candgen', 'BroadcastCandGen', 'rows'),
                               ('verify', 'BroadcastVerify', 'pairs'),
                               ('pairgen', 'PairGenVerify', 'candidates')):
        sel = op_list(frag)
        m[f'{layer}.exchange_s'] = _sum(sel, 'exchange_s')
        m[f'{layer}.wall_s'] = _sum(sel, 'wall_s')
        m[f'{layer}.cpu_s'] = _sum(sel, 'cpu_s')
        m[f'{layer}.{count}'] = _sum(sel, 'rows')
        m[f'{layer}.task_skew'] = _skew(sel)
    if m['candgen.rows']:
        m['verify.yield'] = m['verify.pairs'] / m['candgen.rows']

    match = _top(spans, 'matcher')
    m['matcher.wall_s'] = _dur(match)
    m['matcher.candidates'] = _sum(match, 'candidates')
    m['matcher.matches'] = _sum(match, 'matches')
    if m['matcher.candidates']:
        m['matcher.yield'] = m['matcher.matches'] / m['matcher.candidates']

    clusters = execs('attach_components')
    m['clusters.wall_s'] = _dur(clusters)
    m['clusters.edges'] = written.get('matches',
                                      _sum(op_list('cast_pairs'), 'rows'))
    if clusters and job_end is not None:
        m['invariant.wall_s'] = job_end - max(s['end'] for s in clusters)

    m['manifests.write_s'] = _dur(writes)
    m['manifests.rollup_s'] = _dur(_top(spans, 'manifests.rollup'))
    wrote = [s['end'] for s in writes if s.get('stage') == 'matches']
    polled = [s['start'] for s in spans if s['name'] == 'manifests.update']
    if wrote and polled:
        m['skew.poll_s'] = min(polled) - max(wrote)
    return m
