"""The north-star pipeline: blocking + pairwise scoring + transitive
clustering record linkage over a source-code-repos Parquet corpus
(BASELINE.json north_rule), resumable via per-stage lineage manifests.

    repos.parquet ─ footer gate: rows, content bytes vs SSJ_LOCAL_* caps
      ├─ local route: ONE Ray task on in-memory tables
      │    ingest (record_id, sha256)                      ─▶ ingest/
      │    └▶ local_match_pairs (stages/localjoin.py)      ─▶ matches/
      │    └▶ connected_components_numpy + searchsorted
      │       component attach                             ─▶ clusters/
      └─ Dataset route:
           ingest (map_batches: record_id, sha256)         ─▶ ingest/
           └▶ self-join (tokenize → ordering → prefix postings + salting
              → candgen / verify shuffles)                 ─▶ matches/
           └▶ connected components: one task below SSJ_CC_TASK_GATE
              edges, large-star/small-star rounds above; broadcast or
              bucket-shuffle component attach              ─▶ clusters/

Singletons (records without a match) are their own component; the sha256
column rides along from ingest to clusters.  Each stage writes Parquet
(one file on the local route, one per block on the Dataset route) +
``_manifest.json`` (input fingerprint, row counts, sha256 roll-up); a
re-run skips stages whose manifest matches, whichever route wrote them —
kill the driver mid-run and the next run picks up after the last completed
artifact.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from ..core.tokenizers import WhitespaceTokenizer
from ..stages.cluster import connected_components, connected_components_numpy
from ..state import manifests as mf
from ..state.skewstats import summarize
from .join import _JoinConfig, match_pairs_dataset


def _row_views(col) -> tuple:
    """(offsets, memoryview) over a binary/string Arrow column's single
    data buffer — per-row hashing slices the buffer directly instead of
    materializing Python strings (VERDICT r2 #6)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if arr.null_count:
        arr = arr.fill_null(b'' if pa.types.is_binary(arr.type) else '')
    bufs = arr.buffers()
    off_dtype = np.int64 if (pa.types.is_large_binary(arr.type)
                             or pa.types.is_large_string(arr.type)) \
        else np.int32
    offs = np.frombuffer(bufs[1], dtype=off_dtype)[
        arr.offset: arr.offset + len(arr) + 1]
    mv = memoryview(bufs[2]) if bufs[2] is not None else memoryview(b'')
    return offs, mv


def _ingest_batch(batch: pa.Table) -> pa.Table:
    """Add record_id (deterministic 63-bit hash of (repo, path, commit) —
    dense global numbering is deliberately not reproduced at scale,
    SURVEY.md §7.4) and the per-row sha256(content) invariant column.

    The key bytes build in ONE Arrow kernel pass
    (``binary_join_element_wise`` over binary-cast columns — byte-identical
    to the former per-row ``f'{repo}\\x00{path}\\x00{commit}'.encode()``)
    and each row hashes a zero-copy slice of that single buffer; only the
    irreducible C-speed sha1/sha256 calls remain per row."""
    import pyarrow.compute as pc
    n = len(batch)
    # null repo/path/commit pre-fill as the literal b'None' so the key
    # bytes stay identical to the former per-row f-string encoding
    # (f'{None}' == 'None'); without this a null column value would join
    # as null -> b'' and collide with the empty string (ADVICE r3)
    keys = pc.binary_join_element_wise(
        pc.fill_null(batch['repo'].cast(pa.binary()), b'None'),
        pc.fill_null(batch['path'].cast(pa.binary()), b'None'),
        pc.fill_null(batch['commit'].cast(pa.binary()), b'None'),
        pa.scalar(b'\x00', pa.binary()))
    koffs, kmv = _row_views(keys)
    rids = np.empty(n, dtype=np.int64)
    sha1 = hashlib.sha1
    frombytes = int.from_bytes
    for i in range(n):
        rids[i] = frombytes(sha1(kmv[koffs[i]:koffs[i + 1]]).digest()[:8],
                            'little') & 0x7FFFFFFFFFFFFFFF
    coffs, cmv = _row_views(batch['content'].cast(pa.binary()))
    sha256 = hashlib.sha256
    shas = [sha256(cmv[coffs[i]:coffs[i + 1]]).hexdigest() for i in range(n)]
    return batch.append_column('record_id', pa.array(rids)) \
                .append_column('sha256', pa.array(shas, pa.string()))


_KNUTH = np.uint64(2654435761)
SLIM_COLS = ['record_id', 'repo', 'path', 'commit', 'sha256']
STAGES = ('ingest', 'matches', 'clusters')


def _component_of(ids: np.ndarray, nodes: np.ndarray,
                  comps: np.ndarray) -> np.ndarray:
    """Component of each id from a (node-sorted) component map; an id not
    in the map (a singleton) is its own component."""
    if not len(nodes):
        return ids
    pos = np.minimum(np.searchsorted(nodes, ids), len(nodes) - 1)
    return np.where(nodes[pos] == ids, comps[pos], ids)


def _attach(b: pa.Table, nodes: np.ndarray, comps: np.ndarray) -> pa.Table:
    ids = b['record_id'].to_numpy().astype(np.int64)
    return b.append_column('component', pa.array(
        _component_of(ids, nodes, comps).astype(np.int64)))


def _broadcast_attach(ingest_slim, comp_ref):
    """Map over the ingest stream attaching components from the broadcast
    (nodes, components) map behind ``comp_ref`` — no shuffle."""
    def attach(b: pa.Table) -> pa.Table:
        return _attach(b, *ray.get(comp_ref))
    attach.__name__ = 'attach_components_broadcast'
    return ingest_slim.map_batches(attach, batch_format='pyarrow')


@ray.remote
def _cc_arrays(*match_blocks):
    """Remote connected-components build over match blocks: vectorized
    min-label propagation; returns (nodes_sorted, component) numpy arrays —
    the broadcast component map for the attach stage."""
    def cols(b):
        return b.columns if isinstance(b, pd.DataFrame) else b.column_names

    def col(b, name):
        v = b[name]
        return (v.to_numpy() if isinstance(b, pd.DataFrame)
                else v.to_numpy(zero_copy_only=False))

    # blocks may be Arrow or pandas; empty verify groups can yield
    # schemaless blocks — skip those
    match_blocks = [b for b in match_blocks if 'l_id' in cols(b)]
    us = [col(b, 'l_id').astype(np.int64) for b in match_blocks]
    vs = [col(b, 'r_id').astype(np.int64) for b in match_blocks]
    u = np.concatenate(us) if us else np.empty(0, np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, np.int64)
    return connected_components_numpy(u, v)


def _attach_components(ingest_slim, comp, num_buckets: int = 64,
                       broadcast_gate: int = 20_000_000):
    """ingest_slim (record_id, repo, path, commit, sha256) ⟕ comp
    (node, component) on record_id; records without a component
    (singletons) get component = record_id.

    The component map is bounded by the number of MATCHED records, far
    smaller than the corpus — below ``broadcast_gate`` rows it ships once
    via ray.put and the attach is a single vectorized map over the ingest
    stream (no shuffle); above the gate both sides co-locate via one
    bucket-hash shuffle."""
    comp = comp.materialize()
    if comp.count() <= broadcast_gate:
        nodes_parts, comp_parts = [], []
        for b in comp.iter_batches(batch_format='pyarrow', batch_size=None):
            t = pa.table(b)
            nodes_parts.append(t['node'].to_numpy(zero_copy_only=False)
                               .astype(np.int64))
            comp_parts.append(t['component'].to_numpy(zero_copy_only=False)
                              .astype(np.int64))
        nodes = (np.concatenate(nodes_parts) if nodes_parts
                 else np.empty(0, np.int64))
        comps = (np.concatenate(comp_parts) if comp_parts
                 else np.empty(0, np.int64))
        order = np.argsort(nodes, kind='stable')
        return _broadcast_attach(ingest_slim,
                                 ray.put((nodes[order], comps[order])))
    def tag_left(b: pa.Table) -> pa.Table:
        ids = b['record_id'].to_numpy(zero_copy_only=False).astype(np.int64)
        bk = ((ids.astype(np.uint64) * _KNUTH) >> np.uint64(7)) \
            % np.uint64(num_buckets)
        return pa.table({
            'bucket': bk.astype(np.int64), 'side': np.zeros(len(ids), np.int8),
            'record_id': ids, 'repo': b['repo'], 'path': b['path'],
            'commit': b['commit'], 'sha256': b['sha256'],
            'component': pa.nulls(len(ids), pa.int64())})

    def tag_right(b: pa.Table) -> pa.Table:
        ids = b['node'].to_numpy(zero_copy_only=False).astype(np.int64)
        bk = ((ids.astype(np.uint64) * _KNUTH) >> np.uint64(7)) \
            % np.uint64(num_buckets)
        n = len(ids)
        return pa.table({
            'bucket': bk.astype(np.int64), 'side': np.ones(n, np.int8),
            'record_id': ids, 'repo': pa.nulls(n, pa.string()),
            'path': pa.nulls(n, pa.string()),
            'commit': pa.nulls(n, pa.string()),
            'sha256': pa.nulls(n, pa.string()),
            'component': pa.compute.cast(b['component'], pa.int64())})

    def merge(tbl: pa.Table) -> pa.Table:
        side = tbl['side'].to_numpy(zero_copy_only=False)
        lmask = side == 0
        ids = tbl['record_id'].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        lid = ids[lmask]
        rid = ids[~lmask]
        # slice the side-1 rows at the ARROW level: the unioned column
        # carries nulls on side-0 rows, and a whole-column to_numpy would
        # convert to float64 — lossy for these 63-bit ids above 2^53
        rcomp = tbl['component'].take(pa.array(np.flatnonzero(~lmask))) \
            .combine_chunks().to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.argsort(rid, kind='stable')
        vals = _component_of(lid, rid[order], rcomp[order])
        sel = pa.array(np.flatnonzero(lmask))
        out = tbl.select(SLIM_COLS).take(sel)
        return out.append_column('component',
                                 pa.array(vals.astype(np.int64)))
    merge.__name__ = 'attach_components'

    both = ingest_slim.map_batches(tag_left, batch_format='pyarrow').union(
        comp.map_batches(tag_right, batch_format='pyarrow'))
    return both.groupby('bucket').map_groups(merge, batch_format='pyarrow')


def _poll_skew(summary, polls: int = 20, wait_s: float = 0.05) -> dict:
    """Last of up to ``polls`` ``summary()`` reads, ``wait_s`` apart.  Stops
    once both join stages reported, or once a non-empty summary is the same
    on two polls in a row: a stage that reports nothing (``SkewStats``
    drops empty reports) must not hold the poll for its full length."""
    skew: dict = {}
    for i in range(polls):
        prev, skew = skew, summary()
        if ('candgen' in skew and 'verify' in skew) \
                or (skew and skew == prev):
            break
        if i + 1 < polls:
            time.sleep(wait_s)
    return skew


@ray.remote
def _block_xor(block) -> int:
    """``sha256_xor`` of one Dataset block (Arrow or pandas)."""
    if isinstance(block, pd.DataFrame):
        block = pa.Table.from_pandas(block, preserve_index=False)
    return (mf.sha256_xor(block['sha256'])
            if 'sha256' in block.column_names else 0)


def _block_xors(ds) -> list:
    """One ``sha256_xor`` task per block of a materialized Dataset, started
    now: plain tasks, no Dataset execution."""
    return [_block_xor.remote(ref) for bundle in ds.iter_internal_ref_bundles()
            for ref in bundle.block_refs]


def _xor_of(refs: list) -> int:
    acc = 0
    for v in ray.get(refs):
        acc ^= v
    return acc


def _skew_counters(skew: dict) -> dict:
    """Flat ``skew_<stage>_<field>`` manifest counters of a skew summary."""
    return {f'skew_{st}_{k}': v
            for st, d in skew.items() for k, v in d.items()}


def _cast_pairs(batch: pa.Table) -> pa.Table:
    return pa.table({
        'l_id': pa.compute.cast(batch['l_key'], pa.int64()),
        'r_id': pa.compute.cast(batch['r_key'], pa.int64()),
        'score': pa.compute.cast(batch['_sim_score'], pa.float64())})


def _cc_task_gate() -> int:
    return int(os.environ.get('SSJ_CC_TASK_GATE', '32000000'))


def _fingerprints(fp_in: str) -> dict:
    """Input fingerprint of each stage: the chain ingest → matches →
    clusters, so editing an upstream artifact invalidates what follows."""
    return {'ingest': fp_in, 'matches': fp_in + ':ingest',
            'clusters': fp_in + ':ingest:matches'}


def _manifest_invariant(checkpoint_dir: str) -> bool:
    m_in = mf.load_manifest(checkpoint_dir, 'ingest')
    m_out = mf.load_manifest(checkpoint_dir, 'clusters')
    return bool(m_in and m_out
                and m_in.get('sha256_xor') == m_out.get('sha256_xor'))


def _input_files(repos_path: str) -> list | None:
    """The input's Parquet files, or None when only Ray Data's reader
    should interpret the path (no Parquet file, or subdirectories)."""
    if os.path.isdir(repos_path) and any(
            os.path.isdir(os.path.join(repos_path, n))
            for n in os.listdir(repos_path) if n[0] not in '._'):
        return None
    return mf.parquet_files(repos_path) or None


def _route_gate(repos_path: str, cfg) -> dict:
    """Local-or-Dataset decision from Parquet footers alone: total rows
    against ``SSJ_LOCAL_MAX_ROWS`` and the ``content`` column's
    uncompressed size, never above the Arrow bytes ``_fetch_local``
    measures, against ``SSJ_LOCAL_MAX_BYTES``.  Returns the gate inputs,
    ``route`` and, for the Dataset route, the ``reason``."""
    from ..stages.localjoin import (_local_byte_cap, _local_row_cap,
                                    local_join_eligible)
    gate = {'row_cap': _local_row_cap(), 'byte_cap': _local_byte_cap()}
    if not local_join_eligible(None, None, cfg, True):
        return dict(gate, route='dataset', reason='flags')
    files = _input_files(repos_path)
    if files is None:
        return dict(gate, route='dataset', reason='layout')
    rows = content = 0
    for f in files:
        md = pq.read_metadata(f)
        rows += md.num_rows
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            content += sum(rg.column(j).total_uncompressed_size
                           for j in range(rg.num_columns)
                           if rg.column(j).path_in_schema == 'content')
    gate.update(rows=rows, content_bytes=content, files=files)
    if rows > gate['row_cap'] or content > gate['byte_cap']:
        return dict(gate, route='dataset', reason='size')
    return dict(gate, route='local')


def _local_linkage(files: list, checkpoint_dir, fp_in: str, cfg,
                   byte_cap: int, cc_gate: int) -> dict:
    """The whole pipeline on in-memory tables; runs as ONE Ray task
    (``_LINKAGE_TASK``).  Same stage kernels, artifacts and manifest fields
    as the Dataset route, with no Dataset plan, read-back or skew actor:
    each stage is one ``pq.write_table`` file whose sha256 roll-up comes
    from the column in memory, and a completed stage is read back with
    ``pq.read_table``.  Returns ``{'counters', 'timings', 'clusters'}``
    (``clusters`` only without a checkpoint), or ``{'fallback': reason}``
    when the Dataset route must run: the fetched payload exceeds
    ``byte_cap`` (``'payload'``) or the match graph exceeds ``cc_gate``
    edges (``'cc_gate'``, after ingest and matches are written)."""
    from ..stages.localjoin import _empty_pairs, local_match_pairs
    fps = _fingerprints(fp_in)
    done = {s: mf.is_complete(checkpoint_dir, s, fps[s]) for s in STAGES}
    counters: dict = {}
    timings: dict = {}
    t0 = time.perf_counter()

    def mark(stage):
        nonlocal t0
        timings[stage] = round(time.perf_counter() - t0, 2)
        t0 = time.perf_counter()

    # ---------------- stage 1: ingest --------------------------------
    if done['ingest']:
        counters['ingest_resumed'] = True
        ingest = mf.read_stage_table(
            checkpoint_dir, 'ingest', SLIM_COLS if done['matches'] else None)
    else:
        ingest = pq.read_table(files)
    if not done['matches'] \
            and ingest['content'].nbytes + 8 * len(ingest) > byte_cap:
        return {'fallback': 'payload'}
    if not done['ingest']:
        ingest = _ingest_batch(ingest)
        if checkpoint_dir:
            mf.write_table_stage(ingest, checkpoint_dir, 'ingest',
                                 fps['ingest'], sha_col='sha256')
    mark('ingest')

    # ---------------- stage 2: matches (self-join) -------------------
    if done['matches']:
        counters['matches_resumed'] = True
        matches = mf.read_stage_table(checkpoint_dir, 'matches')
    else:
        cfg.skew_volumes = {}
        res = (local_match_pairs(ingest, ingest, 'record_id', 'record_id',
                                 'content', 'content', cfg, True)
               if len(ingest) else (_empty_pairs(), {}))
        if res is None:
            return {'fallback': 'payload'}
        matches = _cast_pairs(pa.Table.from_pandas(res[0],
                                                   preserve_index=False))
        skew = summarize(cfg.skew_volumes)
        if checkpoint_dir:
            mf.write_table_stage(matches, checkpoint_dir, 'matches',
                                 fps['matches'],
                                 counters=_skew_counters(skew))
            if skew:
                counters['skew'] = skew
    counters['num_matches'] = len(matches)
    mark('matches')

    # ---------------- stage 3: clusters ------------------------------
    if len(matches) > cc_gate:
        return {'fallback': 'cc_gate'}
    nodes, comps = connected_components_numpy(
        matches['l_id'].to_numpy().astype(np.int64),
        matches['r_id'].to_numpy().astype(np.int64))
    clusters = _attach(ingest.select(SLIM_COLS), nodes, comps)
    if checkpoint_dir:
        mf.write_table_stage(clusters, checkpoint_dir, 'clusters',
                             fps['clusters'], sha_col='sha256')
    counters['num_records'] = len(clusters)
    mark('clusters')

    # ---------------- invariant: sha256 preserved end-to-end ---------
    counters['sha256_invariant_ok'] = (
        _manifest_invariant(checkpoint_dir) if checkpoint_dir else
        mf.sha256_xor(ingest['sha256']) == mf.sha256_xor(clusters['sha256']))
    mark('invariant')
    return {'counters': counters, 'timings': timings,
            'clusters': None if checkpoint_dir else clusters}


_LINKAGE_TASK = ray.remote(num_cpus=1)(_local_linkage)


def record_linkage(repos_path: str, checkpoint_dir: str | None = None,
                   threshold: float = 0.7, tokenizer=None,
                   num_buckets: int = 4096, salt_df_threshold: int = 300,
                   join_num_partitions: int = 16,
                   counter_name: str | None = None) -> dict:
    """Run the full pipeline; returns a result dict with the cluster Dataset
    (lazy), per-stage counters, and the sha256 invariant check.

    ``counters['route']`` is ``'local'`` or ``'dataset'`` and
    ``counters['route_gate']`` the gate inputs that chose it (footer rows,
    content bytes, row cap, byte cap; ``reason`` and ``fallback`` on the
    Dataset route).  A full resume reads the three manifests and the
    clusters artifact and runs nothing.

    The executor's per-operator resource reservation is disabled for the
    datasets this pipeline creates (restored on exit): the pipeline's
    multi-operator plans are barrier-separated, so splitting the CPU budget
    across their operators only idles the cluster (measured on the join
    window: 25.0 s -> 13.2 s at 8 CPUs — see stages/slimjoin.py)."""
    ctx = ray.data.DataContext.get_current()
    prev_reserve = ctx.op_resource_reservation_enabled
    ctx.op_resource_reservation_enabled = False
    try:
        return _record_linkage_impl(
            repos_path, checkpoint_dir, threshold, tokenizer, num_buckets,
            salt_df_threshold, join_num_partitions, counter_name)
    finally:
        ctx.op_resource_reservation_enabled = prev_reserve


def _record_linkage_impl(repos_path, checkpoint_dir, threshold, tokenizer,
                         num_buckets, salt_df_threshold,
                         join_num_partitions, counter_name) -> dict:
    cfg = _JoinConfig('JACCARD', tokenizer or WhitespaceTokenizer(
                          return_set=True), threshold, '>=',
                      allow_empty=False, allow_missing=False,
                      out_sim_score=True, self_join=True,
                      num_buckets=num_buckets,
                      salt_df_threshold=salt_df_threshold,
                      counter_name=counter_name)
    gate = _route_gate(repos_path, cfg)
    files = gate.pop('files', None)
    counters: dict = {'route': gate.pop('route'), 'route_gate': gate}
    fp_in = mf.file_fingerprint(repos_path)
    fps = _fingerprints(fp_in)
    if all(mf.is_complete(checkpoint_dir, s, fps[s]) for s in STAGES):
        return _full_resume(checkpoint_dir, counters)
    if counters['route'] == 'local':
        res = ray.get(_LINKAGE_TASK.remote(files, checkpoint_dir, fp_in, cfg,
                                           gate['byte_cap'], _cc_task_gate()))
        if 'fallback' not in res:
            counters.update(res['counters'])
            if checkpoint_dir:
                counters['ingest_rows'] = mf.load_manifest(
                    checkpoint_dir, 'ingest')['num_rows']
                clusters = mf.read_stage(checkpoint_dir, 'clusters')
            else:
                clusters = ray.data.from_arrow(res['clusters'])
            return {'clusters': clusters, 'counters': counters,
                    'timings': res['timings']}
        counters['route'] = 'dataset'
        gate['fallback'] = res['fallback']
    # the join's own size probe would only repeat a decision made above
    cfg.skip_local_probe = gate.get('reason') == 'size' \
        or gate.get('fallback') == 'payload'
    return _dataset_linkage(repos_path, checkpoint_dir, cfg, fps,
                            join_num_partitions, counters)


def _full_resume(checkpoint_dir: str, counters: dict) -> dict:
    """Every stage's manifest is complete: read the result, run nothing."""
    t0 = time.perf_counter()
    rows = {s: mf.load_manifest(checkpoint_dir, s)['num_rows']
            for s in STAGES}
    counters.update(ingest_resumed=True, matches_resumed=True,
                    clusters_resumed=True, num_matches=rows['matches'],
                    num_records=rows['clusters'],
                    sha256_invariant_ok=_manifest_invariant(checkpoint_dir),
                    ingest_rows=rows['ingest'])
    clusters = mf.read_stage(checkpoint_dir, 'clusters')
    return {'clusters': clusters, 'counters': counters,
            'timings': {'resume': round(time.perf_counter() - t0, 2)}}


def _dataset_linkage(repos_path, checkpoint_dir, cfg, fps,
                     join_num_partitions, counters) -> dict:
    """The pipeline as Ray Data plans: partitioned stage artifacts, a
    ``SkewStats`` actor for the join's task volumes, and the distributed
    connected-components rounds past ``SSJ_CC_TASK_GATE``."""
    timings: dict = {}
    _t0 = time.time()

    def _mark(stage):
        nonlocal _t0
        timings[stage] = round(time.time() - _t0, 2)
        _t0 = time.time()

    # ---------------- stage 1: ingest --------------------------------
    if mf.is_complete(checkpoint_dir, 'ingest', fps['ingest']):
        ingest = mf.read_stage(checkpoint_dir, 'ingest')
        counters['ingest_resumed'] = True
    else:
        raw = ray.data.read_parquet(repos_path)
        ingest = raw.map_batches(_ingest_batch, batch_format='pyarrow')
        if checkpoint_dir:
            ingest = mf.write_stage(ingest, checkpoint_dir, 'ingest',
                                    fps['ingest'], sha_col='sha256')
        else:
            ingest = ingest.materialize()
    ingest_manifest = (mf.load_manifest(checkpoint_dir, 'ingest')
                       if checkpoint_dir else None)
    # the ingest-side sha256 roll-up depends only on the materialized
    # ingest blocks — start it now so it runs UNDER the matches/clusters
    # stages instead of serializing at the end (checkpointed runs read the
    # rolled-up manifest instead)
    ingest_xor = None if checkpoint_dir else _block_xors(ingest)
    _mark('ingest')

    # ---------------- stage 2: matches (self-join) -------------------
    if mf.is_complete(checkpoint_dir, 'matches', fps['matches']):
        matches = mf.read_stage(checkpoint_dir, 'matches')
        counters['matches_resumed'] = True
    else:
        # per-task skew roll-up (VERDICT r4 #7): the candgen/verify kernels
        # report their task volumes to this actor (a join that still takes
        # the local route fills cfg.skew_volumes in process instead); the
        # summary lands in the matches manifest so a skewed corpus is
        # diagnosable from the checkpoint dir alone
        skew_actor = None
        if checkpoint_dir:
            import uuid as _uuid

            from ..state.skewstats import SkewStats
            cfg.skew_name = f'ssj_skew_{_uuid.uuid4().hex[:8]}'
            cfg.skew_volumes = {}
            skew_actor = SkewStats.options(name=cfg.skew_name).remote()
        pairs, _ = match_pairs_dataset(ingest, ingest, 'record_id',
                                       'record_id', 'content', 'content', cfg)
        if isinstance(pairs, pd.DataFrame):
            # small corpora ride the local fast path (stages/localjoin.py)
            pairs = ray.data.from_pandas(pairs)
        matches = pairs.map_batches(_cast_pairs, batch_format='pyarrow')
        if checkpoint_dir:
            matches = mf.write_stage(matches, checkpoint_dir, 'matches',
                                     fps['matches'])
            # the write above forced execution; reports are
            # fire-and-forget, so poll briefly for in-flight adds
            skew = summarize(cfg.skew_volumes) or _poll_skew(
                lambda: ray.get(skew_actor.summary.remote()))
            if skew:
                mf.update_manifest_counters(checkpoint_dir, 'matches',
                                            _skew_counters(skew))
                counters['skew'] = skew
            ray.kill(skew_actor)
        else:
            matches = matches.materialize()
    counters['num_matches'] = matches.count()
    _mark('matches')

    # ---------------- stage 3: clusters ------------------------------
    if mf.is_complete(checkpoint_dir, 'clusters', fps['clusters']):
        clusters = mf.read_stage(checkpoint_dir, 'clusters')
        counters['clusters_resumed'] = True
    else:
        ingest_slim = ingest.select_columns(SLIM_COLS)
        if counters['num_matches'] <= _cc_task_gate():
            # small-graph fast path: one Ray task runs vectorized min-label
            # propagation over the match blocks and the component map ships
            # as an object-store broadcast — no shuffle, nothing on the
            # driver but refs.  Gate: 32M edges ≈ 0.8 GB of int64 arrays in
            # ONE task (measured 0.77 s at 4.3M edges vs 4 s for the
            # star-round shuffles); beyond it the large-star/small-star
            # rounds take over.
            refs = []
            for bundle in matches.iter_internal_ref_bundles():
                refs.extend(bundle.block_refs)
            clusters = _broadcast_attach(ingest_slim,
                                         _cc_arrays.remote(*refs))
        else:
            edges = matches.map_batches(
                lambda b: pa.table({'u': b['l_id'], 'v': b['r_id']}),
                batch_format='pyarrow')
            comp = connected_components(edges)
            # Attach component ids to the full ingest rows with ONE bucket
            # shuffle: both sides hash record_id into a bucket, a groupby
            # colocates them, and the per-bucket merge defaults absent
            # records (singletons) to their own id.
            clusters = _attach_components(
                ingest_slim, comp,
                num_buckets=max(64, join_num_partitions,
                                int(ray.cluster_resources()
                                    .get('CPU', 8)) * 4))
        if checkpoint_dir:
            clusters = mf.write_stage(clusters, checkpoint_dir, 'clusters',
                                      fps['clusters'], sha_col='sha256')
        else:
            clusters = clusters.materialize()

    counters['num_records'] = clusters.count()
    _mark('clusters')

    # ---------------- invariant: sha256 preserved end-to-end ---------
    if checkpoint_dir:
        counters['sha256_invariant_ok'] = _manifest_invariant(checkpoint_dir)
    else:
        # ingest roll-up was started right after ingest materialized (it
        # overlaps the matches/clusters stages); only the clusters-side
        # roll-up remains on the critical path here
        counters['sha256_invariant_ok'] = (
            _xor_of(ingest_xor) == _xor_of(_block_xors(clusters)))
    _mark('invariant')
    if ingest_manifest:
        counters['ingest_rows'] = ingest_manifest['num_rows']

    return {'clusters': clusters, 'counters': counters, 'timings': timings}


# ------------------------------------------------------------- evaluation

def pairwise_f1(clusters_pd, truth_pd) -> dict:
    """Pairwise precision/recall/F1 of predicted vs true clusters over ALL
    record pairs, in closed form from the (truth cluster, component)
    contingency table: TP = Σ C(n_ij, 2), predicted = Σ C(n_.j, 2),
    true = Σ C(n_i., 2) — O(records), no pair set.

    clusters_pd: (repo, path, commit, component); truth_pd: (repo, path,
    commit, cluster_id)."""
    key = ['repo', 'path', 'commit']
    merged = truth_pd.merge(clusters_pd, on=key, validate='one_to_one')
    joint = merged.groupby(['cluster_id', 'component']).size()

    def pairs(counts) -> int:
        c = counts.to_numpy(np.int64)
        return int((c * (c - 1) // 2).sum())
    tp = pairs(joint)
    pred = pairs(joint.groupby(level='component').sum())
    true = pairs(joint.groupby(level='cluster_id').sum())
    precision = tp / pred if pred else 1.0
    recall = tp / true if true else 1.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {'precision': precision, 'recall': recall, 'f1': f1,
            'true_pairs': true, 'pred_pairs': pred}
