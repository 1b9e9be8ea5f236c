"""The north-star pipeline: blocking + pairwise scoring + transitive
clustering record linkage over a source-code-repos Parquet corpus
(BASELINE.json north_rule), resumable via per-stage lineage manifests.

    repos.parquet ─ footer gate: rows, content bytes vs the local caps
      ├─ local route: ONE Ray task on in-memory tables
      │    ingest (record_id, sha256)                      ─▶ ingest/
      │    └▶ local_match_pairs (stages/localjoin.py)      ─▶ matches/
      │    └▶ connected_components_numpy + _attach
      │       (stages/cluster.py)                          ─▶ clusters/
      │    past _CC_TASK_GATE edges: hand ingest + matches (or their
      │    checkpoint) to the Dataset route's clusters stage
      └─ Dataset route, its read cut into state/session.py
         ``block_count(rows)`` blocks (Ray's own split without footers or
         at the cpus*8 ceiling); the tokenize and Tsig postings stages
         follow the same rule, and no task asks for more CPUs than the
         session has:
           ingest (map_batches: record_id, sha256)         ─▶ ingest/
           └▶ self-join (tokenize → ordering → prefix postings + salting
              → candgen / verify shuffles)                 ─▶ matches/
           └▶ stages/cluster.py: connected_components (one task up to
              _CC_TASK_GATE edges, large-star/small-star rounds
              above) + attach_components (broadcast map or id-hash
              bucket shuffle)                              ─▶ clusters/

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
from ..stages import cluster
from ..stages.cluster import (_attach, attach_components,
                              connected_components,
                              connected_components_numpy)
from ..state import manifests as mf
from ..state.session import block_count, session_cpus
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


SLIM_COLS = ['record_id', 'repo', 'path', 'commit', 'sha256']
STAGES = ('ingest', 'matches', 'clusters')


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


def _route_gate(repos_path: str, gates: dict) -> dict:
    """Local-or-Dataset decision from Parquet footers alone: total rows
    against ``gates['row_cap']`` and the ``content`` column's uncompressed
    size, never above the Arrow bytes ``_fetch_local`` measures, against
    ``gates['byte_cap']`` (``localjoin._gates()``).  Returns the gate
    inputs, ``route`` and, for the Dataset route, the ``reason``."""
    gate = {'row_cap': gates['row_cap'], 'byte_cap': gates['byte_cap']}
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
                   gates: dict, cc_gate: int) -> dict:
    """The whole pipeline on in-memory tables; runs as ONE Ray task
    (``_LINKAGE_TASK``).  Same stage kernels, artifacts and manifest fields
    as the Dataset route, with no Dataset plan, read-back or skew actor:
    each stage is one ``pq.write_table`` file whose sha256 roll-up comes
    from the column in memory, and a completed stage is read back with
    ``pq.read_table``.  Returns ``{'counters', 'timings', 'clusters'}``
    (``clusters`` only without a checkpoint), or ``{'fallback': reason}``
    when the Dataset route must run: the fetched payload exceeds
    ``gates['byte_cap']`` (``'payload'``) or the match graph exceeds
    ``cc_gate`` edges (``'cc_gate'``, after ingest and matches are
    written).  Without a checkpoint to resume, a ``'cc_gate'`` fallback
    also carries the slim ``ingest`` table and the ``matches``, from which
    the Dataset route starts its clusters stage.  ``gates`` and
    ``cc_gate`` are read in the driver (``localjoin._gates()``,
    ``cluster._CC_TASK_GATE``)."""
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
            and ingest['content'].nbytes + 8 * len(ingest) \
            > gates['byte_cap']:
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
                                 'content', 'content', cfg, True, gates)
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
        return {'fallback': 'cc_gate'} if checkpoint_dir else {
            'fallback': 'cc_gate', 'ingest': ingest.select(SLIM_COLS),
            'matches': matches}
    nodes, comps = connected_components_numpy(
        matches['l_id'].to_numpy().astype(np.int64),
        matches['r_id'].to_numpy().astype(np.int64))
    clusters = _attach(ingest.select(SLIM_COLS), 'record_id', nodes, comps)
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
            salt_df_threshold, counter_name)
    finally:
        ctx.op_resource_reservation_enabled = prev_reserve


def _record_linkage_impl(repos_path, checkpoint_dir, threshold, tokenizer,
                         num_buckets, salt_df_threshold,
                         counter_name) -> dict:
    cfg = _JoinConfig('JACCARD', tokenizer or WhitespaceTokenizer(
                          return_set=True), threshold, '>=',
                      allow_empty=False, allow_missing=False,
                      out_sim_score=True, self_join=True,
                      num_buckets=num_buckets,
                      salt_df_threshold=salt_df_threshold,
                      counter_name=counter_name)
    from ..stages.localjoin import _gates
    gates = _gates()
    gate = _route_gate(repos_path, gates)
    files = gate.pop('files', None)
    counters: dict = {'route': gate.pop('route'), 'route_gate': gate}
    fp_in = mf.file_fingerprint(repos_path)
    fps = _fingerprints(fp_in)
    if all(mf.is_complete(checkpoint_dir, s, fps[s]) for s in STAGES):
        return _full_resume(checkpoint_dir, counters)
    handoff = None
    if counters['route'] == 'local':
        res = ray.get(_LINKAGE_TASK.remote(files, checkpoint_dir, fp_in, cfg,
                                           gates, cluster._CC_TASK_GATE))
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
        handoff = res if 'matches' in res else None
    # the join's own size probe would only repeat a decision made above
    cfg.skip_local_probe = gate.get('reason') == 'size' \
        or gate.get('fallback') == 'payload'
    return _dataset_linkage(repos_path, checkpoint_dir, cfg, fps, counters,
                            handoff)


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


def _dataset_linkage(repos_path, checkpoint_dir, cfg, fps, counters,
                     handoff=None) -> dict:
    """The pipeline as Ray Data plans: partitioned stage artifacts, a
    ``SkewStats`` actor for the join's task volumes, and
    ``connected_components`` + ``attach_components`` for the clusters.
    ``handoff``, the local task's ``'cc_gate'`` fallback, supplies the
    ingest and matches tables in place of their stages."""
    timings: dict = {}
    _t0 = time.time()

    def _mark(stage):
        nonlocal _t0
        timings[stage] = round(time.time() - _t0, 2)
        _t0 = time.time()

    # ---------------- stage 1: ingest --------------------------------
    if handoff:
        ingest = ray.data.from_arrow(handoff['ingest'])
    elif mf.is_complete(checkpoint_dir, 'ingest', fps['ingest']):
        ingest = mf.read_stage(checkpoint_dir, 'ingest')
        counters['ingest_resumed'] = True
    else:
        # ``block_count`` blocks from the footers' rows; without footers,
        # or at the cpus*8 ceiling, Ray's own split (an input that large
        # keeps the read plan it was tuned on)
        cpus, rows = session_cpus(), counters['route_gate'].get('rows')
        nblocks = None if rows is None else block_count(rows, cpus)
        raw = ray.data.read_parquet(
            repos_path,
            override_num_blocks=None if nblocks == cpus * 8 else nblocks)
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
    if handoff:
        matches = ray.data.from_arrow(handoff['matches'])
    elif mf.is_complete(checkpoint_dir, 'matches', fps['matches']):
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
        clusters = attach_components(ingest.select_columns(SLIM_COLS),
                                     'record_id',
                                     connected_components(matches))
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
