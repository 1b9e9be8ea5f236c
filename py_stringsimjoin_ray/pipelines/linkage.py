"""The north-star pipeline: blocking + pairwise scoring + transitive
clustering record linkage over a source-code-repos Parquet corpus
(BASELINE.json north_rule), resumable via per-stage lineage manifests.

    repos.parquet ─ingest(map_batches: record_id, sha256)─▶ ingest/
      └▶ self-join (tokenize → ordering → prefix postings + salting →
         groupby(bucket) pair-gen/verify)              ─▶ matches/
      └▶ connected components (large-star/small-star)  ─▶ clusters/
           (+ singleton completion via groupby-min, sha256 carried through
            a hash join back to the ingest artifact)

Each stage writes partitioned Parquet + ``_manifest.json`` (input
fingerprint, row counts, sha256 roll-up); a re-run skips stages whose
manifest matches — kill the driver mid-run and the next run picks up after
the last completed artifact.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..core.tokenizers import WhitespaceTokenizer
from ..stages.cluster import connected_components
from ..state import manifests as mf
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


@ray.remote
def _cc_arrays(*match_blocks):
    """Remote connected-components build over match blocks: vectorized
    min-label propagation; returns (nodes_sorted, component) numpy arrays —
    the broadcast component map for the attach stage."""
    from ..stages.cluster import connected_components_numpy
    import pandas as pd

    def cols(b):
        return b.columns if isinstance(b, pd.DataFrame) else b.column_names

    def col(b, name):
        v = b[name]
        return (v.to_numpy() if isinstance(b, pd.DataFrame)
                else v.to_numpy(zero_copy_only=False))

    # blocks may be Arrow or pandas; empty pairgen groups can yield
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
        import pyarrow as _pa
        nodes_parts, comp_parts = [], []
        for b in comp.iter_batches(batch_format='pyarrow', batch_size=None):
            t = _pa.table(b)
            nodes_parts.append(t['node'].to_numpy(zero_copy_only=False)
                               .astype(np.int64))
            comp_parts.append(t['component'].to_numpy(zero_copy_only=False)
                              .astype(np.int64))
        nodes = (np.concatenate(nodes_parts) if nodes_parts
                 else np.empty(0, np.int64))
        comps = (np.concatenate(comp_parts) if comp_parts
                 else np.empty(0, np.int64))
        order = np.argsort(nodes, kind='stable')
        ref = ray.put((nodes[order], comps[order]))

        def attach(b: pa.Table) -> pa.Table:
            nd, cp = ray.get(ref)
            ids = b['record_id'].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if len(nd):
                pos = np.minimum(np.searchsorted(nd, ids), len(nd) - 1)
                hit = nd[pos] == ids
                out = np.where(hit, cp[pos], ids)
            else:
                out = ids
            return b.append_column('component',
                                   pa.array(out.astype(np.int64)))
        attach.__name__ = 'attach_components_broadcast'
        return ingest_slim.map_batches(attach, batch_format='pyarrow')
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
        if len(rid):
            order = np.argsort(rid, kind='stable')
            rid, rcomp = rid[order], rcomp[order]
            pos = np.minimum(np.searchsorted(rid, lid), len(rid) - 1)
            vals = np.where(rid[pos] == lid, rcomp[pos], lid)
        else:
            vals = lid
        sel = pa.array(np.flatnonzero(lmask))
        out = tbl.select(['record_id', 'repo', 'path', 'commit',
                          'sha256']).take(sel)
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
    import time
    skew: dict = {}
    for i in range(polls):
        prev, skew = skew, summary()
        if ('candgen' in skew and 'verify' in skew) \
                or (skew and skew == prev):
            break
        if i + 1 < polls:
            time.sleep(wait_s)
    return skew


def record_linkage(repos_path: str, checkpoint_dir: str | None = None,
                   threshold: float = 0.7, tokenizer=None,
                   num_buckets: int = 4096, salt_df_threshold: int = 300,
                   join_num_partitions: int = 16,
                   counter_name: str | None = None) -> dict:
    """Run the full pipeline; returns a result dict with the cluster Dataset
    (lazy), per-stage counters, and the sha256 invariant check.

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
    import time as _time
    tokenizer = tokenizer or WhitespaceTokenizer(return_set=True)
    counters: dict = {}
    timings: dict = {}
    _t0 = _time.time()

    def _mark(stage):
        nonlocal _t0
        timings[stage] = round(_time.time() - _t0, 2)
        _t0 = _time.time()

    # ---------------- stage 1: ingest --------------------------------
    fp_in = mf.file_fingerprint(repos_path)
    if mf.is_complete(checkpoint_dir, 'ingest', fp_in):
        ingest = mf.read_stage(checkpoint_dir, 'ingest')
        counters['ingest_resumed'] = True
    else:
        raw = ray.data.read_parquet(repos_path)
        ingest = raw.map_batches(_ingest_batch, batch_format='pyarrow')
        if checkpoint_dir:
            ingest = mf.write_stage(ingest, checkpoint_dir, 'ingest', fp_in,
                                    sha_col='sha256')
        else:
            ingest = ingest.materialize()
    ingest_manifest = (mf.load_manifest(checkpoint_dir, 'ingest')
                       if checkpoint_dir else None)
    fp_ingest = fp_in + ':ingest'
    # the ingest-side sha256 roll-up depends only on the materialized
    # ingest blocks — start it now so it runs UNDER the matches/clusters
    # stages instead of serializing at the end (checkpointed runs read the
    # rolled-up manifest instead).  Daemon thread, NOT a ThreadPoolExecutor:
    # pool threads are joined at interpreter exit, so a failure in a later
    # stage would block shutdown on a full-corpus scan nobody needs.
    ingest_xor = None
    if not checkpoint_dir:
        import threading
        ingest_xor = {'done': threading.Event(), 'value': None}

        def _roll(box=ingest_xor, ds_=ingest):
            try:
                box['value'] = mf.sha256_xor_rollup(ds_)
            finally:
                box['done'].set()
        threading.Thread(target=_roll, daemon=True,
                         name='ssj-ingest-xor').start()
    _mark('ingest')

    # ---------------- stage 2: matches (self-join) -------------------
    if mf.is_complete(checkpoint_dir, 'matches', fp_ingest):
        matches = mf.read_stage(checkpoint_dir, 'matches')
        counters['matches_resumed'] = True
    else:
        cfg = _JoinConfig('JACCARD', tokenizer, threshold, '>=',
                          allow_empty=False, allow_missing=False,
                          out_sim_score=True, self_join=True,
                          num_buckets=num_buckets,
                          salt_df_threshold=salt_df_threshold,
                          counter_name=counter_name)
        # per-task skew roll-up (VERDICT r4 #7): the candgen/verify kernels
        # report their task volumes to this actor; the summary lands in the
        # matches manifest so a skewed corpus is diagnosable from the
        # checkpoint dir alone
        skew_actor = None
        if checkpoint_dir:
            import uuid as _uuid

            from ..state.skewstats import SkewStats
            cfg.skew_name = f'ssj_skew_{_uuid.uuid4().hex[:8]}'
            skew_actor = SkewStats.options(name=cfg.skew_name).remote()
        pairs, _ = match_pairs_dataset(ingest, ingest, 'record_id',
                                       'record_id', 'content', 'content', cfg)
        if isinstance(pairs, pd.DataFrame):
            # small corpora ride the local fast path (stages/localjoin.py)
            pairs = ray.data.from_pandas(pairs)

        def cast_pairs(batch: pa.Table) -> pa.Table:
            return pa.table({
                'l_id': pa.compute.cast(batch['l_key'], pa.int64()),
                'r_id': pa.compute.cast(batch['r_key'], pa.int64()),
                'score': pa.compute.cast(batch['_sim_score'], pa.float64())})
        matches = pairs.map_batches(cast_pairs, batch_format='pyarrow')
        if checkpoint_dir:
            matches = mf.write_stage(matches, checkpoint_dir, 'matches',
                                     fp_ingest)
            if skew_actor is not None:
                # the write above forced execution; reports are
                # fire-and-forget, so poll briefly for in-flight adds
                skew = _poll_skew(
                    lambda: ray.get(skew_actor.summary.remote()))
                if skew:
                    mf.update_manifest_counters(
                        checkpoint_dir, 'matches',
                        {f'skew_{st}_{k}': v
                         for st, d in skew.items() for k, v in d.items()})
                    counters['skew'] = skew
                ray.kill(skew_actor)
        else:
            matches = matches.materialize()
    counters['num_matches'] = matches.count()
    _mark('matches')

    # ---------------- stage 3: clusters ------------------------------
    fp_matches = fp_ingest + ':matches'
    if mf.is_complete(checkpoint_dir, 'clusters', fp_matches):
        clusters = mf.read_stage(checkpoint_dir, 'clusters')
        counters['clusters_resumed'] = True
    else:
        ingest_slim = ingest.select_columns(
            ['record_id', 'repo', 'path', 'commit', 'sha256'])
        import os as _os2
        cc_gate = int(_os2.environ.get('SSJ_CC_TASK_GATE', '32000000'))
        if counters['num_matches'] <= cc_gate:
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
            comp_ref = _cc_arrays.remote(*refs)

            def attach(b: pa.Table) -> pa.Table:
                nd, cp = ray.get(comp_ref)
                ids = b['record_id'].to_numpy(zero_copy_only=False) \
                    .astype(np.int64)
                if len(nd):
                    pos = np.minimum(np.searchsorted(nd, ids), len(nd) - 1)
                    hit = nd[pos] == ids
                    out = np.where(hit, cp[pos], ids)
                else:
                    out = ids
                return b.append_column('component',
                                       pa.array(out.astype(np.int64)))
            attach.__name__ = 'attach_components_broadcast'
            clusters = ingest_slim.map_batches(attach,
                                               batch_format='pyarrow')
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
                                      fp_matches, sha_col='sha256')
        else:
            clusters = clusters.materialize()

    counters['num_records'] = clusters.count()
    _mark('clusters')

    # ---------------- invariant: sha256 preserved end-to-end ---------
    if checkpoint_dir:
        m_in = mf.load_manifest(checkpoint_dir, 'ingest')
        m_out = mf.load_manifest(checkpoint_dir, 'clusters')
        counters['sha256_invariant_ok'] = (
            m_in and m_out and m_in.get('sha256_xor') == m_out.get('sha256_xor'))
    else:
        # ingest roll-up was started right after ingest materialized (it
        # overlaps the matches/clusters stages); only the clusters-side
        # scan remains on the critical path here
        out_xor = mf.sha256_xor_rollup(clusters)
        ingest_xor['done'].wait()
        counters['sha256_invariant_ok'] = (ingest_xor['value'] is not None
                                           and ingest_xor['value'] == out_xor)
    _mark('invariant')
    if ingest_manifest:
        counters['ingest_rows'] = ingest_manifest['num_rows']

    return {'clusters': clusters, 'counters': counters, 'timings': timings}


# ------------------------------------------------------------- evaluation

def pairwise_f1(clusters_pd, truth_pd, blocking_tokens_of=None) -> dict:
    """Pairwise precision/recall/F1 of predicted vs true clusters over
    labeled pairs that share a blocking key (BASELINE.md §2).

    clusters_pd: (repo, path, commit, component); truth_pd: (repo, path,
    commit, cluster_id).  The labeled-pair universe is all record pairs
    sharing ≥1 blocking token (default: a whitespace token of the record's
    truth cluster — here we use pairs from either clustering, which
    over-covers the universe and therefore can only lower the score)."""
    import pandas as pd
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
