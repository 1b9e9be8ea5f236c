"""Size-gated local route of ``join.match_pairs_dataset`` — joins
(``mode='join'``) and the ``filter_tables`` candidates modes — and of
``record_linkage``'s local route, whose one Ray task calls
``local_match_pairs`` on its in-memory ingest table.

A Ray Data pipeline pays ~8 stage barriers (tokenize, vocabulary,
signature fold, postings shuffle, candgen, verify, expand) at 0.3-0.6 s
of fixed scheduling/exchange latency each — irrelevant at 100 TB, but it
makes a 10k x 10k join ~30x slower than the reference's single-process
loop (measured: 4.6 s warm vs 0.39 s).  This module runs the SAME stage
kernels on in-memory Arrow tables, fanning the heavy step out to plain
Ray tasks when the work is large enough to parallelize — no Dataset
machinery, so the whole call is kernel-bound.

One body, ``_local_pairs``, serves every mode: int token ids
(``_local_ranked``: one dictionary encode of both sides' tokens, one sort
of the dictionary into ranks, one sort of each row's ranks — the table
``TokenizeStage`` -> vocabulary -> ``RankPrefixStage`` builds on the
Dataset route, with no token string after the split) -> ``SigStage`` ->
Tsig fold (``_local_tsig``) -> ``SlimPostingsStage`` -> ``_np_candidates``
-> ``np.unique`` -> ``BroadcastVerify``, with ``cfg.mode`` selecting the
candgen gates and the verify predicate (``stages/slimjoin.py``):

* joins run it on the driver; ``record_linkage`` below the same caps runs
  the join inside the pipeline's one task on a ``pa.Table``, with its
  candgen / verify task volumes collected in process
  (``cfg.skew_volumes``);
* the candidates modes run it in ONE Ray task (``_CANDIDATES_TASK``), so
  their postings — every token, for ``overlap_candidates`` — never reach
  the driver.  When those postings would exceed the byte gate the task
  returns None and the caller takes the Dataset route.

Gate: both inputs at most ``DEFAULT_LOCAL_MAX_ROWS`` (1M) total rows and
``SSJ_LOCAL_MAX_BYTES`` (default 128 MB) of fetched payload, probed at
bounded cost (``len()`` for pandas and Arrow tables; ``ds.limit(cap)`` for
Datasets — the limit early-terminates streaming execution, so the probe
never scans more than the cap even on a 100 TB input).  Beyond the gate
the Dataset pipeline runs unchanged.  Tests pin either route through the
row cap (0 or 2**62).  ``SSJ_LOCAL_MAX_BYTES`` is the library's one
environment knob, read in ``_local_byte_cap`` and nowhere else.

Output parity: both routes rank with ``postings.dictionary_ranks`` and
break count ties as ``postings.hash_tie`` picks — by token hash for set
measure joins (candidate recall holds for ANY consistent global token
order by prefix-filter theory, and verification is exact), by token bytes
(the reference's order) for EDIT_DISTANCE joins, whose approximate recall
DOES depend on the order, and for the candidates modes, whose output IS
the order-dependent candidate set.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..core.comp_ops import COMP_OP_MAP
from ..state.session import session_cpus
from .postings import (MAX_GRID, _duck_hashes, _heavy_from_rc,
                       dictionary_ranks, hash_tie, rank_rows)
from .slimjoin import (BroadcastVerify, SigStage, SlimPostingsStage,
                       _fold_tsig, _np_candidates, _pairs_frame)
from .tokenize import token_ids

DEFAULT_LOCAL_MAX_ROWS = 1_000_000
# the row cap alone routes by CARDINALITY; the byte cap routes by PAYLOAD —
# a 600k-row corpus of 5-token strings (a few MB) joins fastest in-process,
# while 600k long documents (hundreds of MB of text) amortize the
# distributed pipeline's stage barriers and must go there.  Measured on the
# asv synthetic shape at 150k x 150k rows: local 1.8 s vs distributed 8.8 s
# (the distributed prep is ~4 s of fixed barrier latency at any size).
DEFAULT_LOCAL_MAX_BYTES = 128 * 1024 ** 2
# above these, candgen / verify fan out to plain Ray tasks (ms-latency)
_FANOUT_POSTINGS = 300_000
_FANOUT_PAIRS = 250_000
# candgen cost tracks per-bucket pair tests (sum of squared bucket sizes),
# not posting count: a 5-token prefix over 15k records is only 75k postings
# but can mean 10^8 pair tests concentrated in a few dense buckets
_FANOUT_WORK = 5_000_000
# bytes of one slim postings row (bucket, tok, sig, sz, pos: int32; kh:
# int16; hl, hr: int8) — the candidates modes' memory guard
_POSTING_ROW_BYTES = 24


def _local_byte_cap() -> int:
    """The local routes' payload cap, ``SSJ_LOCAL_MAX_BYTES``: the only
    environment read in the library, at call time."""
    return int(os.environ.get('SSJ_LOCAL_MAX_BYTES',
                              DEFAULT_LOCAL_MAX_BYTES))


def _gates() -> dict:
    """This module's gates, read at call time in the calling process and
    handed to the bodies that may run in a Ray task (a constant patched in
    the driver is not seen there): the row and byte caps, the fan-out
    (postings, pair tests, candidate pairs) thresholds and the OVERLAP
    counting route's (relative threshold, incidence cap)."""
    return {'row_cap': DEFAULT_LOCAL_MAX_ROWS, 'byte_cap': _local_byte_cap(),
            'fanout': (_FANOUT_POSTINGS, _FANOUT_WORK, _FANOUT_PAIRS),
            'count': (_OVERLAP_COUNT_REL, _OVERLAP_COUNT_MAX_INC)}


def _cheap_size_bytes(table) -> int | None:
    """Metadata-only size estimate, or None when computing it would
    execute the plan: available for materialized datasets and bare reads
    (parquet metadata).  Private-API access is fully guarded — any shape
    change in Ray just disables the shortcut."""
    try:
        plan = table._plan
        if plan.has_computed_output():
            return table.size_bytes()
        dag = plan._logical_plan.dag
        if type(dag).__name__ == 'Read' and not dag.input_dependencies:
            # read the estimate off the Read op's metadata DIRECTLY:
            # Dataset.size_bytes() on a non-computed plan falls back to
            # plan.execute() when the datasource reports no size — the
            # exact full read this shortcut exists to avoid.  size_bytes
            # is None for such sources, disabling the shortcut.
            return dag.infer_metadata().size_bytes
    except Exception:  # pragma: no cover - internal API drift
        return None
    return None


def _fetch_local(table, cols: list, cap: int,
                 byte_cap: int) -> pa.Table | None:
    """Probe-and-fetch in ONE bounded pass: materialize at most ``cap + 1``
    rows (and stop early past ``byte_cap`` bytes) of the needed columns;
    None means the input exceeds a gate and the caller must take the
    distributed pipeline.  ``limit()`` pushes into the streaming executor
    (and into parquet reads), so a 100 TB input pays O(cap) rows here —
    and a small input pays a single Dataset execution instead of a
    count() probe plus a separate to_pandas()."""
    cols = list(dict.fromkeys(cols))
    if isinstance(table, (pd.DataFrame, pa.Table)):
        if len(table) > cap:
            return None
        t = (table.select(cols) if isinstance(table, pa.Table) else
             pa.Table.from_pandas(table[cols].reset_index(drop=True),
                                  preserve_index=False))
        return None if t.nbytes > byte_cap else t
    # metadata shortcut: when a free full-table size estimate says the
    # input is so large that even a small column fraction must exceed the
    # byte gate, reject without reading anything — a 100 TB read must not
    # pay the O(byte_cap) probe below.  64x margin: size_bytes covers ALL
    # columns while we fetch only key+join, so only reject when the
    # projection could not plausibly fit.
    est = _cheap_size_bytes(table)
    if est is not None and byte_cap < 2 ** 61 and est > 64 * byte_cap:
        return None
    try:
        limited = table.select_columns(cols) if cap >= 2 ** 62 \
            else table.select_columns(cols).limit(cap + 1)
        parts, got = [], 0
        for b in limited.iter_batches(batch_size=None,
                                      batch_format='pyarrow'):
            t = pa.table(b)
            parts.append(t)
            got += t.nbytes
            if got > byte_cap:  # stop consuming the stream early
                return None
    except Exception:  # pragma: no cover - unreadable input → distributed
        return None
    if not parts:  # empty input: let the distributed path shape the schema
        return None
    t = pa.concat_tables(parts).combine_chunks()
    if len(t) > cap:
        return None
    return t


def _empty_pairs(mode: str = 'join') -> pd.DataFrame:
    return _pairs_frame(mode, np.array([], object), np.array([], object),
                        np.array([], np.float64))


def _local_empties(cfg, ranked_l: pa.Table, ranked_r: pa.Table) -> dict:
    """allow_empty inputs, mirroring join._empty_key_lists semantics."""
    empties: dict = {}
    if cfg.allow_empty and cfg.sim_type not in ('OVERLAP', 'EDIT_DISTANCE') \
            and cfg.mode != 'overlap_candidates':
        for name, t in (('l', ranked_l), ('r', ranked_r)):
            empties[name] = t['key'].filter(pc.equal(t['sz'], 0)).to_pylist()
    return empties


def _local_lut(dictionary: pa.Array, df: np.ndarray, cfg) -> tuple:
    """Vocabulary + ordering artifact over the one token dictionary of both
    sides → (rank of each token id, heavy-token table of the ids with
    ``df >= cfg.salt_df_threshold``), equal counts ordered as
    ``hash_tie`` picks."""
    rank = dictionary_ranks(dictionary, df, _duck_hashes(dictionary)
                            if hash_tie(cfg) else None)
    hot = np.flatnonzero(df >= cfg.salt_df_threshold)
    heavy = (_heavy_from_rc(np.stack([rank[hot], df[hot]]),
                            cfg.salt_df_threshold, MAX_GRID)
             if len(hot) else {})
    return rank, heavy


def _local_ranked(sides: list, cfg) -> tuple:
    """The ``RankPrefixStage`` table, (key, sz, ranks, plen[, s]), of each
    ``(table, key_attr, join_attr)`` side, straight from int token ids →
    (tables, heavy).  Rows whose join value is null drop, as
    ``TokenizeStage`` drops them; every side encodes against one dictionary
    (``token_ids``), ranked once by ``_local_lut``, so no token string
    outlives the split."""
    keys, cols = [], []
    for arr, key_attr, join_attr in sides:
        if arr[join_attr].null_count:
            arr = arr.filter(arr[join_attr].is_valid())
        col = arr[join_attr]
        if pa.types.is_null(col.type):  # all null: empty after the drop
            col = col.cast(pa.string())
        keys.append(arr[key_attr])
        cols.append(col)
    per_side, dictionary, df = token_ids(cols, cfg.tokenizer)
    rank, heavy = _local_lut(dictionary, df, cfg)
    # overlap_candidates posts every token: OVERLAP_COEFFICIENT's prefix is
    # the whole token list
    prefix_type = ('OVERLAP_COEFFICIENT' if cfg.mode == 'overlap_candidates'
                   else cfg.sim_type)
    tables = [rank_rows(key, lens,
                        np.repeat(np.arange(len(lens), dtype=np.int64), lens),
                        rank[ids], prefix_type, cfg.threshold, cfg.qval,
                        col if cfg.keep_string else None)
              for key, col, (lens, ids) in zip(keys, cols, per_side)]
    return tables, heavy


def _local_tsig(tagged: pa.Table, same_relation: bool, keep_string: bool):
    """The one-shard Tsig: fold the tagged records into the in-process
    signature table + memberships (``slimjoin._fold_tsig``, the fold of
    every Dataset-route shard builder) → ``(bc, tsig_tbl)``."""
    if len(tagged) == 0:
        return None, None
    return _fold_tsig(tagged, tagged, same_relation, keep_string)


def _candgen_chunk(tbl: pa.Table, cfg, same_relation: bool) -> np.ndarray:
    """Candidate pair64s for one postings slice (whole buckets only)."""
    sa, sb = _np_candidates(tbl, cfg.sim_type, cfg.threshold, same_relation,
                            mode=cfg.mode)
    if len(sa) == 0:
        return np.empty(0, np.int64)
    return np.unique((sa << np.int64(32)) | sb)


# ---------------------------------------------------------------------------
# absolute-threshold OVERLAP counting kernel (VERDICT r4 #3)

# enumeration / expansion slab for the counting kernel (~60 B/pair of
# transient arrays live at once)
_COUNT_SLAB = 8_000_000


# OVERLAP joins whose threshold is at most this fraction of the mean record
# size take the counting kernel (against the reference's overlap join on
# its synthetic o>=3 shape: 10k 0.51x -> 0.96x, 150k 0.60x -> 1.45x); 0
# turns the route off
_OVERLAP_COUNT_REL = 0.8
# ... unless the token-incidence volume the kernel enumerates passes this
# cap (a stopword-like token makes it quadratic; candgen grid-salts it)
_OVERLAP_COUNT_MAX_INC = 2e8


def _overlap_count_route(cfg, bc, rel: float, max_inc: float) -> bool:
    """Route OVERLAP joins with a LOW relative threshold to the counting
    kernel: prefix filtering prunes a fraction ≈ (t-1)/n of each record's
    postings, so at t/n below ~0.5 candidate generation enumerates nearly
    the full token-incidence volume anyway — counting shared tokens
    directly (the reference's full-inverted-index scan,
    ``/root/reference/py_stringsimjoin/join/overlap_join_py.py`` →
    ``index/inverted_index.py`` probe loop, in batched numpy form) skips
    the per-pair verify re-intersection entirely."""
    if cfg.sim_type != 'OVERLAP' or cfg.mode != 'join':
        return False
    if rel <= 0:
        return False
    w = (np.diff(bc.l_key_off) + np.diff(bc.r_key_off)).astype(np.float64)
    tot = float(w.sum())
    if tot == 0:
        return False
    mean_sz = float((bc.sz * w).sum()) / tot
    if mean_sz <= 0 or float(cfg.threshold) / mean_sz > rel:
        return False
    # incidence cap: the counting kernel enumerates Σ_tok df_L·df_R pairs
    # with NO heavy-token mitigation — a stopword-like token (df ≈ n)
    # makes that quadratic, where the candgen path grid-salts it.  One
    # cheap pass estimates the volume and falls back past the cap.
    toks, sis, _nd = _sig_token_postings(bc)
    hl = np.diff(bc.l_key_off) > 0
    hr = np.diff(bc.r_key_off) > 0
    tl = np.sort(toks[hl[sis]])
    tr = toks[hr[sis]]
    inc = float((np.searchsorted(tl, tr, 'right')
                 - np.searchsorted(tl, tr, 'left')).sum())
    return inc <= max_inc


def _sig_token_postings(bc) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tok, si) incidence over each signature's DISTINCT tokens (OVERLAP
    join verifies |uniq ∩ uniq| — set semantics even for bag inputs),
    plus the per-signature distinct-token count."""
    nsig = len(bc.sigs)
    ro, rf = bc.rank_off, bc.rank_flat
    lens = np.diff(ro)
    pos_in = (np.arange(len(rf), dtype=np.int64)
              - np.repeat(ro[:-1], lens))
    first = pos_in == 0
    ne = np.empty(len(rf), bool)
    if len(rf):
        ne[0] = True
        ne[1:] = rf[1:] != rf[:-1]
    keep = first | ne
    toks = rf[keep]
    sis = np.repeat(np.arange(nsig, dtype=np.int64), lens)[keep]
    return toks, sis, np.bincount(sis, minlength=nsig)


def _overlap_count_task(bc_or_ref, lpost_or_ref, toksR, sisR,
                        idc, id_cnt, same_rel, threshold, comp_op,
                        canonical: bool) -> pd.DataFrame:
    """Count-and-expand one probe slice: emit a pair64 per (R-incidence,
    matching L-posting), one np.unique turns occurrences into exact
    overlap counts (the count IS the score — no verify pass), filter by
    comp_op, expand memberships.  Each (L, R) signature pair lives in
    exactly ONE task (the one owning R), so tasks need no cross merge —
    the same probe-side split the reference's joblib path uses."""
    bc = ray.get(bc_or_ref) if isinstance(bc_or_ref, ray.ObjectRef) \
        else bc_or_ref
    tokL, siL = (ray.get(lpost_or_ref)
                 if isinstance(lpost_or_ref, ray.ObjectRef)
                 else lpost_or_ref)
    lstart = np.searchsorted(tokL, toksR, 'left')
    cnt = np.searchsorted(tokL, toksR, 'right') - lstart
    rows = np.flatnonzero(cnt > 0)
    parts = []
    if len(rows):
        cnt_j = cnt[rows]
        csum = np.concatenate(([0], np.cumsum(cnt_j)))
        lo = 0
        while lo < len(rows):
            hi = int(np.searchsorted(csum, csum[lo] + _COUNT_SLAB, 'left'))
            hi = min(max(hi, lo + 1), len(rows))
            rj, cj = rows[lo:hi], cnt_j[lo:hi]
            seg = csum[lo:hi] - csum[lo]
            lo = hi
            ji = np.repeat(rj, cj)
            d = np.arange(len(ji), dtype=np.int64) - np.repeat(seg, cj)
            a = siL[lstart[ji] + d]           # oriented (L, R)
            b = sisR[ji]
            parts.append((a << np.int64(32)) | b)
    if parts:
        pair64, counts = np.unique(np.concatenate(parts),
                                   return_counts=True)
        counts = counts.astype(np.int64)
        ia = pair64 >> np.int64(32)
        ib = pair64 & np.int64(0xFFFFFFFF)
    else:
        ia = ib = counts = np.empty(0, np.int64)
    if same_rel:
        # same-relation enumeration emits self pairs too (each signature
        # is in both posting streams); identity is added in closed form
        # below, so drop the enumerated ones
        keep = ia != ib
        ia, ib, counts = ia[keep], ib[keep], counts[keep]
    if canonical:
        # self-join output: keep one orientation per unordered pair (the
        # mirror lives in the task owning the other signature)
        keep = ia < ib
        ia, ib, counts = ia[keep], ib[keep], counts[keep]
    if len(idc):
        # identity pairs in closed form: overlap(sig, sig) = n_distinct
        ia = np.concatenate([ia, idc])
        ib = np.concatenate([ib, idc])
        counts = np.concatenate([counts, id_cnt])
    scores = counts.astype(np.float64)
    keep = COMP_OP_MAP[comp_op](scores, threshold)
    ia, ib, scores = ia[keep], ib[keep], scores[keep]
    return _expand_sig_pairs(bc, ia, ib, scores, canonical)


def _expand_sig_pairs(bc, ia, ib, scores, canonical: bool) -> pd.DataFrame:
    """CSR membership expansion of matched signature pairs — the same
    slabbed expansion as ``BroadcastVerify.__call__``'s tail.  Oriented
    pairs expand plainly (both orientations are present in the pair
    stream); ``canonical`` applies the self-join upper-triangle rule."""
    if len(ia) == 0:
        return _empty_pairs()
    nl = (bc.l_key_off[ia + 1] - bc.l_key_off[ia]).astype(np.int64)
    nr = (bc.r_key_off[ib + 1] - bc.r_key_off[ib]).astype(np.int64)
    tot = nl * nr
    cum = np.concatenate(([0], np.cumsum(tot)))
    total = int(cum[-1])
    offA = bc.l_key_off[ia]
    offB = bc.r_key_off[ib]
    parts_l, parts_r, parts_s = [], [], []
    for s in range(0, total, _COUNT_SLAB):
        e = min(s + _COUNT_SLAB, total)
        flat = np.arange(s, e, dtype=np.int64)
        pair_idx = np.searchsorted(cum, flat, 'right') - 1
        off = flat - cum[pair_idx]
        nr_p = nr[pair_idx]
        out_l = bc.l_key_flat[offA[pair_idx] + off // nr_p]
        out_r = bc.r_key_flat[offB[pair_idx] + off % nr_p]
        out_s = scores[pair_idx]
        if canonical:
            ident = (ia == ib)[pair_idx]
            lo = np.minimum(out_l, out_r)
            hi = np.maximum(out_l, out_r)
            keep = (lo < hi) & (~ident | (out_l < out_r))
            out_l, out_r, out_s = lo[keep], hi[keep], out_s[keep]
        parts_l.append(out_l)
        parts_r.append(out_r)
        parts_s.append(out_s)
    return pd.DataFrame({
        'l_key': np.concatenate(parts_l) if parts_l else
        np.empty(0, object),
        'r_key': np.concatenate(parts_r) if parts_r else
        np.empty(0, object),
        '_sim_score': np.concatenate(parts_s) if parts_s else
        np.empty(0, np.float64)})


def _overlap_count_pairs(bc, cfg, same_relation: bool) -> pd.DataFrame:
    """Exact OVERLAP join via token-incidence counting (the reference's
    full-inverted-index scan, ``join/overlap_join_py.py`` →
    ``index/inverted_index.py``, in batched numpy form at SIGNATURE
    granularity): work = Σ_tok df_L·df_R pair emissions + one grouped
    count.  The probe side splits into cost-balanced signature slices
    fanned out as plain Ray tasks — a pair lives in exactly one slice,
    so results concatenate with no merge."""
    toks, sis, n_dist = _sig_token_postings(bc)
    hl = np.diff(bc.l_key_off) > 0
    hr = np.diff(bc.r_key_off) > 0
    canonical = bool(same_relation and cfg.self_join)

    if same_relation:
        tokL, siL = toks, sis            # all signatures are both sides
        rmask = np.ones(len(toks), bool)
    else:
        lm = hl[sis]
        tokL, siL = toks[lm], sis[lm]
        rmask = hr[sis]
    oL = np.argsort(tokL, kind='stable')
    tokL, siL = tokL[oL], siL[oL]
    toksR, sisR = toks[rmask], sis[rmask]
    if same_relation:
        idc_all = np.arange(len(bc.sigs), dtype=np.int64)
        idcnt_all = n_dist
    else:
        idc_all = idcnt_all = np.empty(0, np.int64)
        # two-table identity (same signature on both sides) arises from
        # the enumeration itself — no closed form needed

    # per-R-incidence cost = df_L of its token; per-signature probe cost
    lstart = np.searchsorted(tokL, toksR, 'left')
    inc_cost = np.searchsorted(tokL, toksR, 'right') - lstart
    nsig = len(bc.sigs)
    sig_cost = np.bincount(sisR, weights=inc_cost.astype(np.float64),
                           minlength=nsig)
    total_cost = float(sig_cost.sum())

    cpus = session_cpus(default=1)
    nchunks = int(min(max(1, cpus), max(1, total_cost // 2_000_000))) \
        if cpus > 1 else 1

    if nchunks <= 1:
        df = _overlap_count_task(bc, (tokL, siL), toksR, sisR,
                                 idc_all, idcnt_all, same_relation,
                                 cfg.threshold, cfg.comp_op, canonical)
    else:
        # contiguous signature ranges balanced by cumulative probe cost
        csum = np.cumsum(sig_cost)
        bounds = [int(np.searchsorted(csum, total_cost * k / nchunks))
                  for k in range(1, nchunks)]
        edges = [0] + bounds + [nsig]
        bc_ref = ray.put(bc)
        lp_ref = ray.put((tokL, siL))
        rem = ray.remote(num_cpus=1)(_overlap_count_task)
        refs = []
        for a, b in zip(edges[:-1], edges[1:]):
            if a >= b:
                continue
            m = (sisR >= a) & (sisR < b)
            im = (idc_all >= a) & (idc_all < b)
            if not m.any() and not im.any():
                continue
            refs.append(rem.remote(bc_ref, lp_ref, toksR[m], sisR[m],
                                   idc_all[im], idcnt_all[im],
                                   same_relation,
                                   cfg.threshold, cfg.comp_op, canonical))
        dfs = ray.get(refs)
        df = (pd.concat(dfs, ignore_index=True) if dfs
              else _empty_pairs())

    if cfg.counter_name:
        # best-effort telemetry: signature-level token-incidence volume
        # (the counting kernel has no separate verify stage to count)
        try:
            ray.get_actor(cfg.counter_name).add.remote(int(inc_cost.sum()))
        except ValueError:
            pass
    return df


def _bucket_chunks(buckets: np.ndarray, cpus: int, min_postings: int,
                   min_work: int):
    """Fan-out plan over whole buckets: ``(ntasks, task index per
    posting)``, or None when the work stays in one process (one CPU, or at
    most ``min_postings`` postings and ``min_work`` pair tests).  Greedy
    LPT: heaviest buckets first into the lightest task bin, so one dense
    bucket can't serialize the whole fan-out."""
    if cpus <= 1:
        return None
    uniq, counts = np.unique(buckets, return_counts=True)
    work = counts.astype(np.int64) ** 2  # per-bucket pair-test upper bound
    if len(buckets) <= min_postings and int(work.sum()) <= min_work:
        return None
    ntasks = min(cpus, len(uniq))
    bins = np.zeros(ntasks, np.int64)
    assign = np.empty(len(uniq), np.int32)
    for i in np.argsort(work)[::-1]:
        j = int(np.argmin(bins))
        bins[j] += work[i]
        assign[i] = j
    return ntasks, assign[np.searchsorted(uniq, buckets)]


def _local_pairs(arr_l, arr_r, l_key_attr, r_key_attr, l_join_attr,
                 r_join_attr, cfg, gates: dict):
    """Local body of every mode → (pairs, empties), or None when a
    candidates mode's postings would exceed ``gates['byte_cap']`` (the
    caller then takes the Dataset route).  The Dataset route's stages,
    salting, side rule and kernels, in process; candgen / verify fan out to
    up to ``cpus`` plain tasks past the ``gates['fanout']`` thresholds.
    ``gates`` is ``_gates()`` as the caller read it in its own process.
    ``arr_r is None`` means the same relation."""
    same_relation = arr_r is None
    sides = [(arr_l, l_key_attr, l_join_attr)]
    if not same_relation:
        sides.append((arr_r, r_key_attr, r_join_attr))
    tables, heavy = _local_ranked(sides, cfg)
    sig = SigStage(hash_string=cfg.keep_string)
    ranked_l = sig(tables[0])
    ranked_r = ranked_l if same_relation else sig(tables[1])
    empties = _local_empties(cfg, ranked_l, ranked_r)
    volumes = cfg.skew_volumes
    # the Dataset route's side rule (join.match_pairs_dataset)
    one_side = same_relation and cfg.mode != 'position_candidates'

    def tag(t: pa.Table, side: int) -> pa.Table:
        return t.append_column(
            'side', pa.array(np.full(len(t), side, np.int8)))

    tagged = (tag(ranked_l, 0) if one_side else
              pa.concat_tables([tag(ranked_l, 0), tag(ranked_r, 1)]))
    bc, tsig_tbl = _local_tsig(tagged, one_side, cfg.keep_string)
    if bc is None:
        return _empty_pairs(cfg.mode), empties
    if cfg.mode != 'join':
        # memory guard: the slim postings of the distinct signatures
        rows = int(np.minimum(bc.plen, np.diff(bc.rank_off)).sum())
        if rows * _POSTING_ROW_BYTES > gates['byte_cap']:
            return None

    if _overlap_count_route(cfg, bc, *gates['count']):
        return _overlap_count_pairs(bc, cfg, same_relation), empties

    nb = int(min(cfg.num_buckets, max(32, len(tsig_tbl) // 4 + 16)))
    postings = SlimPostingsStage(nb, heavy or None,
                                 emit_sides=not one_side)(tsig_tbl)

    cpus = session_cpus(default=0)
    fanout = gates['fanout']
    chunks = _bucket_chunks(postings['bucket'].to_numpy(), cpus,
                            fanout[0], fanout[1])
    if chunks is not None:
        ntasks, chunk_of = chunks
        rem = ray.remote(num_cpus=1)(_candgen_chunk)
        refs = [rem.remote(postings.filter(pa.array(chunk_of == i)), cfg,
                           one_side)
                for i in range(ntasks)]
        parts = [p for p in ray.get(refs) if len(p)]
        volumes.setdefault('candgen', []).extend(len(p) for p in parts)
        pair64 = (np.unique(np.concatenate(parts))
                  if parts else np.empty(0, np.int64))
    else:
        pair64 = _candgen_chunk(postings, cfg, one_side)
        volumes.setdefault('candgen', []).append(len(pair64))
    if len(pair64) == 0:
        return _empty_pairs(cfg.mode), empties

    if len(pair64) > fanout[2] and cpus > 1:
        bc_ref = ray.put(bc)
        rem = ray.remote(num_cpus=1)(_verify_chunk)
        chunks = [c for c in np.array_split(pair64, cpus) if len(c)]
        outs = ray.get([rem.remote(bc_ref, c, cfg, one_side)
                        for c in chunks])
    else:
        outs = [_verify_chunk(bc, pair64, cfg, one_side)]
    volumes.setdefault('verify', []).extend(n for _, n in outs)
    return pd.concat([d for d, _ in outs], ignore_index=True), empties


_CANDIDATES_TASK = ray.remote(num_cpus=1)(_local_pairs)


def _verify_chunk(bc, pair64: np.ndarray, cfg,
                  same_relation: bool) -> tuple:
    """(pairs, record pairs verified) for one slice of candidates; the
    table is the one shard, based at si 0."""
    vf = BroadcastVerify([bc], [0], cfg.sim_type, cfg.threshold,
                         cfg.comp_op, cfg.qval, same_relation=same_relation,
                         self_join=cfg.self_join, round_score=True,
                         counter_name=cfg.counter_name, mode=cfg.mode)
    df = vf(pa.table({'pair64': pa.array(pair64, pa.int64())}))
    return df, vf.checked


def local_match_pairs(ltable, rtable, l_key_attr, r_key_attr,
                      l_join_attr, r_join_attr, cfg,
                      same_relation: bool, gates: dict | None = None):
    """Local route → (pairs DataFrame, empties dict), or None when either
    input exceeds the size gate (caller falls through to the Dataset
    pipeline).  Joins run ``_local_pairs`` in-process; the candidates modes
    run it in one Ray task (``_CANDIDATES_TASK``).  Exact-same kernels and
    therefore exact-same output as the Dataset pipeline (pinned by
    tests/test_local_join.py and tests/test_local_filters.py against
    Dataset-route runs).  ``gates`` defaults to ``_gates()`` read here; a
    caller running inside a task passes the driver's.  A join appends its
    per-task candgen / verify volumes to ``cfg.skew_volumes``, in process:
    the ``skewstats.summarize`` input, the numbers the Dataset route's
    kernels report to a ``SkewStats`` actor."""
    gates = gates or _gates()
    cap, byte_cap = gates['row_cap'], gates['byte_cap']
    arr_l = _fetch_local(ltable, [l_key_attr, l_join_attr], cap, byte_cap)
    if arr_l is None:
        return None
    arr_r = None  # the same relation
    if not same_relation:
        arr_r = _fetch_local(rtable, [r_key_attr, r_join_attr],
                             cap - len(arr_l), byte_cap - arr_l.nbytes)
        if arr_r is None:
            return None
    if cfg.mode != 'join':
        # the candidates modes run in one task: their postings never reach
        # the driver
        return ray.get(_CANDIDATES_TASK.remote(
            arr_l, arr_r, l_key_attr, r_key_attr, l_join_attr, r_join_attr,
            cfg, gates))
    return _local_pairs(arr_l, arr_r, l_key_attr, r_key_attr, l_join_attr,
                        r_join_attr, cfg, gates)
