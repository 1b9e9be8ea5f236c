"""Slim-postings pipeline — the one candidate kernel of every join
(``mode='join'``) and of the ``filter_tables`` candidates modes
(``prefix_candidates``, ``position_candidates``, ``overlap_candidates``),
on the local route (``stages/localjoin.py``) and the Dataset route alike:

    ranked records ──sig(map_batches)──▶ signature-dedup
      ├─▶ Tsig  (one row per distinct signature: sig, sz, ranks[, s],
      │          member counts)          — ONE rank-array shuffle, total O(n)
      ├─▶ Tmem  (sig, side, key)         — slim membership, no rank arrays
      ├─▶ postings from Tsig: (bucket, tok, sig, sz, pos, kh, hl, hr)
      │          ≈ 24 bytes/posting, O(p) per DISTINCT record  ── the one
      │          candidate-generation shuffle, rank-free
      ├─▶ candgen (``_np_candidates``): per (bucket, token) group triangle
      │          enumeration; size bounds + positional gate + salted-grid
      │          role rule → candidate signature pairs
      ├─▶ verify (``BroadcastVerify``): global ``np.unique`` over the pairs,
      │          then the mode's predicate on both rank arrays
      └─▶ expand: matched sig pairs × Tmem memberships → record pairs

``cfg.mode`` is the one filter-predicate parameter of candgen and verify.
A join prunes candidates by size and position and verifies the exact
similarity; ``position_candidates`` keeps the join's (sound) candgen gates
and verifies the reference's positional accumulation; the other two modes
keep every pair sharing a posted token — ``overlap_candidates`` posts every
token and verifies the bag-product overlap count.

Exact duplicates (identical token signatures — the common case in dedup
corpora) collapse into one Tsig row, so postings, pair generation and
verification all run once per distinct signature.

Candidate pairs may be emitted from several buckets (one per shared prefix
token); the ``np.unique`` at verify makes them exact-once.  Identity
pairs (a,a) — the dominant duplicate source in self-joins — are emitted
only in the bucket holding the signature's FIRST prefix token
(``min(pos) = 0``), so they are exact-once by construction.

Semantics anchor: the reference's filter-verify loop
(``join/set_sim_join.py:99-125``) — a
candidate only ever needs the two records' ordered token arrays, which is
exactly what the verify attach reconstructs.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from ray.data.context import ShuffleStrategy

from ..core import bounds
from ..core.comp_ops import COMP_OP_MAP
from ..state.broadcast import _BROADCAST_GATE_FLOOR
from ..state.session import block_count
from .postings import KNUTH, MAX_GRID_AREA, _lev_many, _duck_hashes

_MASK63 = np.uint64((1 << 63) - 1)


class SigStage:
    """Append a 63-bit signature column: polynomial hash over the sorted
    rank array + size (+ the raw string for EDIT_DISTANCE, whose verify
    needs the exact string, not just the qgram bag)."""

    _P = np.uint64(0x100000001B3)

    def __init__(self, hash_string: bool = False):
        self.hash_string = hash_string
        self._pows = None  # P^i table, grown on demand

    def _powers(self, n: int) -> np.ndarray:
        if self._pows is None or len(self._pows) < n:
            m = max(n, 1024)
            p = np.full(m, self._P, dtype=np.uint64)
            p[0] = np.uint64(1)
            self._pows = np.cumprod(p)  # uint64 wrap = mod 2^64
        return self._pows

    def __call__(self, batch: pa.Table) -> pa.Table:
        ranks = batch['ranks'].combine_chunks()
        off = ranks.offsets.to_numpy()
        flat = (ranks.values.to_numpy(zero_copy_only=False).astype(np.uint64)
                if len(ranks.values) else np.empty(0, np.uint64))
        n = len(batch)
        lens = np.diff(off)
        pows = self._powers(int(lens.max()) + 1 if n else 1)
        # positional weights restart at each row
        pos = np.arange(len(flat)) - np.repeat(off[:-1], lens)
        weighted = (flat + np.uint64(1)) * pows[pos]
        sig = np.zeros(n, dtype=np.uint64)
        if len(flat):
            row_id = np.repeat(np.arange(n), lens)
            np.add.at(sig, row_id, weighted)  # uint64 wrap
        sz = batch['sz'].to_numpy().astype(np.uint64)
        sig = (sig ^ (sz * np.uint64(0x9E3779B97F4A7C15))) * self._P
        if self.hash_string:
            sig ^= _duck_hashes(batch['s'].combine_chunks())
        sig &= _MASK63
        return batch.append_column('sig', pa.array(sig.astype(np.int64)))


class SlimPostingsStage:
    """Tsig rows → slim postings: one row per (distinct signature, prefix
    token), NO rank arrays.  Heavy tokens use the unordered salted grid
    (each signature covers cells {(min(kh,c), max(kh,c))}; kh = -1 marks
    the diagonal visit) — both join sides live in ONE postings stream, so
    the two-table row/column scheme collapses into the same-relation grid
    with side membership carried as hl/hr flags."""

    def __init__(self, num_buckets: int, heavy_ref=None,
                 emit_sides: bool = True, num_parts: int | None = None):
        self.num_buckets = num_buckets
        # same-relation broadcast postings have hl = hr = 1 on every row;
        # emit_sides=False drops the two flag columns from the shuffle
        self.emit_sides = emit_sides
        # num_parts: emit a 'part' = hash(bucket) % num_parts column so the
        # kernel can process MANY buckets per call (one SQL joining on
        # (bucket, tok) per partition) — per-group DuckDB planning overhead
        # (~20 ms) times tens of thousands of grid cells was the flagship's
        # dominant cost otherwise
        self.num_parts = num_parts
        heavy = None
        if heavy_ref is not None:
            heavy = (ray.get(heavy_ref)
                     if isinstance(heavy_ref, ray.ObjectRef) else heavy_ref)
        self.heavy = heavy or {}
        self._heavy_cache = None

    def _heavy_arrays(self):
        if self._heavy_cache is None:
            ranks = np.array(sorted(self.heavy), dtype=np.int64)
            hidx = np.array([self.heavy[r][0] for r in ranks], dtype=np.int64)
            g = np.array([self.heavy[r][1] for r in ranks], dtype=np.int64)
            self._heavy_cache = (ranks, hidx, g)
        return self._heavy_cache

    def __call__(self, batch: pa.Table) -> pa.Table:
        ranks_col = batch['ranks'].combine_chunks()
        plen = batch['plen'].to_numpy()
        nrows = len(batch)
        offsets = ranks_col.offsets.to_numpy()
        flat = (ranks_col.values.to_numpy(zero_copy_only=False)
                if len(ranks_col.values) else np.empty(0, np.int32))

        reps = np.minimum(plen, np.diff(offsets)).astype(np.int64)
        row_idx = np.repeat(np.arange(nrows), reps)
        pos = (np.arange(len(row_idx)) -
               np.repeat(np.concatenate(([0], np.cumsum(reps)[:-1])),
                         reps)).astype(np.int32)
        tok = flat[np.repeat(offsets[:-1], reps) + pos]
        # bag tokenizers (EDIT_DISTANCE) may repeat a token inside the
        # prefix; keep the first (lowest-pos) occurrence only
        if len(tok):
            dup = np.zeros(len(tok), bool)
            dup[1:] = (tok[1:] == tok[:-1]) & (row_idx[1:] == row_idx[:-1])
            if dup.any():
                keep = ~dup
                row_idx, pos, tok = row_idx[keep], pos[keep], tok[keep]

        sig = batch['sig'].to_numpy()
        bucket = ((tok.astype(np.uint64) * KNUTH) >> np.uint64(7)) \
            % np.uint64(self.num_buckets)
        bucket = bucket.astype(np.int64)
        kh_col = np.full(len(tok), -1, dtype=np.int16)
        out = (row_idx, tok, pos, bucket, kh_col)

        if self.heavy:
            hr, hidx_arr, hg_arr = self._heavy_arrays()
            p = np.minimum(np.searchsorted(hr, tok), len(hr) - 1)
            hmask = hr[p] == tok if len(hr) else np.zeros(len(tok), bool)
            if hmask.any():
                sel = np.nonzero(hmask)[0]
                g = hg_arr[p[sel]]
                # stride by the global MAX grid area: per-token g² strides
                # let different tokens' cell ranges overlap (harmless only
                # because pair64 dedup is global, but kept disjoint)
                base = self.num_buckets + hidx_arr[p[sel]] * MAX_GRID_AREA
                khv = (sig[row_idx[sel]].astype(np.uint64)
                       % g.astype(np.uint64)).astype(np.int64)
                rep = np.repeat(np.arange(len(sel)), g)
                c = (np.arange(len(rep)) -
                     np.repeat(np.concatenate(([0], np.cumsum(g)[:-1])), g))
                khr, gr, baser = khv[rep], g[rep], base[rep]
                cells = baser + np.minimum(khr, c) * gr + np.maximum(khr, c)
                khcol = np.where(c == khr, -1, khr).astype(np.int16)
                keep = ~hmask
                out = (np.concatenate([row_idx[keep], row_idx[sel][rep]]),
                       np.concatenate([tok[keep], tok[sel][rep]]),
                       np.concatenate([pos[keep], pos[sel][rep]]),
                       np.concatenate([bucket[keep], cells]),
                       np.concatenate([kh_col[keep], khcol]))

        row_idx, tok, pos, bucket, kh_col = out
        take = pa.array(row_idx)
        sig_col = 'si' if 'si' in batch.column_names else 'sig'
        cols = {
            'bucket': pa.array(bucket.astype(np.int32), pa.int32()),
            'tok': pa.array(tok.astype(np.int32)),
            'sig': batch[sig_col].take(take),
            'sz': batch['sz'].take(take),
            'pos': pa.array(pos),
            'kh': pa.array(kh_col),
        }
        if self.num_parts:
            part = ((bucket.astype(np.uint64) * KNUTH) >> np.uint64(9)) \
                % np.uint64(self.num_parts)
            cols['part'] = pa.array(part.astype(np.int32), pa.int32())
        if self.emit_sides:
            hl = (batch['c_l'].to_numpy() > 0).astype(np.int8)
            hr_flag = (batch['c_r'].to_numpy() > 0).astype(np.int8)
            cols['hl'] = pa.array(hl[row_idx])
            cols['hr'] = pa.array(hr_flag[row_idx])
        return pa.table(cols)


def _cand_luts(sim_type: str, threshold, max_sz: int):
    """Integer lookup tables for the candgen filters, replacing per-pair
    float rounding (bounds.py round-before-ceil semantics preserved — the
    LUT is built with the very same expressions over the value range).

    Returns (size_lo, size_hi, ovt_sum, ovt_min):
      size_lo/size_hi : per partner size sz, allowed own-size interval
                        (None when the measure has no size bound)
      ovt_sum         : overlap threshold indexed by szA + szB
                        (JACCARD / DICE), else None
      ovt_min         : overlap threshold indexed by min(szA, szB)
                        (OVERLAP_COEFFICIENT), else None
    COSINE's ovt (ceil(round(t*sqrt(n1*n2),4))) is computed directly."""
    s = np.arange(max_sz + 2, dtype=np.float64)
    size_lo = size_hi = ovt_sum = ovt_min = None
    if sim_type == 'JACCARD':
        size_lo = np.ceil(np.round(threshold * s, 4)).astype(np.int64)
        size_hi = np.floor(np.round(s / threshold, 4)).astype(np.int64)
    elif sim_type == 'COSINE':
        tt = threshold * threshold
        size_lo = np.ceil(np.round(tt * s, 4)).astype(np.int64)
        size_hi = np.floor(np.round(s / tt, 4)).astype(np.int64)
    elif sim_type == 'DICE':
        lo, hi = threshold / (2 - threshold), (2 - threshold) / threshold
        size_lo = np.ceil(np.round(lo * s, 4)).astype(np.int64)
        size_hi = np.floor(np.round(hi * s, 4)).astype(np.int64)
    elif sim_type == 'OVERLAP':
        size_lo = np.full(max_sz + 2, int(threshold), dtype=np.int64)
        size_hi = np.full(max_sz + 2, np.iinfo(np.int64).max // 2,
                          dtype=np.int64)
    elif sim_type == 'EDIT_DISTANCE':
        # qgram BAG lengths differ exactly as string lengths do, so the
        # reference's length filter |len(a)-len(b)| <= d is |szA-szB| <= d
        size_lo = np.maximum(s - threshold, 0).astype(np.int64)
        size_hi = (s + threshold).astype(np.int64)
    s2 = np.arange(2 * (max_sz + 2), dtype=np.float64)
    if sim_type == 'JACCARD':
        c = threshold / (1 + threshold)
        ovt_sum = np.ceil(np.round(c * s2, 4)).astype(np.int64)
    elif sim_type == 'DICE':
        ovt_sum = np.ceil(np.round((threshold / 2) * s2, 4)).astype(np.int64)
    elif sim_type == 'OVERLAP_COEFFICIENT':
        ovt_min = np.ceil(np.round(threshold * s, 4)).astype(np.int64)
    return size_lo, size_hi, ovt_sum, ovt_min


def _candgen_parts(nsig: int) -> int:
    """Candidate-generation partition count: constant 256 at bench scales
    (identical kernel-call counts at every parallelism level, which the
    scaling protocol requires), growing with the DATA beyond ~25M distinct
    signatures so one partition never has to hold an unbounded slice of a
    corpus-scale postings stream.  Depends only on the input, never on
    cluster size.  Capped at 32768 (reached at ~3.3B distinct signatures),
    which bounds the group count of the candgen exchange."""
    return int(min(32768, max(256, nsig // 100_000)))


# triangle-enumeration slab: bounds peak memory of the per-pair arrays
# (~60 B/pair live at once -> ~250 MB per concurrent task)
_CAND_SLAB = 4_000_000
# verify-side membership-expansion slab: bounds the transient pair_idx /
# off / key-gather arrays even when one duplicate class explodes to m² rows
_EXPAND_SLAB = 8_000_000


def _np_candidates(tbl: pa.Table, sim_type: str, threshold,
                   same_relation: bool,
                   mode: str = 'join') -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-partition candidate generation over slim postings.

    Replaces the DuckDB (bucket, tok) self-join + pair-level HAVING gate.
    A lexsort groups the postings by (bucket, token) with SIZE-ascending
    order inside each group, and enumeration is restricted to pairs
    (i, j) where i precedes j and i is *positionally eligible*:
    ``szi - posi >= ovt(szi, szi)``.  Soundness: at a true pair's first
    (minimal) shared prefix token every shared token still lies to the
    right in both arrays, so ``overlap <= min(szA - posA, szB - posB)``
    (reference anchor: ``filter/position_filter.py:340-344``); for the
    size-SMALLER side x, ``szx - posx >= overlap >= ovt(szx, szy) >=
    ovt(szx, szx)`` because ovt is monotone in the partner size and
    ``szy >= szx``.  Heavy boilerplate-token groups are almost entirely
    ineligible rows (their prefix positions are deep), so this cuts the
    enumerated pair volume ~53x on the flagship corpus (695M -> 13M)
    before the exact joint filters run.

    The same argument holds for ``position_candidates``: a survivor's
    first shared prefix token has ``min(remA, remB) >= T`` (its accumulated
    bound at i = 0), so that mode keeps both gates.  ``prefix_candidates``
    and ``overlap_candidates`` apply neither — every pair sharing a posted
    token IS their candidate set.

    same_relation: emits each candidate once, canonically (a <= b), plus
    exact-once identity pairs via each signature's pos==0 posting.
    Two-table: emits (L, R) oriented pairs via the hl/hr side flags (both
    orientations when both memberships exist)."""
    tok = tbl['tok'].to_numpy().astype(np.uint32)
    si0 = tbl['sig'].to_numpy()
    bucket = tbl['bucket'].to_numpy().astype(np.uint64)
    key0 = (bucket << np.uint64(32)) | tok.astype(np.uint64)
    sz0 = tbl['sz'].to_numpy()
    o = np.lexsort((si0, sz0, key0))
    key = key0[o]
    si = si0[o].astype(np.int64)
    sz = sz0[o].astype(np.int32)
    pos = tbl['pos'].to_numpy()[o].astype(np.int32)
    kh = tbl['kh'].to_numpy()[o].astype(np.int16)
    two_table = not same_relation
    if two_table:
        hl = tbl['hl'].to_numpy()[o].astype(bool)
        hr = tbl['hr'].to_numpy()[o].astype(bool)
    n = len(key)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)

    gated = mode in ('join', 'position_candidates')
    set_measure = gated and sim_type in ('JACCARD', 'COSINE', 'DICE',
                                         'OVERLAP', 'OVERLAP_COEFFICIENT')
    size_lo, size_hi, ovt_sum, ovt_min = (
        _cand_luts(sim_type, threshold, int(sz.max())) if gated
        else (None, None, None, None))
    rem = (sz - pos).astype(np.int64)

    out_a, out_b = [], []
    # identity pairs: exactly once, via the sig's first prefix token
    idm = pos == 0
    if two_table:
        idm &= hl & hr
    idd = si[idm]
    out_a.append(idd)
    out_b.append(idd)

    def emit(ii: np.ndarray, ji: np.ndarray) -> None:
        szi, szj = sz[ii], sz[ji]
        if size_lo is not None:
            keep = (szi >= size_lo[szj]) & (szi <= size_hi[szj])
        else:
            keep = np.ones(len(ii), dtype=bool)
        if set_measure:
            if ovt_sum is not None:
                ovt = ovt_sum[szi + szj]
            elif ovt_min is not None:
                ovt = ovt_min[np.minimum(szi, szj)]
            elif sim_type == 'COSINE':
                ovt = np.ceil(np.round(
                    threshold * np.sqrt((szi * szj).astype(np.float64)),
                    4)).astype(np.int64)
            else:  # OVERLAP
                ovt = np.int64(int(threshold))
            keep &= (rem[ii] >= ovt) & (rem[ji] >= ovt)
        khi, khj = kh[ii], kh[ji]
        keep &= (khi == np.int16(-1)) | (khj == np.int16(-1)) \
            | (khi != khj)
        ii, ji = ii[keep], ji[keep]
        a, b = si[ii], si[ji]
        if same_relation:
            out_a.append(np.minimum(a, b))
            out_b.append(np.maximum(a, b))
        else:
            fwd = hl[ii] & hr[ji]
            rev = hl[ji] & hr[ii]
            out_a.append(np.concatenate([a[fwd], b[rev]]))
            out_b.append(np.concatenate([b[fwd], a[rev]]))

    # positional eligibility of the size-smaller pair side: rem >= ovt(sz, sz)
    if not set_measure:           # EDIT_DISTANCE, ungated modes
        elig = np.ones(n, dtype=bool)
    elif ovt_sum is not None:     # JACCARD / DICE
        elig = rem >= ovt_sum[2 * sz.astype(np.int64)]
    elif ovt_min is not None:     # OVERLAP_COEFFICIENT
        elig = rem >= ovt_min[sz]
    elif sim_type == 'COSINE':    # sqrt(sz*sz) == sz exactly
        elig = rem >= np.ceil(np.round(threshold * sz.astype(np.float64),
                                       4)).astype(np.int64)
    else:                         # OVERLAP
        elig = rem >= np.int64(int(threshold))

    gfirst = np.concatenate(([True], key[1:] != key[:-1]))
    gstart = np.flatnonzero(gfirst)
    grp = (np.cumsum(gfirst) - 1).astype(np.int64)
    ec = np.cumsum(elig)                       # inclusive eligible count
    start_c = np.zeros(len(gstart), np.int64)
    start_c[1:] = ec[gstart[1:] - 1]           # eligibles before each group
    # eligible rows strictly before each row, within its group
    cnt = ec - elig - start_c[grp]
    e_idx = np.flatnonzero(elig)               # composite order preserved
    e_base = start_c[grp]                      # group's first eligible, in E
    rows = np.flatnonzero(cnt > 0)
    if len(rows):
        cnt_j = cnt[rows]
        csum = np.concatenate(([0], np.cumsum(cnt_j)))
        lo = 0
        while lo < len(rows):
            hi = int(np.searchsorted(csum, csum[lo] + _CAND_SLAB, 'left'))
            hi = min(max(hi, lo + 1), len(rows))
            rj, cj = rows[lo:hi], cnt_j[lo:hi]
            base = csum[lo:hi] - csum[lo]
            lo = hi
            ji = np.repeat(rj, cj)
            off = (np.arange(len(ji), dtype=np.int64)
                   - np.repeat(base, cj))
            ii = e_idx[np.repeat(e_base[rj], cj) + off]
            emit(ii, ji)
    return np.concatenate(out_a), np.concatenate(out_b)


class _TsigBroadcast:
    """Column-oriented signature table + memberships for zero-copy sharing.

    sigs are SORTED; lookup is searchsorted.  All payloads are numpy arrays
    (object dtype only for keys/strings)."""

    __slots__ = ('sigs', 'rank_off', 'rank_flat', 'sz', 'plen',
                 'l_key_off', 'l_key_flat', 'r_key_off', 'r_key_flat',
                 's', 's_len')

    def __init__(self, sigs, rank_off, rank_flat, sz, plen,
                 l_key_off, l_key_flat, r_key_off, r_key_flat, s=None):
        self.sigs = sigs
        self.rank_off = rank_off
        self.rank_flat = rank_flat
        self.sz = sz
        self.plen = plen
        self.l_key_off = l_key_off
        self.l_key_flat = l_key_flat
        self.r_key_off = r_key_off
        self.r_key_flat = r_key_flat
        self.s = s
        self.s_len = (np.fromiter((len(x) for x in s), np.int64, len(s))
                      if s is not None else None)

    def index_of(self, sig_values: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.sigs, sig_values)


def _fold_tsig(pay: pa.Table, mem: pa.Table, same_relation: bool,
               keep_string: bool) -> tuple:
    """Fold payload rows (sig, sz, plen, ranks[, s]; a signature may
    repeat) and memberships (sig, side, key) into ``(_TsigBroadcast,
    postings-source table)``, both indexed by the dense signature rank
    ``si`` = 0..n-1 in ascending signature order.  The one Tsig fold of
    the local route (``localjoin._local_tsig``) and of every shard builder
    (``_build_tsig_shard``)."""
    sigs = pay['sig'].to_numpy()
    order = np.argsort(sigs, kind='stable')
    ss = sigs[order]
    first = np.concatenate(([True], ss[1:] != ss[:-1]))
    uniq = ss[first]
    sub = pay.take(pa.array(order[first]))
    ranks = sub['ranks'].combine_chunks()
    rank_off = ranks.offsets.to_numpy().astype(np.int64)
    rank_flat = (ranks.values.to_numpy(zero_copy_only=False)
                 if len(ranks.values) else np.empty(0, np.int32))

    # memberships grouped by (searchsorted sig index, side)
    m_side = mem['side'].to_numpy(zero_copy_only=False)
    m_key = mem['key'].to_numpy(zero_copy_only=False)
    m_idx = np.searchsorted(uniq, mem['sig'].to_numpy())
    n = len(uniq)

    def side_arrays(mask):
        idx, keys = m_idx[mask], m_key[mask]
        o = np.argsort(idx, kind='stable')
        counts = np.bincount(idx, minlength=n)
        off = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return off, keys[o]

    l_off, l_flat = side_arrays(m_side == 0)
    if same_relation:
        r_off, r_flat = l_off, l_flat
    else:
        r_off, r_flat = side_arrays(m_side == 1)

    sz = sub['sz'].to_numpy().astype(np.int64)
    plen = sub['plen'].to_numpy().astype(np.int64)
    bc = _TsigBroadcast(
        uniq.astype(np.int64), rank_off, rank_flat, sz, plen,
        l_off, l_flat, r_off, r_flat,
        sub['s'].to_numpy(zero_copy_only=False) if keep_string else None)
    tsig_tbl = pa.table({
        'sig': pa.array(uniq.astype(np.int64)),
        'si': pa.array(np.arange(n, dtype=np.int32), pa.int32()),
        'sz': pa.array(sz.astype(np.int32), pa.int32()),
        'plen': pa.array(plen.astype(np.int32), pa.int32()),
        'ranks': pa.ListArray.from_arrays(
            pa.array(rank_off, pa.int32()),
            pa.array(rank_flat, pa.int32())),
        'c_l': pa.array(np.diff(l_off)),
        'c_r': pa.array(np.diff(r_off)),
    })
    return bc, tsig_tbl


def _build_tsig_shard(shard, nshards, same_relation, keep_string, *blocks):
    """Shard builder: fold the block-distinct payloads + memberships whose
    63-bit signature falls in this shard's HIGH-BIT range (so shard order ==
    global signature sort order) into ``(_TsigBroadcast, postings-source
    table, signature count)``, the table's ``si`` local to the shard.  Runs
    as one of ``nshards`` parallel Ray tasks; blocks are zero-copy
    object-store reads.

    Split blocks arrive SIG-SORTED (``_tsig_split_block``), so each block
    contributes a binary-search SLICE — a builder touches only its own
    shard's bytes plus O(log block) per block, not O(block) per block, and
    the shard count scales freely with data size (a 100 TB Tsig can use
    thousands of target-sized shards)."""
    shift = np.uint64(63 - int(nshards).bit_length() + 1)
    lo_sig = np.int64(np.uint64(shard) << shift)
    # top shard: the exclusive bound (shard+1)<<shift is 2^63, past every
    # 63-bit sig — take the block tail instead of a searchsorted bound
    top = bool((np.uint64(shard + 1) << shift) >= np.uint64(1 << 63))
    hi_sig = np.int64(0) if top else np.int64(np.uint64(shard + 1) << shift)
    pay_parts, mem_parts = [], []
    for j, t in enumerate(blocks):
        if isinstance(t, pd.DataFrame):
            t = pa.Table.from_pandas(t, preserve_index=False)
        if 'kind' not in t.column_names:  # schemaless empty block
            continue
        sig = t['sig'].to_numpy(zero_copy_only=False)
        # the slices need ONE sig-sorted run per block, or they would drop
        # memberships silently; one builder per block checks the whole
        # block, so the check costs O(data) over all builders together
        if j % nshards == shard and bool((sig[1:] < sig[:-1]).any()):
            raise RuntimeError(f'Tsig split block {j} is not sorted by '
                               f'signature')
        a = int(np.searchsorted(sig, lo_sig, 'left'))
        b = len(sig) if top else int(np.searchsorted(sig, hi_sig, 'left'))
        if b <= a:
            continue
        sl = t.slice(a, b - a)
        kind = sl['kind'].to_numpy(zero_copy_only=False)
        pay_parts.append(sl.filter(pa.array(kind == 0)))
        mem_parts.append(sl.filter(pa.array(kind == 1))
                           .select(['sig', 'side', 'key']))

    pay = pa.concat_tables(pay_parts).combine_chunks() if pay_parts else None
    if pay is None or len(pay) == 0:
        return None, None, 0
    mem = pa.concat_tables(mem_parts).combine_chunks()
    bc, tsig_tbl = _fold_tsig(pay, mem, same_relation, keep_string)
    return bc, tsig_tbl, len(tsig_tbl)


def _rebase_piece_tbl(base: int, nslices: int, tbl: pa.Table):
    """Per-shard postings-source table with the GLOBAL dense si index
    (shard base + local row number), returned as ``nslices`` zero-copy
    slices so the downstream Dataset starts at full block granularity
    WITHOUT a repartition all-to-all (the barrier used to starve the
    postings stage while it waited on the exchange)."""
    n = len(tbl)
    tbl = tbl.set_column(
        tbl.schema.get_field_index('si'), 'si',
        pa.array(np.arange(base, base + n, dtype=np.int32), pa.int32()))
    if nslices <= 1:
        return tbl  # num_returns=1: the bare table IS the single return
    cuts = np.linspace(0, n, nslices + 1).astype(np.int64)
    return tuple(tbl.slice(int(a), int(b - a))
                 for a, b in zip(cuts[:-1], cuts[1:]))


def _tsig_split_block(b: pa.Table, keep_string: bool) -> pa.Table:
    """Per-block combiner feeding the shard builders: block-distinct payload
    per sig tagged kind=0, memberships kind=1 — SORTED BY SIG so each
    shard builder takes a binary-search slice of the block instead of
    scanning it (see ``_build_tsig_shard``)."""
    sigs = b['sig'].to_numpy()
    order = np.argsort(sigs, kind='stable')
    ss = sigs[order]
    first = (np.concatenate(([True], ss[1:] != ss[:-1])) if len(ss)
             else np.zeros(0, bool))
    sub = b.take(pa.array(order[first]))
    n0, n1 = len(sub), len(b)
    cols = {
        'kind': pa.array(np.concatenate(
            [np.zeros(n0, np.int8), np.ones(n1, np.int8)])),
        'sig': pa.concat_arrays([sub['sig'].combine_chunks(),
                                 b['sig'].combine_chunks()]),
        'sz': pa.concat_arrays(
            [sub['sz'].combine_chunks(),
             pa.nulls(n1, b['sz'].type)]),
        'plen': pa.concat_arrays(
            [sub['plen'].combine_chunks(),
             pa.nulls(n1, b['plen'].type)]),
        'ranks': pa.concat_arrays(
            [sub['ranks'].combine_chunks(),
             pa.nulls(n1, b['ranks'].type)]),
        'side': pa.concat_arrays(
            [pa.nulls(n0, pa.int8()), b['side'].combine_chunks()]),
        'key': pa.concat_arrays(
            [pa.nulls(n0, b['key'].type), b['key'].combine_chunks()]),
    }
    if keep_string:
        cols['s'] = pa.concat_arrays(
            [sub['s'].combine_chunks(), pa.nulls(n1, pa.string())])
    out = pa.table(cols)
    final = np.concatenate([ss[first], sigs]) if len(b) else sigs
    return out.take(pa.array(np.argsort(final, kind='stable')))


def collect_tsig_shards(tagged: ray.data.Dataset, same_relation: bool,
                        keep_string: bool, nshards: int) -> tuple:
    """Fold per-block combiner outputs into ``nshards`` signature-table
    shards OFF the driver: the split keeps per-block work parallel, and
    ``nshards`` parallel builders fold disjoint HIGH-BIT signature ranges
    (shard order == global si order), each into its own ``_TsigBroadcast``
    ref bounded by the shard size — the driver only ever holds refs.
    Returns ``(shard_refs, shard_starts, tbl_refs, num_sigs)`` where
    ``shard_starts[s]`` is shard s's first GLOBAL si (dense, ascending) —
    ``sp(si) = searchsorted(shard_starts, si, 'right') - 1``."""
    if nshards < 1:
        raise ValueError(f'nshards must be >= 1, got {nshards}')
    # shard ranges partition the signature HIGH bits: shard s holds sigs with
    # (sig >> (64 - bit_length(nshards))) == s.  Sigs are 63-bit, so every
    # signature lands in shard < 2^(bit_length-1) <= nshards — a
    # non-power-of-two count merely leaves the top shards empty (reduced
    # parallelism), never drops data.

    def split(b: pa.Table) -> pa.Table:
        return _tsig_split_block(b, keep_string)
    split.__name__ = 'split'

    # whole blocks: _build_tsig_shard slices each block by binary search,
    # which needs one sig-sorted run per block
    split_ds = tagged.map_batches(split, batch_format='pyarrow',
                                  batch_size=None).materialize()
    refs = []
    for bundle in split_ds.iter_internal_ref_bundles():
        refs.extend(bundle.block_refs)
    if not refs:
        return None, None, None, 0
    builder = ray.remote(num_cpus=1, num_returns=3)(_build_tsig_shard)
    out = [builder.remote(s, nshards, same_relation, keep_string, *refs)
           for s in range(nshards)]
    sizes = [int(x) for x in ray.get([o[2] for o in out])]
    n = sum(sizes)
    if n == 0:
        return None, None, None, 0
    shard_refs = [o[0] if s_ > 0 else None for o, s_ in zip(out, sizes)]
    bases = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
    # pre-split each shard into slices so that the postings Dataset is
    # born with ``block_count(n)`` blocks in total — no repartition barrier
    # between the shard builders and the postings map
    live = sum(1 for s_ in sizes if s_ > 0)
    nslices = max(1, -(-block_count(n) // max(1, live)))
    rebase = ray.remote(num_cpus=1, num_returns=nslices)(_rebase_piece_tbl)
    tbl_refs = []
    for b, s_, o in zip(bases, sizes, out):
        if s_ > 0:
            out_refs = rebase.remote(int(b), nslices, o[1])
            tbl_refs.extend(out_refs if nslices > 1 else [out_refs])
    return shard_refs, bases, tbl_refs, n


# ssjbench/trace.py wraps both names; the Dataset route calls only the above
collect_tsig = collect_tsig_shards


def tsig_postings_input(tbl_refs, num_sigs: int) -> ray.data.Dataset:
    """Dataset view of the per-shard postings-source tables built by the
    remote shard builders — constructed from REFS, never fetched to the
    driver."""
    # collect_tsig_shards already pre-splits each shard into slices
    # (``block_count(num_sigs)`` in total), so the Dataset is born at the
    # granularity the downstream groupby(bucket).map_groups stage needs —
    # repartition only in the degenerate under-split case
    nblocks = block_count(num_sigs)
    ds = ray.data.from_arrow_refs(list(tbl_refs))
    if len(tbl_refs) >= nblocks:
        return ds
    return ds.repartition(nblocks) if nblocks > 1 else ds


class BroadcastCandGen:
    """Per-partition candidate generation over slim postings: the shared
    numpy triangle kernel (``_np_candidates``) emits one int64 ``pair64`` =
    ``(si_a << 32) | si_b`` per distinct in-partition candidate, keyed by
    its verify-shuffle bucket ``vb = (shard(si_a) * K + shard(si_b)) *
    shard_sub + hash(pair64) % shard_sub`` over the K Tsig shards starting
    at ``shard_bases``.  Every pair of one verify group reads the SAME two
    shards (bounded task memory) while ``shard_sub`` keeps the group count
    near the bucket count; with one shard, ``vb = hash(pair64) %
    shard_sub``.

    Exact-once semantics live downstream: the global ``np.unique`` in
    ``BroadcastVerify`` (a pair hashes to exactly one vb group) replaces
    the round-2 per-bucket min-common-token ownership pass.  Union-over-
    buckets emission is sound: the bucket of a pair's global-min shared
    prefix token always applies a sound positional gate, and verification
    is exact."""

    def __init__(self, sim_type: str, threshold, shard_bases, shard_sub: int,
                 same_relation: bool = False, skew_name: str | None = None,
                 mode: str = 'join'):
        self.__name__ = 'BroadcastCandGen'
        self.mode = mode
        self.skew_name = skew_name
        self._skew_cache: dict = {}
        self.sim_type = sim_type
        self.threshold = threshold
        self.same_relation = same_relation
        self.shard_bases = shard_bases
        self.shard_sub = shard_sub
        # the narrowest vb type: the verify exchange ships it next to each
        # 8-B pair64
        nvb = len(shard_bases) ** 2 * shard_sub
        self._vb_dtype = (np.int16 if nvb <= 2 ** 15 else
                          np.int32 if nvb <= 2 ** 31 else np.int64)

    def __call__(self, tbl) -> pa.Table:
        if isinstance(tbl, pd.DataFrame):
            tbl = pa.Table.from_pandas(tbl, preserve_index=False)
        empty = pa.table({'vb': pa.array(np.empty(0, self._vb_dtype)),
                          'pair64': pa.array([], pa.int64())})
        if len(tbl) == 0:
            return empty
        sa, sb = _np_candidates(tbl, self.sim_type, self.threshold,
                                self.same_relation, mode=self.mode)
        if len(sa) == 0:
            return empty
        pair64 = np.unique((sa << np.int64(32)) | sb)
        if self.skew_name:
            from ..state.skewstats import report as _skew_report
            _skew_report(self.skew_name, 'candgen', len(pair64),
                         self._skew_cache)
        kk = np.int64(len(self.shard_bases))
        ss = np.int64(self.shard_sub)
        spa = np.searchsorted(self.shard_bases,
                              pair64 >> np.int64(32), 'right') - 1
        spb = np.searchsorted(self.shard_bases,
                              pair64 & np.int64(0xFFFFFFFF), 'right') - 1
        sub = (((pair64.view(np.uint64) * KNUTH) >> np.uint64(17))
               % np.uint64(ss)).astype(np.int64)
        vb = (spa * kk + spb) * ss + sub
        return pa.table({'vb': pa.array(vb.astype(self._vb_dtype)),
                         'pair64': pa.array(pair64, pa.int64())})


def _slice_keys(rank_flat: np.ndarray, starts: np.ndarray,
                lens: np.ndarray) -> tuple:
    """``(pair << 32 | token)`` keys over one rank-array slice per pair
    (pair i covers ``rank_flat[starts[i]:starts[i] + lens[i]]``).  The pair
    id ascends block-wise and ranks ascend within a slice, so the keys come
    out GLOBALLY sorted and every intersection below is sort-free.
    Returns (key, pair id, offset within the slice, slice offsets)."""
    seg = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
    pid = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    off = np.arange(seg[-1], dtype=np.int64) - np.repeat(seg[:-1], lens)
    tok = rank_flat[np.repeat(starts, lens) + off]
    key = (pid.astype(np.uint64) << np.uint64(32)) | tok.astype(np.uint64)
    return key, pid, off, seg


def _prefix_lens(bcS, idx: np.ndarray) -> np.ndarray:
    return np.minimum(bcS.rank_off[idx + 1] - bcS.rank_off[idx],
                      bcS.plen[idx])


def _match(keyA: np.ndarray, keyB: np.ndarray) -> tuple:
    """(hit mask over keyB, matching keyA index) of a sorted-key probe."""
    if len(keyA) == 0:
        return np.zeros(len(keyB), bool), np.zeros(len(keyB), np.int64)
    loc = np.minimum(np.searchsorted(keyA, keyB), len(keyA) - 1)
    return keyA[loc] == keyB, loc


def _pairs_frame(mode: str, l_key, r_key, score) -> pd.DataFrame:
    """Record-pair output of ``mode``: the prefix and position candidates
    modes carry no score column."""
    cols = {'l_key': l_key, 'r_key': r_key}
    if mode in ('join', 'overlap_candidates'):
        cols['_sim_score'] = score
    return pd.DataFrame(cols)


class BroadcastVerify:
    """Per-verify-bucket exact-once verification: ``np.unique`` over the
    incoming pair64s (a pair hashes to exactly one vb group, so this dedup
    is global), the ``mode``'s predicate on both rank arrays, and
    membership expansion to (l_key, r_key[, _sim_score]) record pairs.

    mode:
      'join'                — prefix intersection, position-filter upper
                              bound, exact tail overlap (or Levenshtein)
                              and the similarity score
      'prefix_candidates'   — every candidate passes; no score column
      'position_candidates' — size bounds + the reference's positional
                              accumulation; no score column
      'overlap_candidates'  — bag-product overlap count vs ``comp_op``,
                              emitted as the score
    """

    def __init__(self, shard_refs, shard_bases, sim_type: str, threshold,
                 comp_op: str, qval=None, same_relation: bool = False,
                 self_join: bool = False, round_score: bool = True,
                 counter_name=None, skew_name: str | None = None,
                 mode: str = 'join'):
        self.__name__ = 'BroadcastVerify'
        self.mode = mode
        self.skew_name = skew_name
        self._skew_cache: dict = {}
        self.sim_type = sim_type
        self.threshold = threshold
        self.comp_op = comp_op
        self.comp_fn = COMP_OP_MAP[comp_op]
        self.qval = qval
        self.same_relation = same_relation
        self.self_join = self_join
        self.round_score = round_score
        self.counter_name = counter_name
        # every pair of a group lives in ONE (shard_a, shard_b) cell
        # (BroadcastCandGen routed it there), so the task fetches at most
        # two bounded shards; a shard is a _TsigBroadcast or its ref
        self.shard_refs = shard_refs
        self.shard_bases = shard_bases
        self._shards: dict = {}
        self._counter = None  # actor handle cached once per task
        self.checked = 0  # record pairs verified by this instance

    def _shard(self, sp: int):
        if sp not in self._shards:
            shard = self.shard_refs[sp]
            self._shards[sp] = (ray.get(shard)
                                if isinstance(shard, ray.ObjectRef)
                                else shard)
        return self._shards[sp]

    def _sides(self, ia: np.ndarray, ib: np.ndarray):
        """(bcA, la, bcB, lb): per-side shard + LOCAL indices."""
        spa = int(np.searchsorted(self.shard_bases, ia[0], 'right') - 1)
        spb = int(np.searchsorted(self.shard_bases, ib[0], 'right') - 1)
        return (self._shard(spa), ia - self.shard_bases[spa],
                self._shard(spb), ib - self.shard_bases[spb])

    def _empty(self) -> pd.DataFrame:
        return _pairs_frame(self.mode, np.array([], object),
                            np.array([], object), np.array([], np.float64))

    def __call__(self, tbl) -> pd.DataFrame:
        if isinstance(tbl, pd.DataFrame):
            tbl = pa.Table.from_pandas(tbl, preserve_index=False)
        if len(tbl) == 0:
            return self._empty()
        cand = np.unique(tbl['pair64'].to_numpy(zero_copy_only=False))
        if len(cand) == 0:
            return self._empty()
        ia = (cand >> np.int64(32)).astype(np.int64)
        ib = (cand & np.int64(0xFFFFFFFF)).astype(np.int64)
        bcA, la, bcB, lb = self._sides(ia, ib)

        cntA = bcA.l_key_off[la + 1] - bcA.l_key_off[la]
        cntB = bcB.r_key_off[lb + 1] - bcB.r_key_off[lb]
        # counter semantics: unique candidate pairs entering verification
        # (== round 2's ownership survivors), record-pair weighted
        checked = int((cntA * cntB).sum())
        self.checked += checked
        if self.skew_name:
            from ..state.skewstats import report as _skew_report
            _skew_report(self.skew_name, 'verify', checked,
                         self._skew_cache)
        if self.counter_name and checked:
            try:
                if self._counter is None:
                    self._counter = ray.get_actor(self.counter_name)
                self._counter.add.remote(checked)
            except ValueError:
                pass

        if self.mode == 'join':
            keep, scores = self._join_scores(bcA, la, bcB, lb)
        elif self.mode == 'overlap_candidates':
            scores = self._bag_overlap(bcA, la, bcB, lb)
            keep = np.flatnonzero(self.comp_fn(scores, self.threshold))
            scores = scores[keep]
        elif self.mode == 'position_candidates':
            keep = np.flatnonzero(self._position_keep(bcA, la, bcB, lb))
            scores = np.full(len(keep), np.nan)
        else:  # prefix_candidates: the candidate set is the output
            keep = np.arange(len(la))
            scores = np.full(len(keep), np.nan)
        if len(keep) == 0:
            return self._empty()
        out_l, out_r, out_s = self._expand_members(
            bcA, la[keep], bcB, lb[keep], ia[keep], ib[keep], cntA[keep],
            cntB[keep], scores)
        return _pairs_frame(self.mode, out_l, out_r, out_s)

    def _join_scores(self, bcA, la, bcB, lb) -> tuple:
        """(survivor index, score) of the exact join predicate."""
        idx = np.arange(len(la))
        if self.sim_type == 'EDIT_DISTANCE':
            # the exact Levenshtein on the strings: no prefix pass
            idx = idx[np.abs(bcA.s_len[la] - bcB.s_len[lb])
                      <= self.threshold]
            if len(idx) == 0:
                return idx, np.empty(0, np.float64)
            scores = _lev_many(bcA.s[la[idx]].tolist(),
                               bcB.s[lb[idx]].tolist()).astype(np.float64)
            keep = self.comp_fn(scores, self.threshold)
            return idx[keep], scores[keep]

        # ---- one prefix-intersection join computes, per UNIQUE pair:
        #   pov    = |prefix_A ∩ prefix_B|,
        #   pamax/pbmax = positions of the LAST shared prefix token in each
        #            full sorted rank array.
        # Sound position-filter bound (reference semantics generalized to
        # the whole prefix, filter/position_filter.py:340-344): every shared
        # token ranked below the last shared prefix token is itself in both
        # prefixes, so  overlap <= pov + min(szA-1-pamax, szB-1-pbmax).
        n_pairs = len(la)
        keyA, _pidA, _offA, segA = _slice_keys(
            bcA.rank_flat, bcA.rank_off[la], _prefix_lens(bcA, la))
        keyB, pidB, offB, _segB = _slice_keys(
            bcB.rank_flat, bcB.rank_off[lb], _prefix_lens(bcB, lb))
        pov = np.zeros(n_pairs, dtype=np.int64)
        pamax = np.zeros(n_pairs, dtype=np.int64)
        pbmax = np.zeros(n_pairs, dtype=np.int64)
        hit, loc = _match(keyA, keyB)
        if hit.any():
            # hits stay sorted by (pid, tok): min/max per pid are the
            # first/last element of each pid run
            hpid = pidB[hit]
            brk = np.flatnonzero(hpid[1:] != hpid[:-1])
            ilast = np.concatenate((brk, [len(hpid) - 1]))
            pu = hpid[np.concatenate(([0], brk + 1))]
            pov = np.bincount(hpid, minlength=n_pairs)
            pamax[pu] = (loc[hit] - segA[hpid])[ilast]
            pbmax[pu] = offB[hit][ilast]

        szA = bcA.sz[la]
        szB = bcB.sz[lb]
        ovt = bounds.overlap_threshold_many(szA, szB, self.sim_type,
                                            self.threshold)
        ub = pov + np.minimum(szA - 1 - pamax, szB - 1 - pbmax)
        idx = np.flatnonzero(ub >= ovt)
        la, lb = la[idx], lb[idx]
        # overlap = pov + |tail_A ∩ tail_B| where the tails start just
        # after the last shared prefix position (all earlier shared tokens
        # are already in pov — see bound derivation above).  Tails are tiny
        # for pruned survivors; a numpy sort-merge over (pid, token) keys
        # replaces round 2's full-array explode join.
        o = pov[idx] + self._tail_overlap(bcA, la, bcB, lb, pamax[idx],
                                          pbmax[idx])
        n1 = bcA.sz[la].astype(np.float64)
        n2 = bcB.sz[lb].astype(np.float64)
        of = o.astype(np.float64)
        st = self.sim_type
        if st == 'OVERLAP':
            scores = of
        elif st == 'OVERLAP_COEFFICIENT':
            scores = of / np.minimum(n1, n2)
        elif st == 'JACCARD':
            scores = of / (n1 + n2 - of)
        elif st == 'COSINE':
            scores = of / np.sqrt(n1 * n2)
        elif st == 'DICE':
            scores = 2.0 * of / (n1 + n2)
        else:  # pragma: no cover
            raise ValueError(st)
        if self.round_score and st in ('JACCARD', 'COSINE', 'DICE'):
            scores = np.round(scores, 4)
        keep = self.comp_fn(scores, self.threshold)
        return idx[keep], scores[keep]

    def _position_keep(self, bcA, la, bcB, lb) -> np.ndarray:
        """Reference PositionFilter survivors, A = L (indexed), B = R
        (probe): B's size bounds admit A's size, and for the i-th shared
        prefix token in ascending rank order
        ``i + min(szA - posA_i, szB - posB_i) >= T`` holds for EVERY i
        (``filter/position_filter.py:307-366``; the early abandon is only an
        optimization).  Bag prefixes keep each token's first occurrence."""
        szA, szB = bcA.sz[la], bcB.sz[lb]
        size_lo, size_hi, _, _ = _cand_luts(
            self.sim_type, self.threshold, int(max(szA.max(), szB.max())))
        keep = (szA >= size_lo[szB]) & (szA <= size_hi[szB])
        if self.sim_type == 'EDIT_DISTANCE':
            T = np.maximum(szA, szB) - self.qval * self.threshold
        else:
            T = bounds.overlap_threshold_many(szA, szB, self.sim_type,
                                              self.threshold)

        def first_keys(bcS, idx):
            key, pid, off, _ = _slice_keys(
                bcS.rank_flat, bcS.rank_off[idx], _prefix_lens(bcS, idx))
            first = np.ones(len(key), bool)
            first[1:] = key[1:] != key[:-1]
            return key[first], pid[first], off[first]

        keyA, _pidA, posA = first_keys(bcA, la)
        keyB, pidB, posB = first_keys(bcB, lb)
        hit, loc = _match(keyA, keyB)
        hpid = pidB[hit]
        if len(hpid):
            # i = rank of the hit within its pair's run (hits are sorted
            # by (pair, token))
            firsth = np.concatenate(([True], hpid[1:] != hpid[:-1]))
            run_start = np.maximum.accumulate(
                np.where(firsth, np.arange(len(hpid)), 0))
            i_idx = np.arange(len(hpid)) - run_start
            bound = np.minimum(szA[hpid] - posA[loc[hit]],
                               szB[hpid] - posB[hit])
            keep[hpid[i_idx + bound < T[hpid]]] = False
        return keep

    @staticmethod
    def _bag_overlap(bcA, la, bcB, lb) -> np.ndarray:
        """Σ_t cntA(t)·cntB(t) over the full (bag) rank arrays — the
        occurrence-pair count of the reference's inverted-index probe
        (``filter/overlap_filter.py:256-267``)."""
        def runs(bcS, idx):
            key, pid, _, _ = _slice_keys(
                bcS.rank_flat, bcS.rank_off[idx],
                bcS.rank_off[idx + 1] - bcS.rank_off[idx])
            uk, start, cnt = np.unique(key, return_index=True,
                                       return_counts=True)
            return uk, pid[start], cnt

        kA, _pA, cA = runs(bcA, la)
        kB, pB, cB = runs(bcB, lb)
        hit, loc = _match(kA, kB)
        return np.bincount(pB[hit], weights=cA[loc[hit]] * cB[hit],
                           minlength=len(la)).astype(np.float64)

    @staticmethod
    def _tail_overlap(bcA: _TsigBroadcast, la: np.ndarray,
                      bcB: _TsigBroadcast, lb: np.ndarray,
                      pamax: np.ndarray, pbmax: np.ndarray) -> np.ndarray:
        """|A[pamax+1:] ∩ B[pbmax+1:]| per pair, via a sort-merge over
        (pair, token) keys.  Set tokenizers make per-side tokens unique, so
        the match count is the exact intersection size."""
        startsA = bcA.rank_off[la] + pamax + 1
        startsB = bcB.rank_off[lb] + pbmax + 1
        keyA, _, _, _ = _slice_keys(
            bcA.rank_flat, startsA,
            np.maximum(bcA.rank_off[la + 1] - startsA, 0))
        keyB, pidB, _, _ = _slice_keys(
            bcB.rank_flat, startsB,
            np.maximum(bcB.rank_off[lb + 1] - startsB, 0))
        hit, _loc = _match(keyA, keyB)
        return np.bincount(pidB[hit], minlength=len(la)).astype(np.int64)

    def _expand_members(self, bcA, la, bcB, lb, ia, ib, cntA, cntB,
                        scores):
        """Membership expansion of surviving sig pairs, slabbed over the
        FLAT expansion space (like _CAND_SLAB in candgen): a single giant
        duplicate class (m identical records → one sig pair with tot = m²
        expanded rows) must not drive one unbounded np.repeat/np.arange
        allocation — each slab's transient arrays are bounded regardless
        of per-pair tot."""
        nl, nr = cntA, cntB
        tot = (nl * nr).astype(np.int64)
        cum = np.concatenate(([0], np.cumsum(tot)))
        total = int(cum[-1])
        offA_k = bcA.l_key_off[la]
        offB_k = bcB.r_key_off[lb]
        parts_l, parts_r, parts_s = [], [], []
        for s in range(0, total, _EXPAND_SLAB):
            e = min(s + _EXPAND_SLAB, total)
            flat = np.arange(s, e, dtype=np.int64)
            pair_idx = np.searchsorted(cum, flat, 'right') - 1
            off = flat - cum[pair_idx]
            nr_p = nr[pair_idx]
            out_l = bcA.l_key_flat[offA_k[pair_idx] + off // nr_p]
            out_r = bcB.r_key_flat[offB_k[pair_idx] + off % nr_p]
            out_s = scores[pair_idx]
            if self.self_join:
                # candidates are canonical (ia <= ib): orient each expanded
                # record pair (min, max).  Identity sig pairs (ia == ib)
                # expand to the full A x A cross — keep only the upper
                # triangle or min/max would double-count each unordered pair
                ident = (ia == ib)[pair_idx]
                lo = np.minimum(out_l, out_r)
                hi = np.maximum(out_l, out_r)
                keep = (lo < hi) & (~ident | (out_l < out_r))
                out_l, out_r, out_s = lo[keep], hi[keep], out_s[keep]
            elif self.same_relation:
                # full pair-matrix semantics (jaccard_join(A, A)):
                # canonical sig pairs carry both record-pair orientations;
                # identity sig pairs already expand to the full A x A cross
                mirror = (ia != ib)[pair_idx]
                ml, mr, ms = out_r[mirror], out_l[mirror], out_s[mirror]
                out_l = np.concatenate([out_l, ml])
                out_r = np.concatenate([out_r, mr])
                out_s = np.concatenate([out_s, ms])
            parts_l.append(out_l)
            parts_r.append(out_r)
            parts_s.append(out_s)
        return (np.concatenate(parts_l) if parts_l else np.empty(0, np.int64),
                np.concatenate(parts_r) if parts_r else np.empty(0, np.int64),
                np.concatenate(parts_s) if parts_s else
                np.empty(0, np.float64))


# shard count: one shard per _SHARD_TARGET_BYTES of the estimated
# signature table, a power of two (no empty top shards), at most
# _MAX_SHARDS — a task-count sanity bound, since each builder slices the
# split blocks by binary search instead of scanning them
_SHARD_TARGET_BYTES = 256 * 1024 ** 2
_MAX_SHARDS = 1024


def _shard_plan(size_bytes_hint: int | None, num_buckets: int) -> tuple:
    """(K shards, verify sub-buckets per shard pair), both from the data.
    K = next power of two of ceil(hint / target) in [1, _MAX_SHARDS]; the
    K^2 * shard_sub verify groups cover at least ``num_buckets``, so one
    shard routes pairs exactly as ``hash(pair64) % num_buckets``."""
    # no estimate: size the table as twice the broadcast floor (4 GiB)
    est = size_bytes_hint or 2 * _BROADCAST_GATE_FLOOR
    n = min(max(1, -(-int(est) // _SHARD_TARGET_BYTES)), _MAX_SHARDS)
    k = 1 << (n - 1).bit_length()
    return k, -(-num_buckets // (k * k))


@contextlib.contextmanager
def _shuffle_settings():
    """Settings of the Datasets one join plan creates (each Dataset
    snapshots the DataContext at creation), restored for the caller's
    unrelated pipelines on exit:
    - the candgen and verify shuffles are sorts — push-based shuffle
      pipelines the merge with the map side (measured 1.6x on the
      flagship's 29M-posting exchange);
    - the executor's per-operator resource reservation is off: it splits
      the CPU budget among ALL operators of the plan, so each barrier-
      separated stage ran at ~1/5 of the cluster while the others sat idle
      behind the sort barriers (measured: join window 25.0 s -> 13.0 s at
      8 CPUs with reservation off, identical output)."""
    ctx = ray.data.DataContext.get_current()
    prev = ctx.shuffle_strategy, ctx.op_resource_reservation_enabled
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    ctx.op_resource_reservation_enabled = False
    try:
        yield
    finally:
        ctx.shuffle_strategy, ctx.op_resource_reservation_enabled = prev


def slim_match_pairs(ranked_l, ranked_r, cfg, heavy_ref,
                     same_relation: bool,
                     size_bytes_hint: int | None = None) -> ray.data.Dataset:
    """ranked datasets (key, sz, ranks, plen[, s]) → Dataset of
    (l_key, r_key[, _sim_score]) for the join or candidates mode
    ``cfg.mode``.

    Tsig is built by K parallel shard builders, each shard (a HIGH-BIT
    signature range) its own bounded _TsigBroadcast ref.  Candidate pairs
    route by shard PAIR (BroadcastCandGen), so a verify task reads at most
    TWO shards (~_SHARD_TARGET_BYTES each, zero-copy per node) and the
    rank arrays never ride a pair exchange — the pair streams carry 8-B
    pair64s end to end (measured on the 3x/4.46M-file corpus at 32 CPUs:
    247 s with the former attach/expand passes, 63 s sharded).  Below the
    target, K = 1: the one shard is the whole table."""
    keep_string = cfg.keep_string
    nb = cfg.num_buckets
    sig_stage = SigStage(hash_string=keep_string)

    def tag(ds, side):
        def f(b: pa.Table) -> pa.Table:
            b = sig_stage(b)
            return b.append_column(
                'side', pa.array(np.full(len(b), side, np.int8)))
        f.__name__ = f'sig_side{side}'
        return ds.map_batches(f, batch_format='pyarrow')

    if same_relation:
        tagged = tag(ranked_l, 0)
    else:
        tagged = tag(ranked_l, 0).union(tag(ranked_r, 1))

    nsh, shard_sub = _shard_plan(size_bytes_hint, nb)
    with _shuffle_settings():
        shard_refs, bases, tbl_refs, nsig = collect_tsig_shards(
            tagged, same_relation, keep_string, nsh)
        if nsig == 0:
            return ray.data.from_pandas(pd.DataFrame({
                'l_key': np.array([], object),
                'r_key': np.array([], object),
                '_sim_score': np.array([], np.float64)}))
        postings = tsig_postings_input(tbl_refs, nsig).map_batches(
            SlimPostingsStage(nb, heavy_ref, emit_sides=not same_relation,
                              num_parts=_candgen_parts(nsig)),
            batch_format='pyarrow')
        cand = postings.groupby('part').map_groups(
            BroadcastCandGen(cfg.sim_type, cfg.threshold, bases, shard_sub,
                             same_relation=same_relation,
                             skew_name=cfg.skew_name, mode=cfg.mode),
            batch_format='pyarrow')
        fn = BroadcastVerify(
            shard_refs, bases, cfg.sim_type, cfg.threshold, cfg.comp_op,
            cfg.qval, same_relation=same_relation, self_join=cfg.self_join,
            round_score=True, counter_name=cfg.counter_name,
            skew_name=cfg.skew_name, mode=cfg.mode)
        return cand.groupby('vb').map_groups(fn, batch_format='pyarrow')
