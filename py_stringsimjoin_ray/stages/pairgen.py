"""Per-bucket candidate generation for the ``filter_tables`` candidates
modes.

Runs once per shuffle bucket: inside ``postings.groupby("bucket")
.map_groups(...)`` — the single all-to-all exchange of
``Filter.filter_tables`` — on the Dataset route, or over the same bucket
groups of an in-memory postings table on the local route
(``stages/localjoin._local_candidates``).  Re-expresses the probe
loops of the reference's ``filter/position_filter.py:307-366`` (position
filter), ``filter/prefix_filter.py:293-309`` (prefix filter) and
``filter/overlap_filter.py:256-267`` (full inverted index) in
group-parallel form.  Joins never come here: ``mode='join'`` runs the
local fast path (``stages/localjoin.py``) or the slim-postings pipeline
(``stages/slimjoin.py``).

Cross-bucket pair dedup uses the min-common-token rule: a pair sharing
several (prefix) tokens is processed ONLY in the group of its smallest-rank
shared token, so no second shuffle is needed for distinct-pairs.

Records with identical token-rank signatures are collapsed into signature
CLASSES: filtering runs once per class pair, and the (vectorized) emission
expands class pairs into record pairs.  This turns workloads dominated by
exact duplicates (the common case in dedup corpora) from O(|pairs|) python
work into O(|distinct signatures|²).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..core import bounds
from ..core.comp_ops import COMP_OP_MAP

CANDIDATE_MODES = ('prefix_candidates', 'position_candidates',
                   'overlap_candidates')

# 63-bit polynomial signature hash base (shared construction with
# slimjoin.SigStage) and the triangle-enumeration slab bound (~60 B/pair
# of transient arrays live at once)
_SIG_P = np.uint64(0x100000001B3)
_PAIR_SLAB = 4_000_000
_POWS = None


def _pows(n: int) -> np.ndarray:
    """P^i power table for the polynomial row hash, grown on demand and
    cached per process (uint64 wrap == mod 2^64)."""
    global _POWS
    if _POWS is None or len(_POWS) < n:
        m = max(n, 1024)
        p = np.full(m, _SIG_P, dtype=np.uint64)
        p[0] = np.uint64(1)
        _POWS = np.cumprod(p)
    return _POWS


class _CT:
    """Column-oriented class tables for the numpy bucket kernel (built by
    ``PairGenVerify._class_tables``)."""

    __slots__ = ('ncls', 'sz', 'plen', 'kh',
                 'rank_off', 'rank_flat',
                 'pu_off', 'pu_flat', 'pu_pos', 'pu_cnt',
                 'lkey_off', 'lkey_flat', 'rkey_off', 'rkey_flat',
                 'hl', 'hr')


def _duck():
    """One cached in-process DuckDB connection per worker (None if duckdb is
    unavailable)."""
    global _DUCK
    try:
        return _DUCK
    except NameError:
        pass
    try:
        import duckdb
        _DUCK = duckdb.connect()
        # each map_groups task is one CPU slot; don't oversubscribe, and cap
        # the buffer manager so N concurrent per-worker connections don't
        # each assume they own the node's RAM
        _DUCK.execute('SET threads TO 1')
        _DUCK.execute("SET memory_limit='2GB'")
        _DUCK.execute('SET preserve_insertion_order=false')
    except ImportError:  # pragma: no cover
        _DUCK = None
    return _DUCK


def _lev_many(l_strings, r_strings):
    """Vectorized Levenshtein over pair lists via DuckDB's C++ kernel, with a
    numpy-DP fallback.

    DuckDB's ``levenshtein`` is BYTE-based ('café' vs 'cafe' = 2), while the
    reference (and ``core.measures.levenshtein``) is CHARACTER-based (= 1) —
    pairs where either string contains non-ASCII go through the exact
    character DP instead."""
    con = _duck()
    if con is None:  # pragma: no cover
        from ..core.measures import levenshtein
        return np.array([levenshtein(a, b)
                         for a, b in zip(l_strings, r_strings)],
                        dtype=np.int64)
    import pyarrow as pa
    a_arr = pa.array(l_strings, type=pa.string())
    b_arr = pa.array(r_strings, type=pa.string())
    n = len(a_arr)
    # byte length == char length ⟺ pure ASCII (for valid UTF-8)
    ascii_pair = (
        pa.compute.equal(pa.compute.binary_length(a_arr),
                         pa.compute.utf8_length(a_arr)).to_numpy(
                             zero_copy_only=False)
        & pa.compute.equal(pa.compute.binary_length(b_arr),
                           pa.compute.utf8_length(b_arr)).to_numpy(
                               zero_copy_only=False))
    tbl = pa.table({'a': a_arr, 'b': b_arr})
    res = con.execute('SELECT levenshtein(a, b) FROM tbl').fetchnumpy()
    out = next(iter(res.values())).astype(np.int64)
    if not ascii_pair.all():
        from ..core.measures import levenshtein
        for i in np.nonzero(~ascii_pair)[0]:
            out[i] = levenshtein(l_strings[i], r_strings[i])
    return out


class PairGenVerify:
    """Group function for one shuffle bucket.

    mode:
      'prefix_candidates'   — pairs sharing ≥1 prefix token
      'position_candidates' — reference PositionFilter.filter_tables survivors
      'overlap_candidates'  — full-token postings, overlap count vs comp_op
                              (bag-product counting, OverlapFilter semantics)
    """

    def __init__(self, sim_type: str, threshold, comp_op: str = '>=',
                 qval=None, *, mode: str, out_sim_score: bool = True,
                 same_relation: bool = False):
        if mode not in CANDIDATE_MODES:
            raise ValueError(f'PairGenVerify mode must be one of '
                             f'{CANDIDATE_MODES}, got {mode!r}')
        self.__name__ = 'PairGenVerify'  # map_groups wraps plain functions
        # same_relation: postings carry ONE copy of each record (side 0);
        # every class doubles as both sides (halves the shuffle for
        # self-relation inputs)
        self.same_relation = same_relation
        self.sim_type = sim_type
        self.threshold = threshold
        self.comp_fn = COMP_OP_MAP[comp_op]
        self.qval = qval
        self.mode = mode
        self.out_sim_score = out_sim_score

    # ------------------------------------------------ numpy bucket kernel

    def _class_tables(self, df):
        """Vectorized class build — no per-row Python.

        Collapses the bucket's postings into signature classes using a
        63-bit polynomial hash over (ranks, sz, kh[, s]) — the same
        construction (and the same accepted collision probability,
        ~n²/2⁶³) as ``slimjoin.SigStage`` — then builds CSR views:

          rank_off/rank_flat   class rank arrays
          pu_off/pu_flat/pu_pos  unique prefix tokens (full tokens for
                               'overlap_candidates') + FIRST-occurrence
                               position in the class rank array
          pu_cnt               bag count of each unique token
                               ('overlap_candidates' only)
          lkey_off/lkey_flat   side-0 member keys per class (CSR)
          rkey_off/rkey_flat   side-1 member keys (same arrays when
                               ``same_relation``)

        Returns ``(ct, run_cls, run_tok, run_pos)`` where the run arrays
        are the distinct (class, token) postings of this bucket with the
        token's first-occurrence position.  Token ids must fit the 32-bit
        pack (the engine-wide slim postings make the same assumption)."""
        import pyarrow as pa
        if isinstance(df, pd.DataFrame):
            cols = ['key', 'side', 'tok', 'sz', 'plen', 'ranks']
            for extra in ('s', 'kh'):
                if extra in df.columns:
                    cols.append(extra)
            df = pa.Table.from_pandas(df[cols], preserve_index=False)
        n = len(df)
        keys = df['key'].to_numpy(zero_copy_only=False)
        sides = df['side'].to_numpy(zero_copy_only=False).astype(np.int8)
        toks = df['tok'].to_numpy(zero_copy_only=False).astype(np.int64)
        szs = df['sz'].to_numpy(zero_copy_only=False).astype(np.int64)
        plens = df['plen'].to_numpy(zero_copy_only=False).astype(np.int64)
        khs = (df['kh'].to_numpy(zero_copy_only=False).astype(np.int64)
               if 'kh' in df.column_names else np.full(n, -1, np.int64))
        if len(toks) and int(toks.max()) >= 2 ** 32:
            raise ValueError(f'token rank {int(toks.max())} does not fit '
                             f'the 32-bit token ids of the candidates '
                             f'kernel (limit 2**32)')
        ranks_arr = df['ranks'].combine_chunks()
        off = ranks_arr.offsets.to_numpy().astype(np.int64)
        flat = (ranks_arr.values.to_numpy(zero_copy_only=False)
                .astype(np.int64)
                if len(ranks_arr.values) else np.empty(0, np.int64))
        if len(off) and (off[0] != 0 or off[-1] != len(flat)):
            flat = flat[off[0]:off[-1]]          # sliced list array
            off = off - off[0]

        # ---- row signatures
        lens = off[1:] - off[:-1]
        pw = _pows(int(lens.max()) + 1 if n and len(lens) else 1)
        row_id = np.repeat(np.arange(n, dtype=np.int64), lens)
        posr = np.arange(len(flat), dtype=np.int64) \
            - np.repeat(off[:-1], lens)
        sig = np.zeros(n, dtype=np.uint64)
        if len(flat):
            weighted = (flat.astype(np.uint64) + np.uint64(1)) * pw[posr]
            np.add.at(sig, row_id, weighted)     # uint64 wrap
        sig = (sig ^ (szs.astype(np.uint64)
                      * np.uint64(0x9E3779B97F4A7C15))) * _SIG_P
        sig ^= (khs + 2).astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
        if 's' in df.column_names:
            from .postings import _token_hashes
            sig ^= _token_hashes(df['s'].combine_chunks())

        _uniq, first_idx, row_class = np.unique(
            sig, return_index=True, return_inverse=True)
        ncls = len(first_idx)
        ct = _CT()
        ct.ncls = ncls
        ct.sz = szs[first_idx]
        ct.plen = plens[first_idx]
        ct.kh = khs[first_idx]

        # ---- class rank arrays (CSR gather of each class's first row)
        src_off = off[first_idx]
        src_len = lens[first_idx]
        ct.rank_off = np.concatenate(([0], np.cumsum(src_len)))
        gpos = (np.arange(ct.rank_off[-1], dtype=np.int64)
                - np.repeat(ct.rank_off[:-1], src_len))
        ct.rank_flat = flat[np.repeat(src_off, src_len) + gpos]

        # ---- unique prefix tokens + first-occurrence positions (bags may
        # repeat a token inside the prefix; sorted order makes the dedup a
        # consecutive-run mask)
        full = self.mode == 'overlap_candidates'
        pl = src_len if full else np.minimum(ct.plen, src_len)
        seg = np.concatenate(([0], np.cumsum(pl)))
        ppos = (np.arange(seg[-1], dtype=np.int64)
                - np.repeat(seg[:-1], pl))
        pf = ct.rank_flat[np.repeat(ct.rank_off[:-1], pl) + ppos]
        firstel = ppos == 0
        ne = np.empty(len(pf), bool)
        if len(pf):
            ne[0] = True
            ne[1:] = pf[1:] != pf[:-1]
        keep = firstel | ne
        ct.pu_flat = pf[keep]
        ct.pu_pos = ppos[keep]
        cls_of = np.repeat(np.arange(ncls, dtype=np.int64), pl)[keep]
        ct.pu_off = np.concatenate(
            ([0], np.cumsum(np.bincount(cls_of, minlength=ncls))))

        if full:  # bag counts for overlap counting
            kept_idx = np.flatnonzero(keep)
            ct.pu_cnt = np.diff(np.concatenate((kept_idx, [len(pf)])))
        else:
            ct.pu_cnt = None

        # ---- memberships: distinct (side, key, class) -> per-side CSR
        kcodes, _lv = pd.factorize(keys, sort=False)
        order = np.lexsort((kcodes, sides, row_class))
        rc, sd, kc = row_class[order], sides[order], kcodes[order]
        dup = np.zeros(len(order), bool)
        if len(order) > 1:
            dup[1:] = ((rc[1:] == rc[:-1]) & (sd[1:] == sd[:-1])
                       & (kc[1:] == kc[:-1]))
        ent = order[~dup]
        m0 = sides[ent] == 0
        l_rows = ent[m0]
        ct.lkey_off = np.concatenate(([0], np.cumsum(
            np.bincount(row_class[l_rows], minlength=ncls))))
        ct.lkey_flat = keys[l_rows]
        if self.same_relation:
            ct.rkey_off, ct.rkey_flat = ct.lkey_off, ct.lkey_flat
        else:
            r_rows = ent[~m0]
            ct.rkey_off = np.concatenate(([0], np.cumsum(
                np.bincount(row_class[r_rows], minlength=ncls))))
            ct.rkey_flat = keys[r_rows]
        ct.hl = np.diff(ct.lkey_off) > 0
        ct.hr = np.diff(ct.rkey_off) > 0

        # ---- distinct (class, token) runs + first-occurrence positions
        ro = np.lexsort((toks, row_class))
        rcq, rtq = row_class[ro], toks[ro]
        dupr = np.zeros(len(ro), bool)
        if len(ro) > 1:
            dupr[1:] = (rcq[1:] == rcq[:-1]) & (rtq[1:] == rtq[:-1])
        run_cls = rcq[~dupr]
        run_tok = rtq[~dupr]
        pk = ((np.repeat(np.arange(ncls, dtype=np.uint64), src_len)
               << np.uint64(32)) | ct.rank_flat.astype(np.uint64))
        qk = ((run_cls.astype(np.uint64) << np.uint64(32))
              | run_tok.astype(np.uint64))
        run_pos = np.searchsorted(pk, qk) - ct.rank_off[run_cls]
        return ct, run_cls, run_tok, run_pos

    @staticmethod
    def _intersect_pairs(flat, offsets, la, lenA, rb, lenB):
        """Sorted-merge intersection of per-class sorted-unique token
        slices for each pair (la[i], rb[i]); slice i covers the first
        ``lenA[i]`` / ``lenB[i]`` elements of the class's CSR slice.
        Returns (hit_pid, a_flat_idx, b_flat_idx), hits sorted by
        (pid, token) — i.e. per pair in ascending rank order."""
        npairs = len(la)

        def side_keys(cls_idx, ln):
            tot = int(ln.sum())
            segs = np.concatenate(([0], np.cumsum(ln)))
            pid = np.repeat(np.arange(npairs, dtype=np.int64), ln)
            d = np.arange(tot, dtype=np.int64) - np.repeat(segs[:-1], ln)
            gidx = np.repeat(offsets[cls_idx], ln) + d
            key = ((pid.astype(np.uint64) << np.uint64(32))
                   | flat[gidx].astype(np.uint64))
            return key, pid, gidx

        keyA, _pa, gA = side_keys(la, lenA)
        keyB, pidB, gB = side_keys(rb, lenB)
        if len(keyA) == 0 or len(keyB) == 0:
            z = np.empty(0, np.int64)
            return z, z, z
        loc = np.searchsorted(keyA, keyB)
        loc = np.minimum(loc, len(keyA) - 1)
        hit = keyA[loc] == keyB
        return pidB[hit], gA[loc[hit]], gB[hit]

    def __call__(self, df) -> pd.DataFrame:
        """Vectorized per-bucket kernel — the lexsort/triangle candidate
        enumeration of ``slimjoin._np_candidates`` ported to the
        filter_tables candidates modes:

        1. class build (``_class_tables``), fully vectorized;
        2. per-token-group triangle enumeration over the distinct
           (class, token) runs, sz-ascending, with positional eligibility
           pruning of the preceding side for 'position_candidates' (the
           other modes enumerate everything — their output IS the
           candidate set, so the volume is irreducible);
        3. per-pair dedup with the bucket-min shared group token
           ``gmin``, then the min-common-token ownership rule (no shared
           prefix token < gmin anywhere — one truncated sorted-merge
           intersection), reproducing the reference's exact-once pair
           accounting (``filter/overlap_filter.py:256-267`` /
           ``filter/position_filter.py:307-366`` semantics);
        4. mode filter: size-bound LUTs + the reference position-filter
           accumulation (``filter/position_filter.py:340-362``) for
           'position_candidates'; bag-product overlap counting for
           'overlap_candidates';
        5. vectorized CSR membership expansion to record pairs.
        """
        mode = self.mode
        empty = self._empty_frame()
        if len(df) == 0:
            return empty
        ct, run_cls, run_tok, run_pos = self._class_tables(df)
        if ct.ncls == 0 or len(run_cls) == 0:
            return empty
        sz = ct.sz

        # ---- runs sorted into (token, size, class) groups
        o = np.lexsort((run_cls, sz[run_cls], run_tok))
        g_tok = run_tok[o]
        g_cls = run_cls[o]
        g_sz = sz[g_cls]
        g_pos = run_pos[o]
        nr = len(o)
        rem = g_sz - g_pos

        # positional eligibility of the preceding (size-smaller) side:
        # rem >= ovt(sz, sz).  Sound only for overlap-bounded outputs.
        size_lo = size_hi = None
        if mode == 'position_candidates':
            from .slimjoin import _cand_luts
            size_lo, size_hi, ovt_sum, ovt_min = _cand_luts(
                self.sim_type, self.threshold, int(sz.max()))
            if self.sim_type == 'EDIT_DISTANCE':
                elig = g_pos <= self.qval * self.threshold
            elif ovt_sum is not None:
                elig = rem >= ovt_sum[2 * g_sz]
            elif ovt_min is not None:
                elig = rem >= ovt_min[g_sz]
            elif self.sim_type == 'COSINE':
                elig = rem >= np.ceil(np.round(
                    self.threshold * g_sz.astype(np.float64), 4)
                ).astype(np.int64)
            else:  # OVERLAP
                elig = rem >= np.int64(int(np.ceil(self.threshold)))
        else:
            elig = np.ones(nr, dtype=bool)

        hl, hr, kh = ct.hl, ct.hr, ct.kh
        la_parts, rb_parts, gt_parts = [], [], []

        def emit(ii, ji):
            ci, cj = g_cls[ii], g_cls[ji]
            khi, khj = kh[ci], kh[cj]
            keep = (khi == -1) | (khj == -1) | (khi != khj)
            ci, cj, ii = ci[keep], cj[keep], ii[keep]
            gt = g_tok[ii]
            fwd = hl[ci] & hr[cj]
            rev = hl[cj] & hr[ci]
            la_parts.append(np.concatenate([ci[fwd], cj[rev]]))
            rb_parts.append(np.concatenate([cj[fwd], ci[rev]]))
            gt_parts.append(np.concatenate([gt[fwd], gt[rev]]))

        gfirst = np.concatenate(([True], g_tok[1:] != g_tok[:-1]))
        gstart = np.flatnonzero(gfirst)
        grp = (np.cumsum(gfirst) - 1).astype(np.int64)
        ec = np.cumsum(elig)
        start_c = np.zeros(len(gstart), np.int64)
        start_c[1:] = ec[gstart[1:] - 1]
        cnt = ec - elig - start_c[grp]
        e_idx = np.flatnonzero(elig)
        e_base = start_c[grp]
        rows = np.flatnonzero(cnt > 0)
        if len(rows):
            cnt_j = cnt[rows]
            csum = np.concatenate(([0], np.cumsum(cnt_j)))
            lo = 0
            while lo < len(rows):
                hi = int(np.searchsorted(csum, csum[lo] + _PAIR_SLAB,
                                         'left'))
                hi = min(max(hi, lo + 1), len(rows))
                rj, cj_ = rows[lo:hi], cnt_j[lo:hi]
                base = csum[lo:hi] - csum[lo]
                lo = hi
                ji = np.repeat(rj, cj_)
                d = (np.arange(len(ji), dtype=np.int64)
                     - np.repeat(base, cj_))
                ii = e_idx[np.repeat(e_base[rj], cj_) + d]
                emit(ii, ji)

        if la_parts:
            la = np.concatenate(la_parts)
            rb = np.concatenate(rb_parts)
            gt = np.concatenate(gt_parts)
        else:
            la = rb = gt = np.empty(0, np.int64)

        # ---- per-pair dedup (min group token) + ownership
        if len(la):
            pairkey = (la << np.int64(32)) | rb
            po = np.lexsort((gt, pairkey))
            pk_s, gt_s = pairkey[po], gt[po]
            firstp = np.concatenate(([True], pk_s[1:] != pk_s[:-1]))
            la = (pk_s[firstp] >> np.int64(32))
            rb = (pk_s[firstp] & np.int64(0xFFFFFFFF))
            gmin = gt_s[firstp]
            # ownership: no shared prefix token ranked below gmin anywhere
            # (== the global min shared token is gmin, so THIS bucket owns
            # the pair).  One truncated intersection over tokens < gmin.
            pu_key = ((np.repeat(np.arange(ct.ncls, dtype=np.uint64),
                                 np.diff(ct.pu_off))
                       << np.uint64(32))
                      | ct.pu_flat.astype(np.uint64))
            limA = np.searchsorted(
                pu_key, (la.astype(np.uint64) << np.uint64(32))
                | gmin.astype(np.uint64)) - ct.pu_off[la]
            limB = np.searchsorted(
                pu_key, (rb.astype(np.uint64) << np.uint64(32))
                | gmin.astype(np.uint64)) - ct.pu_off[rb]
            hpid, _ga, _gb = self._intersect_pairs(
                ct.pu_flat, ct.pu_off, la, limA, rb, limB)
            owned = np.ones(len(la), dtype=bool)
            owned[hpid] = False
            la, rb = la[owned], rb[owned]
        # identity pairs: exactly once, via the class's min-prefix-token
        # posting (pos == 0) in its unsalted/diagonal (kh == -1) role
        idm = (g_pos == 0) & (kh[g_cls] == -1) & hl[g_cls] & hr[g_cls]
        idc = g_cls[idm]
        la = np.concatenate([la, idc])
        rb = np.concatenate([rb, idc])
        if len(la) == 0:
            return empty

        # ---- mode filter
        scores = None
        if mode == 'position_candidates':
            szl, szr = sz[la], sz[rb]
            keep = (szl >= size_lo[szr]) & (szl <= size_hi[szr])
            la, rb = self._position_filter_np(ct, la[keep], rb[keep])
        elif mode == 'overlap_candidates':
            # bag-product counting (OverlapFilter semantics)
            hpid, ga, gb = self._intersect_pairs(
                ct.pu_flat, ct.pu_off, la, np.diff(ct.pu_off)[la],
                rb, np.diff(ct.pu_off)[rb])
            scores = np.bincount(hpid,
                                 weights=(ct.pu_cnt[ga] * ct.pu_cnt[gb]),
                                 minlength=len(la))
            keep = self.comp_fn(scores, self.threshold)
            la, rb, scores = la[keep], rb[keep], scores[keep]
        # prefix_candidates: every owned pair passes, no score column

        if len(la) == 0:
            return empty
        return self._emit_csr(ct, la, rb, scores)

    def _position_filter_np(self, ct, la, rb):
        """Reference PositionFilter accumulation, vectorized: for the i-th
        shared prefix token (ascending rank order) require
        ``i + min(r_sz - r_pos_i, l_sz - l_pos_i) >= overlap_threshold``
        for ALL i (``filter/position_filter.py:340-362``)."""
        if len(la) == 0:
            return la, rb
        sz = ct.sz
        if self.sim_type == 'EDIT_DISTANCE':
            T = (np.maximum(sz[la] + self.qval - 1, sz[rb] + self.qval - 1)
                 - self.qval + 1 - self.qval * self.threshold)
        else:
            T = bounds.overlap_threshold_many(
                sz[la], sz[rb], self.sim_type, self.threshold)
        hpid, ga, gb = self._intersect_pairs(
            ct.pu_flat, ct.pu_off, la, np.diff(ct.pu_off)[la],
            rb, np.diff(ct.pu_off)[rb])
        bad = np.zeros(len(la), dtype=bool)
        if len(hpid):
            firsth = np.concatenate(([True], hpid[1:] != hpid[:-1]))
            run_start = np.zeros(len(hpid), np.int64)
            run_start[firsth] = np.flatnonzero(firsth)
            run_start = np.maximum.accumulate(run_start)
            i_idx = np.arange(len(hpid), dtype=np.int64) - run_start
            # L is la (side-0 class), positions from the prefix build
            bound = np.minimum(sz[rb][hpid] - ct.pu_pos[gb],
                               sz[la][hpid] - ct.pu_pos[ga])
            viol = (i_idx + bound) < T[hpid]
            bad[hpid[viol]] = True
        keep = ~bad
        return la[keep], rb[keep]

    def _emit_csr(self, ct, la, rb, scores) -> pd.DataFrame:
        """Expand surviving class pairs into record pairs via the CSR
        membership arrays — the cross product of a's side-0 keys with b's
        side-1 keys per pair, fully vectorized."""
        l_cnt = np.diff(ct.lkey_off)
        r_cnt = np.diff(ct.rkey_off)
        nl, nr = l_cnt[la], r_cnt[rb]
        tot = nl * nr
        total = int(tot.sum())
        pair_idx = np.repeat(np.arange(len(la)), tot)
        d = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(tot)))[:-1], tot)
        nr_p = nr[pair_idx]
        out_l = ct.lkey_flat[ct.lkey_off[la][pair_idx] + d // nr_p]
        out_r = ct.rkey_flat[ct.rkey_off[rb][pair_idx] + d % nr_p]
        cols = {'l_key': out_l, 'r_key': out_r}
        if self._scored():
            cols['_sim_score'] = scores[pair_idx]
        return pd.DataFrame(cols)

    def _scored(self) -> bool:
        return self.out_sim_score and self.mode == 'overlap_candidates'

    def _empty_frame(self) -> pd.DataFrame:
        cols = {'l_key': np.array([], dtype=object),
                'r_key': np.array([], dtype=object)}
        if self._scored():
            cols['_sim_score'] = np.array([], dtype=np.float64)
        return pd.DataFrame(cols)
