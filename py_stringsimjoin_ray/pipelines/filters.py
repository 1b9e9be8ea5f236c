"""Blocking filters — reference-parity classes on Ray Data.

Mirrors the reference's ``filter/*.py``: each filter offers
``filter_pair`` (single-pair predicate, pair-local token ordering),
``filter_tables`` (table×table candidate generation, global ordering) and the
inherited ``filter_candset`` (re-check a candidate set).  The prefix,
position and overlap filters' ``filter_tables`` run through the joins'
entry point (``join.match_pairs_dataset``) and the joins' one candidate
kernel (``stages/slimjoin.py``), with the candidates mode as its filter
predicate: the size-gated local route in one Ray task, else the
slim-postings Dataset pipeline.  ``filter_pair`` and the suffix filter's
recursive bound are pure Python.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..core import bounds
from ..core import validation as V
from ..core.comp_ops import COMP_OP_MAP
from ..core.measures import overlap as set_overlap
from ..core.ordering import apply_ordering, build_ordering_for_lists
from ..state.broadcast import broadcast_gate_bytes
from .join import (_JoinConfig, _assemble_pandas, _remove_redundant_attrs,
                   _to_dataset, match_pairs_dataset,
                   DEFAULT_NUM_BUCKETS, DEFAULT_SALT_DF_THRESHOLD)


def _pd_with_cols(ds, cols: list[str]) -> pd.DataFrame:
    """``ds.to_pandas()`` that keeps the expected columns even when the
    dataset is fully empty (Ray drops the schema of a zero-row dataset,
    e.g. when every join-attribute value was null)."""
    df = ds.to_pandas()
    if len(df.columns) == 0 and len(df) == 0:
        df = pd.DataFrame({c: [] for c in cols})
    return df


class Filter:
    """Base: allow_missing + filter_candset
    (``/root/reference/py_stringsimjoin/filter/filter.py:11-137``)."""

    def __init__(self, allow_missing=False):
        self.allow_missing = allow_missing

    def filter_pair(self, lstring, rstring) -> bool:  # pragma: no cover
        raise NotImplementedError

    def _candset_fingerprint(self, candset, candset_l_key_attr,
                             candset_r_key_attr, ltable, rtable, l_key_attr,
                             r_key_attr, l_filter_attr, r_filter_attr):
        """Default checkpoint fingerprint: filter parameters + content
        signatures of the candset key pairs and both tables' key+filter
        columns (ADVICE r3: counts alone alias equal-cardinality content
        changes)."""
        import hashlib
        import json as _json

        from .join import content_signature
        params = sorted((k, repr(v)) for k, v in vars(self).items()
                        if isinstance(v, (int, float, str, bool,
                                          type(None))))
        tok = getattr(self, 'tokenizer', None)
        tok_sig = (type(tok).__name__ if tok is not None else None,
                   getattr(tok, 'qval', None),
                   getattr(tok, 'delim_set', None) and
                   sorted(tok.delim_set),
                   tok.get_return_set() if tok is not None else None)
        payload = [type(self).__name__, params, list(tok_sig),
                   candset_l_key_attr, candset_r_key_attr, l_key_attr,
                   r_key_attr, l_filter_attr, r_filter_attr,
                   content_signature(candset, [candset_l_key_attr,
                                               candset_r_key_attr]),
                   content_signature(ltable, [l_key_attr, l_filter_attr]),
                   content_signature(rtable, [r_key_attr, r_filter_attr])]
        return hashlib.md5(_json.dumps(payload).encode()).hexdigest()

    def filter_candset(self, candset, candset_l_key_attr, candset_r_key_attr,
                       ltable, rtable, l_key_attr, r_key_attr,
                       l_filter_attr, r_filter_attr, n_jobs=1,
                       show_progress=False, checkpoint_dir=None,
                       input_fingerprint=None):
        V.validate_input_table(candset, 'candset')
        cand_cols = V.table_columns(candset)
        V.validate_attr(candset_l_key_attr, cand_cols,
                        'left key attribute', 'candset')
        V.validate_attr(candset_r_key_attr, cand_cols,
                        'right key attribute', 'candset')
        V.validate_input_table(ltable, 'left table')
        V.validate_input_table(rtable, 'right table')
        l_cols, r_cols = V.table_columns(ltable), V.table_columns(rtable)
        V.validate_attr(l_key_attr, l_cols, 'key attribute', 'left table')
        V.validate_attr(r_key_attr, r_cols, 'key attribute', 'right table')
        V.validate_attr(l_filter_attr, l_cols, 'filter attribute', 'left table')
        V.validate_attr(r_filter_attr, r_cols, 'filter attribute', 'right table')
        V.validate_attr_type(l_filter_attr, V.get_attr_type(ltable, l_filter_attr),
                             'filter attribute', 'left table')
        V.validate_attr_type(r_filter_attr, V.get_attr_type(rtable, r_filter_attr),
                             'filter attribute', 'right table')
        V.validate_key_attr(l_key_attr, ltable, 'left table')
        V.validate_key_attr(r_key_attr, rtable, 'right table')

        if isinstance(candset, pd.DataFrame) and candset.empty:
            return candset

        # stream the candset through map_batches (same shape as
        # apply_matcher): the filter-attr projections attach per batch via
        # stages/attach.py — broadcast once under the object-store gate,
        # bucketed hash-shuffle attach beyond it (VERDICT r2 #3) — and the
        # per-pair predicate runs distributed over candset batches
        from ..stages.attach import (arrow_schema_of, broadcast_map,
                                     bucketed_attach, plan_side)
        lmode, lside = plan_side(ltable, l_key_attr,
                                 list(dict.fromkeys([l_key_attr,
                                                     l_filter_attr])))
        rmode, rside = plan_side(rtable, r_key_attr,
                                 list(dict.fromkeys([r_key_attr,
                                                     r_filter_attr])))
        flt = self
        broadcast = lmode == 'broadcast' and rmode == 'broadcast'

        if broadcast:
            lmap = dict(zip(lside[l_key_attr], lside[l_filter_attr]))
            rmap = dict(zip(rside[r_key_attr], rside[r_filter_attr]))

            def keep_batch(batch: pd.DataFrame, lmap: dict,
                           rmap: dict) -> pd.DataFrame:
                keep = [not flt.filter_pair(lmap[lk], rmap[rk])
                        for lk, rk in zip(batch[candset_l_key_attr],
                                          batch[candset_r_key_attr])]
                return batch[np.asarray(keep, dtype=bool)]
            keep_batch.__name__ = 'filter_candset'

            def run(cand):
                return broadcast_map(cand, keep_batch, lmap, rmap)
        else:
            def run(cand_ds):
                cand_schema = arrow_schema_of(cand_ds)
                if cand_schema is None:  # schema-less empty candset
                    return cand_ds       # (ADVICE r3: mirror matcher.py)
                att, lm, sch1 = bucketed_attach(
                    cand_ds, cand_schema, lside, candset_l_key_attr,
                    l_key_attr, [l_key_attr, l_filter_attr]
                    if l_filter_attr != l_key_attr else [l_key_attr], 'l',
                    salt_col=candset_r_key_attr)
                att, rm, _ = bucketed_attach(
                    att, sch1, rside, candset_r_key_attr, r_key_attr,
                    [r_key_attr, r_filter_attr]
                    if r_filter_attr != r_key_attr else [r_key_attr], 'r',
                    salt_col=candset_l_key_attr)
                drop = [c for c in list(lm.values()) + list(rm.values())
                        if c.startswith('__ssj_')]

                def keep_joined(batch: pd.DataFrame) -> pd.DataFrame:
                    lv = batch[lm[l_filter_attr]]
                    rv = batch[rm[r_filter_attr]]
                    keep = [not flt.filter_pair(l, r)
                            for l, r in zip(lv, rv)]
                    return batch[np.asarray(keep, dtype=bool)] \
                        .drop(columns=drop)
                keep_joined.__name__ = 'filter_candset'
                return att.map_batches(keep_joined, batch_format='pandas')

        ckpt_fp = None
        if checkpoint_dir:
            # resumable candset refinement (north-rule, VERDICT r3 #9):
            # the filtered stream checkpoints as partitioned Parquet with
            # a lineage manifest; a matching fingerprint skips the pass
            from ..state import manifests as mf
            ckpt_fp = input_fingerprint or self._candset_fingerprint(
                candset, candset_l_key_attr, candset_r_key_attr, ltable,
                rtable, l_key_attr, r_key_attr, l_filter_attr,
                r_filter_attr)

        def run_ckpt(cand_ds):
            if ckpt_fp is None:
                return run(cand_ds)
            from ..state import manifests as mf
            if mf.is_complete(checkpoint_dir, 'candset', ckpt_fp):
                return mf.read_stage(checkpoint_dir, 'candset')
            return mf.write_stage(run(cand_ds), checkpoint_dir, 'candset',
                                  ckpt_fp)

        if isinstance(candset, ray.data.Dataset):
            return run_ckpt(candset)
        if broadcast and ckpt_fp is None:
            # the whole frame in one plain task, no Dataset; the row mask
            # keeps the frame's own index and order
            return run(candset)
        # DataFrame parity: carry the original index AND position through the
        # pipeline so the filtered frame keeps the reference's row
        # identities and order (the bucketed-attach regime reorders rows)
        staged = candset.reset_index()
        idx_col = staged.columns[0]
        staged['__ssj_pos'] = np.arange(len(staged))
        out_pd = run_ckpt(ray.data.from_pandas(staged)).to_pandas()
        if idx_col not in out_pd.columns:  # empty result lost its schema
            out_pd = staged.iloc[0:0]
        out_pd = out_pd.sort_values('__ssj_pos').drop(columns=['__ssj_pos'])
        out_pd = out_pd.set_index(idx_col)
        out_pd.index.name = candset.index.name
        return out_pd

    # shared filter_tables driver over the join pipeline
    def _tables_via_pipeline(self, mode, sim_type, threshold, comp_op,
                             allow_empty, tokenizer, ltable, rtable,
                             l_key_attr, r_key_attr, l_filter_attr,
                             r_filter_attr, l_out_attrs, r_out_attrs,
                             l_out_prefix, r_out_prefix, out_sim_score=False,
                             score_dtype=None, num_buckets=DEFAULT_NUM_BUCKETS,
                             salt_df_threshold=DEFAULT_SALT_DF_THRESHOLD,
                             output='pandas'):
        V.validate_input_table(ltable, 'left table')
        V.validate_input_table(rtable, 'right table')
        l_cols, r_cols = V.table_columns(ltable), V.table_columns(rtable)
        V.validate_attr(l_key_attr, l_cols, 'key attribute', 'left table')
        V.validate_attr(r_key_attr, r_cols, 'key attribute', 'right table')
        V.validate_attr(l_filter_attr, l_cols, 'filter attribute', 'left table')
        V.validate_attr(r_filter_attr, r_cols, 'filter attribute', 'right table')
        V.validate_attr_type(l_filter_attr, V.get_attr_type(ltable, l_filter_attr),
                             'filter attribute', 'left table')
        V.validate_attr_type(r_filter_attr, V.get_attr_type(rtable, r_filter_attr),
                             'filter attribute', 'right table')
        V.validate_output_attrs(l_out_attrs, l_cols, r_out_attrs, r_cols)
        if isinstance(ltable, pd.DataFrame):
            V.validate_key_attr(l_key_attr, ltable, 'left table')
            V.validate_key_attr(r_key_attr, rtable, 'right table')

        l_out_attrs = _remove_redundant_attrs(l_out_attrs, l_key_attr)
        r_out_attrs = _remove_redundant_attrs(r_out_attrs, r_key_attr)
        handle_empty = allow_empty and sim_type not in ('OVERLAP',
                                                        'EDIT_DISTANCE')
        cfg = _JoinConfig(sim_type, tokenizer, threshold, comp_op,
                          handle_empty, self.allow_missing, out_sim_score,
                          mode=mode, num_buckets=num_buckets,
                          salt_df_threshold=salt_df_threshold)
        pairs, empties = match_pairs_dataset(ltable, rtable, l_key_attr,
                                             r_key_attr, l_filter_attr,
                                             r_filter_attr, cfg)
        if output == 'dataset':
            # 100-TB candset path: the pair stream (plus empty/missing
            # classes) stays distributed — feed it straight into
            # filter_candset / apply_matcher without a driver stop
            from .join import _dataset_with_extras
            return _dataset_with_extras(pairs, empties, cfg, ltable, rtable,
                                        l_key_attr, r_key_attr,
                                        l_filter_attr, r_filter_attr)
        return _assemble_pandas(pairs, empties, ltable, rtable, l_key_attr,
                                r_key_attr, l_filter_attr, r_filter_attr, cfg,
                                l_out_attrs, r_out_attrs, l_out_prefix,
                                r_out_prefix, out_sim_score,
                                score_dtype=score_dtype)


class OverlapFilter(Filter):
    """``filter/overlap_filter.py:23-334``.  filter_pair uses SET overlap;
    filter_tables counts per token occurrence via the inverted index
    (bag-product when given a bag tokenizer) — both reproduced."""

    def __init__(self, tokenizer, overlap_size=1, comp_op='>=',
                 allow_missing=False):
        V.validate_tokenizer(tokenizer)
        V.validate_threshold(overlap_size, 'OVERLAP')
        V.validate_comp_op_for_sim_measure(comp_op, 'OVERLAP')
        self.tokenizer = tokenizer
        self.overlap_size = overlap_size
        self.comp_op = comp_op
        super().__init__(allow_missing)

    def filter_pair(self, lstring, rstring) -> bool:
        if pd.isnull(lstring) or pd.isnull(rstring):
            return not self.allow_missing
        if (not lstring) or (not rstring):
            return True
        num_overlap = set_overlap(self.tokenizer.tokenize(lstring),
                                  self.tokenizer.tokenize(rstring))
        return not COMP_OP_MAP[self.comp_op](num_overlap, self.overlap_size)

    def filter_tables(self, ltable, rtable, l_key_attr, r_key_attr,
                      l_filter_attr, r_filter_attr, l_out_attrs=None,
                      r_out_attrs=None, l_out_prefix='l_', r_out_prefix='r_',
                      out_sim_score=False, n_jobs=1, show_progress=False,
                      **kw):
        return self._tables_via_pipeline(
            'overlap_candidates', 'OVERLAP', self.overlap_size, self.comp_op,
            False, self.tokenizer, ltable, rtable, l_key_attr, r_key_attr,
            l_filter_attr, r_filter_attr, l_out_attrs, r_out_attrs,
            l_out_prefix, r_out_prefix, out_sim_score=out_sim_score,
            score_dtype=np.int64, **kw)

    def find_candidates(self, probe_tokens, inverted_index):
        # compatibility shim for code written against the reference surface;
        # accepts a plain token->ids dict or a core.index_shims.InvertedIndex
        index = getattr(inverted_index, 'index', inverted_index) or {}
        candidate_overlap = {}
        for token in probe_tokens:
            for cand in index.get(token, ()):
                candidate_overlap[cand] = candidate_overlap.get(cand, 0) + 1
        return candidate_overlap


class SizeFilter(Filter):
    """``filter/size_filter.py``: pair survives iff the token-count bounds
    admit it.  Table mode pairs by SIZE key (no token postings): L records
    are grouped by exact token count, R probes emit one probe per size in
    [lb, ub] clipped to the observed L size range."""

    def __init__(self, tokenizer, sim_measure_type, threshold,
                 allow_empty=True, allow_missing=False):
        V.validate_sim_measure_type(sim_measure_type)
        sim_measure_type = sim_measure_type.upper()
        V.validate_tokenizer_for_sim_measure(tokenizer, sim_measure_type)
        V.validate_threshold(threshold, sim_measure_type)
        self.tokenizer = tokenizer
        self.sim_measure_type = sim_measure_type
        self.threshold = threshold
        self.allow_empty = allow_empty
        super().__init__(allow_missing)

    def filter_pair(self, lstring, rstring) -> bool:
        if pd.isnull(lstring) or pd.isnull(rstring):
            return not self.allow_missing
        l_n = len(self.tokenizer.tokenize(lstring))
        r_n = len(self.tokenizer.tokenize(rstring))
        if l_n == 0 and r_n == 0:
            if self.sim_measure_type == 'OVERLAP':
                return True
            if self.sim_measure_type == 'EDIT_DISTANCE':
                return False
            return not self.allow_empty
        lb = bounds.size_lower_bound(l_n, self.sim_measure_type, self.threshold)
        ub = bounds.size_upper_bound(l_n, self.sim_measure_type, self.threshold)
        return not (lb <= r_n <= ub)

    def filter_tables(self, ltable, rtable, l_key_attr, r_key_attr,
                      l_filter_attr, r_filter_attr, l_out_attrs=None,
                      r_out_attrs=None, l_out_prefix='l_', r_out_prefix='r_',
                      n_jobs=1, show_progress=False, output='pandas'):
        from ..stages.tokenize import TokenizeStage
        V.validate_input_table(ltable, 'left table')
        V.validate_input_table(rtable, 'right table')
        l_cols, r_cols = V.table_columns(ltable), V.table_columns(rtable)
        V.validate_attr(l_key_attr, l_cols, 'key attribute', 'left table')
        V.validate_attr(r_key_attr, r_cols, 'key attribute', 'right table')
        V.validate_attr(l_filter_attr, l_cols, 'filter attribute', 'left table')
        V.validate_attr(r_filter_attr, r_cols, 'filter attribute', 'right table')
        V.validate_attr_type(l_filter_attr,
                             V.get_attr_type(ltable, l_filter_attr),
                             'filter attribute', 'left table')
        V.validate_attr_type(r_filter_attr,
                             V.get_attr_type(rtable, r_filter_attr),
                             'filter attribute', 'right table')
        V.validate_output_attrs(l_out_attrs, l_cols, r_out_attrs, r_cols)
        if isinstance(ltable, pd.DataFrame):
            V.validate_key_attr(l_key_attr, ltable, 'left table')
            V.validate_key_attr(r_key_attr, rtable, 'right table')
        l_out_attrs = _remove_redundant_attrs(l_out_attrs, l_key_attr)
        r_out_attrs = _remove_redundant_attrs(r_out_attrs, r_key_attr)

        handle_empty = (self.allow_empty and self.sim_measure_type
                        not in ('OVERLAP', 'EDIT_DISTANCE'))
        st, t = self.sim_measure_type, self.threshold

        l_ds, r_ds = _to_dataset(ltable), _to_dataset(rtable)

        def sizes(ds, key, attr):
            return ds.select_columns(list(dict.fromkeys([key, attr]))) \
                .map_batches(TokenizeStage(key, attr, self.tokenizer),
                             batch_format='pyarrow') \
                .map_batches(lambda b: pa.table(
                    {'key': b['key'],
                     'sz': pa.compute.list_value_length(b['tokens'])}),
                    batch_format='pyarrow')

        l_sizes = sizes(l_ds, l_key_attr, l_filter_attr).materialize()
        r_sizes = sizes(r_ds, r_key_attr, r_filter_attr)
        if handle_empty:
            # r_sizes then feeds both the probe postings and the empty-key
            # scan — an un-materialized lineage would re-tokenize the whole
            # R table for the second consumer
            r_sizes = r_sizes.materialize()

        # distributed min/max over non-empty L sizes: per-block partials +
        # a tiny driver fold — the former full (key, sz) driver collect was
        # the one O(|L|) materialization on this path
        def _mm(b: pa.Table) -> pa.Table:
            sz = b['sz'].to_numpy() if not isinstance(b['sz'],
                                                      pa.ChunkedArray) \
                else b['sz'].combine_chunks().to_numpy()
            nz = sz[sz > 0]
            return pa.table({'mn': pa.array(
                [int(nz.min()) if len(nz) else 2 ** 31], pa.int64()),
                'mx': pa.array([int(nz.max()) if len(nz) else -1],
                               pa.int64())})
        _agg = l_sizes.map_batches(_mm, batch_format='pyarrow').to_pandas()
        l_min = int(_agg['mn'].min()) if len(_agg) else 2 ** 31
        l_max = int(_agg['mx'].max()) if len(_agg) else -1
        if l_min == 2 ** 31:
            l_min = 0

        def l_post(b: pa.Table) -> pa.Table:
            m = pa.compute.greater(b['sz'], 0)
            b = b.filter(m)
            return pa.table({'size_key': pa.compute.cast(b['sz'], pa.int64()),
                             'side': pa.array(np.zeros(len(b), np.int8)),
                             'key': b['key']})

        def r_post(b: pa.Table) -> pa.Table:
            szs = b['sz'].to_numpy() if not isinstance(b['sz'], pa.ChunkedArray) \
                else b['sz'].combine_chunks().to_numpy()
            keys, sk = [], []
            for i, n in enumerate(szs):
                if n == 0 and st not in ('EDIT_DISTANCE',):
                    continue
                raw_lb = bounds.size_lower_bound(int(n), st, t)
                if raw_lb > int(n):
                    # reference guard (``filter/size_filter.py:282-283``):
                    # e.g. OVERLAP with threshold > probe size can never
                    # reach the required overlap — no candidates
                    continue
                lb = max(raw_lb, l_min, 0)
                ub = min(bounds.size_upper_bound(int(n), st, t), l_max)
                for s in range(lb, ub + 1):
                    keys.append(i)
                    sk.append(s)
            idx = pa.array(np.asarray(keys, dtype=np.int64))
            return pa.table({'size_key': pa.array(np.asarray(sk, np.int64)),
                             'side': pa.array(np.ones(len(sk), np.int8)),
                             'key': b['key'].take(idx)})

        posts = l_sizes.map_batches(l_post, batch_format='pyarrow').union(
            r_sizes.map_batches(r_post, batch_format='pyarrow'))

        def pair_group(df: pd.DataFrame) -> pd.DataFrame:
            lk = df.loc[df['side'] == 0, 'key'].to_numpy()
            rk = df.loc[df['side'] == 1, 'key'].to_numpy()
            if len(lk) == 0 or len(rk) == 0:
                # typed empty: an untyped frame here (float64 keys) would
                # poison the block dtypes of the non-empty groups
                return pd.DataFrame({'l_key': lk[:0], 'r_key': rk[:0]})
            return pd.DataFrame({'l_key': np.repeat(lk, len(rk)),
                                 'r_key': np.tile(rk, len(lk))})
        pair_group.__name__ = 'size_pair_group'

        pairs = posts.groupby('size_key').map_groups(pair_group,
                                                     batch_format='pandas')
        empties = {}
        if handle_empty:
            # lazy key Datasets: the pandas assembler collects them behind
            # the join._EMPTY_KEYS_GATE count gate, dataset mode crosses them
            # distributed
            def _ekeys(b: pa.Table) -> pa.Table:
                return pa.table({'key': b['key'].filter(
                    pa.compute.equal(b['sz'], 0))})
            _ekeys.__name__ = 'empty_keys'
            empties['l'] = l_sizes.map_batches(_ekeys,
                                               batch_format='pyarrow')
            empties['r'] = r_sizes.map_batches(_ekeys,
                                               batch_format='pyarrow')
        cfg = _JoinConfig(st, self.tokenizer, t, '>=', handle_empty,
                          self.allow_missing, False)
        if output == 'dataset':
            from .join import _dataset_with_extras
            return _dataset_with_extras(pairs, empties, cfg, ltable, rtable,
                                        l_key_attr, r_key_attr,
                                        l_filter_attr, r_filter_attr)
        return _assemble_pandas(pairs, empties, ltable, rtable, l_key_attr,
                                r_key_attr, l_filter_attr, r_filter_attr, cfg,
                                l_out_attrs, r_out_attrs, l_out_prefix,
                                r_out_prefix, out_sim_score=False)

    def find_candidates(self, probe_num_tokens, size_index):
        # accepts a plain size->ids dict or a core.index_shims.SizeIndex
        index = getattr(size_index, 'index', size_index) or {}
        lb = bounds.size_lower_bound(probe_num_tokens, self.sim_measure_type,
                                     self.threshold)
        ub = bounds.size_upper_bound(probe_num_tokens, self.sim_measure_type,
                                     self.threshold)
        out = set()
        for size, cands in index.items():
            if lb <= size <= ub:
                out.update(cands)
        return out


class PrefixFilter(Filter):
    """``filter/prefix_filter.py``: survive iff the (pair-locally / globally)
    ordered prefixes share ≥ 1 token."""

    def __init__(self, tokenizer, sim_measure_type, threshold,
                 allow_empty=True, allow_missing=False):
        V.validate_sim_measure_type(sim_measure_type)
        sim_measure_type = sim_measure_type.upper()
        V.validate_tokenizer_for_sim_measure(tokenizer, sim_measure_type)
        V.validate_threshold(threshold, sim_measure_type)
        self.tokenizer = tokenizer
        self.sim_measure_type = sim_measure_type
        self.threshold = threshold
        self.allow_empty = allow_empty
        super().__init__(allow_missing)

    def _qval(self):
        return getattr(self.tokenizer, 'qval', None)

    def filter_pair(self, lstring, rstring) -> bool:
        if pd.isnull(lstring) or pd.isnull(rstring):
            return not self.allow_missing
        ltokens = self.tokenizer.tokenize(lstring)
        rtokens = self.tokenizer.tokenize(rstring)
        l_n, r_n = len(ltokens), len(rtokens)
        if l_n == 0 and r_n == 0:
            if self.sim_measure_type == 'OVERLAP':
                return True
            if self.sim_measure_type == 'EDIT_DISTANCE':
                return False
            return not self.allow_empty
        ordering = build_ordering_for_lists([ltokens, rtokens])
        ol = apply_ordering(ltokens, ordering)
        orr = apply_ordering(rtokens, ordering)
        l_p = bounds.prefix_length(l_n, self.sim_measure_type, self.threshold,
                                   self._qval())
        r_p = bounds.prefix_length(r_n, self.sim_measure_type, self.threshold,
                                   self._qval())
        if l_p <= 0 or r_p <= 0:
            return True
        return len(set(ol[:l_p]) & set(orr[:r_p])) == 0

    def filter_tables(self, ltable, rtable, l_key_attr, r_key_attr,
                      l_filter_attr, r_filter_attr, l_out_attrs=None,
                      r_out_attrs=None, l_out_prefix='l_', r_out_prefix='r_',
                      n_jobs=1, show_progress=False, **kw):
        return self._tables_via_pipeline(
            'prefix_candidates', self.sim_measure_type, self.threshold, '>=',
            self.allow_empty, self.tokenizer, ltable, rtable, l_key_attr,
            r_key_attr, l_filter_attr, r_filter_attr, l_out_attrs,
            r_out_attrs, l_out_prefix, r_out_prefix, **kw)

    def find_candidates(self, probe_tokens, prefix_index):
        """Union of prefix-index postings for the probe's prefix tokens
        (reference ``filter/prefix_filter.py:292-308``)."""
        if not prefix_index.index:
            return set()
        p = bounds.prefix_length(len(probe_tokens), self.sim_measure_type,
                                 self.threshold, self._qval())
        candidates = set()
        for token in probe_tokens[:p]:
            candidates.update(prefix_index.probe(token))
        return candidates


class PositionFilter(Filter):
    """``filter/position_filter.py``: prefix sharing + accumulated positional
    overlap upper bound must reach the overlap threshold.

    NOTE filter_pair reproduces the reference literally, INCLUDING its quirk
    of never advancing ``l_pos`` when building the prefix dict
    (``position_filter.py:128-133`` — all l-positions are 0), because the
    reference unit tests pin that behavior.  Table mode uses the
    find_candidates semantics (true positions)."""

    def __init__(self, tokenizer, sim_measure_type, threshold,
                 allow_empty=True, allow_missing=False):
        V.validate_sim_measure_type(sim_measure_type)
        sim_measure_type = sim_measure_type.upper()
        V.validate_tokenizer_for_sim_measure(tokenizer, sim_measure_type)
        V.validate_threshold(threshold, sim_measure_type)
        self.tokenizer = tokenizer
        self.sim_measure_type = sim_measure_type
        self.threshold = threshold
        self.allow_empty = allow_empty
        super().__init__(allow_missing)

    def _qval(self):
        return getattr(self.tokenizer, 'qval', None)

    def filter_pair(self, lstring, rstring) -> bool:
        if pd.isnull(lstring) or pd.isnull(rstring):
            return not self.allow_missing
        ltokens = self.tokenizer.tokenize(lstring)
        rtokens = self.tokenizer.tokenize(rstring)
        l_n, r_n = len(ltokens), len(rtokens)
        if l_n == 0 and r_n == 0:
            if self.sim_measure_type == 'OVERLAP':
                return True
            if self.sim_measure_type == 'EDIT_DISTANCE':
                return False
            return not self.allow_empty
        ordering = build_ordering_for_lists([ltokens, rtokens])
        ol = apply_ordering(ltokens, ordering)
        orr = apply_ordering(rtokens, ordering)
        l_p = bounds.prefix_length(l_n, self.sim_measure_type, self.threshold,
                                   self._qval())
        r_p = bounds.prefix_length(r_n, self.sim_measure_type, self.threshold,
                                   self._qval())
        if l_p <= 0 or r_p <= 0:
            return True
        l_prefix_dict = {}
        l_pos = 0
        for token in ol[:l_p]:
            l_prefix_dict[token] = l_pos  # reference never increments l_pos
        T = bounds.overlap_threshold(l_n, r_n, self.sim_measure_type,
                                     self.threshold, self._qval())
        current_overlap = 0
        r_pos = 0
        for token in orr[:r_p]:
            l_pos_t = l_prefix_dict.get(token)
            if l_pos_t is not None:
                ub = 1 + min(l_n - l_pos_t - 1, r_n - r_pos - 1)
                if current_overlap + ub < T:
                    return True
                current_overlap += 1
            r_pos += 1
        return current_overlap == 0

    def filter_tables(self, ltable, rtable, l_key_attr, r_key_attr,
                      l_filter_attr, r_filter_attr, l_out_attrs=None,
                      r_out_attrs=None, l_out_prefix='l_', r_out_prefix='r_',
                      n_jobs=1, show_progress=False, **kw):
        return self._tables_via_pipeline(
            'position_candidates', self.sim_measure_type, self.threshold,
            '>=', self.allow_empty, self.tokenizer, ltable, rtable,
            l_key_attr, r_key_attr, l_filter_attr, r_filter_attr, l_out_attrs,
            r_out_attrs, l_out_prefix, r_out_prefix, **kw)

    def find_candidates(self, probe_tokens, position_index):
        """Probe the position index with size bounds and the accumulated
        positional overlap upper bound; early-abandoned candidates are
        marked -1 in the returned dict (reference
        ``filter/position_filter.py:307-366``)."""
        if not position_index.index:
            return {}
        probe_n = len(probe_tokens)
        qv = self._qval()
        st, t = self.sim_measure_type, self.threshold
        size_lb = max(bounds.size_lower_bound(probe_n, st, t),
                      position_index.min_length)
        size_ub = min(bounds.size_upper_bound(probe_n, st, t),
                      position_index.max_length)
        ovt_cache = {size: bounds.overlap_threshold(size, probe_n, st, t, qv)
                     for size in range(size_lb, size_ub + 1)}
        p = bounds.prefix_length(probe_n, st, t, qv)
        candidate_overlap: dict = {}
        for probe_pos, token in enumerate(probe_tokens[:p]):
            for cand, cand_pos in position_index.probe(token):
                current = candidate_overlap.get(cand, 0)
                if current == -1:
                    continue
                cand_n = position_index.size_cache[cand]
                if size_lb <= cand_n <= size_ub:
                    ub = min(probe_n - probe_pos, cand_n - cand_pos)
                    if current + ub >= ovt_cache[cand_n]:
                        candidate_overlap[cand] = current + 1
                    else:
                        candidate_overlap[cand] = -1
        return candidate_overlap


def _lower_bound_vec(flat, base, lo, hi, probe):
    """Per-pair lower bound of ``probe`` within the sorted window
    ``flat[base+lo : base+hi+1]`` — vectorized binary search.  Equivalent to
    the reference's windowed search (``filter/suffix_filter.py:411-421``)
    for UNIQUE sorted arrays: an equality hit lands on the token's only
    index, which is its lower bound."""
    lo = lo.astype(np.int64).copy()
    hi = hi.astype(np.int64).copy()
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        v = flat[base + mid]
        go_right = active & (v < probe)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
        active = lo < hi
    return lo


def _suffix_est2(lflat, rflat, ls_, ll, rs_, rl, hm):
    """Depth-2 Hamming-bound estimate, closed form (its own sub-recursions
    at depth 3 return plain length differences, so the branchy reference
    code collapses — see pipelines/suffix_oracle.py for the derivation).
    Slices: left = lflat[ls_:ls_+ll], right = rflat[rs_:rs_+rl]."""
    ad = np.abs(ll - rl)
    out = ad.astype(np.int64).copy()
    gen = (ll > 0) & (rl > 0)
    one = gen & (ll == 1) & (rl == 1)
    if one.any():
        out[one] = (lflat[ls_[one]] != rflat[rs_[one]]).astype(np.int64)
    gen &= ~one
    if not gen.any():
        return out
    gi = np.flatnonzero(gen)
    llg, rlg = ll[gi], rl[gi]
    lsg, rsg = ls_[gi], rs_[gi]
    hmg, adg = hm[gi], ad[gi]
    rmid = rlg >> 1
    probe = rflat[rsg + rmid]
    o = (hmg - adg) / 2.0
    o_l = (llg < rlg).astype(np.int64)
    lo = np.maximum(0, np.trunc(rmid - o - adg * o_l).astype(np.int64))
    hi = np.minimum(llg - 1,
                    np.trunc(rmid + o + adg * (1 - o_l)).astype(np.int64))
    ok = (hi >= lo) & (lflat[lsg + np.minimum(lo, llg - 1)] <= probe) \
        & (lflat[lsg + np.maximum(hi, 0)] >= probe)
    resv = (hmg + 1).astype(np.int64)  # flag == 0 default
    if ok.any():
        oi = np.flatnonzero(ok)
        pos = _lower_bound_vec(lflat, lsg[oi], lo[oi], hi[oi], probe[oi])
        hit = lflat[lsg[oi] + pos] == probe[oi]
        diff = (~hit).astype(np.int64)
        lr_len = llg[oi] - pos - hit
        hd0 = (np.abs(pos - rmid[oi])
               + np.abs(lr_len - (rlg[oi] - rmid[oi] - 1)) + diff)
        resv[oi] = hd0
    out[gi] = resv
    return out


def _suffix_e1(lflat, rflat, ls_, lm, rs_, rm, hmax):
    """Depth-1 estimate over suffix slices; returns the reference's
    ``_est_hamming_dist_lower_bound(..., depth=1)`` value per pair."""
    ad = np.abs(lm - rm)
    e1 = ad.astype(np.int64).copy()
    gen = (lm > 0) & (rm > 0)
    one = gen & (lm == 1) & (rm == 1)
    if one.any():
        e1[one] = (lflat[ls_[one]] != rflat[rs_[one]]).astype(np.int64)
    gen &= ~one
    if not gen.any():
        return e1
    gi = np.flatnonzero(gen)
    lmg, rmg = lm[gi], rm[gi]
    lsg, rsg = ls_[gi], rs_[gi]
    hmg, adg = hmax[gi], ad[gi]
    rmid = rmg >> 1
    probe = rflat[rsg + rmid]
    o = (hmg - adg) / 2.0
    o_l = (lmg < rmg).astype(np.int64)
    lo = np.maximum(0, np.trunc(rmid - o - adg * o_l).astype(np.int64))
    hi = np.minimum(lmg - 1,
                    np.trunc(rmid + o + adg * (1 - o_l)).astype(np.int64))
    ok = (hi >= lo) & (lflat[lsg + np.minimum(lo, lmg - 1)] <= probe) \
        & (lflat[lsg + np.maximum(hi, 0)] >= probe)
    resv = (hmg + 1).astype(np.int64)  # flag == 0 → prune marker
    if ok.any():
        oi = np.flatnonzero(ok)
        pos = _lower_bound_vec(lflat, lsg[oi], lo[oi], hi[oi], probe[oi])
        hit = lflat[lsg[oi] + pos] == probe[oi]
        diff = (~hit).astype(np.int64)
        # partition slices: l_l = ls[:pos], l_r = ls[pos+hit:],
        #                   r_l = rs[:rmid], r_r = rs[rmid+1:]
        ll_len = pos
        lr_len = lmg[oi] - pos - hit
        rl_len = rmid[oi]
        rr_len = rmg[oi] - rmid[oi] - 1
        lrdiff = np.abs(lr_len - rr_len)
        hd0 = np.abs(ll_len - rl_len) + lrdiff + diff
        hm_local = hmg[oi]
        over = hd0 > hm_local
        res_oi = hd0.astype(np.int64).copy()
        rec = ~over
        if rec.any():
            ri = np.flatnonzero(rec)
            hmL = hm_local[ri] - lrdiff[ri] - diff[ri]
            e2l = _suffix_est2(lflat, rflat,
                               lsg[oi][ri], ll_len[ri],
                               rsg[oi][ri], rl_len[ri], hmL)
            first = e2l + lrdiff[ri] + diff[ri]
            res_ri = first.copy()
            cond = first <= hm_local[ri]
            if cond.any():
                ci = np.flatnonzero(cond)
                hmR = hm_local[ri][ci] - e2l[ci] - diff[ri][ci]
                e2r = _suffix_est2(
                    lflat, rflat,
                    lsg[oi][ri][ci] + pos[ri][ci] + hit[ri][ci],
                    lr_len[ri][ci],
                    rsg[oi][ri][ci] + rmid[oi][ri][ci] + 1,
                    rr_len[ri][ci], hmR)
                res_ri[ci] = e2l[ci] + e2r + diff[ri][ci]
            res_oi[ri] = res_ri
        resv[oi] = res_oi
    e1[gi] = resv
    return e1


class SuffixFilter(Filter):
    """``filter/suffix_filter.py``: recursive Hamming-distance lower bound on
    the ordered suffixes (max_depth=2).  filter_tables is an O(|L|·|R|)
    nested loop in the reference; here it broadcasts the prepared L arrays
    and distributes the loop over R batches."""

    def __init__(self, tokenizer, sim_measure_type, threshold,
                 allow_empty=True, allow_missing=False):
        V.validate_sim_measure_type(sim_measure_type)
        sim_measure_type = sim_measure_type.upper()
        V.validate_tokenizer_for_sim_measure(tokenizer, sim_measure_type)
        V.validate_threshold(threshold, sim_measure_type)
        self.tokenizer = tokenizer
        self.sim_measure_type = sim_measure_type
        self.threshold = threshold
        self.allow_empty = allow_empty
        self.max_depth = 2
        super().__init__(allow_missing)

    def _qval(self):
        return getattr(self.tokenizer, 'qval', None)

    def filter_pair(self, lstring, rstring) -> bool:
        if pd.isnull(lstring) or pd.isnull(rstring):
            return not self.allow_missing
        ltokens = self.tokenizer.tokenize(lstring)
        rtokens = self.tokenizer.tokenize(rstring)
        l_n, r_n = len(ltokens), len(rtokens)
        if l_n == 0 and r_n == 0:
            if self.sim_measure_type == 'OVERLAP':
                return True
            if self.sim_measure_type == 'EDIT_DISTANCE':
                return False
            return not self.allow_empty
        ordering = build_ordering_for_lists([ltokens, rtokens])
        ol = apply_ordering(ltokens, ordering)
        orr = apply_ordering(rtokens, ordering)
        l_p = bounds.prefix_length(l_n, self.sim_measure_type, self.threshold,
                                   self._qval())
        r_p = bounds.prefix_length(r_n, self.sim_measure_type, self.threshold,
                                   self._qval())
        if l_p <= 0 or r_p <= 0:
            return True
        return self._filter_suffix(ol[l_p:], orr[r_p:], l_p, r_p, l_n, r_n)

    def _filter_suffix(self, l_suffix, r_suffix, l_prefix_n, r_prefix_n,
                       l_n, r_n) -> bool:
        T = bounds.overlap_threshold(l_n, r_n, self.sim_measure_type,
                                     self.threshold, self._qval())
        if l_prefix_n >= T and r_prefix_n >= T:
            return False
        hamming_max = l_n + r_n - 2 * T
        hd = self._est_hamming_dist_lower_bound(
            l_suffix, r_suffix, l_n - l_prefix_n, r_n - r_prefix_n,
            hamming_max, 1)
        return hd > hamming_max

    def _est_hamming_dist_lower_bound(self, l_suffix, r_suffix, l_n, r_n,
                                      hamming_max, depth):
        from math import floor
        abs_diff = abs(l_n - r_n)
        if depth > self.max_depth or l_n == 0 or r_n == 0:
            return abs_diff
        if l_n == 1 and r_n == 1:
            return int(not l_suffix[0] == r_suffix[0])
        r_mid = int(floor(r_n / 2))
        r_mid_token = r_suffix[r_mid]
        o = (hamming_max - abs_diff) / 2
        o_l, o_r = (1, 0) if l_n < r_n else (0, 1)
        (r_l, r_r, flag, diff) = self._partition(r_suffix, r_mid_token,
                                                 r_mid, r_mid)
        (l_l, l_r, flag, diff) = self._partition(
            l_suffix, r_mid_token,
            max(0, int(r_mid - o - abs_diff * o_l)),
            min(l_n - 1, int(r_mid + o + abs_diff * o_r)))
        if flag == 0:
            return hamming_max + 1
        hd = abs(len(l_l) - len(r_l)) + abs(len(l_r) - len(r_r)) + diff
        if hd > hamming_max:
            return hd
        hd_l = self._est_hamming_dist_lower_bound(
            l_l, r_l, len(l_l), len(r_l),
            hamming_max - abs(len(l_r) - len(r_r)) - diff, depth + 1)
        hd = hd_l + abs(len(l_r) - len(r_r)) + diff
        if hd <= hamming_max:
            hd_r = self._est_hamming_dist_lower_bound(
                l_r, r_r, len(l_r), len(r_r),
                hamming_max - hd_l - diff, depth + 1)
            return hd_l + hd_r + diff
        return hd

    def _partition(self, tokens, probe_token, left, right):
        right = min(right, len(tokens) - 1)
        if right < left:
            return [], [], 0, 1
        if tokens[left] > probe_token:
            return [], [], 0, 1
        if tokens[right] < probe_token:
            return [], [], 0, 1
        pos = self._binary_search(tokens, probe_token, left, right)
        tokens_left = tokens[0:pos]
        if tokens[pos] == probe_token:
            return tokens_left, tokens[pos + 1:], 1, 0
        return tokens_left, tokens[pos:], 1, 1

    def _binary_search(self, tokens, probe_token, left, right):
        from math import floor
        if left == right:
            return left
        mid = int(floor((left + right) / 2))
        if tokens[mid] == probe_token:
            return mid
        if tokens[mid] < probe_token:
            return self._binary_search(tokens, probe_token, mid + 1, right)
        return self._binary_search(tokens, probe_token, left, mid)

    def filter_tables(self, ltable, rtable, l_key_attr, r_key_attr,
                      l_filter_attr, r_filter_attr, l_out_attrs=None,
                      r_out_attrs=None, l_out_prefix='l_', r_out_prefix='r_',
                      n_jobs=1, show_progress=False):
        from ..stages.tokenize import TokenizeStage
        from ..stages.postings import RankPrefixStage, fused_rank_lookup
        V.validate_input_table(ltable, 'left table')
        V.validate_input_table(rtable, 'right table')
        l_cols, r_cols = V.table_columns(ltable), V.table_columns(rtable)
        for a, lbl, tbl in ((l_key_attr, 'key attribute', 'left table'),
                            (l_filter_attr, 'filter attribute', 'left table')):
            V.validate_attr(a, l_cols, lbl, tbl)
        for a, lbl, tbl in ((r_key_attr, 'key attribute', 'right table'),
                            (r_filter_attr, 'filter attribute', 'right table')):
            V.validate_attr(a, r_cols, lbl, tbl)
        V.validate_attr_type(l_filter_attr,
                             V.get_attr_type(ltable, l_filter_attr),
                             'filter attribute', 'left table')
        V.validate_attr_type(r_filter_attr,
                             V.get_attr_type(rtable, r_filter_attr),
                             'filter attribute', 'right table')
        V.validate_output_attrs(l_out_attrs, l_cols, r_out_attrs, r_cols)
        if isinstance(ltable, pd.DataFrame):
            V.validate_key_attr(l_key_attr, ltable, 'left table')
            V.validate_key_attr(r_key_attr, rtable, 'right table')
        l_out_attrs = _remove_redundant_attrs(l_out_attrs, l_key_attr)
        r_out_attrs = _remove_redundant_attrs(r_out_attrs, r_key_attr)

        handle_empty = (self.allow_empty and self.sim_measure_type
                        not in ('OVERLAP', 'EDIT_DISTANCE'))
        st, t, qv = self.sim_measure_type, self.threshold, self._qval()

        l_ds, r_ds = _to_dataset(ltable), _to_dataset(rtable)
        tok_l = l_ds.select_columns(list(dict.fromkeys([l_key_attr, l_filter_attr]))) \
            .map_batches(TokenizeStage(l_key_attr, l_filter_attr, self.tokenizer),
                         batch_format='pyarrow').materialize()
        tok_r = r_ds.select_columns(list(dict.fromkeys([r_key_attr, r_filter_attr]))) \
            .map_batches(TokenizeStage(r_key_attr, r_filter_attr, self.tokenizer),
                         batch_format='pyarrow').materialize()
        # the reference's (count, token) order; no postings here, so no
        # heavy tokens to salt
        ordering_ref, _, _ = fused_rank_lookup(tok_l.union(tok_r), 2 ** 62,
                                               by_hash=False)

        sf = self
        vectorized = bool(getattr(self.tokenizer, 'get_return_set',
                                  lambda: False)())

        ranked_l = tok_l.map_batches(
            RankPrefixStage(ordering_ref, st, t, qv),
            batch_format='pyarrow').materialize()
        # Gate the L broadcast (VERDICT r3 #5): filter_tables is an
        # O(|L|·|R|) nested-loop predicate by the reference's own design
        # (filter/suffix_filter.py:460-476) and ships the WHOLE prepared L
        # to every task — beyond the object-store gate that is an OOM, not
        # a slowdown, so fail fast with the scalable composition instead.
        _gate = broadcast_gate_bytes()
        if (ranked_l.size_bytes() or 0) > _gate:
            raise ValueError(
                'SuffixFilter.filter_tables: the prepared left table '
                f'({ranked_l.size_bytes()} B) exceeds the broadcast gate '
                f'({_gate} B). filter_tables is an all-pairs predicate and '
                'cannot run at this scale; generate candidates with a '
                'scalable blocker (OverlapFilter/PrefixFilter.filter_tables '
                'or a *_join) and refine them with '
                'SuffixFilter.filter_candset instead.')
        l_pd_ranked = _pd_with_cols(
            ranked_l, ['key', 'ranks', 'sz', 'plen'])  # broadcast side (reference copies
        # L into every worker; we broadcast the prepared arrays once) —
        # exactly ONE of the two broadcasts below is built, chosen by the
        # probe that will consume it
        if vectorized:
            # flatten the L rank arrays ONCE for the vectorized probe —
            # inside probe_vec this O(total L tokens) Python-level
            # conversion would re-run per R batch; numpy arrays also ship
            # zero-copy via plasma
            _nl = len(l_pd_ranked)
            _l_lens = np.fromiter((len(x) for x in l_pd_ranked['ranks']),
                                  np.int64, _nl)
            l_vec_ref = ray.put((
                l_pd_ranked['key'].to_numpy(),
                np.concatenate(([0], np.cumsum(_l_lens))),
                (np.concatenate([np.asarray(x, np.int64)
                                 for x in l_pd_ranked['ranks']])
                 if _l_lens.sum() else np.empty(0, np.int64)),
                l_pd_ranked['sz'].to_numpy().astype(np.int64),
                l_pd_ranked['plen'].to_numpy().astype(np.int64)))
        else:
            l_ref = ray.put(l_pd_ranked)
        ranked_r = tok_r.map_batches(
            RankPrefixStage(ordering_ref, st, t, qv), batch_format='pyarrow')

        def probe_python(batch: pd.DataFrame) -> pd.DataFrame:
            # bag-tokenizer fallback: duplicate tokens break the
            # lower-bound equivalence the vectorized search relies on
            l_tbl = ray.get(l_ref)
            out_l, out_r = [], []
            for _, rrow in batch.iterrows():
                r_ranks = np.asarray(rrow['ranks'], dtype=np.int64)
                r_n, r_p = int(rrow['sz']), int(rrow['plen'])
                for _, lrow in l_tbl.iterrows():
                    l_ranks = np.asarray(lrow['ranks'], dtype=np.int64)
                    l_n, l_p = int(lrow['sz']), int(lrow['plen'])
                    if handle_empty and l_n == 0 and r_n == 0:
                        out_l.append(lrow['key']); out_r.append(rrow['key'])
                        continue
                    if l_p <= 0 or r_p <= 0:
                        continue
                    if not sf._filter_suffix(list(l_ranks[l_p:]),
                                             list(r_ranks[r_p:]),
                                             l_p, r_p, l_n, r_n):
                        out_l.append(lrow['key']); out_r.append(rrow['key'])
            return pd.DataFrame({'l_key': out_l, 'r_key': out_r})

        def probe_vec(batch: pd.DataFrame) -> pd.DataFrame:
            l_keys, l_off, l_flat, l_sz, l_pl = ray.get(l_vec_ref)
            nl = len(l_keys)
            l_lens = np.diff(l_off)

            r_keys = batch['key'].to_numpy()
            nr = len(r_keys)
            r_lens = np.fromiter((len(x) for x in batch['ranks']), np.int64,
                                 nr)
            r_off = np.concatenate(([0], np.cumsum(r_lens)))
            r_flat = (np.concatenate([np.asarray(x, np.int64)
                                      for x in batch['ranks']])
                      if r_lens.sum() else np.empty(0, np.int64))
            r_sz = batch['sz'].to_numpy().astype(np.int64)
            r_pl = batch['plen'].to_numpy().astype(np.int64)

            out_l, out_r = [], []
            # chunk the R side so the m·|L| pair arrays stay cache-sized
            chunk = max(1, int(2_000_000 // max(nl, 1)))
            for c0 in range(0, nr, chunk):
                ri = np.arange(c0, min(c0 + chunk, nr), dtype=np.int64)
                li = np.tile(np.arange(nl, dtype=np.int64), len(ri))
                rj = np.repeat(ri, nl)
                ln, rn = l_sz[li], r_sz[rj]
                lp, rp = l_pl[li], r_pl[rj]
                T = bounds.overlap_threshold_many(ln, rn,
                                                  self.sim_measure_type, t) \
                    if st != 'EDIT_DISTANCE' else None
                if T is None:  # pragma: no cover
                    raise RuntimeError('vectorized path is set-measure only')
                survive = np.zeros(len(li), dtype=bool)
                if handle_empty:
                    survive |= (ln == 0) & (rn == 0)
                valid = (lp > 0) & (rp > 0)
                trivial = valid & (lp >= T) & (rp >= T)
                survive |= trivial
                rest = valid & ~trivial
                if rest.any():
                    ki = np.flatnonzero(rest)
                    hmax = ln[ki] + rn[ki] - 2 * T[ki]
                    # slice extents from the actual rank arrays (== sz when
                    # the ordering covers both tables, which filter_tables
                    # guarantees; never lets a slice run past the buffer)
                    e1 = _suffix_e1(
                        l_flat, r_flat,
                        l_off[li[ki]] + lp[ki], l_lens[li[ki]] - lp[ki],
                        r_off[rj[ki]] + rp[ki], r_lens[rj[ki]] - rp[ki],
                        hmax)
                    sv = np.zeros(len(li), dtype=bool)
                    sv[ki] = e1 <= hmax
                    survive |= sv
                if survive.any():
                    out_l.append(l_keys[li[survive]])
                    out_r.append(r_keys[rj[survive]])
            if not out_l:
                return pd.DataFrame({'l_key': np.array([], l_keys.dtype),
                                     'r_key': np.array([], r_keys.dtype)})
            return pd.DataFrame({'l_key': np.concatenate(out_l),
                                 'r_key': np.concatenate(out_r)})

        pairs = ranked_r.map_batches(
            probe_vec if vectorized else probe_python, batch_format='pandas')
        cfg = _JoinConfig(st, self.tokenizer, t, '>=', False,
                          self.allow_missing, False)
        return _assemble_pandas(pairs, {}, ltable, rtable, l_key_attr,
                                r_key_attr, l_filter_attr, r_filter_attr, cfg,
                                l_out_attrs, r_out_attrs, l_out_prefix,
                                r_out_prefix, out_sim_score=False)
