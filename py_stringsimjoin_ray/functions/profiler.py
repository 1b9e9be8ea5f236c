"""Table profiler (reference:
``/root/reference/py_stringsimjoin/profiler/profiler.py:9-85``): per
attribute, unique-value count, missing-value count, percentages and a
key-suitability comment.

On a Dataset the counts are computed distributed — null counts for every
attribute in ONE vectorized pass, unique counts via per-block pre-dedup
followed by ``groupby(col).count().count()`` so only a scalar (the group
count) ever reaches the driver (pandas' ``unique`` counts NaN as a value;
the Dataset path reproduces that).  The per-attribute pipelines run
concurrently so their stage barriers overlap."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pandas as pd
import pyarrow as pa

from ..core import validation as V


def _format_statistic(stat, stat_percent):
    return ''.join([str(stat), ' (', str(stat_percent), '%)'])


def _null_row_counts(ds, attrs):
    """rows + per-attribute null counts, one streaming pass, scalars out."""
    def partial(batch: pa.Table) -> pa.Table:
        cols = {'rows': pa.array([len(batch)], type=pa.int64())}
        for i, a in enumerate(attrs):
            cols[f'n{i}'] = pa.array([batch[a].null_count], type=pa.int64())
        return pa.table(cols)
    agg = ds.select_columns(list(dict.fromkeys(attrs))).map_batches(
        partial, batch_format='pyarrow').to_pandas().sum()
    return int(agg['rows']), {a: int(agg[f'n{i}'])
                              for i, a in enumerate(attrs)}


def _unique_count(ds, attr) -> int:
    """Exact distinct count, no distinct VALUES on the driver: per-block
    dedup (combiner — bounds shuffle volume by the per-block distinct sum),
    a bucketed dedup shuffle (stages/groupagg.py — ray's native
    high-cardinality groupby reduce is pathologically slow), then only
    per-bucket counts return."""
    from ..stages.groupagg import bucketed_distinct_count

    def drop_nulls(batch: pa.Table) -> pa.Table:
        col = batch[attr]
        if col.null_count:
            col = col.drop_null()
        return pa.table({attr: col})
    return bucketed_distinct_count(
        ds.select_columns([attr]).map_batches(drop_nulls,
                                              batch_format='pyarrow'),
        [attr])


def _dataset_profile(ds, attrs):
    """{attr: (rows, unique, nulls)} for all attrs.

    Size-gated like the join fast path: a bounded probe-and-fetch
    materializes small inputs once and profiles them in-process (the
    groupby shuffles' fixed overhead dominates at small scale); inputs
    over the cap take the distributed pipelines, where no distinct VALUE
    ever reaches the driver."""
    if not attrs:
        return {}
    from ..stages import localjoin
    local = localjoin._fetch_local(ds, list(attrs),
                                   localjoin.DEFAULT_LOCAL_MAX_ROWS,
                                   localjoin._local_byte_cap())
    if local is not None:
        pdf = local.to_pandas()
        return {a: (len(pdf), len(pdf[a].unique()),
                    int(pd.isnull(pdf[a]).sum())) for a in attrs}
    num_rows, nulls = _null_row_counts(ds, attrs)
    with ThreadPoolExecutor(max_workers=min(8, len(attrs))) as pool:
        uniq = list(pool.map(lambda a: _unique_count(ds, a), attrs))
    out = {}
    for a, u in zip(attrs, uniq):
        # pandas .unique() counts NaN as one distinct value; the Dataset
        # path drops nulls before the groupby, so add it back
        if nulls[a] > 0:
            u += 1
        out[a] = (num_rows, u, nulls[a])
    return out


def profile_table_for_join(input_table, profile_attrs=None):
    V.validate_input_table(input_table, 'input table')
    is_pd = isinstance(input_table, pd.DataFrame)
    cols = V.table_columns(input_table)
    if profile_attrs is None:
        profile_attrs = list(cols)
    else:
        for attr in profile_attrs:
            V.validate_attr(attr, cols, 'profile attribute', 'input table')

    profile_output = []
    if is_pd:
        num_rows = len(input_table)
    else:
        stats = _dataset_profile(input_table, list(profile_attrs))
    for attr in profile_attrs:
        if is_pd:
            unique_values = len(input_table[attr].unique())
            missing_values = int(sum(pd.isnull(input_table[attr])))
        else:
            num_rows, unique_values, missing_values = stats[attr]
        unique_percent = round((float(unique_values) / float(num_rows)) * 100, 2)
        missing_percent = round((float(missing_values) / float(num_rows)) * 100, 2)
        comments = ''
        if missing_percent > 0:
            comments = ''.join(['Joining on this attribute will ignore ',
                                _format_statistic(missing_values,
                                                  missing_percent), ' rows.'])
        if unique_percent == 100.0 and missing_values == 0:
            comments = 'This attribute can be used as a key attribute.'
        profile_output.append((attr,
                               _format_statistic(unique_values, unique_percent),
                               _format_statistic(missing_values, missing_percent),
                               comments))
    out = pd.DataFrame(profile_output, columns=['Attribute', 'Unique values',
                                                'Missing values', 'Comments'])
    return out.set_index('Attribute')


def profile_counts(input_table, profile_attrs=None):
    """Numeric variant (attribute, unique_values, missing_values) — oracle-
    friendly output used by the correctness harness."""
    V.validate_input_table(input_table, 'input table')
    is_pd = isinstance(input_table, pd.DataFrame)
    cols = V.table_columns(input_table)
    if profile_attrs is None:
        profile_attrs = list(cols)
    rows = []
    if not is_pd:
        stats = _dataset_profile(input_table, list(profile_attrs))
    for attr in profile_attrs:
        if is_pd:
            rows.append((attr, len(input_table[attr].unique()),
                         int(sum(pd.isnull(input_table[attr])))))
        else:
            _, u, m = stats[attr]
            rows.append((attr, u, m))
    return pd.DataFrame(rows, columns=['attribute', 'unique_values',
                                       'missing_values'])
