"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in the library) calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF0001 = '/root/testdata/sf0.001'


def entry() -> Any:
    """Flagship pipeline on sf0.001: document dedup + transitive clustering —
    exact dedup, word-5-gram Jaccard near-dup matches via the prefix-filter
    self-join, connected components, cluster id per document."""
    import ray.data

    from py_stringsimjoin_ray.core.tokenizers import WordQgramTokenizer
    from py_stringsimjoin_ray.pipelines.join import jaccard_join
    from py_stringsimjoin_ray.stages.cluster import (attach_components,
                                                     connected_components)

    docs = ray.data.read_parquet(f'{SF0001}/documents.parquet')
    pairs = jaccard_join(docs, docs, 'doc_id', 'doc_id', 'text', 'text',
                         WordQgramTokenizer(kval=5, return_set=True), 0.6,
                         output='dataset')
    return attach_components(docs.select_columns(['doc_id']), 'doc_id',
                             connected_components(pairs)) \
        .rename_columns({'component': 'cluster'})


def queries() -> dict[str, Callable[[str], Any]]:
    from py_stringsimjoin_ray.pipelines.queries import QUERIES
    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from py_stringsimjoin_ray.pipelines.queries import ORACLE_SQL
    return dict(ORACLE_SQL)
