"""Filter-bound formulas (the mathematical heart of filter-verify joins).

Reproduced exactly — including the ``round(x, 4)`` FP-noise absorption of
the reference's Python path, which the reference test oracle also uses —
from ``/root/reference/py_stringsimjoin/filter/filter_utils.py:7-98``
(derived from "String Similarity Joins: An Experimental Evaluation",
VLDB 2014).  SURVEY.md §2.8 documents the decision to follow the rounded
(Python) form rather than the unrounded Cython form.

``num_tokens`` for EDIT_DISTANCE is the qgram BAG length; for set measures
it is the deduplicated token-set size.  ``qval`` replaces the reference's
``tokenizer.qval`` argument.
"""

from __future__ import annotations

from math import ceil, floor, sqrt
from sys import maxsize


def size_lower_bound(num_tokens: int, sim_type: str, threshold) -> int:
    if sim_type == 'COSINE':
        return int(ceil(round(threshold * threshold * num_tokens, 4)))
    if sim_type == 'DICE':
        return int(ceil(round((threshold / (2 - threshold)) * num_tokens, 4)))
    if sim_type == 'EDIT_DISTANCE':
        return num_tokens - threshold
    if sim_type == 'JACCARD':
        return int(ceil(round(threshold * num_tokens, 4)))
    if sim_type == 'OVERLAP':
        return threshold
    raise ValueError(sim_type)


def size_upper_bound(num_tokens: int, sim_type: str, threshold) -> int:
    if sim_type == 'COSINE':
        return int(floor(round(num_tokens / (threshold * threshold), 4)))
    if sim_type == 'DICE':
        return int(floor(round(((2 - threshold) / threshold) * num_tokens, 4)))
    if sim_type == 'EDIT_DISTANCE':
        return num_tokens + threshold
    if sim_type == 'JACCARD':
        return int(floor(round(num_tokens / threshold, 4)))
    if sim_type == 'OVERLAP':
        return maxsize
    raise ValueError(sim_type)


def prefix_length(num_tokens: int, sim_type: str, threshold, qval: int | None = None) -> int:
    """Number of (globally-ordered, rarest-first) tokens whose postings are
    sufficient for complete candidate generation.  OVERLAP_COEFFICIENT has no
    nontrivial prefix (the opposite side can be a single token, forcing a
    required overlap of 1) — the reference accordingly uses a full inverted
    index for it (``join/overlap_coefficient_join_py.py:250-253``); we return
    ``num_tokens`` for it here."""
    if num_tokens == 0:
        return 0
    if sim_type == 'COSINE':
        return int(num_tokens - ceil(threshold * threshold * num_tokens) + 1)
    if sim_type == 'DICE':
        return int(num_tokens - ceil((threshold / (2 - threshold)) * num_tokens) + 1)
    if sim_type == 'EDIT_DISTANCE':
        return int(min(qval * threshold + 1, num_tokens))
    if sim_type == 'JACCARD':
        return int(num_tokens - ceil(threshold * num_tokens) + 1)
    if sim_type == 'OVERLAP':
        return int(max(num_tokens - threshold + 1, 0))
    if sim_type == 'OVERLAP_COEFFICIENT':
        return num_tokens
    raise ValueError(sim_type)


def prefix_length_many(num_tokens, sim_type: str, threshold,
                       qval: int | None = None):
    """Vectorized ``prefix_length`` over a numpy int array — same float64
    expressions as the scalar form (math.ceil and np.ceil agree on float64,
    so e.g. ceil(0.7·120)=85 on both paths)."""
    import numpy as np
    n = np.asarray(num_tokens, dtype=np.float64)
    if sim_type == 'COSINE':
        p = n - np.ceil(threshold * threshold * n) + 1
    elif sim_type == 'DICE':
        p = n - np.ceil((threshold / (2 - threshold)) * n) + 1
    elif sim_type == 'EDIT_DISTANCE':
        p = np.minimum(qval * threshold + 1, n)
    elif sim_type == 'JACCARD':
        p = n - np.ceil(threshold * n) + 1
    elif sim_type == 'OVERLAP':
        p = np.maximum(n - threshold + 1, 0)
    elif sim_type == 'OVERLAP_COEFFICIENT':
        p = n
    else:
        raise ValueError(sim_type)
    p = p.astype(np.int64)
    p[np.asarray(num_tokens) == 0] = 0
    return p


def overlap_threshold(l_num_tokens: int, r_num_tokens: int, sim_type: str,
                      threshold, qval: int | None = None):
    """Minimum |X ∩ Y| a pair must reach to possibly satisfy the threshold."""
    if sim_type == 'COSINE':
        return ceil(round(threshold * sqrt(l_num_tokens * r_num_tokens), 4))
    if sim_type == 'DICE':
        return ceil(round((threshold / 2) * (l_num_tokens + r_num_tokens), 4))
    if sim_type == 'EDIT_DISTANCE':
        return (max(l_num_tokens + qval - 1, r_num_tokens + qval - 1)
                - qval + 1 - qval * threshold)
    if sim_type == 'JACCARD':
        return ceil(round((threshold / (1 + threshold))
                          * (l_num_tokens + r_num_tokens), 4))
    if sim_type == 'OVERLAP':
        return threshold
    if sim_type == 'OVERLAP_COEFFICIENT':
        return ceil(round(threshold * min(l_num_tokens, r_num_tokens), 4))
    raise ValueError(sim_type)


def overlap_threshold_many(l_num_tokens, r_num_tokens, sim_type: str,
                           threshold):
    """Vectorized ``overlap_threshold`` for the set measures (numpy int64
    arrays in, int64 array out).  Same round-before-ceil semantics as the
    scalar form; numpy and Python both round half-to-even."""
    import numpy as np
    n1 = np.asarray(l_num_tokens, dtype=np.int64)
    n2 = np.asarray(r_num_tokens, dtype=np.int64)
    if sim_type == 'COSINE':
        v = np.ceil(np.round(threshold * np.sqrt((n1 * n2).astype(np.float64)),
                             4))
    elif sim_type == 'DICE':
        v = np.ceil(np.round((threshold / 2) * (n1 + n2), 4))
    elif sim_type == 'JACCARD':
        v = np.ceil(np.round((threshold / (1 + threshold)) * (n1 + n2), 4))
    elif sim_type == 'OVERLAP':
        return np.full(len(n1), int(threshold), dtype=np.int64)
    elif sim_type == 'OVERLAP_COEFFICIENT':
        v = np.ceil(np.round(threshold * np.minimum(n1, n2), 4))
    else:
        raise ValueError(sim_type)
    return v.astype(np.int64)
