"""Exact similarity / distance kernels.

Semantics pinned against the reference's measure conventions
(``/root/reference/py_stringsimjoin/similarity_measure/jaccard.pyx:4-21``,
``cosine.pyx``, ``dice.pyx``, ``utils/simfunctions.py``):

- jaccard/cosine/dice of two EMPTY token collections = 1.0; one side empty
  = 0.0.  Inputs are converted to sets (set semantics) exactly like
  py_stringmatching's raw-score implementations.
- overlap = |set(X) ∩ set(Y)| ... EXCEPT the bag-product variant used by
  the reference's OverlapFilter probe when a bag tokenizer is supplied
  (each occurrence pair counts: sum over tokens of count_l * count_r;
  see ``filter/overlap_filter.py:256-267`` + ``index/inverted_index.py``).
- overlap_coefficient of (∅,∅) = 1.0, one side empty = 0.0, else
  |X∩Y| / min(|X|,|Y|)  (NOT rounded by the reference,
  ``join/overlap_coefficient_join_py.py:299-303``).
- levenshtein = classic unit-cost edit distance.

Fast paths on sorted integer rank arrays (numpy) are provided for the
distributed verify stage: token lists are re-expressed as sorted int32 rank
arrays by the ordering stage, so intersection is a sorted-merge.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------- raw (list)

def overlap(tokens1, tokens2) -> int:
    return len(set(tokens1) & set(tokens2))


def jaccard(tokens1, tokens2) -> float:
    s1, s2 = set(tokens1), set(tokens2)
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    o = len(s1 & s2)
    return o / (len(s1) + len(s2) - o)


def cosine(tokens1, tokens2) -> float:
    s1, s2 = set(tokens1), set(tokens2)
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    return len(s1 & s2) / float(np.sqrt(len(s1) * len(s2)))


def dice(tokens1, tokens2) -> float:
    s1, s2 = set(tokens1), set(tokens2)
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    return 2.0 * len(s1 & s2) / (len(s1) + len(s2))


def overlap_coefficient(tokens1, tokens2) -> float:
    s1, s2 = set(tokens1), set(tokens2)
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    return len(s1 & s2) / float(min(len(s1), len(s2)))


def levenshtein(s1: str, s2: str, band: int | None = None) -> int:
    """Unit-cost edit distance; optional band half-width for thresholded
    comparisons (if the true distance exceeds ``band`` the returned value is
    guaranteed to also exceed ``band``, which is all a threshold decision
    needs — cf. SURVEY.md §7.4 'band the DP')."""
    if s1 == s2:
        return 0
    n1, n2 = len(s1), len(s2)
    if n1 == 0:
        return n2
    if n2 == 0:
        return n1
    if band is not None and abs(n1 - n2) > band:
        return abs(n1 - n2)
    if n1 < n2:  # make s2 the shorter (row) side
        s1, s2, n1, n2 = s2, s1, n2, n1
    prev = np.arange(n2 + 1, dtype=np.int64)
    idx = np.arange(n2 + 1, dtype=np.int64)
    cur = np.empty(n2 + 1, dtype=np.int64)
    a2 = np.frombuffer(s2.encode('utf-32-le'), dtype=np.uint32)
    for i, c in enumerate(s1):
        cur[0] = i + 1
        # substitution / match and insertion are elementwise over the row
        np.minimum(prev[:-1] + (a2 != ord(c)), prev[1:] + 1, out=cur[1:])
        # deletion propagates left→right: cur[j] = min_k<=j (cur[k] + (j-k))
        #                                        = j + min-prefix of (cur - j)
        cur -= idx
        np.minimum.accumulate(cur, out=cur)
        cur += idx
        prev, cur = cur, prev
        if band is not None and prev.min() > band:
            return int(prev.min())
    return int(prev[n2])


SIM_FUNCTIONS = {
    'JACCARD': jaccard,
    'COSINE': cosine,
    'DICE': dice,
    'OVERLAP': overlap,
    'OVERLAP_COEFFICIENT': overlap_coefficient,
    'EDIT_DISTANCE': levenshtein,
}


# -------------------------------------------- sorted-rank-array fast kernels

def bag_product_overlap_sorted(a: np.ndarray, b: np.ndarray) -> int:
    """Sum over distinct tokens of count_a * count_b for sorted int arrays
    with duplicates (the reference OverlapFilter bag probe semantics)."""
    if len(a) == 0 or len(b) == 0:
        return 0
    va, ca = np.unique(a, return_counts=True)
    vb, cb = np.unique(b, return_counts=True)
    common, ia, ib = np.intersect1d(va, vb, assume_unique=True, return_indices=True)
    if common.size == 0:
        return 0
    return int(np.dot(ca[ia], cb[ib]))
