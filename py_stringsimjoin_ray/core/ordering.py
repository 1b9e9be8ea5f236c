"""Global token ordering (token → integer rank).

Semantics mirror ``/root/reference/py_stringsimjoin/utils/token_ordering.py``:
rank ascending by corpus frequency, ties broken by lexicographic token order,
ranks starting at 1; applying the ordering maps tokens to ranks, DROPS tokens
absent from the ordering, and sorts the resulting int list ascending
(rarest-first) — so a record's "prefix" is its rarest tokens.

The reference rebuilds the ordering per worker over (L, R-split); ordering
only affects candidate generation (verification is exact), which licenses our
single corpus-wide ordering (SURVEY.md §2.9).  The library's build lives in
``stages/postings.py`` (``dictionary_ranks``, ``fused_rank_lookup``); these
pure functions define the semantics.
"""

from __future__ import annotations


def build_ordering_from_counts(tokens, counts) -> dict:
    """token→rank dict from parallel (token, count) sequences."""
    order = sorted(zip(tokens, counts), key=lambda tc: (tc[1], tc[0]))
    return {t: i + 1 for i, (t, _) in enumerate(order)}


def build_ordering_for_lists(token_lists) -> dict:
    freq: dict = {}
    for lst in token_lists:
        for t in lst:
            freq[t] = freq.get(t, 0) + 1
    return build_ordering_from_counts(list(freq.keys()), list(freq.values()))


def apply_ordering(tokens, ordering: dict) -> list[int]:
    out = [ordering[t] for t in tokens if t in ordering]
    out.sort()
    return out
