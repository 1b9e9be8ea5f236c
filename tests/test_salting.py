"""Heavy-token grid-salting correctness.

Round-1 advice bug: in a SAME-relation join, two records with equal salt
hash ``hash(key) % g`` covered identical grid cells, so their pair was
generated once per cell.  The fix carries the grid role ``kh`` on each
posting and only pairs across the two hash groups in off-diagonal cells.
These tests force salting with a tiny ``salt_df_threshold`` and require
exact equality with the unsalted join on the same input.
"""

import numpy as np
import pandas as pd
import pytest

from py_stringsimjoin_ray import WhitespaceTokenizer, jaccard_join
from py_stringsimjoin_ray.pipelines.join import overlap_join


def _table(n=24):
    # every record shares the heavy token 'common'; clusters of near-dups
    rng = np.random.default_rng(7)
    rows = []
    for i in range(n):
        extra = ' '.join(f'w{rng.integers(0, 6)}{i % 4}' for _ in range(3))
        rows.append(f'common alpha{i % 3} {extra}')
    return pd.DataFrame({'id': list(range(n)), 'name': rows})


def _pairs(df):
    cols = [c for c in ('l_id', 'r_id') if c in df.columns]
    return sorted(map(tuple, df[cols].itertuples(index=False)))


@pytest.mark.parametrize('threshold', [0.3, 0.5])
def test_self_relation_salting_no_duplicates(threshold):
    A = _table()
    base = jaccard_join(A, A, 'id', 'id', 'name', 'name',
                        WhitespaceTokenizer(return_set=True), threshold,
                        salt_df_threshold=10 ** 9)
    salted = jaccard_join(A, A, 'id', 'id', 'name', 'name',
                          WhitespaceTokenizer(return_set=True), threshold,
                          salt_df_threshold=2)
    pb, ps = _pairs(base), _pairs(salted)
    assert len(ps) == len(set(ps)), 'salted join emitted duplicate pairs'
    assert pb == ps


def test_two_table_salting_matches_unsalted():
    A = _table()
    B = _table().copy()
    B['name'] = B['name'].str.replace('alpha', 'alpho', regex=False)
    base = overlap_join(A, B, 'id', 'id', 'name', 'name',
                        WhitespaceTokenizer(return_set=True), 1,
                        salt_df_threshold=10 ** 9)
    salted = overlap_join(A, B, 'id', 'id', 'name', 'name',
                          WhitespaceTokenizer(return_set=True), 1,
                          salt_df_threshold=2)

    def canon(df):
        return sorted(map(tuple, df[['l_id', 'r_id', '_sim_score']]
                          .itertuples(index=False)))
    assert canon(base) == canon(salted)


def test_string_keys_salting():
    A = _table()
    A['id'] = ['k%03d' % i for i in range(len(A))]
    base = jaccard_join(A, A, 'id', 'id', 'name', 'name',
                        WhitespaceTokenizer(return_set=True), 0.4,
                        salt_df_threshold=10 ** 9)
    salted = jaccard_join(A, A, 'id', 'id', 'name', 'name',
                          WhitespaceTokenizer(return_set=True), 0.4,
                          salt_df_threshold=3)
    assert _pairs(base) == _pairs(salted)


def test_edit_distance_unicode_char_based():
    """ADVICE r1: DuckDB levenshtein is byte-based ('café' vs 'cafe' = 2);
    the reference is character-based (= 1).  Non-ASCII pairs must go through
    the exact character DP."""
    from py_stringsimjoin_ray.stages.postings import _lev_many
    out = _lev_many(['café', 'naïve', 'abc'], ['cafe', 'naive', 'abd'])
    assert out.tolist() == [1, 1, 1]

    from py_stringsimjoin_ray import edit_distance_join
    A = pd.DataFrame({'id': [1, 2], 's': ['café au lait', 'xyzq']})
    B = pd.DataFrame({'id': [1, 2], 's': ['cafe au lait', 'xyzw']})
    out = edit_distance_join(A, B, 'id', 'id', 's', 's', 1)
    got = set(map(tuple, out[['l_id', 'r_id', '_sim_score']]
                  .itertuples(index=False)))
    # café↔cafe: byte-based distance would be 2 (dropped); char-based is 1
    assert (1, 1, 1) in got and (2, 2, 1) in got
    assert out['_sim_score'].dtype == np.int64


def test_np_candidates_matches_bruteforce():
    """The eligibility-pruned triangle kernel must emit exactly the pairs a
    naive per-group double loop emits under the same sound filters (size
    window + joint positional gate + salt-grid role rule + exact-once
    identity pairs)."""
    import numpy as np
    import pyarrow as pa

    from py_stringsimjoin_ray.core import bounds
    from py_stringsimjoin_ray.stages.slimjoin import _np_candidates

    rng = np.random.default_rng(11)
    n = 4000
    thr = 0.7
    sz = rng.integers(4, 60, n).astype(np.int64)
    # skewed buckets/tokens incl. a few very hot groups
    bucket = rng.choice([0, 1, 2, 3, 4, 50, 51], n,
                        p=[.3, .2, .2, .1, .1, .05, .05]).astype(np.int64)
    tok = rng.integers(0, 6, n).astype(np.int64)
    pos = (rng.random(n) * np.minimum(
        bounds.prefix_length_many(sz, 'JACCARD', thr), sz)).astype(np.int64)
    kh = np.where(rng.random(n) < 0.3,
                  rng.integers(0, 4, n), -1).astype(np.int64)
    sig = rng.permutation(n).astype(np.int64)  # distinct per row
    tbl = pa.table({'bucket': pa.array(bucket, pa.int32()),
                    'tok': pa.array(tok.astype(np.int32)),
                    'sig': pa.array(sig),
                    'sz': pa.array(sz.astype(np.int32)),
                    'pos': pa.array(pos.astype(np.int32)),
                    'kh': pa.array(kh.astype(np.int16))})

    a, b = _np_candidates(tbl, 'JACCARD', thr, True)
    got = set(zip((a << np.int64(32)) | b, [0] * len(a)))
    got = {int(x) for x, _ in got}

    # brute force
    import math
    want = set()
    for i in range(n):
        if pos[i] == 0:
            want.add((int(sig[i]) << 32) | int(sig[i]))
        for j in range(i + 1, n):
            if bucket[i] != bucket[j] or tok[i] != tok[j]:
                continue
            if kh[i] != -1 and kh[j] != -1 and kh[i] == kh[j]:
                continue
            s1, s2 = int(sz[i]), int(sz[j])
            if not (s1 >= math.ceil(round(thr * s2, 4))
                    and s1 <= math.floor(round(s2 / thr, 4))):
                continue
            ovt = math.ceil(round(thr / (1 + thr) * (s1 + s2), 4))
            if min(s1 - int(pos[i]), s2 - int(pos[j])) < ovt:
                continue
            lo, hi = sorted((int(sig[i]), int(sig[j])))
            want.add((lo << 32) | hi)
    assert got == want
