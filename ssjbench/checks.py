"""Output checks, computed apart from the program: nothing here imports
``py_stringsimjoin_ray``.  Each check returns a list of problems (empty when
the output is correct) and the figures it measured."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

KEY = ['repo', 'path', 'commit']


def _pairs2(counts) -> int:
    c = np.asarray(counts, dtype=np.int64)
    return int((c * (c - 1) // 2).sum())


def pairwise_f1(truth: np.ndarray, component: np.ndarray) -> dict:
    """Pairwise precision / recall / F1 of a clustering against the planted
    one, in closed form over all record pairs: TP = sum C(n_ij, 2) over the
    (truth cluster, component) contingency table, predicted pairs =
    sum C(n_.j, 2), true pairs = sum C(n_i., 2)."""
    t = pd.Series(truth).astype('int64').to_numpy()
    c = pd.Series(component).astype('int64').to_numpy()
    joint = pd.DataFrame({'t': t, 'c': c}).value_counts().to_numpy()
    tp = _pairs2(joint)
    pred = _pairs2(pd.Series(c).value_counts().to_numpy())
    true = _pairs2(pd.Series(t).value_counts().to_numpy())
    precision = tp / pred if pred else 1.0
    recall = tp / true if true else 1.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {'precision': precision, 'recall': recall, 'f1': f1,
            'true_pairs': true, 'pred_pairs': pred}


def _keyed(frame: pd.DataFrame) -> pd.DataFrame:
    return frame.set_index(KEY)


def linkage(input_dir: str, op_dir: str, min_f1: float) -> tuple:
    """Every input record appears exactly once, with the sha256 of its
    content, and the components score F1 >= min_f1 against the truth."""
    problems = []
    truth = pq.read_table(os.path.join(input_dir, 'truth.parquet')).to_pandas()
    out = pd.read_parquet(os.path.join(op_dir, 'clusters.parquet'))
    if out.duplicated(KEY).any():
        problems.append(f'{int(out.duplicated(KEY).sum())} records repeated')
    merged = truth.merge(out, on=KEY, how='outer', indicator=True,
                         suffixes=('_in', '_out'))
    lost = int((merged['_merge'] == 'left_only').sum())
    extra = int((merged['_merge'] == 'right_only').sum())
    if lost or extra:
        problems.append(f'{lost} input records missing, {extra} unknown '
                        'records in the output')
    both = merged[merged['_merge'] == 'both']
    bad_sha = int((both['sha256_in'] != both['sha256_out']).sum())
    if bad_sha:
        problems.append(f'{bad_sha} records carry a wrong sha256')
    score = pairwise_f1(both['cluster'], both['component'])
    if score['f1'] < min_f1:
        problems.append(f"pairwise F1 {score['f1']:.4f} < {min_f1}")
    return problems, score


def resumed(op_dir: str, result: dict) -> list:
    """A second call on the same checkpoint resumed all three stages, wrote
    nothing and gave every record the same component."""
    problems = []
    want = ['clusters_resumed', 'ingest_resumed', 'matches_resumed']
    if result.get('resumed') != want:
        problems.append(f"resume skipped only {result.get('resumed')}")
    if not result.get('ckpt_unchanged'):
        problems.append('resume rewrote checkpoint files')
    a = _keyed(pd.read_parquet(os.path.join(op_dir, 'clusters.parquet')))
    b = _keyed(pd.read_parquet(os.path.join(op_dir, 'resumed.parquet')))
    if len(a) != len(b) or not a.index.sort_values().equals(
            b.index.sort_values()):
        problems.append('resumed output has other records')
    elif not (a['component'] == b.loc[a.index, 'component']).all():
        problems.append('resumed output moved records between components')
    return problems


def blocking(input_dir: str, op_dir: str, right_rows: int) -> tuple:
    """The candidate set holds every brute-force pair (no false negatives)
    and the matcher output equals the brute-force pair set."""
    problems = []
    oracle = np.load(os.path.join(input_dir, 'oracle.npy'))
    with np.load(os.path.join(op_dir, 'pairs.npz')) as z:
        cand = z['cand_l'] * right_rows + z['cand_r']
        match = z['match_l'] * right_rows + z['match_r']
    missed = np.setdiff1d(oracle, cand)
    if len(missed):
        problems.append(f'filter dropped {len(missed)} true pairs')
    uniq = np.unique(match)
    if len(uniq) != len(match):
        problems.append(f'{len(match) - len(uniq)} repeated matches')
    wrong = np.setdiff1d(uniq, oracle)
    lost = np.setdiff1d(oracle, uniq)
    if len(wrong) or len(lost):
        problems.append(f'matcher: {len(wrong)} false and {len(lost)} '
                        'missing pairs')
    return problems, {'candidates': int(len(cand)), 'matches': int(len(match)),
                      'oracle_pairs': int(len(oracle))}
