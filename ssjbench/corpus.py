"""Seeded benchmark inputs in the shape of the repos corpus (FIXTURES F3).

Everything here is independent of ``py_stringsimjoin_ray``: the program
under test only ever sees the Parquet files written below, and the truth
(planted cluster per record, sha256 per record, brute-force Jaccard pairs)
stays with the benchmark.

A corpus has planted duplicate clusters (copies of a base file at token-set
Jaccard >= 0.8 to the base), unrelated singletons, a licence header and a
boilerplate block shared across many files (hot blocking tokens), a few
frequent identifiers, and empty, whitespace-only and single-token files.

Inputs are cached under ``<checkout>/.ssjbench/inputs/<key>`` so generation
stays out of every timing; each cache entry records its row count, payload
bytes and content hash in ``manifest.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# bump when generation changes: old cache entries are then never reused
GEN_VERSION = 1

LICENSE = ('// Copyright 2024 The Example Authors. Licensed under the Apache '
           'License Version 2.0 you may not use this file except in '
           'compliance with the License')
BOILERPLATE = ('import os import sys from typing import Any def main argv '
               'return 0 if name main')
LANGS = np.array(['py', 'js', 'java', 'c', 'go', 'rs'])
TOKENS_MEAN = 100   # tokens in a file body, normal with sd TOKENS_MEAN / 4
MAX_CLUSTER = 6     # planted clusters have 2..MAX_CLUSTER files
KEYWORDS = ['def', 'class', 'return', 'if', 'else', 'for', 'while', 'try',
            'import', 'from', 'with', 'lambda', 'yield', 'assert', 'raise']


def _vocabulary(rng, size: int) -> np.ndarray:
    parts = ['get', 'set', 'load', 'parse', 'build', 'run', 'init', 'read',
             'write', 'merge', 'split', 'hash', 'index', 'token', 'batch',
             'node', 'edge', 'graph', 'table', 'row', 'key', 'value', 'buf',
             'ctx', 'cfg', 'data', 'stream', 'block', 'shard', 'queue']
    a = rng.integers(0, len(parts), size)
    b = rng.integers(0, len(parts), size)
    return np.array([f'{parts[x]}_{parts[y]}_{i:x}'
                     for i, (x, y) in enumerate(zip(a, b))], dtype=object)


class _Tokens:
    """Token source: 20 % frequent tokens (keywords + a Zipf-weighted
    head of 200 identifiers), 80 % uniform over a large vocabulary."""

    def __init__(self, rng, vocab_size: int):
        self.rng = rng
        self.vocab = _vocabulary(rng, vocab_size)
        self.head = np.array(KEYWORDS + list(self.vocab[:200]), dtype=object)
        w = 1.0 / np.arange(1, len(self.head) + 1)
        self.head_p = w / w.sum()

    def draw(self, n: int) -> np.ndarray:
        rng = self.rng
        out = self.vocab[rng.integers(200, len(self.vocab), n)]
        hot = rng.random(n) < 0.2
        out[hot] = self.head[rng.choice(len(self.head), int(hot.sum()),
                                        p=self.head_p)]
        return out


def set_jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def _mutate(src: _Tokens, base: np.ndarray, level: float) -> np.ndarray:
    """Replace / delete / insert about n(1-j)/(1+j) tokens."""
    rng = src.rng
    out = list(base)
    k = int(round(len(out) * (1 - level) / (1 + level))) + 1
    fresh = src.draw(k)
    for j, op in enumerate(rng.random(k)):
        pos = int(rng.integers(0, len(out)))
        if op < 0.5:
            out[pos] = fresh[j]
        elif op < 0.8 and len(out) > 1:
            del out[pos]
        else:
            out.insert(pos, fresh[j])
    return np.array(out, dtype=object)


def generate(seed: int, clusters: int, singletons: int) -> tuple:
    """Returns (records, truth): records is a dict of equal-length lists
    (repo, path, commit, lang, content); truth is a list of planted cluster
    ids, one per record."""
    rng = np.random.default_rng([GEN_VERSION, seed])
    src = _Tokens(rng, vocab_size=max(50_000, 40 * (clusters + singletons)))
    contents, truth = [], []

    def body() -> np.ndarray:
        n = int(np.clip(rng.normal(TOKENS_MEAN, TOKENS_MEAN / 4), 20,
                        3 * TOKENS_MEAN))
        return src.draw(n)

    def decorate(tokens, lic: bool, boil: bool) -> str:
        head = ([LICENSE] if lic else []) + ([BOILERPLATE] if boil else [])
        return ' '.join(head + list(tokens))

    cid = 0
    for _ in range(clusters):
        lic, boil = rng.random() < 0.6, rng.random() < 0.3
        base = body()
        base_doc = decorate(base, lic, boil)
        base_set = set(base_doc.split())
        contents.append(base_doc)
        truth.append(cid)
        for _ in range(int(rng.integers(2, MAX_CLUSTER + 1)) - 1):
            level = float(rng.choice([0.95, 0.9, 0.85]))
            doc = base_doc
            for _attempt in range(6):
                cand = decorate(_mutate(src, base, level), lic, boil)
                if set_jaccard(set(cand.split()), base_set) >= 0.8:
                    doc = cand
                    break
                level = min(1.0, level + 0.03)
            contents.append(doc)
            truth.append(cid)
        cid += 1
    for _ in range(singletons):
        contents.append(decorate(body(), rng.random() < 0.6,
                                 rng.random() < 0.3))
        truth.append(cid)
        cid += 1
    # edge files: empty, whitespace-only and single-token, each its own
    # cluster; the single tokens are unique so no pair of them may link
    for i, edge in enumerate(['', ' ', '\n\t', f'solitary_{seed}_a',
                              f'solitary_{seed}_b']):
        contents.append(edge)
        truth.append(cid)
        cid += 1

    # shuffle so clusters are not stored contiguously
    order = rng.permutation(len(contents))
    contents = [contents[i] for i in order]
    truth = [truth[i] for i in order]
    n = len(contents)
    repo_ids = rng.integers(0, 97, n)
    langs = LANGS[rng.integers(0, len(LANGS), n)]
    records = {
        'repo': [f'org{r % 13}/project{r}' for r in repo_ids],
        'path': [f'src/m{i % 50}/file_{i}.{langs[i]}' for i in range(n)],
        'commit': [hashlib.sha1(f'{seed}:{i}'.encode()).hexdigest()[:12]
                   for i in range(n)],
        'lang': list(langs),
        'content': contents,
    }
    return records, truth


def content_digest(contents) -> str:
    h = hashlib.sha256()
    for c in contents:
        b = c.encode()
        h.update(len(b).to_bytes(8, 'little'))
        h.update(b)
    return h.hexdigest()


def _write_parts(table: pa.Table, out_dir: str, nfiles: int) -> None:
    os.makedirs(out_dir)
    step = -(-len(table) // nfiles)
    for i in range(nfiles):
        pq.write_table(table.slice(i * step, step),
                       os.path.join(out_dir, f'part-{i:02d}.parquet'),
                       row_group_size=1024)


def _publish(tmp: str, final: str) -> None:
    try:
        os.replace(tmp, final)
    except OSError:  # a concurrent run published the same entry first
        shutil.rmtree(tmp, ignore_errors=True)


def _cached(cache_root: str, key: str, build) -> dict:
    final = os.path.join(cache_root, key)
    mpath = os.path.join(final, 'manifest.json')
    if not os.path.exists(mpath):
        tmp = f'{final}.tmp-{uuid.uuid4().hex[:8]}'
        os.makedirs(tmp)
        manifest = build(tmp)
        with open(os.path.join(tmp, 'manifest.json'), 'w') as f:
            json.dump(manifest, f, indent=1, sort_keys=True)
        _publish(tmp, final)
    with open(mpath) as f:
        manifest = json.load(f)
    manifest['dir'] = final
    return manifest


def linkage_input(cache_root: str, seed: int, clusters: int,
                  singletons: int) -> dict:
    """Corpus directory for ``record_linkage`` plus its truth table."""
    key = f'linkage-v{GEN_VERSION}-s{seed}-c{clusters}-n{singletons}'

    def build(tmp):
        records, truth = generate(seed, clusters, singletons)
        _write_parts(pa.table(records), os.path.join(tmp, 'repos'), 4)
        pq.write_table(pa.table({
            'repo': records['repo'], 'path': records['path'],
            'commit': records['commit'], 'cluster': truth,
            'sha256': [hashlib.sha256(c.encode()).hexdigest()
                       for c in records['content']]}),
            os.path.join(tmp, 'truth.parquet'))
        return {'rows': len(truth),
                'payload_bytes': sum(len(c.encode())
                                     for c in records['content']),
                'content_sha256': content_digest(records['content'])}
    return _cached(cache_root, key, build)


def token_sets(contents) -> list:
    return [set(c.split()) for c in contents]


def jaccard_pairs(left: list, right: list, num: int, den: int) -> np.ndarray:
    """Brute force over all left x right pairs: every pair's token overlap
    is counted through an inverted index over ``right``, and a pair is kept
    iff overlap / union >= num / den (exact integer comparison; two empty
    sets score 1).  Returns sorted ``l * len(right) + r`` codes."""
    index: dict = {}
    for r, toks in enumerate(right):
        for t in toks:
            index.setdefault(t, []).append(r)
    index = {t: np.array(v, np.int64) for t, v in index.items()}
    rsize = np.array([len(s) for s in right], np.int64)
    empty_r = np.flatnonzero(rsize == 0)
    out = []
    for l, toks in enumerate(left):
        if not toks:
            out.append(l * len(right) + empty_r)
            continue
        hits = [index[t] for t in toks if t in index]
        if not hits:
            continue
        inter = np.bincount(np.concatenate(hits), minlength=len(right))
        union = len(toks) + rsize - inter
        keep = np.flatnonzero(den * inter >= num * union)
        out.append(l * len(right) + keep)
    return (np.sort(np.concatenate(out)) if out
            else np.empty(0, np.int64))


def blocking_input(cache_root: str, seed: int, num: int, den: int,
                   clusters: int, singletons: int) -> dict:
    """Two disjoint halves of one corpus (R != S) and the brute-force
    Jaccard >= num/den pair set between them."""
    key = (f'blocking-v{GEN_VERSION}-s{seed}-c{clusters}-n{singletons}'
           f'-t{num}_{den}')

    def build(tmp):
        records, _ = generate(seed, clusters, singletons)
        contents = records['content']
        half = len(contents) // 2
        left, right = contents[:half], contents[half:]
        pq.write_table(pa.table({'id': np.arange(len(left), dtype=np.int64),
                                 'content': left}),
                       os.path.join(tmp, 'left.parquet'))
        pq.write_table(pa.table({'id': np.arange(len(right), dtype=np.int64),
                                 'content': right}),
                       os.path.join(tmp, 'right.parquet'))
        pairs = jaccard_pairs(token_sets(left), token_sets(right), num, den)
        np.save(os.path.join(tmp, 'oracle.npy'), pairs)
        return {'rows': len(contents), 'left_rows': len(left),
                'right_rows': len(right), 'oracle_pairs': int(len(pairs)),
                'payload_bytes': sum(len(c.encode()) for c in contents),
                'content_sha256': content_digest(contents)}
    return _cached(cache_root, key, build)
