"""Per-stage lineage manifests + resume (north-rule requirement: the job
resumes from the last completed checkpoint; every stage writes partitioned
Parquet plus a manifest with input fingerprint, row counts and a
content-hash roll-up).

Layout under a checkpoint dir:

    <ckpt>/<stage>/*.parquet          (written atomically: tmp dir + rename;
                                       one file per Ray Data block, or one
                                       file from the local route)
    <ckpt>/<stage>/_manifest.json     {stage, input_fingerprint, num_rows,
                                       counters, sha256_xor?, completed}

A stage is skipped on re-run iff its manifest exists, is marked completed
and its input fingerprint matches — the fingerprint chains stages together,
so editing an upstream artifact invalidates everything downstream.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

MANIFEST = '_manifest.json'


def stage_dir(ckpt_dir: str, stage: str) -> str:
    return os.path.join(ckpt_dir, stage)


def load_manifest(ckpt_dir: str, stage: str):
    p = os.path.join(stage_dir(ckpt_dir, stage), MANIFEST)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def is_complete(ckpt_dir: str | None, stage: str, input_fingerprint: str) -> bool:
    if ckpt_dir is None:
        return False
    m = load_manifest(ckpt_dir, stage)
    return bool(m and m.get('completed')
                and m.get('input_fingerprint') == input_fingerprint)


def sha256_xor(col) -> int:
    """XOR of the first 16 hex chars (64 bits) of every row digest of an
    Arrow hex-digest column: vectorized hex parse, one XOR reduction, no
    per-row Python."""
    import pyarrow.compute as pc
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    joined = ''.join(pc.utf8_slice_codeunits(col, 0, 16).to_pylist())
    if not joined:
        return 0
    b = np.frombuffer(joined.encode('ascii'), dtype=np.uint8)
    nib = np.where(b >= ord('a'), b - ord('a') + 10, b - ord('0')) \
        .astype(np.uint64).reshape(-1, 16)
    shifts = np.uint64(4) * np.arange(15, -1, -1, dtype=np.uint64)
    vals = (nib << shifts).sum(axis=1, dtype=np.uint64)
    return int(np.bitwise_xor.reduce(vals))


def sha256_xor_rollup(ds: ray.data.Dataset, col: str = 'sha256') -> str:
    """Order-independent roll-up of a hex-digest column (``sha256_xor`` per
    block, XORed together), carried as two 32-bit halves per block."""
    def part(batch: pa.Table) -> pa.Table:
        acc = sha256_xor(batch[col])
        return pa.table({'lo': pa.array([acc & 0xFFFFFFFF], pa.int64()),
                         'hi': pa.array([acc >> 32], pa.int64())})
    parts = ds.map_batches(part, batch_format='pyarrow').to_pandas()
    acc = 0
    for lo, hi in zip(parts['lo'], parts['hi']):
        acc ^= (int(hi) << 32) | int(lo)
    return format(acc, '016x')


def _new_tmp(ckpt_dir: str, stage: str) -> str:
    tmp = stage_dir(ckpt_dir, stage) + '.tmp-' + uuid.uuid4().hex[:8]
    if os.path.exists(tmp):
        shutil.rmtree(tmp)
    os.makedirs(tmp, exist_ok=True)
    return tmp


def _publish(tmp: str, ckpt_dir: str, stage: str, input_fingerprint: str,
             num_rows: int, counters: dict | None, xor: str | None) -> None:
    """Write the manifest into ``tmp`` and rename it over the stage dir."""
    manifest = {
        'stage': stage,
        'input_fingerprint': input_fingerprint,
        'num_rows': int(num_rows),
        'num_files': len([f for f in os.listdir(tmp) if f.endswith('.parquet')]),
        'counters': counters or {},
        'completed': True,
    }
    if xor is not None:
        manifest['sha256_xor'] = xor
    with open(os.path.join(tmp, MANIFEST), 'w') as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    final = stage_dir(ckpt_dir, stage)
    if os.path.exists(final):
        shutil.rmtree(final)
    os.replace(tmp, final)


def write_stage(ds: ray.data.Dataset, ckpt_dir: str, stage: str,
                input_fingerprint: str, counters: dict | None = None,
                sha_col: str | None = None) -> ray.data.Dataset:
    """Write a stage Dataset to partitioned Parquet atomically (tmp dir +
    rename) with its manifest; returns a Dataset reading the artifact."""
    tmp = _new_tmp(ckpt_dir, stage)
    ds.write_parquet(tmp)
    back = ray.data.read_parquet(tmp)
    xor = sha256_xor_rollup(back, sha_col) if sha_col is not None else None
    _publish(tmp, ckpt_dir, stage, input_fingerprint, back.count(), counters,
             xor)
    return ray.data.read_parquet(stage_dir(ckpt_dir, stage))


def write_table_stage(table: pa.Table, ckpt_dir: str, stage: str,
                      input_fingerprint: str, counters: dict | None = None,
                      sha_col: str | None = None) -> None:
    """``write_stage`` for an in-memory table: one Parquet file, the same
    manifest fields, the roll-up taken from the column being written."""
    tmp = _new_tmp(ckpt_dir, stage)
    pq.write_table(table, os.path.join(tmp, 'part-00000.parquet'))
    xor = (format(sha256_xor(table[sha_col]), '016x')
           if sha_col is not None else None)
    _publish(tmp, ckpt_dir, stage, input_fingerprint, len(table), counters,
             xor)


def update_manifest_counters(ckpt_dir: str, stage: str,
                             extra: dict) -> None:
    """Merge ``extra`` into a completed stage manifest's ``counters`` —
    used for telemetry gathered only after the stage wrote (e.g. the
    per-task skew roll-up, VERDICT r4 #7)."""
    p = os.path.join(stage_dir(ckpt_dir, stage), MANIFEST)
    if not os.path.exists(p):
        return
    with open(p) as f:
        m = json.load(f)
    m.setdefault('counters', {}).update(extra)
    tmp = p + '.tmp'
    with open(tmp, 'w') as f:
        json.dump(m, f, indent=1, sort_keys=True)
    os.replace(tmp, p)


def read_stage(ckpt_dir: str, stage: str) -> ray.data.Dataset:
    return ray.data.read_parquet(stage_dir(ckpt_dir, stage))


def parquet_files(path: str) -> list:
    """The Parquet files of a file or a flat directory, sorted (the files
    ``file_fingerprint`` lists)."""
    if not os.path.isdir(path):
        return [path]
    return [os.path.join(path, n) for n in sorted(os.listdir(path))
            if n.endswith('.parquet')]


def read_stage_table(ckpt_dir: str, stage: str,
                     columns: list | None = None) -> pa.Table:
    """A stage artifact as one in-memory table, whichever route wrote it."""
    return pq.read_table(parquet_files(stage_dir(ckpt_dir, stage)),
                         columns=columns)


def file_fingerprint(path: str) -> str:
    """Cheap input fingerprint: path + size + mtime-ns of each file."""
    entries = []
    for f in parquet_files(path):
        st = os.stat(f)
        entries.append((os.path.basename(f), st.st_size, st.st_mtime_ns))
    import hashlib
    return hashlib.md5(json.dumps(entries).encode()).hexdigest()
