"""Multimodal (image/audio/video) column plumbing.

Binary payloads are opaque ``binary`` columns with typed metadata columns
alongside.  The Ray-side plumbing — schema, batch sizing, actor-pool
signatures, output layout — is real and tested; the actual codec work is
STUBBED (the decode libraries are not in this container): ``DecodeStage``
raises ``NotImplementedError`` unless constructed with
``fake_decode=True``, in which case it produces a deterministic fake
"decoded" feature so the pipeline shape can be exercised end to end.

Scale notes encoded in the defaults: small ``batch_size`` (large payloads ×
concurrency must fit worker heap) and ``num_cpus=1`` per decode actor.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray.data


def encode_text_as_media(batch: pa.Table, text_col: str = 'text',
                         id_col: str = 'doc_id') -> pa.Table:
    """Test/bench helper: wrap a string column as a binary payload column
    with media metadata (media_type, byte_len, sha-fingerprint)."""
    texts = batch[text_col].to_pylist()
    payloads = [(t or '').encode() for t in texts]
    return pa.table({
        id_col: batch[id_col],
        'payload': pa.array(payloads, pa.binary()),
        'media_type': pa.array(['text/plain'] * len(payloads), pa.string()),
        'byte_len': pa.array([len(p) for p in payloads], pa.int64()),
        'payload_md5': pa.array([hashlib.md5(p).hexdigest()
                                 for p in payloads], pa.string()),
    })


class DecodeStage:
    """Actor-pool decode: payload binary → fixed-size feature vector.

    Real decoders (PIL / torchaudio / pyav) plug in by subclassing and
    implementing ``decode_one``; they are absent here, so the default
    raises unless ``fake_decode`` supplies the deterministic stand-in.
    """

    FEATURE_DIM = 8

    def __init__(self, payload_col: str = 'payload', fake_decode: bool = False):
        self.payload_col = payload_col
        self.fake_decode = fake_decode

    def decode_one(self, payload: bytes) -> np.ndarray:
        if not self.fake_decode:
            raise NotImplementedError(
                'media decode requires an image/audio codec library that is '
                'not installed here; construct with '
                'fake_decode=True for the deterministic stand-in')
        # deterministic fake: md5 bytes → 8 float features in [0, 1)
        d = hashlib.md5(payload).digest()
        return np.frombuffer(d[:self.FEATURE_DIM], dtype=np.uint8) / 256.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        feats = [self.decode_one(p or b'').astype(np.float32).tolist()
                 for p in payloads]
        out = batch.select([c for c in batch.column_names
                            if c != self.payload_col])
        return out.append_column('features',
                                 pa.array(feats, pa.list_(pa.float32())))


def media_pipeline(ds: ray.data.Dataset, text_col: str = 'text',
                   id_col: str = 'doc_id', concurrency: int = 2,
                   batch_size: int = 256) -> ray.data.Dataset:
    """documents → binary payloads → metadata → (stub-)decoded features.
    The decode stage is a callable-class actor pool with small batches."""
    media = ds.map_batches(
        lambda b: encode_text_as_media(b, text_col, id_col),
        batch_format='pyarrow')
    return media.map_batches(DecodeStage(fake_decode=True),
                             batch_format='pyarrow',
                             batch_size=batch_size,
                             concurrency=concurrency, num_cpus=1)
