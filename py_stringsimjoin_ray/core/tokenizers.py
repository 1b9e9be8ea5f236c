"""Tokenizers with py_stringsimjoin-compatible semantics.

The reference delegates tokenization to the ``py_stringmatching`` package
(used at e.g. ``/root/reference/py_stringsimjoin/join/set_sim_join.py:72-73``).
We implement the same observable behavior from scratch with no external
dependency, so the tokenizers can ship to Ray actors as plain picklable
objects and run vectorized over Arrow string columns.

Pinned semantics (validated by tests/test_core_tokenizers.py):

- ``return_set=True`` deduplicates tokens preserving FIRST-occurrence order
  (bag → set conversion); ``return_set=False`` keeps duplicates in order.
- Whitespace tokenization == ``str.split()`` (runs of whitespace, no empties).
- Delimiter tokenization splits on the delimiter set and drops empty tokens.
- Qgram tokenization defaults to ``qval=2`` with padding: the string is
  padded with ``(qval-1)`` ``prefix_pad`` chars ('#') on the left and
  ``(qval-1)`` ``suffix_pad`` chars ('$') on the right; an empty input with
  padding therefore yields one qgram ('#$' for qval=2).  Without padding a
  string shorter than qval yields no tokens.
- Alphanumeric tokenization == regex ``[a-z0-9]+`` findall, case-insensitive
  matching of alphanumeric runs.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _dedup_preserving_order(tokens: list[str]) -> list[str]:
    seen = set()
    out = []
    for t in tokens:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _row_ids(lists: pa.ListArray) -> np.ndarray:
    offs = lists.offsets.to_numpy().astype(np.int64)
    return np.repeat(np.arange(len(lists), dtype=np.int64), np.diff(offs))


def _rebuild(lists: pa.ListArray, keep: np.ndarray) -> pa.ListArray:
    """Keep a boolean-masked subset of flat values, preserving in-row order."""
    row = _row_ids(lists)
    counts = np.bincount(row[keep], minlength=len(lists))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()),
        lists.values.filter(pa.array(keep)).cast(pa.string()))


def _drop_empty(lists: pa.ListArray) -> pa.ListArray:
    mask = pc.not_equal(pc.binary_length(lists.values), 0).to_numpy(
        zero_copy_only=False)
    if mask.all():
        return lists
    return _rebuild(lists, mask)


def _dedup_lists(lists: pa.ListArray) -> pa.ListArray:
    """Vectorized first-occurrence per-row dedup: one dictionary encode of
    the flat tokens, then one ``np.unique`` over ``row * V + id`` whose
    first-occurrence indices are the values to keep."""
    if len(lists.values) == 0:
        return lists
    enc = pc.dictionary_encode(lists.values)
    nvals = np.int64(max(1, len(enc.dictionary)))
    key = _row_ids(lists) * nvals + enc.indices.to_numpy()
    _, first = np.unique(key, return_index=True)
    if len(first) == len(key):
        return lists
    keep = np.zeros(len(key), bool)
    keep[first] = True
    return _rebuild(lists, keep)


class Tokenizer:
    """Base tokenizer protocol (mirrors the reference's tokenizer contract:
    ``.tokenize(str) -> list``, ``.get_return_set()``, ``.set_return_set()``;
    see ``/root/reference/py_stringsimjoin/utils/validation.py:80-98``)."""

    def __init__(self, return_set: bool = False):
        self.return_set = bool(return_set)

    def get_return_set(self) -> bool:
        return self.return_set

    def set_return_set(self, flag: bool) -> bool:
        self.return_set = bool(flag)
        return True

    def _raw_tokenize(self, s: str) -> list[str]:  # pragma: no cover
        raise NotImplementedError

    def tokenize(self, s) -> list[str]:
        if s is None:
            raise TypeError("input is None")
        if not isinstance(s, str):
            raise TypeError("input is not a string: %r" % (s,))
        tokens = self._raw_tokenize(s)
        if self.return_set:
            return _dedup_preserving_order(tokens)
        return tokens

    def tokenize_many(self, strings) -> list[list[str]]:
        """Vectorized entry point used inside map_batches; None → []... the
        caller is responsible for null masking (nulls are dropped pre-join,
        ``/root/reference/py_stringsimjoin/utils/generic_helper.py:73-81``)."""
        tok = self.tokenize
        return [tok(s) for s in strings]

    def _raw_tokenize_arrow(self, col: pa.Array) -> pa.ListArray:
        """Subclasses override with an Arrow kernel where one exists."""
        return pa.array([self._raw_tokenize(s) for s in col.to_pylist()],
                        type=pa.list_(pa.string()))

    def tokenize_arrow(self, col) -> pa.ListArray:
        """Arrow-native batch tokenize: string array → list<string> array,
        identical output to per-row ``tokenize`` (pinned by
        tests/test_core_tokenizers.py).  Nulls must be masked by the caller."""
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = self._raw_tokenize_arrow(col)
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        if self.return_set:
            lists = _dedup_lists(lists)
        return lists


def has_arrow_kernel(tokenizer) -> bool:
    """Whether ``tokenizer.tokenize_arrow`` gives the tokens its
    ``tokenize`` gives.  A subclass that overrides ``tokenize`` (the
    reference's tokenizer contract) or ``_raw_tokenize`` below the class
    whose Arrow kernel it inherits would have that kernel ignore the
    override, or raise ``NotImplementedError`` on the base class, so it
    tokenizes one string at a time instead."""
    if not hasattr(tokenizer, 'tokenize_arrow'):
        return False
    if not isinstance(tokenizer, Tokenizer):
        return True
    mro = type(tokenizer).__mro__

    def owner(name):  # MRO position of the defining class (0 = own class)
        return next(i for i, k in enumerate(mro) if name in vars(k))
    if owner('tokenize_arrow') != owner('tokenize'):
        return owner('tokenize_arrow') < owner('tokenize')
    raw_arrow = owner('_raw_tokenize_arrow')
    return mro[raw_arrow] is Tokenizer or raw_arrow <= owner('_raw_tokenize')


def token_lists(tokenizer, col: pa.Array) -> tuple[pa.ListArray, bool]:
    """``(lists, drop)``: one token list per string of ``col`` (nulls
    masked by the caller), as ``TokenizeStage`` makes them, except that
    with ``drop`` the repeats a set tokenizer's ``tokenize_arrow`` removes
    are still there for the caller to remove (``_dedup_lists`` on strings,
    or one ``np.unique`` on int ids).  Tokenizers without an Arrow kernel
    (``has_arrow_kernel``) tokenize one string at a time."""
    if not has_arrow_kernel(tokenizer):
        tk = tokenizer.tokenize
        return pa.array([tk(s) for s in col.to_pylist()],
                        type=pa.list_(pa.string())), False
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if getattr(type(tokenizer), 'tokenize_arrow',
               None) is not Tokenizer.tokenize_arrow:
        return tokenizer.tokenize_arrow(col), False
    lists = tokenizer._raw_tokenize_arrow(col)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    return lists, tokenizer.return_set


class WhitespaceTokenizer(Tokenizer):
    """Split on runs of whitespace (``str.split()`` semantics)."""

    def _raw_tokenize(self, s: str) -> list[str]:
        return s.split()

    def _raw_tokenize_arrow(self, col: pa.Array) -> pa.ListArray:
        # Arrow emits empty tokens at string edges where str.split() drops
        # them ("  a " → ['', 'a', '']), hence the empty filter
        return _drop_empty(pc.utf8_split_whitespace(col))


class DelimiterTokenizer(Tokenizer):
    """Split on a set of single-char/multi-char delimiters, dropping empty
    tokens."""

    def __init__(self, delim_set=None, return_set: bool = False):
        super().__init__(return_set)
        self.delim_set = set(delim_set) if delim_set else {' '}
        pattern = '|'.join(re.escape(d) for d in sorted(self.delim_set, key=len, reverse=True))
        self._re = re.compile(pattern)

    def _raw_tokenize(self, s: str) -> list[str]:
        return [t for t in self._re.split(s) if t != '']

    def _raw_tokenize_arrow(self, col: pa.Array) -> pa.ListArray:
        return _drop_empty(pc.split_pattern_regex(col, self._re.pattern))

    def __getstate__(self):
        d = self.__dict__.copy()
        d.pop('_re', None)
        return d

    def __setstate__(self, d):
        self.__dict__.update(d)
        pattern = '|'.join(re.escape(x) for x in sorted(self.delim_set, key=len, reverse=True))
        self._re = re.compile(pattern)


class QgramTokenizer(Tokenizer):
    """Character q-grams with optional '#'/'$' padding (the default), matching
    the tokenizer the reference mandates for EDIT_DISTANCE
    (``/root/reference/py_stringsimjoin/utils/validation.py:93-96``; default
    ``qval=2`` per ``join/edit_distance_join.py:12``)."""

    def __init__(self, qval: int = 2, padding: bool = True,
                 prefix_pad: str = '#', suffix_pad: str = '$',
                 return_set: bool = False):
        super().__init__(return_set)
        if qval < 1:
            raise AssertionError('qval cannot be less than 1')
        if len(prefix_pad) != 1 or len(suffix_pad) != 1:
            raise AssertionError('pad characters should be single characters')
        self.qval = qval
        self.padding = padding
        self.prefix_pad = prefix_pad
        self.suffix_pad = suffix_pad

    def _raw_tokenize(self, s: str) -> list[str]:
        q = self.qval
        if self.padding:
            s = self.prefix_pad * (q - 1) + s + self.suffix_pad * (q - 1)
        n = len(s)
        if n < q:
            return []
        return [s[i:i + q] for i in range(n - q + 1)]

    def _raw_tokenize_arrow(self, col: pa.Array) -> pa.ListArray:
        """ASCII batches: all windows built with one numpy gather over the
        padded strings' byte buffer (bytes == codepoints for ASCII); any
        non-ASCII row falls back to the per-row slicer for the whole batch."""
        q = self.qval
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        # the byte-window parse below assumes int32 offsets (pa.string());
        # large_string has int64 offsets and would be silently misread
        if pa.types.is_large_string(col.type):
            try:
                col = col.cast(pa.string())
            except pa.ArrowInvalid:  # > 2 GiB of bytes in one array
                return super()._raw_tokenize_arrow(col)
        if not (pa.types.is_string(col.type)
                and pc.all(pc.string_is_ascii(col)).as_py()
                and self.prefix_pad.isascii() and self.suffix_pad.isascii()):
            return super()._raw_tokenize_arrow(col)
        if self.padding:
            col = pc.binary_join_element_wise(
                pa.scalar(self.prefix_pad * (q - 1)), col,
                pa.scalar(self.suffix_pad * (q - 1)), '')
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
        # StringArray buffers: [validity, int32 offsets, utf8 data]
        offs = np.frombuffer(col.buffers()[1], np.int32, count=len(col) + 1,
                             offset=col.offset * 4).astype(np.int64)
        data = np.frombuffer(col.buffers()[2], np.uint8,
                             count=int(offs[-1])) if offs[-1] else \
            np.empty(0, np.uint8)
        lens = np.diff(offs)
        nwin = np.maximum(lens - q + 1, 0)
        total = int(nwin.sum())
        if total * q >= 2 ** 31:  # int32 token-offset ceiling
            return super()._raw_tokenize_arrow(col)
        # global byte position of every window start, all rows at once
        base = np.repeat(offs[:-1], nwin)
        local = np.arange(total, dtype=np.int64) \
            - np.repeat(np.concatenate(([0], np.cumsum(nwin)[:-1])), nwin)
        starts = base + local
        if len(data) >= q:
            # sliding_window_view is a no-copy view; the fancy-index gather
            # allocates exactly the output bytes (no windows×q index matrix)
            flat = np.lib.stride_tricks.sliding_window_view(
                data, q)[starts].ravel()
        else:
            flat = np.empty(0, np.uint8)
        tok_offs = np.arange(len(starts) + 1, dtype=np.int32) * q
        values = pa.StringArray.from_buffers(
            len(starts), pa.py_buffer(tok_offs.tobytes()),
            pa.py_buffer(flat.tobytes()))
        list_offs = np.concatenate(([0], np.cumsum(nwin))).astype(np.int32)
        return pa.ListArray.from_arrays(pa.array(list_offs, pa.int32()),
                                        values)


class WordQgramTokenizer(Tokenizer):
    """Word-level k-gram shingles (contiguous words joined by a single
    space).  Not in the reference (its qgrams are character-level); used by
    the document near-dup pipeline.  A text with fewer than k words yields
    one shingle of all its words (empty text → no tokens)."""

    def __init__(self, kval: int = 5, return_set: bool = False):
        super().__init__(return_set)
        if kval < 1:
            raise AssertionError('kval cannot be less than 1')
        self.kval = kval

    def _raw_tokenize(self, s: str) -> list[str]:
        words = s.split()
        k = self.kval
        if not words:
            return []
        if len(words) < k:
            return [' '.join(words)]
        return [' '.join(words[i:i + k]) for i in range(len(words) - k + 1)]


class AlphanumericTokenizer(Tokenizer):
    """Maximal runs of alphanumeric characters."""

    _re = re.compile('[a-zA-Z0-9]+')

    def _raw_tokenize(self, s: str) -> list[str]:
        return self._re.findall(s)

    def _raw_tokenize_arrow(self, col: pa.Array) -> pa.ListArray:
        # findall on runs == split on the complement, dropping empties
        return _drop_empty(pc.split_pattern_regex(col, '[^a-zA-Z0-9]+'))


def whitespace(return_set: bool = False) -> WhitespaceTokenizer:
    return WhitespaceTokenizer(return_set=return_set)


def qgram(qval: int = 2, return_set: bool = False, padding: bool = True) -> QgramTokenizer:
    return QgramTokenizer(qval=qval, padding=padding, return_set=return_set)
