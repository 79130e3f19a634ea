"""Deterministic hashed-n-gram text embeddings with exact cosine top-k search,
plus token-overlap precision/recall/F-measure scoring.

The embedder lowercases, collapses whitespace, slides a window of 3
characters over the text, hashes each gram's UTF-8 bytes with FNV-1a 64
into one of `dimension` buckets, and L2-normalizes the bucket counts. A
batch of texts is embedded in blocks, each in one vectorised numpy pass
whose rows are bit for bit those of hashing each gram on its own; corpus
and query embed through that one path, and nothing is kept between calls.
It is a stand-in with the same retrieval mechanics as a neural encoder:
any embedder honoring the same interface (and fingerprint discipline) can
be plugged in behind :class:`VectorIndex`.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


class RetrievalError(ValueError):
    pass


class BadConfig(RetrievalError):
    pass


class EmptyIndex(RetrievalError):
    pass


class EmbedderMismatch(RetrievalError):
    pass


class DuplicateDocId(RetrievalError):
    pass


@dataclass(frozen=True)
class DocRecord:
    id: str
    text: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise RetrievalError(f"document id is not a string: {type(self.id).__name__}")
        _utf8(self.id, "document id")
        if not isinstance(self.text, str):
            raise RetrievalError(f"document {self.id!r} text is not a string: "
                                 f"{type(self.text).__name__}")
        if not self.text:
            raise RetrievalError(f"document {self.id!r} has empty text")
        _utf8(self.text)


@dataclass(frozen=True)
class EvalScores:
    precision: float
    recall: float
    f_measure: float


@dataclass(frozen=True)
class EmbedderConfig:
    dimension: int = 256

    def __post_init__(self):
        if self.dimension < 8:
            raise BadConfig(f"dimension {self.dimension} < 8")

    @property
    def fingerprint(self):
        return f"fnv1a64/ngram={_NGRAM}/dim={self.dimension}"


_NGRAM = 3
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_BLOCK = 64     # texts per kernel pass, which bounds its transient arrays


def _utf8(text: str, what="text") -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise RetrievalError(f"{what} is not valid Unicode: {exc}") from None


def _normalize_text(text: str) -> str:
    return " ".join(text.lower().split())


def _embed_block(texts, out: np.ndarray) -> None:
    """Write each text's unit-norm row of n-gram bucket counts into ``out``,
    which is all zeros on entry (an empty text keeps its zero row).

    The block's normalized texts are joined and encoded to UTF-8 once, and
    FNV-1a 64 runs over every byte position of the joined bytes at once,
    one byte per step, in uint64 arithmetic, which wraps modulo 2**64: step
    k leaves the hash of the k + 1 bytes from each position. A gram
    (`_NGRAM` characters, or the whole text if it is shorter) takes the
    step of its byte length at its first byte; characters start at the
    bytes that are not UTF-8 continuation bytes. One bincount counts the
    block's buckets.
    """
    n, dim = _NGRAM, out.shape[1]
    normalized = [_normalize_text(text) for text in texts]
    # per text: the chars before it that start no gram, and its gram count;
    # a text under n chars is one gram: its index -> its length
    skipped, grams, short = [], [], {}
    total = skip = 0
    for text in normalized:
        count = len(text) - n + 1 if len(text) >= n else min(len(text), 1)
        if 0 < len(text) < n:
            short[total] = len(text)
        skipped.append(skip)
        grams.append(count)
        total += count
        skip += len(text) - count
    if not total:
        return
    joined = "".join(normalized)
    encoded = _utf8(joined)
    size = len(encoded)
    # zero padding: steps read past the end, and byte `size` starts no char
    data = np.frombuffer(encoded + bytes(4 * n), np.uint8)
    first = np.arange(total)                # each gram's first char, later byte
    if len(texts) > 1:                      # a lone text's offsets are all 0
        offsets = np.repeat([skipped, range(0, len(texts) * dim, dim)], grams, axis=1)
        first += offsets[0]
    span = None                             # each gram's chars, later bytes; None: all n
    longest = n if total > len(short) else max(short.values())     # chars, later bytes
    if short:
        span = np.full(total, n)
        span[list(short)] = list(short.values())
    if size != len(joined):                 # char offsets -> byte offsets
        # continuation bytes 0x80-0xBF are the int8 values below -0x40
        starts = np.flatnonzero(data[:size + 1].view(np.int8) >= -0x40)
        span = starts[first + (n if span is None else span)] - starts[first]
        first = starts[first]
        longest = int(span.max())
    h, hashes = _FNV_OFFSET, np.empty(total, np.uint64)
    for k in range(longest):
        h = (h ^ data[k:size + k]) * _FNV_PRIME
        if span is not None:                # the grams of k + 1 bytes end here
            ends = span == k + 1
            hashes[ends] = h[first[ends]]
    if span is None:
        hashes = h[first]
    buckets = (hashes % np.uint64(dim)).view(np.int64)   # < dim: the same bits
    if len(texts) > 1:
        buckets += offsets[1]
    out.reshape(-1)[:] = np.bincount(buckets, minlength=out.size)
    norms = np.sqrt(np.einsum("ij,ij->i", out, out))
    norms[norms == 0.0] = 1.0               # an empty text stays the zero vector
    out /= norms[:, None]


def _embed_rows(texts, config: EmbedderConfig) -> np.ndarray:
    """One unit-norm row of n-gram bucket counts per text.

    Texts are embedded in blocks of `_BLOCK` by one vectorised pass each
    (`_embed_block`), whose rows are bit for bit those of hashing each gram
    on its own. Each row's norm is exact and equals ``np.linalg.norm``.
    """
    rows = np.zeros((len(texts), config.dimension))
    for start in range(0, len(texts), _BLOCK):
        _embed_block(texts[start:start + _BLOCK], rows[start:start + _BLOCK])
    return rows


def embed(text: str, config: EmbedderConfig = EmbedderConfig()) -> np.ndarray:
    """Unit-norm bucket-count vector of the text's character n-grams.

    Empty or whitespace-only text embeds to the zero vector. Texts shorter
    than 3 characters contribute themselves as a single gram. Text
    that is not valid Unicode (a lone surrogate) raises RetrievalError.
    """
    return _embed_rows([text], config)[0]


def _repeated_rows(vectors):
    """(later, first): the rows of `vectors` whose bytes an earlier row has,
    ascending, and for each the first row with its bytes; None if no two
    rows have the same bytes."""
    words = vectors.view(np.uint64)
    # per row, a sum of its words times odd weights, wrapping around: equal
    # rows have equal keys, and rows whose words are permuted rarely do
    weights = np.arange(1, 2 * words.shape[1], 2, dtype=np.uint64) * _FNV_PRIME
    _, inverse, counts = np.unique(words @ weights, return_inverse=True, return_counts=True)
    seen, later, first = {}, [], []
    for i in np.flatnonzero(counts[inverse] > 1).tolist():
        j = seen.setdefault(vectors[i].tobytes(), i)
        if j != i:
            later.append(i)
            first.append(j)
    return (np.array(later), np.array(first)) if later else None


class VectorIndex:
    """Exact cosine top-k: a flat inner-product scan over one matrix, made
    with the index from all its documents.

    ``_vectors`` holds one unit-norm row per document, in the given order,
    so a search is one matrix-vector product and an exact ranking of its
    scores (FAISS calls this an ``IndexFlatIP``). Rows are embedded from
    grams of 3 characters. Ties are broken by ascending id through an
    id-rank array. A BLAS product may round equal rows differently (by
    their place in its blocks), so where rows repeat, each document takes
    the score of the first row equal to its own, and equal rows tie. Nothing
    changes after construction, so searches may run concurrently. A
    repeated document id raises DuplicateDocId.
    """

    def __init__(self, docs=(), config: EmbedderConfig = EmbedderConfig()):
        self.config = config
        self.docs = list(docs)
        ids = set()
        for doc in self.docs:
            if doc.id in ids:
                raise DuplicateDocId(f"duplicate document id {doc.id!r}")
            ids.add(doc.id)
        self._vectors = _embed_rows([doc.text for doc in self.docs], config)
        order = sorted(range(len(self.docs)), key=lambda i: self.docs[i].id)
        self._rank = np.empty(len(order), dtype=np.intp)
        self._rank[order] = np.arange(len(order))
        self._repeated = _repeated_rows(self._vectors)

    def __len__(self):
        return len(self.docs)

    @property
    def fingerprint(self):
        return self.config.fingerprint

    def search(self, query_text, k=2, query_fingerprint=None):
        """Top-k (DocRecord, score) by descending cosine, ties broken by
        ascending document id. k defaults to two-document retrieval."""
        if k < 1:
            raise RetrievalError(f"k must be >= 1, got {k}")
        if not self.docs:
            raise EmptyIndex("search over an empty index")
        if query_fingerprint is not None and query_fingerprint != self.fingerprint:
            raise EmbedderMismatch(
                f"query embedded under {query_fingerprint!r}, "
                f"index built under {self.fingerprint!r}")
        scores = self._vectors @ embed(query_text, self.config)  # all rows unit-norm or zero
        if self._repeated is not None:
            later, first = self._repeated
            scores[later] = scores[first]
        # rank only the rows scoring at least the k-th largest score: every
        # row tied with it stays, so the tie rule is applied exactly
        m = min(k, len(scores))
        rows = np.flatnonzero(scores >= np.partition(scores, -m)[-m])
        order = rows[np.lexsort((self._rank[rows], -scores[rows]))[:k]]
        return [(self.docs[i], float(scores[i])) for i in order]


def load_corpus(text: str, config: EmbedderConfig = EmbedderConfig()) -> VectorIndex:
    """Build an index from JSON-lines of {id, text, metadata}.

    A bad line raises RetrievalError, and a repeated id DuplicateDocId,
    naming the 1-based line.
    """
    docs, line_of = [], {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise RetrievalError("not a JSON object")
            metadata = obj.get("metadata", {})
            if not isinstance(metadata, dict):
                raise RetrievalError("metadata is not a JSON object")
            doc = DocRecord(obj["id"], obj["text"], metadata)
        except (ValueError, KeyError, RecursionError) as exc:
            raise RetrievalError(f"corpus line {lineno}: {exc}") from None
        if doc.id in line_of:
            raise DuplicateDocId(f"corpus line {lineno}: duplicate document id "
                                 f"{doc.id!r} (first on line {line_of[doc.id]})")
        line_of[doc.id] = lineno
        docs.append(doc)
    return VectorIndex(docs, config)


_KIND_WORDS = {
    "FFMC_IGNITION": "ffmc ignition potential",
    "DMC": "duff moisture dmc",
    "DC_MOPUP": "drought code dc mop up",
    "ISI_SPREAD": "isi rate of spread",
    "BUI": "buildup bui",
    "FWI": "fire weather index fwi",
}


def advisor_query(kind: str, severity: str) -> str:
    """Query string used to map an alert (kind + severity) onto precaution
    documents."""
    kind_words = _KIND_WORDS.get(kind, kind.replace("_", " ").lower())
    return f"{kind_words} {severity} precaution action"


_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def _tokens(text: str):
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def prf_scores(response: str, reference: str) -> EvalScores:
    """Unigram multiset-overlap precision/recall/F against a reference text.

    Both empty -> (1, 1, 1); exactly one empty -> (0, 0, 0).
    """
    resp = _tokens(response)
    ref = _tokens(reference)
    if not resp and not ref:
        return EvalScores(1.0, 1.0, 1.0)
    if not resp or not ref:
        return EvalScores(0.0, 0.0, 0.0)
    overlap = sum((Counter(resp) & Counter(ref)).values())
    precision = overlap / len(resp)
    recall = overlap / len(ref)
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalScores(precision, recall, f)
