"""Deterministic hashed-n-gram text embeddings with exact cosine top-k search,
plus token-overlap precision/recall/F-measure scoring.

The embedder lowercases, collapses whitespace, slides a character n-gram
window (default length 3) over the text, hashes each gram with FNV-1a 64
into one of `dimension` buckets, and L2-normalizes the bucket counts.
It is a stand-in with the same retrieval mechanics as a neural encoder:
any embedder honoring the same interface (and fingerprint discipline) can
be plugged in behind :class:`VectorIndex`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np


class RetrievalError(ValueError):
    pass


class BadConfig(RetrievalError):
    pass


class DimensionMismatch(RetrievalError):
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
    ngram: int = 3

    def __post_init__(self):
        if self.dimension < 8:
            raise BadConfig(f"dimension {self.dimension} < 8")
        if self.ngram < 1:
            raise BadConfig(f"ngram length {self.ngram} < 1")

    @property
    def fingerprint(self):
        return f"fnv1a64/ngram={self.ngram}/dim={self.dimension}"


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _utf8(text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise RetrievalError(f"text is not valid Unicode: {exc}") from None


def _normalize_text(text: str) -> str:
    return " ".join(text.lower().split())


def _embed_rows(texts, config: EmbedderConfig) -> np.ndarray:
    """One unit-norm row of n-gram bucket counts per text.

    Each distinct gram is hashed once per call, so texts that share most of
    their grams (a corpus of variants) share the hashing. Counts are whole
    numbers, so each row's norm is exact and equals ``np.linalg.norm``.
    """
    n, dim = config.ngram, config.dimension
    rows = np.zeros((len(texts), dim))
    bucket_of = {}
    for row, text in zip(rows, texts):
        normalized = _normalize_text(text)
        if not normalized:
            continue
        if len(normalized) < n:
            grams = [normalized]
        else:
            grams = [normalized[i:i + n] for i in range(len(normalized) - n + 1)]
        for gram in set(grams).difference(bucket_of):
            bucket_of[gram] = _fnv1a64(_utf8(gram)) % dim
        row[:] = np.bincount([bucket_of[gram] for gram in grams], minlength=dim)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    norms[norms == 0.0] = 1.0       # empty text stays the zero vector
    rows /= norms[:, None]
    return rows


def embed(text: str, config: EmbedderConfig = EmbedderConfig()) -> np.ndarray:
    """Unit-norm bucket-count vector of the text's character n-grams.

    Empty or whitespace-only text embeds to the zero vector. Texts shorter
    than the n-gram length contribute themselves as a single gram. Text
    that is not valid Unicode (a lone surrogate) raises RetrievalError.
    """
    return _embed_rows([text], config)[0]


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """dot(a, b) / (|a| |b|); zero when either vector is zero."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


class VectorIndex:
    """Exact cosine top-k: a flat inner-product scan over one cached matrix.

    ``_vectors`` holds one unit-norm row per document, in insertion order,
    so a search is one matrix-vector product and an exact ranking of its
    scores (FAISS calls this an ``IndexFlatIP``). Ties are broken by
    ascending id through an id-rank array, built on the first search after
    an ``add``. Searches may run concurrently; an ``add`` may not run
    alongside them.
    """

    def __init__(self, config: EmbedderConfig = EmbedderConfig()):
        self.config = config
        self.docs = []
        self._vectors = np.zeros((0, config.dimension))
        self._ids = set()
        self._rank = None

    def __len__(self):
        return len(self.docs)

    @property
    def fingerprint(self):
        return self.config.fingerprint

    def add(self, docs):
        """Append docs in order. All or nothing: a duplicate id raises
        DuplicateDocId before anything is indexed."""
        docs = list(docs)
        new_ids = set()
        for doc in docs:
            if doc.id in self._ids or doc.id in new_ids:
                raise DuplicateDocId(f"duplicate document id {doc.id!r}")
            new_ids.add(doc.id)
        block = _embed_rows([doc.text for doc in docs], self.config)
        self._vectors = np.concatenate((self._vectors, block)) if self.docs else block
        self.docs.extend(docs)
        self._ids |= new_ids
        self._rank = None

    def _id_rank(self):
        rank = self._rank
        if rank is None:
            order = sorted(range(len(self.docs)), key=lambda i: self.docs[i].id)
            rank = np.empty(len(order), dtype=np.intp)
            rank[order] = np.arange(len(order))
            self._rank = rank
        return rank

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
        # rank only the rows scoring at least the k-th largest score: every
        # row tied with it stays, so the tie rule is applied exactly
        m = min(k, len(scores))
        rows = np.flatnonzero(scores >= np.partition(scores, -m)[-m])
        order = rows[np.lexsort((self._id_rank()[rows], -scores[rows]))[:k]]
        return [(self.docs[i], float(scores[i])) for i in order]


def load_corpus(text: str, config: EmbedderConfig = EmbedderConfig()) -> VectorIndex:
    """Build an index from JSON-lines of {id, text, metadata}.

    A bad line raises RetrievalError, and a repeated id DuplicateDocId,
    naming the 1-based line.
    """
    docs, line_of = [], {}
    for lineno, raw in enumerate(text.splitlines(), 1):
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
    index = VectorIndex(config)
    index.add(docs)
    return index


def dump_corpus(docs) -> str:
    lines = [json.dumps({"id": d.id, "text": d.text, "metadata": d.metadata},
                        sort_keys=True)
             for d in docs]
    return "\n".join(lines) + ("\n" if lines else "")


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


def eval_report(index: VectorIndex, items, k=2):
    """Retrieval evaluation report.

    items are {"query": ..., "reference": ...} dicts; each entry of the
    report carries the top hit's cosine, the retrieved ids, and the
    P/R/F of the top hit's text against the reference.
    """
    report = []
    for item in items:
        hits = index.search(item["query"], k=k)
        top_doc, top_score = hits[0]
        scores = prf_scores(top_doc.text, item["reference"])
        report.append({
            "query": item["query"],
            "top_id": top_doc.id,
            "cosine": top_score,
            "retrieved": [d.id for d, _ in hits],
            "precision": scores.precision,
            "recall": scores.recall,
            "f": scores.f_measure,
        })
    return report


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
    counts = {}
    for t in ref:
        counts[t] = counts.get(t, 0) + 1
    overlap = 0
    for t in resp:
        if counts.get(t, 0) > 0:
            counts[t] -= 1
            overlap += 1
    precision = overlap / len(resp)
    recall = overlap / len(ref)
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return EvalScores(precision, recall, f)
