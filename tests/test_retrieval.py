import json
import math
import random
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from firedss import retrieval
from firedss.retrieval import (
    BadConfig, DocRecord, DuplicateDocId, EmbedderConfig, EmbedderMismatch, EmptyIndex,
    VectorIndex, embed, prf_scores,
)

from oracles import brute_force_topk, fnv1a64, ref_embedding

# where str.splitlines breaks a line besides "\n" and "\r"
UNICODE_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def random_text(rng, lo=3, hi=60):
    alphabet = string.ascii_lowercase + "    "
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi))).strip() or "x"


def random_index(rng, size, dim=64):
    docs = [DocRecord(f"doc{k:04d}", random_text(rng)) for k in range(size)]
    return VectorIndex(docs, EmbedderConfig(dimension=dim))


class TestEmbed:
    def test_deterministic(self):
        a = embed("Severe drought in the north valley")
        b = embed("Severe drought in the north valley")
        assert np.array_equal(a, b)

    def test_empty_text_is_zero_vector(self):
        assert not embed("").any()
        assert not embed("   \t\n").any()

    def test_unit_norm(self):
        v = embed("mop up after containment")
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative_components(self):
        v = embed("fast spread watch")
        assert (v >= 0).all()

    def test_case_and_whitespace_normalized(self):
        assert np.array_equal(embed("Fire  Watch"), embed("fire watch"))
        assert np.array_equal(embed(" FIRE WATCH "), embed("fire watch"))

    def test_short_text_single_gram(self):
        v = embed("ab")
        assert np.count_nonzero(v) == 1

    def test_disjoint_ngrams_orthogonal_at_high_dimension(self):
        # texts over disjoint alphabets share no character trigram; at
        # dimension 4096 the bucket collision chance is checked directly
        config = EmbedderConfig(dimension=4096)
        a_text, b_text = "aaabbbccc", "xxxyyyzzz"

        def grams(text):
            return {text[i:i + 3] for i in range(len(text) - 2)}

        assert not (grams(a_text) & grams(b_text))
        buckets_a = {fnv1a64(g.encode()) % 4096 for g in grams(a_text)}
        buckets_b = {fnv1a64(g.encode()) % 4096 for g in grams(b_text)}
        assert not (buckets_a & buckets_b), "bucket collision; pick other texts"
        assert embed(a_text, config) @ embed(b_text, config) == 0.0

    def test_bad_config(self):
        with pytest.raises(BadConfig):
            EmbedderConfig(dimension=4)


class TestCosine:
    """Rows are unit-norm or zero, so the cosine of two texts is the inner
    product of their rows, as `VectorIndex.search` computes it."""

    def test_self_similarity(self):
        v = embed("ignition risk low")
        assert v @ v == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_unit_vectors(self):
        # a text under 3 characters is one gram, so one bucket
        a, b = embed("ab"), embed("cd")
        assert set(np.flatnonzero(a)).isdisjoint(np.flatnonzero(b)), "bucket collision"
        assert a @ b == 0.0

    def test_zero_vector_gives_zero(self):
        assert embed("   ") @ embed("ignition risk low") == 0.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_default_embedder_cosine_in_unit_interval(self, seed):
        rng = random.Random(seed)
        a = embed(random_text(rng))
        b = embed(random_text(rng))
        value = a @ b
        assert -1e-12 <= value <= 1.0 + 1e-12

    @given(st.text(), st.text())
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_vectors_bounded(self, a_text, b_text):
        """The rows of any two texts, Unicode and whitespace included."""
        value = embed(a_text) @ embed(b_text)
        assert -1e-12 <= value <= 1.0 + 1e-12


class TestSearch:
    def test_single_document(self):
        idx = VectorIndex([DocRecord("only", "clear undergrowth near the village")])
        (hit,) = idx.search("anything at all", k=2)
        assert hit[0].id == "only"

    def test_exact_text_ranks_first_with_score_one(self):
        idx = VectorIndex([DocRecord("a", "deploy several water tankers in rotation"),
                           DocRecord("b", "use helicopters on steep ground")])
        top = idx.search("deploy several water tankers in rotation", k=2)
        assert top[0][0].id == "a"
        assert top[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_own_text_ranks_its_document_first(self, corpus_text):
        idx = retrieval.load_corpus(corpus_text)
        for doc in idx.docs:
            (top, score), _ = idx.search(doc.text)
            assert top.id == doc.id
            assert score == pytest.approx(1.0, abs=1e-9)

    def test_default_k_is_two(self):
        rng = random.Random(0)
        idx = random_index(rng, 10)
        assert len(idx.search("query")) == 2

    def test_k_capped_at_index_size(self):
        rng = random.Random(1)
        idx = random_index(rng, 3)
        assert len(idx.search("query", k=10)) == 3

    def test_empty_index(self):
        with pytest.raises(EmptyIndex):
            VectorIndex().search("q")

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateDocId, match="'d'"):
            VectorIndex([DocRecord("d", "text one"), DocRecord("e", "text"),
                         DocRecord("d", "text two")])

    def test_fingerprint_mismatch(self):
        idx = VectorIndex([DocRecord("d", "some text")], EmbedderConfig(dimension=64))
        other = EmbedderConfig(dimension=128)
        with pytest.raises(EmbedderMismatch):
            idx.search("q", query_fingerprint=other.fingerprint)
        assert idx.search("q", query_fingerprint=idx.fingerprint)

    def test_matches_brute_force_ranking(self):
        rng = random.Random(20240707)
        for _ in range(25):
            size = rng.randint(1, 120)
            idx = random_index(rng, size)
            query = random_text(rng)
            k = rng.randint(1, 6)
            got = idx.search(query, k=k)
            qv = embed(query, idx.config)
            want = brute_force_topk(list(qv), [list(v) for v in idx._vectors],
                                    [d.id for d in idx.docs], k)
            assert [d.id for d, _ in got] == [doc_id for _, doc_id in want]
            for (_, got_score), (want_score, _) in zip(got, want):
                assert got_score == pytest.approx(want_score, abs=1e-9)

    def test_larger_corpus_against_brute_force(self):
        rng = random.Random(42)
        idx = random_index(rng, 500)
        query = random_text(rng)
        got = idx.search(query, k=5)
        qv = embed(query, idx.config)
        want = brute_force_topk(list(qv), [list(v) for v in idx._vectors],
                                [d.id for d in idx.docs], 5)
        assert [d.id for d, _ in got] == [doc_id for _, doc_id in want]

    def test_topk_prefix_monotone(self):
        rng = random.Random(9)
        idx = random_index(rng, 40)
        query = random_text(rng)
        previous = [d.id for d, _ in idx.search(query, k=1)]
        for k in range(2, 12):
            current = [d.id for d, _ in idx.search(query, k=k)]
            assert current[: len(previous)] == previous
            previous = current

    def test_tie_break_by_ascending_id(self):
        idx = VectorIndex([DocRecord("zeta", "identical text"),
                           DocRecord("alpha", "identical text")])
        top = idx.search("identical text", k=2)
        assert [d.id for d, _ in top] == ["alpha", "zeta"]

    @pytest.mark.parametrize("size", range(40, 49))
    def test_equal_texts_tie_wherever_they_stand(self, size):
        # one text at 10 places, the last among them, ids descending by
        # place: a BLAS product can round the rows at the end of the
        # matrix apart from their equals
        same = "cover exposed fuel and keep a watch on the drought code"
        places = set(range(size - 1, 0, -4)[:10])
        docs = [DocRecord(f"d{size - i:03d}", same if i in places else f"other text {i} on fwi")
                for i in range(size)]
        idx = VectorIndex(docs)
        top = idx.search(same, k=10)
        assert [d.id for d, _ in top] == sorted(docs[i].id for i in places)
        assert len({score for _, score in top}) == 1
        products = idx._vectors @ embed(same)
        first = min(places)
        for doc, score in idx.search(same, k=size):
            i = docs.index(doc)
            assert score == products[first if i in places else i]


class TestCorpus:
    def test_bundled_corpus_loads(self, corpus_text):
        idx = retrieval.load_corpus(corpus_text)
        assert len(idx) >= 18

    def test_advisor_lookup_returns_two_docs(self, corpus_text):
        idx = retrieval.load_corpus(corpus_text)
        hits = idx.search(retrieval.advisor_query("DC_MOPUP", "difficult and extensive"))
        assert len(hits) == 2
        assert hits[0][1] > 0.2

    def test_dump_load_roundtrip(self):
        docs = [DocRecord("a", "first text", {"k": "v"}),
                DocRecord("b", "second text")]
        text = "".join(json.dumps({"id": d.id, "text": d.text, "metadata": d.metadata}) + "\n"
                       for d in docs)
        idx = retrieval.load_corpus(text)
        assert idx.docs == docs

    def test_bad_corpus_line(self):
        with pytest.raises(retrieval.RetrievalError, match="line 1"):
            retrieval.load_corpus("not json\n")


class TestPrfScores:
    def test_identical_texts(self):
        s = prf_scores("the same text", "the same text")
        assert (s.precision, s.recall, s.f_measure) == (1.0, 1.0, 1.0)

    def test_disjoint_vocabularies(self):
        s = prf_scores("alpha beta", "gamma delta")
        assert (s.precision, s.recall, s.f_measure) == (0.0, 0.0, 0.0)

    def test_worked_example(self):
        s = prf_scores("a b", "a c d")
        assert s.precision == 0.5
        assert s.recall == pytest.approx(1 / 3, abs=1e-12)
        assert s.f_measure == pytest.approx(0.4, abs=1e-12)

    def test_both_empty(self):
        assert prf_scores("", "") == retrieval.EvalScores(1.0, 1.0, 1.0)

    def test_one_empty(self):
        assert prf_scores("", "words here") == retrieval.EvalScores(0.0, 0.0, 0.0)
        assert prf_scores("words here", "") == retrieval.EvalScores(0.0, 0.0, 0.0)

    def test_tokenization_is_case_and_punct_insensitive(self):
        s = prf_scores("Mop-up, NOW!", "mop up now")
        assert (s.precision, s.recall, s.f_measure) == (1.0, 1.0, 1.0)

    def test_multiset_overlap(self):
        s = prf_scores("a a b", "a b b")
        assert s.precision == pytest.approx(2 / 3)
        assert s.recall == pytest.approx(2 / 3)

    def test_swap_transposes_precision_recall(self):
        a, b = "red green blue", "red yellow"
        fwd = prf_scores(a, b)
        rev = prf_scores(b, a)
        assert fwd.precision == rev.recall and fwd.recall == rev.precision
        assert fwd.f_measure == pytest.approx(rev.f_measure)

    @given(st.lists(st.sampled_from("abcdef"), max_size=12),
           st.lists(st.sampled_from("abcdef"), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_f_measure_identity_random_token_sets(self, xs, ys):
        s = prf_scores(" ".join(xs), " ".join(ys))
        p, r, f = s.precision, s.recall, s.f_measure
        if p + r > 0:
            assert f == pytest.approx(2 * p * r / (p + r), abs=1e-12)
        # harmonic mean: bounded by the geometric mean and the P/R envelope
        assert f <= math.sqrt(p * r) + 1e-12
        assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12


class TestConcurrentSearches:
    def test_shared_index_from_many_threads(self, corpus_text):
        from concurrent.futures import ThreadPoolExecutor

        idx = retrieval.load_corpus(corpus_text)
        query = retrieval.advisor_query("ISI_SPREAD", "fast")
        reference = [(d.id, s) for d, s in idx.search(query, k=3)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda _: [(d.id, s) for d, s in idx.search(query, k=3)], range(64)))
        assert all(r == reference for r in results)


class TestNormInvariantUnderGrowth:
    def test_appending_text_keeps_cosine_bounded(self):
        rng = random.Random(3)
        base = "containment line on the ridge"
        query = embed("unrelated query about tanker capacity")
        doc = base
        for _ in range(20):
            doc += " " + random_text(rng, 3, 10)
            v = embed(doc)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
            assert v @ query <= 1.0 + 1e-12


def _ranked_by_oracle(idx, query, k):
    qv = embed(query, idx.config)
    want = brute_force_topk(list(qv), [list(v) for v in idx._vectors],
                            [d.id for d in idx.docs], k)
    return [doc_id for _, doc_id in want]


class TestIndexStorage:
    def test_search_ranks_every_document_and_breaks_ties_by_id(self):
        idx = VectorIndex([DocRecord("m", "shared text"), DocRecord("b1", "water tanker"),
                           DocRecord("c", "shared text"), DocRecord("z", "shared text"),
                           DocRecord("a2", "helicopter ridge")], EmbedderConfig(dimension=64))
        assert idx._vectors.shape == (5, 64)
        for query in ("shared text", "helicopter ridge", "water tanker"):
            for k in (1, 2, 3, 5):
                got = [d.id for d, _ in idx.search(query, k=k)]
                assert got == _ranked_by_oracle(idx, query, k)
        assert [d.id for d, _ in idx.search("shared text", k=3)] == ["c", "m", "z"]

    def test_identical_texts_tie_group_crossed_by_k(self):
        rng = random.Random(11)
        ids = [f"t{n:03d}" for n in range(40)]
        rng.shuffle(ids)
        docs = [DocRecord(doc_id, "burn ban in effect") for doc_id in ids]
        docs += [DocRecord(f"o{n:02d}", random_text(rng)) for n in range(30)]
        rng.shuffle(docs)
        idx = VectorIndex(docs)
        for k in (1, 5, 39, 40, 41, 55, 70):
            got = idx.search("burn ban in effect", k=k)
            assert [d.id for d, _ in got] == _ranked_by_oracle(idx, "burn ban in effect", k)
        top = [d.id for d, _ in idx.search("burn ban in effect", k=40)]
        assert top == sorted(ids)

    def test_k_above_size_returns_every_document(self):
        rng = random.Random(12)
        idx = random_index(rng, 9)
        got = idx.search("anything", k=100)
        assert sorted(d.id for d, _ in got) == sorted(d.id for d in idx.docs)
        # the oracle's plain-float cosines can differ from numpy's in the last
        # bit, so the full order is checked against the tie rule directly
        keys = [(-score, d.id) for d, score in got]
        assert keys == sorted(keys)

    def test_one_matrix_of_unit_rows(self, corpus_text):
        idx = retrieval.load_corpus(corpus_text)
        assert isinstance(idx._vectors, np.ndarray)
        assert idx._vectors.shape == (len(idx), idx.config.dimension)
        for doc, row in zip(idx.docs, idx._vectors):
            assert np.array_equal(row, embed(doc.text))

    @pytest.mark.parametrize("dim", [8, 256])
    def test_corpus_rows_are_the_oracle_rows(self, corpus_text, dim):
        idx = retrieval.load_corpus(corpus_text, EmbedderConfig(dimension=dim))
        want = np.array([ref_embedding(doc.text, dim) for doc in idx.docs])
        assert idx._vectors.tobytes() == want.tobytes()


# characters whose UTF-8 takes 1-4 bytes, Unicode whitespace that `split`
# collapses (NBSP, ideographic space, line separator), a combining accent,
# fullwidth forms, a capital whose lowercase is two code points, astral ones
_ASCII = string.ascii_letters + string.digits + " .,-" + " \t\n"
_UNICODE = (_ASCII + "çéßΣ\u0130\u0301\u00a0\u3000\u2028ＡＢｆ１火災\u07ff\u0800\uffff"
            "🔥🌲\U00010000\U0010ffff")


def _kernel_batch(rng, size):
    """Seeded texts of 0-40 characters, some whitespace only, drawn from
    ASCII alone or from all of `_UNICODE` (one choice per batch, since a
    block of ASCII bytes takes its own path)."""
    alphabet = rng.choice((_ASCII, _UNICODE))
    texts = []
    for _ in range(size):
        length = rng.choice((0, 1, 2, 3, 4, 7, 40))
        if rng.random() < 0.1:
            texts.append("".join(rng.choice(" \t\n\u00a0\u3000") for _ in range(length)))
        else:
            texts.append("".join(rng.choice(alphabet) for _ in range(length)))
    return texts


class TestKernelMatchesOracle:
    """`_embed_rows` hashes a block of texts in one vectorised pass; its rows
    are bit for bit those of hashing each gram on its own (`ref_embedding`)."""

    @pytest.mark.parametrize("dim", [8, 64, 256, 1000])
    @pytest.mark.parametrize("size", [1, 2, retrieval._BLOCK - 1, retrieval._BLOCK,
                                      2 * retrieval._BLOCK + 1])
    def test_rows_equal_the_oracle_bit_for_bit(self, dim, size):
        rng = random.Random(dim * 1000 + size)
        config = EmbedderConfig(dimension=dim)
        for _ in range(6 if size < retrieval._BLOCK else 2):
            texts = _kernel_batch(rng, size)
            got = retrieval._embed_rows(texts, config)
            want = np.array([ref_embedding(text, dim) for text in texts])
            assert got.tobytes() == want.tobytes(), texts

    def test_embed_and_index_rows_are_the_kernel_rows(self):
        texts = _kernel_batch(random.Random(7), 3 * retrieval._BLOCK)
        rows = retrieval._embed_rows(texts, EmbedderConfig())
        for text, row in zip(texts, rows):
            assert embed(text).tobytes() == row.tobytes()
        docs = [DocRecord(f"d{n}", text) for n, text in enumerate(texts) if text]
        idx = VectorIndex(docs)
        assert idx._vectors.tobytes() == np.array(
            [ref_embedding(d.text, 256) for d in docs]).tobytes()

    @pytest.mark.parametrize("texts", [["\ud800"], ["ok", "  \udfff  "],
                                       ["ok"] * (retrieval._BLOCK + 5) + ["fire \ud83d"]])
    def test_lone_surrogate_raises(self, texts):
        with pytest.raises(retrieval.RetrievalError, match="not valid Unicode"):
            retrieval._embed_rows(texts, EmbedderConfig())


class TestInputEdges:
    def _load_fails(self, corpus, match, exc=retrieval.RetrievalError):
        with pytest.raises(exc, match=match):
            retrieval.load_corpus(corpus)

    def test_deeply_nested_line_names_the_line(self):
        self._load_fails('{"id": "a", "text": "ok"}\n' + "[" * 100_000 + "]" * 100_000,
                         "corpus line 2")

    def test_metadata_not_an_object(self):
        self._load_fails('{"id": "a", "text": "ok", "metadata": "ab"}', "corpus line 1")

    def test_line_not_an_object(self):
        self._load_fails('{"id": "a", "text": "ok"}\n\n[1, 2]\n', "corpus line 3")

    @pytest.mark.parametrize("text", ["null", "5", '["x"]', '{"t": 1}'])
    def test_non_string_text_rejected(self, text):
        self._load_fails('{"id": "a", "text": %s}' % text, "corpus line 1")
        with pytest.raises(retrieval.RetrievalError):
            DocRecord("a", json.loads(text))

    @pytest.mark.parametrize("doc_id", ["null", "1", "[1]", "true", '{"a": "b"}'])
    def test_non_string_id_rejected(self, doc_id):
        # `1` after `"1"` used to be read as the same id, a duplicate
        self._load_fails('{"id": "1", "text": "ok"}\n{"id": %s, "text": "ok"}' % doc_id,
                         "corpus line 2: document id is not a string")
        with pytest.raises(retrieval.RetrievalError):
            DocRecord(json.loads(doc_id), "ok")

    def test_lone_surrogate_text_names_the_line(self):
        self._load_fails('{"id": "a", "text": "ok"}\n{"id": "b", "text": "\\ud800x"}',
                         "corpus line 2")

    def test_lone_surrogate_id_names_the_line(self):
        self._load_fails('{"id": "a", "text": "ok"}\n{"id": "b\\ud800", "text": "ok"}',
                         "corpus line 2: document id is not valid Unicode")
        with pytest.raises(retrieval.RetrievalError, match="document id is not valid"):
            DocRecord("a\ud800", "ok")

    def test_duplicate_id_names_both_lines(self):
        corpus = '{"id": "a", "text": "one"}\n{"id": "b", "text": "two"}\n\n' \
                 '{"id": "a", "text": "three"}\n'
        self._load_fails(corpus, "corpus line 4: .*'a'.*line 1", DuplicateDocId)

    @pytest.mark.parametrize("text", ["\ud800x", "ok \udcff query"])
    def test_embed_and_search_reject_invalid_unicode(self, text):
        with pytest.raises(retrieval.RetrievalError, match="not valid Unicode"):
            embed(text)
        idx = VectorIndex([DocRecord("a", "some text")])
        with pytest.raises(retrieval.RetrievalError, match="not valid Unicode"):
            idx.search(text)

    @pytest.mark.parametrize("char", UNICODE_LINE_BREAKS)
    def test_only_lf_ends_a_line(self, char):
        corpus = '{"id": "a", "text": "x%sy"}\n{"id": "b", "text": "z"}\n' % char
        if char < " ":      # a JSON string holds no raw control character
            self._load_fails(corpus, "^corpus line 1: Invalid control character")
        else:
            idx = retrieval.load_corpus(corpus)
            assert [(d.id, d.text) for d in idx.docs] == [("a", f"x{char}y"), ("b", "z")]
