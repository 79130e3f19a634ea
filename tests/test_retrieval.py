import json
import math
import random
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from firedss import retrieval
from firedss.retrieval import (
    BadConfig, DimensionMismatch, DocRecord, DuplicateDocId, EmbedderConfig,
    EmbedderMismatch, EmptyIndex, VectorIndex, cosine, embed, prf_scores,
)

from oracles import brute_force_topk


def random_text(rng, lo=3, hi=60):
    alphabet = string.ascii_lowercase + "    "
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi))).strip() or "x"


def random_index(rng, size, dim=64):
    idx = VectorIndex(EmbedderConfig(dimension=dim))
    idx.add([DocRecord(f"doc{k:04d}", random_text(rng)) for k in range(size)])
    return idx


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
        buckets_a = {retrieval._fnv1a64(g.encode()) % 4096 for g in grams(a_text)}
        buckets_b = {retrieval._fnv1a64(g.encode()) % 4096 for g in grams(b_text)}
        assert not (buckets_a & buckets_b), "bucket collision; pick other texts"
        assert cosine(embed(a_text, config), embed(b_text, config)) == 0.0

    def test_bad_config(self):
        with pytest.raises(BadConfig):
            EmbedderConfig(dimension=4)
        with pytest.raises(BadConfig):
            EmbedderConfig(ngram=0)


class TestCosine:
    def test_self_similarity(self):
        v = embed("ignition risk low")
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_unit_vectors(self):
        a = np.zeros(16)
        b = np.zeros(16)
        a[0] = 1.0
        b[1] = 1.0
        assert cosine(a, b) == 0.0

    def test_scale_invariance(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine(v, 2 * v) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_gives_zero(self):
        assert cosine(np.zeros(8), np.ones(8)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(np.ones(8), np.ones(16))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_default_embedder_cosine_in_unit_interval(self, seed):
        rng = random.Random(seed)
        a = embed(random_text(rng))
        b = embed(random_text(rng))
        value = cosine(a, b)
        assert -1e-12 <= value <= 1.0 + 1e-12

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
           st.lists(st.floats(-10, 10), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_vectors_bounded(self, xs, ys):
        value = cosine(np.array(xs), np.array(ys))
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestSearch:
    def test_single_document(self):
        idx = VectorIndex()
        idx.add([DocRecord("only", "clear undergrowth near the village")])
        (hit,) = idx.search("anything at all", k=2)
        assert hit[0].id == "only"

    def test_exact_text_ranks_first_with_score_one(self):
        idx = VectorIndex()
        idx.add([DocRecord("a", "deploy several water tankers in rotation"),
                 DocRecord("b", "use helicopters on steep ground")])
        top = idx.search("deploy several water tankers in rotation", k=2)
        assert top[0][0].id == "a"
        assert top[0][1] == pytest.approx(1.0, abs=1e-9)

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
        idx = VectorIndex()
        idx.add([DocRecord("d", "text one")])
        with pytest.raises(DuplicateDocId):
            idx.add([DocRecord("d", "text two")])

    def test_fingerprint_mismatch(self):
        idx = VectorIndex(EmbedderConfig(dimension=64))
        idx.add([DocRecord("d", "some text")])
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
        idx = VectorIndex()
        idx.add([DocRecord("zeta", "identical text"),
                 DocRecord("alpha", "identical text")])
        top = idx.search("identical text", k=2)
        assert [d.id for d, _ in top] == ["alpha", "zeta"]


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
        idx = retrieval.load_corpus(retrieval.dump_corpus(docs))
        assert [d.id for d in idx.docs] == ["a", "b"]
        assert idx.docs[0].metadata == {"k": "v"}

    def test_bad_corpus_line(self):
        with pytest.raises(retrieval.RetrievalError, match="line 1"):
            retrieval.load_corpus("not json\n")


class TestEvalReport:
    def test_report_shape(self, corpus_text):
        idx = retrieval.load_corpus(corpus_text)
        items = [
            {"query": retrieval.advisor_query("DC_MOPUP", "difficult and extensive"),
             "reference": "plan extended mop up and probe for hot spots"},
            {"query": retrieval.advisor_query("ISI_SPREAD", "fast"),
             "reference": "expect running fire and brief crews on escape routes"},
        ]
        report = retrieval.eval_report(idx, items)
        assert len(report) == 2
        for entry in report:
            assert set(entry) == {"query", "top_id", "cosine", "retrieved",
                                  "precision", "recall", "f"}
            assert len(entry["retrieved"]) == 2
            assert -1.0 <= entry["cosine"] <= 1.0
            for key in ("precision", "recall", "f"):
                assert 0.0 <= entry[key] <= 1.0

    def test_self_query_scores_perfectly(self, corpus_text):
        idx = retrieval.load_corpus(corpus_text)
        doc = idx.docs[3]
        (entry,) = retrieval.eval_report(
            idx, [{"query": doc.text, "reference": doc.text}])
        assert entry["top_id"] == doc.id
        assert entry["cosine"] == pytest.approx(1.0, abs=1e-9)
        assert entry["f"] == 1.0


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
            assert cosine(v, query) <= 1.0 + 1e-12


def _ranked_by_oracle(idx, query, k):
    qv = embed(query, idx.config)
    want = brute_force_topk(list(qv), [list(v) for v in idx._vectors],
                            [d.id for d in idx.docs], k)
    return [doc_id for _, doc_id in want]


class TestIndexStorage:
    def test_search_after_second_add_sees_both_batches(self):
        idx = VectorIndex(EmbedderConfig(dimension=64))
        idx.add([DocRecord("m", "shared text"), DocRecord("b1", "water tanker")])
        assert [d.id for d, _ in idx.search("shared text", k=1)] == ["m"]
        idx.add([DocRecord("c", "shared text"), DocRecord("z", "shared text"),
                 DocRecord("a2", "helicopter ridge")])
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
        idx = VectorIndex()
        idx.add(docs)
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

    def test_each_distinct_gram_hashed_once_per_add(self, corpus_text, monkeypatch):
        hashed = []
        fnv = retrieval._fnv1a64

        def counting(data):
            hashed.append(data)
            return fnv(data)

        monkeypatch.setattr(retrieval, "_fnv1a64", counting)
        idx = retrieval.load_corpus(corpus_text)
        grams = set()
        for doc in idx.docs:
            text = " ".join(doc.text.lower().split())
            grams.update(text[i:i + 3] for i in range(len(text) - 2))
        assert len(hashed) == len(set(hashed))
        assert set(hashed) == {g.encode("utf-8") for g in grams}


class TestAddIsAllOrNothing:
    def _state(self, idx):
        return list(idx.docs), idx._vectors.copy(), set(idx._ids), idx._rank

    @pytest.mark.parametrize("batch", [
        [DocRecord("new1", "new text"), DocRecord("b", "clash with the index"),
         DocRecord("new2", "more text")],
        [DocRecord("new1", "new text"), DocRecord("new1", "clash within the batch")],
    ])
    def test_duplicate_leaves_the_index_unchanged(self, batch):
        idx = VectorIndex()
        idx.add([DocRecord("a", "first text"), DocRecord("b", "second text")])
        idx.search("text")                  # builds the id-rank cache
        docs, vectors, ids, rank = self._state(idx)
        with pytest.raises(DuplicateDocId):
            idx.add(batch)
        assert idx.docs == docs and idx._ids == ids and idx._rank is rank
        assert np.array_equal(idx._vectors, vectors)
        assert [d.id for d, _ in idx.search("new text", k=5)] == ["a", "b"]


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

    def test_duplicate_id_names_both_lines(self):
        corpus = '{"id": "a", "text": "one"}\n{"id": "b", "text": "two"}\n\n' \
                 '{"id": "a", "text": "three"}\n'
        self._load_fails(corpus, "corpus line 4: .*'a'.*line 1", DuplicateDocId)

    @pytest.mark.parametrize("text", ["\ud800x", "ok \udcff query"])
    def test_embed_and_search_reject_invalid_unicode(self, text):
        with pytest.raises(retrieval.RetrievalError, match="not valid Unicode"):
            embed(text)
        idx = VectorIndex()
        idx.add([DocRecord("a", "some text")])
        with pytest.raises(retrieval.RetrievalError, match="not valid Unicode"):
            idx.search(text)
