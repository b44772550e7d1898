import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bm25_oracle, rank_oracle

from genqr.analysis import Analyzer
from genqr.corpus_io import Document
from genqr.index import (DegenerateQueryError, IndexingError, PostingsIndex,
                         WeightedQuery, build_index)


def make_corpus(rng: random.Random, n_docs: int, vocab_size: int,
                max_len: int = 30):
    vocab = [f"t{i}" for i in range(vocab_size)]
    docs = []
    for i in range(n_docs):
        tokens = [rng.choice(vocab) for _ in range(rng.randint(1, max_len))]
        docs.append(Document(f"d{i:03d}", " ".join(tokens)))
    return docs


def tokens_of(docs):
    analyzer = Analyzer()
    return {d.docno: analyzer.analyze(d.text) for d in docs}


# --- build ---


def test_single_doc_statistics():
    index = build_index([Document("d1", "a b a")], Analyzer())
    assert list(zip(*index.postings["a"])) == [(0, 2)]
    assert list(zip(*index.postings["b"])) == [(0, 1)]
    assert index.doc_lengths == [3]
    assert index.avgdl == 3.0
    assert index.total_tokens == 3


def test_empty_corpus_then_retrieval_errors():
    index = build_index([], Analyzer())
    assert index.n_docs == 0
    with pytest.raises(IndexingError, match="empty"):
        index.retrieve(WeightedQuery.from_terms("q", ["a"]), k=5)


def test_duplicate_docno_rejected():
    docs = [Document("d1", "a"), Document("d1", "b")]
    with pytest.raises(IndexingError, match="d1"):
        build_index(docs, Analyzer())


def test_postings_match_brute_force_recount():
    rng = random.Random(99)
    docs = make_corpus(rng, 50, 20)
    index = build_index(docs, Analyzer())
    by_doc = tokens_of(docs)
    for term, (docs, tfs) in index.postings.items():
        for doc_ord, tf in zip(docs, tfs):
            assert by_doc[index.docnos[doc_ord]].count(term) == tf
    # invariants: sum tf per doc == doc length; df == postings length
    for doc_ord, docno in enumerate(index.docnos):
        total = sum(tf for docs, tfs in index.postings.values()
                    for d, tf in zip(docs, tfs) if d == doc_ord)
        assert total == index.doc_lengths[doc_ord] == len(by_doc[docno])
    for term, (docs, tfs) in index.postings.items():
        assert index.df(term) == len(docs) == len(tfs)
    assert index.avgdl == index.total_tokens / index.n_docs


# --- scoring ---


def test_single_term_positive_score():
    index = build_index([Document("d1", "hello")], Analyzer())
    scores = index.bm25_scores(WeightedQuery.from_terms("q", ["hello"]))
    assert scores["d1"] > 0  # idf stays positive via the +1 inside the log


def test_absent_term_empty_candidates():
    index = build_index([Document("d1", "hello")], Analyzer())
    assert index.bm25_scores(WeightedQuery.from_terms("q", ["nothere"])) == {}


def test_hand_corpus_frozen_scores():
    docs = [
        Document("d1", "the cat sat on the mat"),
        Document("d2", "the dog chased the cat"),
        Document("d3", "dogs and cats living together"),
        Document("d4", "the bird flew over the mat"),
        Document("d5", "cat cat cat"),
    ]
    index = build_index(docs, Analyzer())
    scores = index.bm25_scores(WeightedQuery.from_terms("q", ["cat", "mat"]),
                               k1=1.2, b=0.75)
    # frozen from an independent straight-line evaluation of the formula
    expected = {
        "d1": 1.3074888755422234,
        "d2": 0.5389965007326871,
        "d4": 0.8092568160414201,
        "d5": 0.9264002356343061,
    }
    assert set(scores) == set(expected)
    for docno, value in expected.items():
        assert scores[docno] == pytest.approx(value, abs=1e-9)


def test_degenerate_query_rejected():
    index = build_index([Document("d1", "a")], Analyzer())
    with pytest.raises(DegenerateQueryError, match="degenerate"):
        index.bm25_scores(WeightedQuery(qid="q", terms=(("a", 0.0),)))


def test_retrieve_k_larger_than_candidates():
    index = build_index([Document("d1", "a"), Document("d2", "a"), Document("d3", "b")],
                        Analyzer())
    run = index.retrieve(WeightedQuery.from_terms("q", ["a"]), k=50)
    assert len(run.entries) == 2


def test_retrieve_matches_exhaustive_sort():
    rng = random.Random(5)
    docs = make_corpus(rng, 50, 15)
    index = build_index(docs, Analyzer())
    query = WeightedQuery.from_terms("q", [rng.choice([f"t{i}" for i in range(15)])
                                           for _ in range(4)])
    run = index.retrieve(query, k=10)
    expected = rank_oracle(bm25_oracle(tokens_of(docs), query.aggregated(), 1.2, 0.75), 10)
    assert [(e.docno, e.rank) for e in run.entries] == \
        [(d, i + 1) for i, (d, _) in enumerate(expected)]
    for entry, (_, score) in zip(run.entries, expected):
        assert entry.score == pytest.approx(score, abs=1e-9)


def test_retrieve_deterministic():
    rng = random.Random(6)
    docs = make_corpus(rng, 30, 10)
    index = build_index(docs, Analyzer())
    query = WeightedQuery.from_terms("q", ["t1", "t2", "t3"])
    assert index.retrieve(query, k=10) == index.retrieve(query, k=10)


def test_duplicate_terms_equal_weight_multiplicity():
    rng = random.Random(11)
    docs = make_corpus(rng, 40, 12)
    index = build_index(docs, Analyzer())
    for _ in range(20):
        term = f"t{rng.randrange(12)}"
        mult = rng.randint(2, 5)
        dup = WeightedQuery.from_terms("q", [term] * mult)
        weighted = WeightedQuery(qid="q", terms=((term, float(mult)),))
        run_dup = index.retrieve(dup, k=20)
        run_w = index.retrieve(weighted, k=20)
        assert [e.docno for e in run_dup.entries] == [e.docno for e in run_w.entries]
        for a, b in zip(run_dup.entries, run_w.entries):
            assert a.score == pytest.approx(b.score, abs=1e-9)


def test_tf_monotone_at_fixed_length_and_df():
    # same length docs, one with higher tf of the query term
    docs = [Document("lo", "z x y"), Document("hi", "z z x"),
            Document("pad", "q w e")]
    index = build_index(docs, Analyzer())
    run = index.retrieve(WeightedQuery.from_terms("q", ["z"]), k=5)
    assert [e.docno for e in run.entries] == ["hi", "lo"]


def test_oracle_equivalence_randomized():
    rng = random.Random(2024)
    for _ in range(20):
        docs = make_corpus(rng, rng.randint(2, 60), rng.randint(3, 30))
        index = build_index(docs, Analyzer())
        vocab = sorted({t for d in tokens_of(docs).values() for t in d})
        terms = [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
        weights = {t: rng.choice([0.5, 1.0, 2.0]) for t in terms}
        query = WeightedQuery(qid="q", terms=tuple(weights.items()))
        k1 = rng.choice([0.9, 1.2, 2.0])
        b = rng.choice([0.0, 0.4, 0.75, 1.0])
        mine = index.bm25_scores(query, k1=k1, b=b)
        ref = bm25_oracle(tokens_of(docs), weights, k1, b)
        assert set(mine) == set(ref)
        for docno in ref:
            assert mine[docno] == pytest.approx(ref[docno], abs=1e-9)


def test_scores_follow_k1_and_b_on_one_index():
    # per-doc norms are memoised per (k1, b); each pair must still match the oracle
    rng = random.Random(31)
    docs = make_corpus(rng, 40, 12)
    index = build_index(docs, Analyzer())
    weights = {"t1": 1.0, "t4": 2.0, "t7": 0.5}
    query = WeightedQuery(qid="q", terms=tuple(weights.items()))
    for k1, b in [(1.2, 0.75), (0.9, 0.4), (1.2, 0.0), (2.0, 1.0), (1.2, 0.75)]:
        mine = index.bm25_scores(query, k1=k1, b=b)
        ref = bm25_oracle(tokens_of(docs), weights, k1, b)
        assert set(mine) == set(ref)
        for docno in ref:
            assert mine[docno] == pytest.approx(ref[docno], abs=1e-9)


# --- persistence ---


def test_save_load_roundtrip(tmp_path):
    rng = random.Random(77)
    docs = make_corpus(rng, 50, 20)
    index = build_index(docs, Analyzer(stopwords=frozenset({"t0"})))
    index.save(tmp_path / "idx")
    loaded = PostingsIndex.load(tmp_path / "idx")
    assert loaded.postings == index.postings
    assert loaded.docnos == index.docnos
    assert loaded.doc_lengths == index.doc_lengths
    assert loaded.analyzer == index.analyzer
    query = WeightedQuery.from_terms("q", ["t1", "t5"])
    assert loaded.retrieve(query, k=10) == index.retrieve(query, k=10)


def test_empty_index_roundtrips(tmp_path):
    index = build_index([], Analyzer())
    index.save(tmp_path / "idx")
    loaded = PostingsIndex.load(tmp_path / "idx")
    assert loaded.n_docs == 0


def test_corrupted_header_rejected(tmp_path):
    index = build_index([Document("d1", "a")], Analyzer())
    index.save(tmp_path / "idx")
    (tmp_path / "idx" / "postings.bin").write_bytes(b"GARBAGE!")
    with pytest.raises(IndexingError, match="rebuild"):
        PostingsIndex.load(tmp_path / "idx")


def test_version_mismatch_rejected(tmp_path):
    import json
    index = build_index([Document("d1", "a")], Analyzer())
    index.save(tmp_path / "idx")
    meta_path = tmp_path / "idx" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["version"] = 999
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(IndexingError, match="version"):
        PostingsIndex.load(tmp_path / "idx")


def _bump_first_df(raw: bytes) -> bytes:
    # same length, but the df column no longer sums to the postings count
    first = int.from_bytes(raw[8:12], "little") + 1
    return raw[:8] + first.to_bytes(4, "little") + raw[12:]


@pytest.mark.parametrize("edit", [lambda raw: raw[:-4], lambda raw: raw[:len(raw) // 2],
                                  lambda raw: raw + b"\0\0\0\0", _bump_first_df],
                         ids=["short-by-4", "half", "extended", "df-sum"])
def test_truncated_or_extended_postings_rejected(tmp_path, edit):
    index = build_index(make_corpus(random.Random(3), 10, 8), Analyzer())
    index.save(tmp_path / "idx")
    postings = tmp_path / "idx" / "postings.bin"
    postings.write_bytes(edit(postings.read_bytes()))
    with pytest.raises(IndexingError, match="rebuild"):
        PostingsIndex.load(tmp_path / "idx")


# --- properties ---

# non-ASCII terms, and repeats past 127 (the old varint byte boundary)
_WORDS = ["a", "zz", "café", "naïve", "日本", "straße", "ωμέγα", "x1"]
_doc = st.lists(st.tuples(st.sampled_from(_WORDS), st.integers(1, 300)), max_size=4)


@settings(max_examples=60, deadline=None)
@given(corpus=st.lists(_doc, max_size=6),
       weights=st.dictionaries(st.sampled_from(_WORDS + ["absent"]),
                               st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=1, max_size=4))
def test_build_save_load_preserves_index(corpus, weights):
    docs = [Document(f"d{i}", " ".join(word for word, tf in doc for _ in range(tf)))
            for i, doc in enumerate(corpus)]  # an empty list gives an empty doc
    index = build_index(docs, Analyzer())
    with tempfile.TemporaryDirectory() as tmp:
        index.save(tmp)
        loaded = PostingsIndex.load(tmp)
    assert loaded.postings == index.postings
    assert loaded.docnos == index.docnos
    assert loaded.doc_lengths == index.doc_lengths
    assert loaded.total_tokens == index.total_tokens

    by_doc = tokens_of(docs)
    for term in set(_WORDS) | set(index.postings):
        recount = sum(tokens.count(term) for tokens in by_doc.values())
        assert index.collection_freq(term) == loaded.collection_freq(term) == recount

    query = WeightedQuery(qid="q", terms=tuple(weights.items()))

    def outcome(idx):
        try:
            return idx.retrieve(query, k=10)
        except (IndexingError, DegenerateQueryError) as e:
            return type(e)

    assert outcome(loaded) == outcome(index)
