import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TOY, assert_same_index, read_index_file, write_index_file
from oracles import bm25_oracle, bm25_scores, inverted_index_oracle, rank_oracle

from genqr import index as index_module
from genqr.analysis import Analyzer
from genqr.corpus_io import Document, load_corpus, ranked
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
    assert index.terms == ["a", "b"]
    assert list(zip(*index.postings("a"))) == [(0, 2)]
    assert list(zip(*index.postings("b"))) == [(0, 1)]
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
    for term in index.terms:
        for doc_ord, tf in zip(*index.postings(term)):
            assert by_doc[index.docnos[doc_ord]].count(term) == tf
    # invariants: sum tf per doc == doc length; df == postings length
    for doc_ord, docno in enumerate(index.docnos):
        total = sum(tf for term in index.terms
                    for d, tf in zip(*index.postings(term)) if d == doc_ord)
        assert total == index.doc_lengths[doc_ord] == len(by_doc[docno])
    for term in index.terms:
        docs, tfs = index.postings(term)
        assert index.df(term) == len(docs) == len(tfs)
    assert index.avgdl == index.total_tokens / index.n_docs


_BUILD_WORDS = ["a", "b", "c", "déjà"]


@settings(deadline=None)
@given(corpus=st.lists(st.lists(st.sampled_from(_BUILD_WORDS), max_size=8),
                       min_size=1, max_size=8))
@example(corpus=[["a", "b", "a", "a"]])  # one doc, a term repeated in it
@example(corpus=[["a", "b"], ["c", "a"], ["a", "a"]])  # a term in every doc
@example(corpus=[[], ["b", "b"], [], ["b"]])  # empty docs
def test_build_equals_inverted_index_oracle(corpus):
    docs = [Document(f"d{i}", " ".join(tokens)) for i, tokens in enumerate(corpus)]
    index = build_index(docs, Analyzer())
    lists = inverted_index_oracle(corpus)
    terms = sorted(lists)
    assert index.terms == terms
    assert [index.df(t) for t in terms] == [len(lists[t]) for t in terms]
    assert [index.collection_freq(t) for t in terms] == \
        [sum(tf for _, tf in lists[t]) for t in terms]
    assert [list(zip(*index.postings(t))) for t in terms] == [lists[t] for t in terms]
    assert index.docnos == [doc.docno for doc in docs]
    assert index.doc_lengths == [len(tokens) for tokens in corpus]
    assert index.total_tokens == sum(map(len, corpus))


# --- scoring ---


def test_single_term_positive_score():
    index = build_index([Document("d1", "hello")], Analyzer())
    scores = dict(index.retrieve(WeightedQuery.from_terms("q", ["hello"]), k=index.n_docs))
    assert scores["d1"] > 0  # idf stays positive via the +1 inside the log


def test_absent_term_empty_candidates():
    index = build_index([Document("d1", "hello")], Analyzer())
    assert dict(index.retrieve(WeightedQuery.from_terms("q", ["nothere"]), k=index.n_docs)) == {}


def test_hand_corpus_frozen_scores():
    docs = [
        Document("d1", "the cat sat on the mat"),
        Document("d2", "the dog chased the cat"),
        Document("d3", "dogs and cats living together"),
        Document("d4", "the bird flew over the mat"),
        Document("d5", "cat cat cat"),
    ]
    index = build_index(docs, Analyzer())
    scores = dict(index.retrieve(WeightedQuery.from_terms("q", ["cat", "mat"]),
                                 k=index.n_docs, k1=1.2, b=0.75))
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
        index.retrieve(WeightedQuery(qid="q", terms=(("a", 0.0),)), k=index.n_docs)


def test_weighted_query_merges_repeated_terms():
    """`terms` is the query as scored: each term once, in first-seen order,
    its weights summed left to right from 0.0."""
    query = WeightedQuery(qid="q", terms=(("b", 0.1), ("a", 1.0), ("b", 0.2), ("b", 0.3)))
    assert query.terms == (("b", 0.0 + 0.1 + 0.2 + 0.3), ("a", 1.0))
    assert query.aggregated() == {"b": 0.1 + 0.2 + 0.3, "a": 1.0}
    assert WeightedQuery.from_terms("q", ["x", "y", "x"]).terms == (("x", 2.0), ("y", 1.0))


def test_retrieve_k_larger_than_candidates():
    index = build_index([Document("d1", "a"), Document("d2", "a"), Document("d3", "b")],
                        Analyzer())
    run = index.retrieve(WeightedQuery.from_terms("q", ["a"]), k=50)
    assert len(run) == 2


def test_retrieve_matches_exhaustive_sort():
    rng = random.Random(5)
    docs = make_corpus(rng, 50, 15)
    index = build_index(docs, Analyzer())
    query = WeightedQuery.from_terms("q", [rng.choice([f"t{i}" for i in range(15)])
                                           for _ in range(4)])
    run = index.retrieve(query, k=10)
    expected = rank_oracle(bm25_oracle(tokens_of(docs), query.aggregated(), 1.2, 0.75), 10)
    assert [d for d, _ in run] == [d for d, _ in expected]
    for (_, got), (_, score) in zip(run, expected):
        assert got == pytest.approx(score, abs=1e-9)


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
        assert [d for d, _ in run_dup] == [d for d, _ in run_w]
        for (_, a), (_, b) in zip(run_dup, run_w):
            assert a == pytest.approx(b, abs=1e-9)


def test_tf_monotone_at_fixed_length_and_df():
    # same length docs, one with higher tf of the query term
    docs = [Document("lo", "z x y"), Document("hi", "z z x"),
            Document("pad", "q w e")]
    index = build_index(docs, Analyzer())
    run = index.retrieve(WeightedQuery.from_terms("q", ["z"]), k=5)
    assert [d for d, _ in run] == ["hi", "lo"]


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
        mine = dict(index.retrieve(query, k=index.n_docs, k1=k1, b=b))
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
        mine = dict(index.retrieve(query, k=index.n_docs, k1=k1, b=b))
        ref = bm25_oracle(tokens_of(docs), weights, k1, b)
        assert set(mine) == set(ref)
        for docno in ref:
            assert mine[docno] == pytest.approx(ref[docno], abs=1e-9)


@pytest.mark.parametrize("k,k1,b,match", [
    (0, 1.2, 0.75, "k must be positive"),
    (10, -1.0, 0.75, r"k1 >= 0 and 0 <= b <= 1, got k1=-1.0"),
    (10, 1.2, 1.5, r"k1 >= 0 and 0 <= b <= 1, got .*b=1.5"),
    (10, 1.2, -0.5, r"k1 >= 0 and 0 <= b <= 1, got .*b=-0.5"),
])
def test_retrieve_rejects_bad_parameters(k, k1, b, match):
    index = build_index([Document("d1", "a")], Analyzer())
    with pytest.raises(ValueError, match=match):
        index.retrieve(WeightedQuery.from_terms("q", ["a"]), k=k, k1=k1, b=b)


# --- rank-safe top k ---


def exhaustive(index, query, k, k1=1.2, b=0.75):
    return ranked(bm25_scores(index, query, k1=k1, b=b).items())[:k]


def entries(run):
    return [(d, s.hex()) for d, s in run]  # the rank is the position


def assert_rank_safe(index, query, k, k1=1.2, b=0.75):
    assert entries(index.retrieve(query, k, k1=k1, b=b)) == \
        entries(exhaustive(index, query, k, k1, b))


def test_pruned_terms_are_probed(monkeypatch):
    # "head" is in every doc and bounded far below the three "rare" docs'
    # scores, so its list is only probed for them.
    docs = [Document(f"d{i:02d}", ("rare " * 3 if i < 3 else "") + "head filler")
            for i in range(30)]
    index = build_index(docs, Analyzer())
    probes = []

    def counting(*args):
        probes.append(args[1])
        return bisect_left(*args)

    bisect_left = index_module.bisect_left
    monkeypatch.setattr(index_module, "bisect_left", counting)
    query = WeightedQuery.from_terms("q", ["rare", "head"])
    assert_rank_safe(index, query, k=1)
    assert sorted(probes) == [0, 1, 2]


def test_doc_on_the_pruning_threshold_is_kept():
    # With subnormal weights the 1e-9 slack rounds away and sums are exact:
    # before "z", "da" (x, z) can at best tie "dz" (x, y), and wins the tie
    # on docno, so the candidate filter must keep a doc whose bound equals
    # the threshold.
    docs = [Document("dz", "x y"), Document("da", "x z"),
            *(Document(f"f{i}", "z") for i in range(6))]
    index = build_index(docs, Analyzer())
    tiny = math.ulp(0.0)
    s_y = 100 * tiny * index.idf("y")
    m_z = next(m for m in range(1, 10_000) if m * tiny * index.idf("z") == s_y)
    weights = {"x": 150 * tiny, "y": 100 * tiny, "z": m_z * tiny}
    s_x = weights["x"] * index.idf("x")
    assert s_y < s_x <= 2 * s_y  # no pruning before "y"; pruning before "z"
    query = WeightedQuery(qid="q", terms=tuple(weights.items()))
    assert_rank_safe(index, query, k=1, k1=0.0)
    assert index.retrieve(query, 1, k1=0.0)[0][0] == "da"


def test_pruning_threshold_absorbs_rounding():
    # With k1 = 0 a partial is scale * tf / tf, which can round one ulp above
    # its bound. Weights are picked so that "da"'s y partial rounds up to
    # exactly "dz"'s x score while y's bound stays one ulp below it: only
    # the slack keeps "da" from being pruned unseen.
    docs = [Document("dz", "x"), Document("da", "y y y"),
            Document("f1", "y"), Document("f2", "y")]
    index = build_index(docs, Analyzer())
    idf_x, idf_y = index.idf("x"), index.idf("y")
    rng = random.Random(0)
    while True:
        w_y = rng.uniform(1.0, 2.0)
        s_y = w_y * idf_y
        target = math.nextafter(s_y, math.inf)
        if s_y * 3 * 1.0 / (3 + 0.0) != target:
            continue
        w_x = target / idf_x
        for w in (w_x, math.nextafter(w_x, 0.0), math.nextafter(w_x, math.inf)):
            if w * idf_x == target:
                break
        else:
            continue
        break
    query = WeightedQuery(qid="q", terms=(("x", w), ("y", w_y)))
    assert_rank_safe(index, query, k=1, k1=0.0)
    assert index.retrieve(query, 1, k1=0.0)[0][0] == "da"


def test_ties_at_the_cut_go_by_docno():
    # Ten docs tie, in index order d9, d8, ..., d0: the top 3 are the three
    # lowest docnos, however many tie at the k-th score.
    docs = [Document(f"d{i}", "tie") for i in reversed(range(10))] + [Document("x", "pad")]
    index = build_index(docs, Analyzer())
    query = WeightedQuery.from_terms("q", ["tie"])
    run = index.retrieve(query, k=3)
    expected = rank_oracle(bm25_oracle(tokens_of(docs), query.aggregated(), 1.2, 0.75), 3)
    assert run == expected
    assert [d for d, _ in run] == ["d0", "d1", "d2"]


def test_pruning_keeps_only_docs_that_can_reach_the_top_k(monkeypatch):
    # The three "rare" docs score apart by more than the bound of "head",
    # which is in every doc: with k = 1 only the best rare doc can still win,
    # so only it is probed in the head list.
    docs = [Document(f"d{i:02d}", "rare " * (3 - i) if i < 3 else "filler") for i in range(30)]
    docs = [Document(d.docno, d.text + " head") for d in docs]
    index = build_index(docs, Analyzer())
    probes = []

    def counting(*args):
        probes.append(args[1])
        return bisect_left(*args)

    bisect_left = index_module.bisect_left
    monkeypatch.setattr(index_module, "bisect_left", counting)
    query = WeightedQuery(qid="q", terms=(("rare", 1.0), ("head", 0.01)))
    assert_rank_safe(index, query, k=1)
    assert probes == [0]


def test_retrieve_ranks_only_the_docs_at_the_cut(monkeypatch):
    # 30 docs match; corpus_io.ranked ranks the 2 that score at least the
    # 2nd best score, not all 30.
    docs = [Document(f"d{i:02d}", "term " * (1 + i % 5) + "pad " * (i % 7)) for i in range(30)]
    index = build_index(docs, Analyzer())
    sizes = []

    def counting(scored):
        scored = list(scored)
        sizes.append(len(scored))
        return ranked(scored)

    monkeypatch.setattr(index_module, "ranked", counting)
    query = WeightedQuery.from_terms("q", ["term"])
    run = index.retrieve(query, k=2)
    assert sizes == [2]
    expected = rank_oracle(bm25_oracle(tokens_of(docs), query.aggregated(), 1.2, 0.75), 2)
    assert run == expected


# Rare terms pick a few docs, head terms are in nearly every doc: a query
# that takes the rare terms first prunes the head terms' lists.
_RARE, _HEAD = ["r0", "r1", "r2", "r3"], ["h0", "h1", "h2"]
_tf = st.integers(1, 4)
_weight = st.sampled_from([0.0, 0.5, 1.0, 2.5])


@st.composite
def _ranked_corpus(draw):
    """Docnos out of index order, so that a docno tie-break differs from an
    index-order one. Up to 120 docs of head terms alone come first: their
    long head-term lists make retrieve probe them by bisection."""
    docs = [Document(f"h{i:03d}", " ".join(_HEAD)) for i in range(draw(st.integers(0, 120)))]
    for i in draw(st.permutations(range(draw(st.integers(1, 40))))):
        counts = {t: draw(_tf) for t in _RARE if draw(st.integers(0, 5)) == 0}
        counts.update({t: draw(_tf) for t in _HEAD if draw(st.integers(0, 19)) > 0})
        docs.append(Document(f"d{i:02d}", " ".join(t for t, tf in counts.items()
                                                   for _ in range(tf))))
    return docs


@st.composite
def _rare_first_query(draw):
    """Rare terms, then head terms, then maybe an absent one; or all shuffled."""
    terms = [(t, draw(_weight)) for t in draw(st.lists(st.sampled_from(_RARE), min_size=1))]
    terms += [(t, draw(_weight)) for t in draw(st.lists(st.sampled_from(_HEAD), max_size=5))]
    if draw(st.booleans()):
        terms.append(("absent", draw(_weight)))
    if draw(st.booleans()):
        terms = draw(st.permutations(terms))
    return WeightedQuery(qid="q", terms=tuple(terms))


@settings(deadline=None)
@given(docs=_ranked_corpus(), query=_rare_first_query(),
       k=st.one_of(st.integers(1, 4), st.integers(1, 45)),
       k1=st.floats(0.0, 3.0), b=st.floats(0.0, 1.0))
def test_retrieve_equals_exhaustive_top_k(docs, query, k, k1, b):
    index = build_index(docs, Analyzer())
    try:
        expected = entries(exhaustive(index, query, k, k1, b))
    except DegenerateQueryError:
        with pytest.raises(DegenerateQueryError):
            index.retrieve(query, k, k1=k1, b=b)
        return
    assert entries(index.retrieve(query, k, k1=k1, b=b)) == expected


# --- persistence ---


def test_save_load_roundtrip(tmp_path):
    rng = random.Random(77)
    docs = make_corpus(rng, 50, 20)
    analyzer = Analyzer(stopwords=frozenset({"t0"}))
    index = build_index(docs, analyzer)
    index.save(tmp_path / "idx")
    loaded = PostingsIndex.load(tmp_path / "idx", analyzer)
    assert_same_index(loaded, index)
    assert loaded.analyzer == index.analyzer
    query = WeightedQuery.from_terms("q", ["t1", "t5"])
    assert loaded.retrieve(query, k=10) == index.retrieve(query, k=10)


def test_load_keeps_one_copy_of_the_file(tmp_path):
    """While `load` runs, it holds at most one file size more than the
    index it returns retains."""
    build_index(make_corpus(random.Random(7), 2000, 400), Analyzer()).save(tmp_path)
    size = (tmp_path / "postings.bin").stat().st_size
    tracemalloc.start()
    try:
        loaded = PostingsIndex.load(tmp_path, Analyzer())
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.n_docs == 2000
    assert peak - retained <= size


def test_empty_index_roundtrips(tmp_path):
    index = build_index([], Analyzer())
    index.save(tmp_path / "idx")
    loaded = PostingsIndex.load(tmp_path / "idx", Analyzer())
    assert loaded.n_docs == 0


def test_corrupted_header_rejected(tmp_path):
    index = build_index([Document("d1", "a")], Analyzer())
    index.save(tmp_path / "idx")
    (tmp_path / "idx" / "postings.bin").write_bytes(b"GARBAGE!")
    with pytest.raises(IndexingError, match="rebuild"):
        PostingsIndex.load(tmp_path / "idx", Analyzer())


def test_index_is_one_file(tmp_path):
    build_index(make_corpus(random.Random(2), 5, 4), Analyzer()).save(tmp_path / "idx")
    assert [p.name for p in (tmp_path / "idx").iterdir()] == ["postings.bin"]


def test_missing_postings_rejected(tmp_path):
    """A directory without postings.bin, such as a version-2 one whose
    postings.bin was deleted, beside its meta.json."""
    (tmp_path / "idx").mkdir()
    (tmp_path / "idx" / "meta.json").write_text("{}")
    with pytest.raises(IndexingError, match=r"missing postings\.bin\); rebuild it with "
                                            r"`genqr index --force`$"):
        PostingsIndex.load(tmp_path / "idx", Analyzer())


def test_version_mismatch_rejected(tmp_path):
    """Another magic fails the load, as does a version-2 directory: a
    meta.json beside a GQRPOST2 postings.bin."""
    index = build_index([Document("d1", "a")], Analyzer())
    index.save(tmp_path / "idx")
    _, header, columns = read_index_file(tmp_path / "idx")
    write_index_file(tmp_path / "idx", b"GQRPOST9", header, columns)
    with pytest.raises(IndexingError, match=r"b'GQRPOST9', not b'GQRPOST3': an index of "
                                            r"another version.*genqr index --force"):
        PostingsIndex.load(tmp_path / "idx", Analyzer())
    v2 = tmp_path / "v2"
    v2.mkdir()
    (v2 / "meta.json").write_text('{"magic": "genqr-index", "version": 2}')
    (v2 / "postings.bin").write_bytes(b"GQRPOST2" + bytes(16))
    with pytest.raises(IndexingError, match="b'GQRPOST2'.*genqr index --force"):
        PostingsIndex.load(v2, Analyzer())


def test_bad_analyzer_section_rejected(tmp_path):
    """An unknown analyzer key fails the load, as do the `lowercase` and
    `strip_punctuation` keys that indexes built before their removal name."""
    import json
    index = build_index([Document("d1", "a")], Analyzer())
    index.save(tmp_path / "idx")
    magic, header, columns = read_index_file(tmp_path / "idx")
    header = json.loads(header)
    old_analyzer = {"lowercase": True, "strip_punctuation": True, "stopwords": [],
                    "stemmer": "none"}
    for analyzer, keys in ((dict(header["analyzer"], mystery=1), r"\['mystery'\]"),
                           (old_analyzer, r"\['lowercase', 'strip_punctuation'\]")):
        write_index_file(tmp_path / "idx", magic, dict(header, analyzer=analyzer), columns)
        with pytest.raises(IndexingError, match=rf"analyzer keys: {keys}\); "
                                                r"rebuild it with `genqr index --force`$"):
            PostingsIndex.load(tmp_path / "idx", Analyzer())


@pytest.mark.parametrize("corruption", ["truncated", "[]", "docnos", "terms", "analyzer",
                                        {"docnos": 5}],
                         ids=["truncated", "not-an-object", "no-docs", "no-terms",
                              "no-analyzer", "docs-5"])
def test_corrupt_meta_rejected(tmp_path, corruption):
    """A header line that is truncated, a root that is not an object, a
    missing key or a value of the wrong type, each under a valid crc."""
    import json
    build_index([Document("d1", "a")], Analyzer()).save(tmp_path / "idx")
    magic, header, columns = read_index_file(tmp_path / "idx")
    if corruption == "truncated":
        header = header[:len(header) // 2]
    elif corruption == "[]":
        header = corruption
    else:
        header = json.loads(header)
        if isinstance(corruption, dict):
            header.update(corruption)
        else:
            del header[corruption]
    write_index_file(tmp_path / "idx", magic, header, columns)
    with pytest.raises(IndexingError,
                       match=r"index header .*; rebuild it with `genqr index --force`$"):
        PostingsIndex.load(tmp_path / "idx", Analyzer())


def _bump_first_df(columns: bytes, n_docs: int) -> bytes:
    # same length, but the df column no longer sums to the postings count
    at = 4 * n_docs
    first = int.from_bytes(columns[at:at + 4], "little") + 1
    return columns[:at] + first.to_bytes(4, "little") + columns[at + 4:]


@pytest.mark.parametrize("edit", [lambda columns, n: columns[:-4],
                                  lambda columns, n: columns[:len(columns) // 2],
                                  lambda columns, n: columns + b"\0\0\0\0",
                                  lambda columns, n: columns[:-1], _bump_first_df],
                         ids=["short-by-4", "half", "extended", "short-by-1", "df-sum"])
def test_truncated_or_extended_postings_rejected(tmp_path, edit):
    """Columns that do not fit the header, under a valid crc."""
    index = build_index(make_corpus(random.Random(3), 10, 8), Analyzer())
    index.save(tmp_path / "idx")
    magic, header, columns = read_index_file(tmp_path / "idx")
    write_index_file(tmp_path / "idx", magic, header, edit(columns, index.n_docs))
    with pytest.raises(IndexingError, match="postings.bin .*rebuild"):
        PostingsIndex.load(tmp_path / "idx", Analyzer())


def test_overwritten_doc_ordinal_rejected(tmp_path):
    """The toy index with the first doc ordinal of `anemone` overwritten: an
    index that loaded without error before the crc, and moved the term's top
    hit (with 1) or made `retrieve` raise a bare IndexError (with 10**6)."""
    toy = build_index(load_corpus(TOY / "corpus.jsonl"), Analyzer())
    toy.save(tmp_path / "idx")
    path = tmp_path / "idx" / "postings.bin"
    raw = path.read_bytes()
    at = len(raw) - 4 - 4 * 2 * len(toy.docs) + 4 * toy.starts[toy.ids["anemone"]]
    assert int.from_bytes(raw[at:at + 4], "little") == toy.postings("anemone")[0][0]
    for word in (1, 10**6):
        path.write_bytes(raw[:at] + word.to_bytes(4, "little") + raw[at + 4:])
        with pytest.raises(IndexingError, match="crc32 check; rebuild it with "
                                                "`genqr index --force`$"):
            PostingsIndex.load(tmp_path / "idx", Analyzer())


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
        loaded = PostingsIndex.load(tmp, Analyzer())
    assert_same_index(loaded, index)

    by_doc = tokens_of(docs)
    for term in set(_WORDS) | set(index.terms):
        recount = sum(tokens.count(term) for tokens in by_doc.values())
        assert index.collection_freq(term) == loaded.collection_freq(term) == recount

    query = WeightedQuery(qid="q", terms=tuple(weights.items()))

    def outcome(idx):
        try:
            return idx.retrieve(query, k=10)
        except (IndexingError, DegenerateQueryError) as e:
            return type(e)

    assert outcome(loaded) == outcome(index)


_STORED_WORDS = [0, 1, 2, 7, 1000, 10**6, 2**32 - 1]


@settings(max_examples=100, deadline=None)
@given(corpus=st.lists(_doc, max_size=6), data=st.data())
def test_any_changed_byte_or_word_fails_the_load(corpus, data):
    """One byte of postings.bin XORed with a nonzero mask, or one 4-aligned
    word overwritten with a value it does not hold, anywhere in the file:
    the crc32 catches every such change."""
    docs = [Document(f"d{i}", " ".join(word for word, tf in doc for _ in range(tf)))
            for i, doc in enumerate(corpus)]
    with tempfile.TemporaryDirectory() as tmp:
        build_index(docs, Analyzer()).save(tmp)
        path = Path(tmp) / "postings.bin"
        raw = path.read_bytes()
        if data.draw(st.booleans(), label="flip a byte"):
            at = data.draw(st.integers(0, len(raw) - 1), label="byte")
            mask = data.draw(st.integers(1, 255), label="mask")
            edited = raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]
        else:
            at = 4 * data.draw(st.integers(0, len(raw) // 4 - 1), label="word")
            word = data.draw(st.sampled_from(_STORED_WORDS).filter(
                lambda w: w.to_bytes(4, "little") != raw[at:at + 4]), label="value")
            edited = raw[:at] + word.to_bytes(4, "little") + raw[at + 4:]
        path.write_bytes(edited)
        with pytest.raises(IndexingError, match="rebuild it with `genqr index --force`$"):
            PostingsIndex.load(tmp, Analyzer())
