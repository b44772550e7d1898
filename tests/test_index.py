import math
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import bm25_oracle, inverted_index_oracle, rank_oracle

from genqr import index as index_module
from genqr.analysis import Analyzer
from genqr.corpus_io import Document, RunList
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
    postings = index.postings
    assert postings.terms == terms
    assert list(postings.df) == [len(lists[t]) for t in terms]
    assert list(postings.cf) == [sum(tf for _, tf in lists[t]) for t in terms]
    assert list(postings.docs) == [d for t in terms for d, _ in lists[t]]
    assert list(postings.tfs) == [tf for t in terms for _, tf in lists[t]]
    assert index.docnos == [doc.docno for doc in docs]
    assert index.doc_lengths == [len(tokens) for tokens in corpus]
    assert index.total_tokens == sum(map(len, corpus))


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
    assert [e.docno for e in run.entries] == [d for d, _ in expected]
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
    return RunList.from_scores(query.qid, index.bm25_scores(query, k1=k1, b=b).items(), k=k)


def entries(run):
    return [(e.docno, e.score.hex()) for e in run.entries]  # the rank is the position


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
    assert index.retrieve(query, 1, k1=0.0).entries[0].docno == "da"


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
    assert index.retrieve(query, 1, k1=0.0).entries[0].docno == "da"


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
    assert loaded.postings == index.postings
    assert loaded.docnos == index.docnos
    assert loaded.doc_lengths == index.doc_lengths
    assert loaded.analyzer == index.analyzer
    query = WeightedQuery.from_terms("q", ["t1", "t5"])
    assert loaded.retrieve(query, k=10) == index.retrieve(query, k=10)


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


def test_version_mismatch_rejected(tmp_path):
    import json
    index = build_index([Document("d1", "a")], Analyzer())
    index.save(tmp_path / "idx")
    meta_path = tmp_path / "idx" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["version"] = 999
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(IndexingError, match="version"):
        PostingsIndex.load(tmp_path / "idx", Analyzer())


def test_index_with_n_docs_key_still_loads(tmp_path):
    """meta.json no longer carries n_docs or total_tokens (`docs` holds the
    count and the lengths that sum to it), and is compact JSON; a version-2
    index written with either key, indented, loads as before."""
    import json
    index = build_index(make_corpus(random.Random(5), 20, 10), Analyzer())
    index.save(tmp_path / "idx")
    meta_path = tmp_path / "idx" / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert meta_path.read_text() == json.dumps(meta, sort_keys=True)
    assert "n_docs" not in meta and "total_tokens" not in meta and len(meta["docs"]) == 20
    for extra in ({"n_docs": 20}, {"total_tokens": index.total_tokens}):
        meta_path.write_text(json.dumps(dict(meta, **extra), sort_keys=True, indent=1))
        loaded = PostingsIndex.load(tmp_path / "idx", Analyzer())
        assert (loaded.n_docs, loaded.total_tokens) == (20, index.total_tokens)
        assert (loaded.postings, loaded.docnos, loaded.doc_lengths) == \
            (index.postings, index.docnos, index.doc_lengths)


def test_bad_analyzer_section_rejected(tmp_path):
    """An unknown analyzer key fails the load, as do the `lowercase` and
    `strip_punctuation` keys that indexes built before their removal name."""
    import json
    index = build_index([Document("d1", "a")], Analyzer())
    index.save(tmp_path / "idx")
    meta_path = tmp_path / "idx" / "meta.json"
    meta = json.loads(meta_path.read_text())
    old_analyzer = {"lowercase": True, "strip_punctuation": True, "stopwords": [],
                    "stemmer": "none"}
    for analyzer, keys in ((dict(meta["analyzer"], mystery=1), r"\['mystery'\]"),
                           (old_analyzer, r"\['lowercase', 'strip_punctuation'\]")):
        meta_path.write_text(json.dumps(dict(meta, analyzer=analyzer)))
        with pytest.raises(IndexingError, match=rf"analyzer keys: {keys}\); "
                                                r"rebuild it with `genqr index --force`$"):
            PostingsIndex.load(tmp_path / "idx", Analyzer())


@pytest.mark.parametrize("corruption", ["truncated", "[]", "docs", "terms", "n_postings",
                                        {"docs": 5}],
                         ids=["truncated", "not-an-object", "no-docs", "no-terms",
                              "no-n_postings", "docs-5"])
def test_corrupt_meta_rejected(tmp_path, corruption):
    """A truncated meta.json, a root that is not an object, a missing key or
    a value of the wrong type."""
    import json
    build_index([Document("d1", "a")], Analyzer()).save(tmp_path / "idx")
    meta_path = tmp_path / "idx" / "meta.json"
    text = meta_path.read_text()
    if corruption == "truncated":
        text = text[:len(text) // 2]
    elif corruption == "[]":
        text = corruption
    else:
        meta = json.loads(text)
        if isinstance(corruption, dict):
            meta.update(corruption)
        else:
            del meta[corruption]
        text = json.dumps(meta)
    meta_path.write_text(text)
    with pytest.raises(IndexingError,
                       match=r"meta\.json .*; rebuild it with `genqr index --force`$"):
        PostingsIndex.load(tmp_path / "idx", Analyzer())


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
