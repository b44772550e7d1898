import random

import pytest

from oracles import rm3_oracle

from genqr.analysis import Analyzer
from genqr.corpus_io import Document
from genqr.index import DegenerateQueryError, WeightedQuery, build_index
from genqr.prf import (FeedbackError, Rm3Params, estimate_relevance_model,
                       rm3_expand, select_feedback, select_oracle_feedback)
from genqr.schema import ConfigError


def ranking_of(docnos):
    return [(d, float(len(docnos) - i)) for i, d in enumerate(docnos)]


def lookup_of(texts):
    return lambda docno: Document(docno, texts[docno])


# --- feedback selection ---


def test_top_m_of_run():
    ranking = ranking_of([f"d{i}" for i in range(10)])
    texts = {f"d{i}": f"text {i}" for i in range(10)}
    fb = select_feedback(ranking, lookup_of(texts), "1", m=5)
    assert [d.docno for d in fb] == ["d0", "d1", "d2", "d3", "d4"]
    assert fb[0].text == "text 0"


def test_m_zero_empty_set():
    ranking = ranking_of(["d0", "d1"])
    fb = select_feedback(ranking, lookup_of({}), "1", m=0)
    assert len(fb) == 0


def test_truncation_when_run_short():
    ranking = ranking_of(["d0", "d1", "d2"])
    texts = {f"d{i}": "x" for i in range(3)}
    assert len(select_feedback(ranking, lookup_of(texts), "1", m=5)) == 3


def test_missing_docno_named():
    ranking = ranking_of(["ghost"])
    with pytest.raises(FeedbackError, match="^qid 1: feedback docno 'ghost' missing"):
        select_feedback(ranking, lookup_of({}), "1", m=1)


def test_oracle_missing_docno_named():
    qrels = {"1": {"ghost": 1}}
    with pytest.raises(FeedbackError, match="^qid 1: feedback docno 'ghost' missing"):
        select_oracle_feedback(qrels, lookup_of({}), "1", m=1)


def test_oracle_orders_by_grade():
    qrels = {"1": {"d1": 3, "d2": 1, "d3": 0}}
    texts = {"d1": "a", "d2": "b", "d3": "c"}
    fb = select_oracle_feedback(qrels, lookup_of(texts), "1", m=2)
    assert [d.docno for d in fb] == ["d1", "d2"]


def test_oracle_tie_broken_by_docno():
    qrels = {"1": {"d1": 2, "d2": 2}}
    texts = {"d1": "a", "d2": "b"}
    fb = select_oracle_feedback(qrels, lookup_of(texts), "1", m=1)
    assert [d.docno for d in fb] == ["d1"]


def test_oracle_m_exceeding_relevant_count():
    qrels = {"1": {"d1": 2, "d2": 1, "d3": 0}}
    texts = {"d1": "a", "d2": "b"}
    fb = select_oracle_feedback(qrels, lookup_of(texts), "1", m=10)
    assert len(fb) == 2


def test_oracle_without_relevant_docs():
    qrels = {"1": {"d1": 0}}
    fb = select_oracle_feedback(qrels, lookup_of({}), "1", m=3)
    assert fb == ()


# --- RM3 ---

FIXTURE_DOCS = [
    Document("d1", "a c c b"),
    Document("d2", "c b d d"),
    Document("d3", "a a d b"),
    Document("d4", "a b d c"),
]


def fixture_index():
    return build_index(FIXTURE_DOCS, Analyzer())


def fixture_feedback():
    texts = {d.docno: d.text for d in FIXTURE_DOCS}
    return select_feedback(ranking_of(["d1", "d2"]), lookup_of(texts), "q", m=2)


def test_lambda_one_returns_normalized_original():
    query = WeightedQuery(qid="q", terms=(("a", 2.0), ("b", 1.0)))
    out = rm3_expand(fixture_index(), query, fixture_feedback(),
                     Rm3Params(fb_terms=2, lam=1.0))
    weights = dict(out.terms)
    assert weights == pytest.approx({"a": 2 / 3, "b": 1 / 3})


def test_fb_terms_zero_keeps_original_up_to_scale():
    query = WeightedQuery.from_terms("q", ["a", "b"])
    out = rm3_expand(fixture_index(), query, fixture_feedback(),
                     Rm3Params(fb_terms=0, lam=0.5))
    weights = dict(out.terms)
    assert set(weights) == {"a", "b"}
    assert weights["a"] == pytest.approx(weights["b"])


def test_empty_feedback_doc_under_mu_zero_gives_no_term_mass():
    # Oracle feedback can take a judged doc with no tokens; under mu = 0 its
    # P(t|d) is 0 for every t, not 0/0, and the other doc carries the model.
    docs = [Document("d1", ""), Document("d2", "a b b")]
    fb = select_oracle_feedback({"q": {"d1": 2, "d2": 1}},
                                lookup_of({d.docno: d.text for d in docs}), "q", m=2)
    assert [d.docno for d in fb] == ["d1", "d2"]
    query = WeightedQuery.from_terms("q", ["a"])
    out = rm3_expand(build_index(docs, Analyzer()), query, fb,
                     Rm3Params(fb_terms=2, lam=0.0, mu=0.0))
    ref = rm3_oracle({d.docno: d.text.split() for d in docs}, ["d1", "d2"], {"a": 1.0},
                     fb_terms=2, lam=0.0, mu=0.0)
    assert dict(out.terms) == pytest.approx(ref, abs=1e-12)
    assert ref == pytest.approx({"a": 1 / 3, "b": 2 / 3})


def test_frozen_two_doc_fixture():
    # exhaustive enumeration of the formula, computed ahead and frozen:
    # posteriors 3/5 and 2/5; top-2 model {c: 6/11, b: 5/11}; lam = 0.5
    query = WeightedQuery.from_terms("q", ["a", "b"])
    out = rm3_expand(fixture_index(), query, fixture_feedback(),
                     Rm3Params(fb_terms=2, lam=0.5, mu=8.0))
    weights = dict(out.terms)
    expected = {"a": 0.25, "b": 0.4772727272727273, "c": 0.27272727272727276}
    assert set(weights) == set(expected)
    for term, value in expected.items():
        assert weights[term] == pytest.approx(value, abs=1e-9)
    # and the independent oracle agrees
    corpus_tokens = {d.docno: d.text.split() for d in FIXTURE_DOCS}
    ref = rm3_oracle(corpus_tokens, ["d1", "d2"], {"a": 1.0, "b": 1.0},
                     fb_terms=2, lam=0.5, mu=8.0)
    for term in ref:
        assert weights[term] == pytest.approx(ref[term], abs=1e-9)


@pytest.mark.xfail(strict=True, reason="estimate_relevance_model adds P(t|d) only for "
                   "the feedback docs that contain t; the smoothed P(t|d) > 0 of the "
                   "others is dropped (CHANGES.md, FOUND)")
def test_relevance_model_smooths_every_feedback_doc():
    # d1 lacks "w0", yet under Dirichlet smoothing P(w0|d1) = mu*cf/|C| / (|d1|+mu)
    docs = [Document("d1", "w1"), Document("d2", "w0 w1")]
    texts = {d.docno: d.text for d in docs}
    fb = select_feedback(ranking_of(["d1", "d2"]), lookup_of(texts), "q", m=2)
    query = WeightedQuery.from_terms("q", ["w1"])
    out = rm3_expand(build_index(docs, Analyzer()), query, fb,
                     Rm3Params(fb_terms=2, lam=0.0, mu=1.0))
    ref = rm3_oracle({d.docno: d.text.split() for d in docs}, ["d1", "d2"], {"w1": 1.0},
                     fb_terms=2, lam=0.0, mu=1.0)
    assert dict(out.terms) == pytest.approx(ref, abs=1e-9)


def test_collection_probability_computed_once_per_term(monkeypatch):
    # d1 and d2 share "b" and "c", and the query holds "a" and "b": the four
    # distinct terms need one collection frequency each.
    index = fixture_index()
    calls = []
    cf = type(index).collection_freq
    monkeypatch.setattr(type(index), "collection_freq",
                        lambda self, term: calls.append(term) or cf(self, term))
    query = WeightedQuery.from_terms("q", ["a", "b", "a"])
    estimate_relevance_model(index, query, fixture_feedback(), Rm3Params(fb_terms=4, mu=8.0))
    assert sorted(calls) == ["a", "b", "c", "d"]


def test_relevance_model_sums_to_one():
    rng = random.Random(3)
    vocab = [f"w{i}" for i in range(8)]
    for _ in range(20):
        docs = [Document(f"d{i}", " ".join(rng.choices(vocab, k=rng.randint(2, 12))))
                for i in range(rng.randint(2, 8))]
        index = build_index(docs, Analyzer())
        texts = {d.docno: d.text for d in docs}
        m = rng.randint(1, len(docs))
        fb = select_feedback(ranking_of([d.docno for d in docs]), lookup_of(texts), "q", m)
        query = WeightedQuery.from_terms("q", rng.choices(vocab, k=2))
        fb_terms = rng.randint(1, 6)
        model = estimate_relevance_model(
            index, query, fb, Rm3Params(fb_terms=fb_terms, mu=rng.choice([1.0, 50.0, 2500.0])))
        assert sum(model.values()) == pytest.approx(1.0, abs=1e-9)
        assert len(model) <= fb_terms
        out = rm3_expand(index, query, fb, Rm3Params(fb_terms=fb_terms, lam=rng.random()))
        for _, weight in out.terms:
            assert weight >= 0.0 and weight == weight  # non-negative, finite


def test_duplicated_feedback_docs_leave_model_unchanged():
    index = fixture_index()
    query = WeightedQuery.from_terms("q", ["a", "b"])
    texts = {d.docno: d.text for d in FIXTURE_DOCS}
    single = select_feedback(ranking_of(["d1", "d2"]), lookup_of(texts), "q", 2)
    doubled = single + single
    m1 = estimate_relevance_model(index, query, single, Rm3Params(fb_terms=4, mu=8.0))
    m2 = estimate_relevance_model(index, query, doubled, Rm3Params(fb_terms=4, mu=8.0))
    assert set(m1) == set(m2)
    for term in m1:
        assert m1[term] == pytest.approx(m2[term], abs=1e-12)


def test_bad_lambda_rejected():
    with pytest.raises(ConfigError, match=r"lam must be in \[0, 1\], got 1.5"):
        Rm3Params(fb_terms=2, lam=1.5)


def test_empty_feedback_rejected():
    query = WeightedQuery.from_terms("q", ["a"])
    empty = ()
    with pytest.raises(FeedbackError, match="empty"):
        rm3_expand(fixture_index(), query, empty, Rm3Params(fb_terms=2, lam=0.5))


def test_an_empty_query_expands_from_the_relevance_model_alone():
    """A query with no terms (oracle feedback can give it documents) adds no
    weight: at lam < 1 it is the scaled relevance model, at lam = 1 it has
    no term and `retrieve` rejects it."""
    index, query = fixture_index(), WeightedQuery.from_terms("q", [])
    params = Rm3Params(fb_terms=3, lam=0.5, mu=0.0)
    out = rm3_expand(index, query, fixture_feedback(), params)
    model = estimate_relevance_model(index, query, fixture_feedback(), params)
    assert dict(out.terms) == {t: 0.5 * p for t, p in model.items()} and len(model) == 3
    ref = rm3_oracle({d.docno: d.text.split() for d in FIXTURE_DOCS}, ["d1", "d2"], {},
                     fb_terms=3, lam=0.5, mu=0.0)
    assert dict(out.terms) == pytest.approx(ref, abs=1e-12)
    assert index.retrieve(out, k=4)
    alone = rm3_expand(index, query, fixture_feedback(), Rm3Params(fb_terms=3, lam=1.0))
    assert alone.terms == ()
    with pytest.raises(DegenerateQueryError, match="degenerate query 'q'"):
        index.retrieve(alone, k=4)


def test_original_terms_retained():
    # "a" stays in the output even when the relevance model drops it
    query = WeightedQuery.from_terms("q", ["a", "b"])
    out = rm3_expand(fixture_index(), query, fixture_feedback(),
                     Rm3Params(fb_terms=2, lam=0.5, mu=8.0))
    assert "a" in dict(out.terms)
