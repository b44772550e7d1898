"""`_QueryRunner`, the one query pipeline of all six methods, against the
end-to-end `pipeline_oracle`: rankings and final query weights per topic."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import analyze_oracle, pipeline_oracle, rm3_oracle

from genqr.analysis import Analyzer
from genqr.cli import _QueryRunner
from genqr.config import FEEDBACK_METHODS, METHODS, config_from_dict
from genqr.corpus_io import Document, Topic
from genqr.index import DegenerateQueryError, build_index
from genqr.llm import GenRequest, StubBackend
from genqr.reformulate import DEFAULT_PROMPT_TEMPLATE, InstructionSet

# Stub keys include corpus words, so feedback context changes the expansions,
# and one instruction word; some expansions occur in no document.
VOCAB = {"w0": ["w3", "novel"], "w1": ["w0", "w4 w5"], "w2": ["W1,", "w2"],
         "w4": ["w5", "w0"], "query": ["w2", "unseen"]}
STUB = {"kind": "stub", "vocab": VOCAB, "seed": 42, "n_terms": 2}

_WORDS = ["w0", "w1", "w2", "w3", "w4", "w5", "W1", "w2,"]
_text = st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join)


@st.composite
def _inputs(draw):
    """Docs (some empty, many tied), topics (one word or more; "zz" matches
    no doc, "?" analyses to nothing) and graded qrels over the docs."""
    names = draw(st.permutations([f"d{i}" for i in range(10)]))  # index order is not docno order
    docs = {name: draw(_text) for name in names[:draw(st.integers(1, 10))]}
    topics = {str(q): " ".join(draw(st.lists(st.sampled_from(_WORDS + ["zz", "?"]),
                                             min_size=1, max_size=4)))
              for q in range(draw(st.integers(1, 3)))}
    qrels = {qid: draw(st.dictionaries(st.sampled_from(sorted(docs)), st.integers(0, 2),
                                       max_size=4))
             for qid in topics}
    return docs, topics, qrels


_params = st.fixed_dictionaries({
    "k1": st.floats(0.0, 3.0), "b": st.floats(0.0, 1.0), "depth": st.integers(1, 12),
    "fb_docs": st.integers(0, 6), "fb_terms": st.integers(0, 6), "lam": st.floats(0.0, 1.0),
    # mu > 0 is left to test_prf's strict xfail: the relevance model sums
    # P(t|d) only over the feedback docs that contain t, so its weights differ
    # from rm3_oracle's; with mu = 0 a doc without t gives P(t|d) = 0 in both.
    "mu": st.just(0.0), "n": st.integers(1, 10),
    "beta": st.sampled_from([0.0, 0.5, 1.0, 2.0]), "dedup": st.booleans(),
    "context_budget": st.sampled_from([0, 12, 4000]), "min_rel": st.sampled_from([1, 2]),
})


def _config(method, mode, params, work):
    p = params
    return config_from_dict({
        "corpus": str(work / "corpus.jsonl"), "qrels": str(work / "qrels.txt"),
        "method": method, "backend": STUB, "k1": p["k1"], "b": p["b"],
        "retrieval_depth": p["depth"], "fb_docs": p["fb_docs"], "feedback_mode": mode,
        "min_rel": p["min_rel"],
        "rm3": {"fb_terms": p["fb_terms"], "lam": p["lam"], "mu": p["mu"]},
        "reformulation": {"n": p["n"], "beta": p["beta"], "dedup": p["dedup"],
                          "context_budget": p["context_budget"]},
    })


def _positive(weights):
    return {t: w for t, w in weights.items() if w != 0.0}


def _fused(record):
    weights = {}
    for row in record["fused_terms"]:
        weights[row["term"]] = weights.get(row["term"], 0.0) + row["weight"]
    return _positive(weights)


def _near(a, b):
    return abs(a - b) <= 1e-9


def _rm3_cut_is_tied(docs, text, feedback, params):
    """Whether RM3's fb_terms cut falls between terms whose probabilities tie
    in exact arithmetic (or nearly): rounding then decides which is kept."""
    tokens = {d: analyze_oracle(t) for d, t in docs.items()}
    query = {}
    for term in analyze_oracle(text):
        query[term] = query.get(term, 0.0) + 1.0
    model = rm3_oracle(tokens, feedback, query, 10**6, 0.0, params["mu"])
    ranked = sorted(model.values(), reverse=True)
    cut = params["fb_terms"]
    return 0 < cut < len(ranked) and abs(ranked[cut - 1] - ranked[cut]) <= 1e-12


def _assert_same(run, record, ranking, depth, weights, exact, where):
    """The fused query and the run, cut at depth, equal the oracle's; the
    oracle's ranking holds every candidate. The LLM methods' weights are
    sums of 1.0 and beta in the same order on both sides, so with `exact`
    the docnos must match rank for rank. RM3's weights differ from the
    oracle's by rounding, so docs tied in exact arithmetic may come in
    either order: each doc must then hold a rank its oracle score earns."""
    assert _fused(record) == pytest.approx(_positive(weights), abs=1e-9), where
    scores = [s for _, s in run]
    assert scores == pytest.approx([s for _, s in ranking[:depth]], abs=1e-9), where
    if exact:
        assert [d for d, _ in run] == [d for d, _ in ranking[:depth]], where
        return
    oracle_score = dict(ranking)
    assert len({d for d, _ in run}) == len(run), where
    for docno, score in run:
        assert _near(oracle_score.get(docno, -1.0), score), where


@settings(deadline=None)
@given(inputs=_inputs(), params=_params)
@example(inputs=({"d0": "w0 w1", "d1": "w1"}, {"0": "?", "1": "w1"}, {"0": {}, "1": {"d0": 1}}),
         params={"k1": 1.2, "b": 0.75, "depth": 5, "fb_docs": 2, "fb_terms": 2, "lam": 0.5,
                 "mu": 0.0, "n": 2, "beta": 1.0, "dedup": False, "context_budget": 4000,
                 "min_rel": 1})  # qid 0 analyses to nothing, so it finds no pseudo feedback
@example(inputs=({"d0": "w0 w1", "d1": "w1 w2 w2"}, {"0": "?", "1": "w1"},
                 {"0": {"d0": 1, "d1": 2}, "1": {"d0": 1}}),
         params={"k1": 1.2, "b": 0.75, "depth": 5, "fb_docs": 2, "fb_terms": 3, "lam": 0.5,
                 "mu": 0.0, "n": 2, "beta": 1.0, "dedup": False, "context_budget": 4000,
                 "min_rel": 1})  # qid 0 analyses to nothing; oracle feedback expands it
@example(inputs=({"d0": "w0 w1", "d1": "w1 w2 w2"}, {"0": "?", "1": "w1"},
                 {"0": {"d0": 1, "d1": 2}, "1": {"d0": 1}}),
         params={"k1": 1.2, "b": 0.75, "depth": 5, "fb_docs": 2, "fb_terms": 3, "lam": 1.0,
                 "mu": 0.0, "n": 2, "beta": 0.0, "dedup": False, "context_budget": 4000,
                 "min_rel": 1})  # qid 0 keeps no weight under any method, so it fails
def test_query_runner_matches_pipeline_oracle(inputs, params):
    docs, topics, qrels = inputs
    stub = StubBackend(VOCAB, seed=42, n_terms=2)
    oracle_config = {**params, "qrels": qrels, "template": DEFAULT_PROMPT_TEMPLATE,
                     "instructions": InstructionSet.default().all()}
    index = build_index([Document(d, text) for d, text in docs.items()], Analyzer())
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "corpus.jsonl").write_text("".join(
            json.dumps({"docno": d, "text": text}) + "\n" for d, text in docs.items()))
        (work / "qrels.txt").write_text("".join(
            f"{qid} 0 {d} {grade}\n" for qid, grades in qrels.items()
            for d, grade in grades.items()))
        for method in METHODS:
            for mode in ("pseudo", "oracle") if method in FEEDBACK_METHODS else ("pseudo",):
                runner = _QueryRunner(_config(method, mode, params, work), index)
                expected = pipeline_oracle(
                    method, docs, topics, {**oracle_config, "feedback_mode": mode},
                    lambda prompt: stub.generate(GenRequest(prompt=prompt)))
                for qid, text in topics.items():
                    step = runner.prepare(Topic(qid, text))
                    responses = runner.generator.generate(step.prompts) \
                        if runner.generator else ()
                    ranking, weights, feedback = expected[qid]
                    where = f"{method} ({mode}), qid {qid}"
                    taken = [] if step.feedback is None else \
                        [d.docno for d in step.feedback]
                    assert taken == feedback, where
                    if ranking is None:
                        with pytest.raises(DegenerateQueryError):
                            runner(step, responses)
                        continue
                    if method == "rm3" and feedback and \
                            _rm3_cut_is_tied(docs, text, feedback, params):
                        continue
                    run, record = runner(step, responses)
                    _assert_same(run, record, ranking, params["depth"], weights,
                                 method != "rm3", where)
