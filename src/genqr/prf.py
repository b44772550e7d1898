"""Pseudo-relevance feedback: feedback document selection and RM3 expansion.

RM3 builds a relevance model from feedback documents and interpolates it
with the original query:

    P(t|R)  ∝  sum_{d in F} P(t|d) * P(q0|d)
    w'(t)   =  lam * P(t|q0) + (1 - lam) * P(t|R)

Document language models are Dirichlet-smoothed against the collection:
P(t|d) = (tf(t,d) + mu * P(t|C)) / (|d| + mu), 0 for an empty document
under mu = 0. The query likelihood P(q0|d) uses the same smoothing.
Expansion candidates are the terms that occur in the feedback documents;
the model is truncated to the top `fb_terms` terms and renormalized.
Original query terms are always retained in the output. `Rm3Params` holds
lam, mu and fb_terms, each with its default and bounds.

`estimate_relevance_model` is one pass: each feedback document is analysed
and counted once, and P(t|C) = cf(t) / |C| is computed once for each
distinct term of the query and the feedback documents.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, Tuple

from .corpus_io import Document, Qrels, Ranking, ranked
from .index import PostingsIndex, WeightedQuery
from .schema import check_fields

FEEDBACK_MODES = ("pseudo", "oracle")


@dataclass(frozen=True)
class Rm3Params:
    fb_terms: int = field(default=10, metadata={"min": 0})
    lam: float = field(default=0.5, metadata={"min": 0, "max": 1})
    mu: float = field(default=2500.0, metadata={"min": 0})

    __post_init__ = check_fields


class FeedbackError(RuntimeError):
    pass


def select_feedback(ranking: Ranking, corpus_lookup: Callable[[str], Document],
                    qid: str, m: int) -> Tuple[Document, ...]:
    """Top-m documents of topic `qid`'s ranking, looked up by docno; fewer
    than m available -> all."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    docs = []
    for docno, _ in ranking[:m]:
        try:
            docs.append(corpus_lookup(docno))
        except KeyError:
            raise FeedbackError(
                f"qid {qid}: feedback docno {docno!r} missing from corpus") from None
    return tuple(docs)


def select_oracle_feedback(qrels: Qrels, corpus_lookup: Callable[[str], Document],
                           qid: str, m: int, min_rel: int = 1) -> Tuple[Document, ...]:
    """The m highest-graded documents of grade >= min_rel, ranked with their
    grades as scores; none for a topic without such a judged document."""
    relevant = ((d, g) for d, g in qrels.get(qid, {}).items() if g >= min_rel)
    return select_feedback(ranked(relevant), corpus_lookup, qid, m)


def estimate_relevance_model(index: PostingsIndex, original: WeightedQuery,
                             feedback: Tuple[Document, ...],
                             params: Rm3Params) -> Dict[str, float]:
    """Truncated, renormalized relevance model over feedback-document terms.

    Returns at most params.fb_terms (term -> probability) entries summing to 1.
    """
    if not feedback:
        raise FeedbackError(f"qid {original.qid}: empty feedback set")
    if params.fb_terms == 0:
        return {}

    mu, total = params.mu, index.total_tokens
    docs = [(Counter(tokens), len(tokens) + mu)
            for tokens in map(index.analyzer.analyze, (doc.text for doc in feedback))]
    p_coll = {term: index.collection_freq(term) / total if total else 0.0
              for term in set(chain((t for t, _ in original.terms), *(tf for tf, _ in docs)))}

    # Query likelihood under the same smoothing; terms absent from the whole
    # collection carry no evidence and are skipped.
    log_likelihoods = []
    for tf, norm in docs:
        loglik = 0.0
        for term, weight in original.terms:
            if weight <= 0 or p_coll[term] == 0:
                continue
            # an empty document under mu = 0 gives every term 0
            p = (tf[term] + mu * p_coll[term]) / norm if norm else 0.0
            if p <= 0.0:
                loglik = -math.inf
                break
            loglik += weight * math.log(p)
        log_likelihoods.append(loglik)

    # Normalize document posteriors in log space (scale-invariant downstream);
    # when every document gives the query probability 0, each gets the same.
    peak = max(log_likelihoods)
    if peak == -math.inf:
        log_likelihoods, peak = [0.0] * len(docs), 0.0
    raw = [math.exp(ll - peak) for ll in log_likelihoods]
    evidence = math.fsum(raw)
    posteriors = [r / evidence for r in raw]

    scores: Dict[str, float] = {}
    for (tf, norm), posterior in zip(docs, posteriors):
        for term, count in tf.items():
            p = (count + mu * p_coll[term]) / norm
            scores[term] = scores.get(term, 0.0) + p * posterior

    top = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:params.fb_terms]
    mass = math.fsum(p for _, p in top)
    if mass <= 0.0:
        return {}
    return {term: p / mass for term, p in top}


def rm3_expand(index: PostingsIndex, original: WeightedQuery,
               feedback: Tuple[Document, ...], params: Rm3Params) -> WeightedQuery:
    """Interpolate the normalized original query with the relevance model; a
    query with no weight adds none, so at lam = 1 `retrieve` rejects it."""
    if not feedback:
        raise FeedbackError(f"qid {original.qid}: empty feedback set")

    q_total = math.fsum(w for _, w in original.terms) or 1.0  # 0: every weight is 0, and stays 0
    lam = params.lam
    combined = {t: lam * (w / q_total) for t, w in original.terms}
    if lam < 1.0:
        for term, p in estimate_relevance_model(index, original, feedback, params).items():
            combined[term] = combined.get(term, 0.0) + (1.0 - lam) * p

    terms = tuple(sorted(combined.items(), key=lambda kv: (-kv[1], kv[0])))
    return WeightedQuery(qid=original.qid, terms=terms)
