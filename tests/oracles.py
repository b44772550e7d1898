"""Independent brute-force oracles used by the tests.

Everything here is a straight-line transcription of the definitions,
written against plain dicts/lists and stdlib math only. Nothing imports
the package under test, so these stay an independent route for checking
the real implementations.
"""

from __future__ import annotations

import math
import unicodedata
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple


# --- analysis -----------------------------------------------------------------


def _is_word_char(ch: str) -> bool:
    if ch.isspace():
        return False
    cat = unicodedata.category(ch)
    return not (cat.startswith("P") or cat.startswith("S"))


def analyze_oracle(text: str, stopwords: FrozenSet[str] = frozenset(),
                   stem: Optional[Callable[[str], str]] = None) -> List[str]:
    """The character-at-a-time tokenizer: after lowercasing, a token is a
    maximal run of characters that are neither whitespace nor P*/S*; then
    stopwords, then `stem`."""
    tokens: List[str] = []
    buf: List[str] = []
    for ch in text.lower():
        if _is_word_char(ch):
            buf.append(ch)
        elif buf:
            tokens.append("".join(buf))
            buf = []
    if buf:
        tokens.append("".join(buf))

    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    if stem is not None:
        tokens = [stem(t) for t in tokens]
    return tokens


# --- index --------------------------------------------------------------------


def inverted_index_oracle(doc_tokens: Sequence[List[str]]) -> Dict[str, List[Tuple[int, int]]]:
    """term -> [(doc ordinal, tf), ...] in ordinal order, over each term that
    occurs, counted doc by doc with list.count."""
    vocabulary = {term for tokens in doc_tokens for term in tokens}
    return {term: [(ord_, tokens.count(term)) for ord_, tokens in enumerate(doc_tokens)
                   if term in tokens]
            for term in vocabulary}


# --- BM25 ---------------------------------------------------------------------


def bm25_oracle(doc_tokens: Dict[str, List[str]], query_weights: Dict[str, float],
                k1: float, b: float) -> Dict[str, float]:
    """score(d) = sum_t w(t) * ln((N-df+0.5)/(df+0.5)+1) * tf(k1+1)/(tf + k1(1-b+b*len/avgdl))
    over documents containing at least one positive-weight query term."""
    n = len(doc_tokens)
    avgdl = sum(len(toks) for toks in doc_tokens.values()) / n
    df: Dict[str, int] = {}
    for toks in doc_tokens.values():
        for term in set(toks):
            df[term] = df.get(term, 0) + 1

    scores: Dict[str, float] = {}
    for docno, toks in doc_tokens.items():
        total = 0.0
        matched = False
        for term, weight in query_weights.items():
            if weight == 0.0:
                continue
            tf = toks.count(term)
            if tf == 0:
                continue
            matched = True
            idf = math.log((n - df[term] + 0.5) / (df[term] + 0.5) + 1.0)
            total += weight * idf * tf * (k1 + 1.0) / (
                tf + k1 * (1.0 - b + b * len(toks) / avgdl))
        if matched:
            scores[docno] = total
    return scores


def rank_oracle(scores: Dict[str, float], k: int) -> List[Tuple[str, float]]:
    return sorted(scores.items(), key=lambda e: (-e[1], e[0]))[:k]


# --- metrics ------------------------------------------------------------------


def ndcg_oracle(ranking: Sequence[str], grades: Dict[str, int], k: int):
    """Linear-gain nDCG@k with the ideal computed over all judged docs;
    None when the query has no relevant document."""
    rels = sorted((g for g in grades.values() if g > 0), reverse=True)
    if not rels:
        return None
    dcg = sum(grades.get(d, 0) / math.log2(i + 2)
              for i, d in enumerate(ranking[:k]))
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(rels[:k]))
    return dcg / idcg


def ap_oracle(ranking: Sequence[str], grades: Dict[str, int], min_rel: int = 1):
    relevant = {d for d, g in grades.items() if g >= min_rel}
    if not relevant:
        return None
    hits = 0
    total = 0.0
    for i, d in enumerate(ranking, start=1):
        if d in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def rr_oracle(ranking: Sequence[str], grades: Dict[str, int], min_rel: int = 1):
    relevant = {d for d, g in grades.items() if g >= min_rel}
    if not relevant:
        return None
    for i, d in enumerate(ranking, start=1):
        if d in relevant:
            return 1.0 / i
    return 0.0


def prec_oracle(ranking: Sequence[str], grades: Dict[str, int], k: int,
                min_rel: int = 1):
    relevant = {d for d, g in grades.items() if g >= min_rel}
    if not relevant:
        return None
    return sum(1 for d in ranking[:k] if d in relevant) / k


# --- RM3 ----------------------------------------------------------------------


def rm3_oracle(corpus_tokens: Dict[str, List[str]], feedback: List[str],
               query_weights: Dict[str, float], fb_terms: int, lam: float,
               mu: float) -> Dict[str, float]:
    """Exhaustive enumeration of the RM3 formula.

    Dirichlet document models P(t|d) = (tf + mu*cf(t)/|C|) / (|d| + mu);
    P(q0|d) = prod_t P(t|d)^w(t) over query terms present in the collection;
    P(t|R) = sum_d P(t|d) * P(q0|d)/Z over feedback-doc terms, truncated to
    the fb_terms most probable (ties by term) and renormalized; output
    weights lam * (w(t)/sum w) + (1-lam) * P(t|R).
    """
    total_tokens = sum(len(toks) for toks in corpus_tokens.values())
    cf: Dict[str, int] = {}
    for toks in corpus_tokens.values():
        for term in toks:
            cf[term] = cf.get(term, 0) + 1

    def p_td(term: str, docno: str) -> float:
        toks = corpus_tokens[docno]
        return (toks.count(term) + mu * cf.get(term, 0) / total_tokens) / (len(toks) + mu)

    likelihoods = []
    for docno in feedback:
        lik = 1.0
        for term, weight in query_weights.items():
            if weight <= 0 or cf.get(term, 0) == 0:
                continue
            lik *= p_td(term, docno) ** weight
        likelihoods.append(lik)
    z = sum(likelihoods)
    posteriors = [l / z for l in likelihoods] if z > 0 else \
        [1.0 / len(feedback)] * len(feedback)

    candidates = sorted({t for d in feedback for t in corpus_tokens[d]})
    raw = {t: sum(p_td(t, d) * w for d, w in zip(feedback, posteriors))
           for t in candidates}
    top = sorted(raw.items(), key=lambda kv: (-kv[1], kv[0]))[:fb_terms]
    mass = sum(p for _, p in top)
    model = {t: p / mass for t, p in top} if mass > 0 else {}

    q_total = sum(query_weights.values())
    out = {t: lam * w / q_total for t, w in query_weights.items()}
    for term, p in model.items():
        out[term] = out.get(term, 0.0) + (1.0 - lam) * p
    return out


# --- the whole pipeline -------------------------------------------------------

RF_CONTEXT_PREFIX = "Based on the given context information "
_RF_METHODS = ("flanprf", "genqrensemble_rf")


def pipeline_oracle(method: str, docs: Dict[str, str], topics: Dict[str, str],
                    config: dict, generate: Callable[[str], str]
                    ) -> Dict[str, Tuple[Optional[List[Tuple[str, float]]],
                                         Dict[str, float], List[str]]]:
    """(ranking, final query weights, feedback docnos) per qid of `topics`
    (qid -> query text) under `method`, composed from the oracles above. The
    ranking holds every candidate; it is None when the final query has no
    positive weight, and the topic fails.

    `docs` maps docno -> text. `config` holds k1, b, fb_docs, fb_terms,
    lam and mu (RM3), n, beta, dedup, m, feedback_mode, template,
    context_budget and instructions (the LLM methods), and qrels
    (qid -> docno -> grade). `generate` answers one prompt.

    A feedback method takes the top m of a first ranking, or the m judged
    docs of highest grade (docno on ties) under oracle feedback; finding
    none, it runs as rm3 -> raw, flanprf -> flanqr, genqrensemble_rf ->
    genqrensemble. RM3 expands by `rm3_oracle`. An LLM method prompts each
    instruction (flanqr/flanprf: the first only) with the query, prefixed
    by the feedback texts as context, and adds beta to a term per token of
    each response (per distinct token under dedup).
    """
    c = config
    tokens = {docno: analyze_oracle(text) for docno, text in docs.items()}
    out = {}
    for qid, text in topics.items():
        weights: Dict[str, float] = {}
        for term in analyze_oracle(text):
            weights[term] = weights.get(term, 0.0) + 1.0

        m = c["fb_docs"] if method == "rm3" else c["m"] if method in _RF_METHODS else 0
        feedback: List[str] = []
        if m and method != "rm3" and c["feedback_mode"] == "oracle":
            judged = [(d, g) for d, g in c["qrels"].get(qid, {}).items() if g >= 1]
            feedback = [d for d, _ in sorted(judged, key=lambda e: (-e[1], e[0]))[:m]]
        elif m:
            first = rank_oracle(bm25_oracle(tokens, weights, c["k1"], c["b"]), m)
            feedback = [d for d, _ in first]

        if method == "rm3" and feedback:
            weights = rm3_oracle(tokens, feedback, weights, c["fb_terms"], c["lam"], c["mu"])
        elif method not in ("raw", "rm3"):
            n = 1 if method in ("flanqr", "flanprf") else c["n"]
            instructions = c["instructions"][:n]
            if feedback:
                context = " ".join(docs[d] for d in feedback)[:c["context_budget"]]
                instructions = [f"{RF_CONTEXT_PREFIX}{context}, {i}" for i in instructions]
            expansion = [token for i in instructions
                         for token in analyze_oracle(generate(
                             c["template"].format(instruction=i, query=text)))]
            if c["dedup"]:
                expansion = list(dict.fromkeys(expansion))
            for token in expansion:
                weights[token] = weights.get(token, 0.0) + c["beta"]
        scores = bm25_oracle(tokens, weights, c["k1"], c["b"])
        ranking = rank_oracle(scores, len(scores)) \
            if any(w > 0 for w in weights.values()) else None
        out[qid] = (ranking, weights, feedback)
    return out
