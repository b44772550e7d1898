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


def analyze_oracle(text: str, lowercase: bool = True, strip_punctuation: bool = True,
                   stopwords: FrozenSet[str] = frozenset(),
                   stem: Optional[Callable[[str], str]] = None) -> List[str]:
    """The character-at-a-time tokenizer: whitespace separates tokens, a
    change between word and P*/S* characters ends a token, and P*/S* runs
    are dropped when `strip_punctuation` is set; then stopwords, then `stem`."""
    if lowercase:
        text = text.lower()
    tokens: List[str] = []
    buf: List[str] = []
    buf_is_word = True
    for ch in text:
        if ch.isspace():
            if buf:
                tokens.append("".join(buf))
                buf = []
            continue
        is_word = _is_word_char(ch)
        if buf and is_word != buf_is_word:
            tokens.append("".join(buf))
            buf = []
        if is_word or not strip_punctuation:
            buf.append(ch)
            buf_is_word = is_word
    if buf:
        tokens.append("".join(buf))

    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    if stem is not None:
        tokens = [stem(t) for t in tokens]
    return tokens


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
