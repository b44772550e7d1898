"""Inverted index with BM25 scoring.

The index is immutable after build and safe to share across threads.
Scoring uses the Robertson BM25 form with the +1-inside-log idf variant,
which keeps scores non-negative even for very common terms:

    score(d) = sum_t w(t) * idf(t) * tf(t,d)*(k1+1) / (tf(t,d) + k1*(1 - b + b*len(d)/avgdl))
    idf(t)   = ln((N - df(t) + 0.5) / (df(t) + 0.5) + 1)

Query term weights are additive: a term listed twice with weight 1 scores
identically to the same term listed once with weight 2.

`bm25_scores` scores every candidate and is the reference path. `retrieve`
returns the same top k, with the same scores bit for bit, doing less work:
it sums each doc's partials into a dense per-ordinal list, in the query's
term order as `bm25_scores` does, and keeps the top k with a heap. It also
prunes, after MaxScore (Turtle & Flood, IP&M 1995). With k1 >= 0 and
0 <= b <= 1 every doc norm is >= 0, so a term's partial never exceeds its
bound U = w * idf * (k1 + 1). Once the bounds of the unscanned terms sum to
less than the k-th best score so far, no unseen doc can reach the top k:
the remaining lists only update the docs that still can, found by
bisection in a long list. No per-term statistic beyond df is needed.

`build_index` inverts by occurrence (Witten, Moffat & Bell, *Managing
Gigabytes*, ch. 5): one pass over each doc's tokens appends the doc's
ordinal to its term's list, so each list is ascending. Then, term by term
in sorted order, the uint32 columns are written: where no doc repeats the
term (most terms of a Zipf corpus), docs is the list and every tf is 1;
otherwise `Counter` gives each doc once with its tf. df is the number of
distinct docs and cf the number of occurrences. `save` writes the columns
to postings.bin and the docnos, doc lengths and terms to meta.json, as
compact JSON; an indented meta.json, as older saves wrote, loads the same.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple

from .analysis import Analyzer
from .corpus_io import Document, RunEntry, RunList, atomic_writer
from .schema import ConfigError

INDEX_MAGIC = "genqr-index"
INDEX_VERSION = 2
_POSTINGS_MAGIC = b"GQRPOST2"
_U32 = "I"  # array typecode of the postings columns: 4 bytes on CPython's platforms
_REBUILD = "rebuild it with `genqr index --force`"

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

# Relative slack on retrieve's pruning threshold. Summed partials and bound
# sums round differently, by a few ulps: far less than this.
_PRUNE_SLACK = 1e-9


class IndexingError(RuntimeError):
    """Index build/load/score failure."""


class DegenerateQueryError(ValueError):
    """Query with no positive-weight term."""


@dataclass(frozen=True)
class WeightedQuery:
    """Bag of (term, weight) pairs; duplicate terms accumulate weight."""

    qid: str
    terms: Tuple[Tuple[str, float], ...]

    def __post_init__(self):
        for term, weight in self.terms:
            if not math.isfinite(weight) or weight < 0:
                raise ValueError(f"query {self.qid}: bad weight {weight!r} for {term!r}")

    @classmethod
    def from_terms(cls, qid: str, terms: Iterable[str], weight: float = 1.0) -> "WeightedQuery":
        return cls(qid=qid, terms=tuple((t, weight) for t in terms))

    def aggregated(self) -> Dict[str, float]:
        agg: Dict[str, float] = {}
        for term, weight in self.terms:
            agg[term] = agg.get(term, 0.0) + weight
        return agg


class Postings(Mapping):
    """Read-only term -> (doc ordinals, tfs) over uint32 columns in sorted term
    order: df and cf per term, then every term's doc ordinals and tfs
    concatenated. postings.bin stores exactly these columns."""

    def __init__(self, terms: List[str], df: array, cf: array, docs: array, tfs: array):
        self.terms, self.df, self.cf, self.docs, self.tfs = terms, df, cf, docs, tfs
        self.ids = dict(zip(terms, range(len(terms))))
        self.starts = list(accumulate(df, initial=0))

    def __getitem__(self, term: str) -> Tuple[array, array]:
        i = self.ids[term]
        start, end = self.starts[i], self.starts[i + 1]
        return self.docs[start:end], self.tfs[start:end]

    def __iter__(self) -> Iterator[str]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


class PostingsIndex:
    """Term -> postings (doc ordinals, tfs) plus per-term, per-doc and corpus
    statistics."""

    def __init__(self, analyzer: Analyzer):
        self.analyzer = analyzer
        self.postings = Postings([], array(_U32), array(_U32), array(_U32), array(_U32))
        self.docnos: List[str] = []
        self.doc_lengths: List[int] = []
        self.total_tokens = 0
        self._norms: Dict[Tuple[float, float], List[float]] = {}

    @property
    def n_docs(self) -> int:
        return len(self.docnos)

    @property
    def avgdl(self) -> float:
        return self.total_tokens / self.n_docs if self.n_docs else 0.0

    def df(self, term: str) -> int:
        i = self.postings.ids.get(term)
        return 0 if i is None else self.postings.df[i]

    def collection_freq(self, term: str) -> int:
        i = self.postings.ids.get(term)
        return 0 if i is None else self.postings.cf[i]

    def idf(self, term: str) -> float:
        n, df = self.n_docs, self.df(term)
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    # --- scoring ---

    def _doc_norms(self, k1: float, b: float) -> List[float]:
        """k1 * (1 - b + b * len(d) / avgdl) per doc ordinal, computed once per
        (k1, b). Concurrent first calls compute the same list, so the memo
        needs no lock."""
        norms = self._norms.get((k1, b))
        if norms is None:
            avgdl = self.avgdl
            norms = [k1 * (1.0 - b + b * dl / avgdl) for dl in self.doc_lengths]
            self._norms[(k1, b)] = norms
        return norms

    def _weights(self, query: WeightedQuery) -> Dict[str, float]:
        """`query.aggregated()`, for an index with documents and a query
        with a positive-weight term."""
        if self.n_docs == 0:
            raise IndexingError("cannot score against an empty index")
        weights = query.aggregated()
        if not any(w > 0 for w in weights.values()):
            raise DegenerateQueryError(f"degenerate query {query.qid!r}: no positive-weight term")
        return weights

    def bm25_scores(self, query: WeightedQuery, k1: float = DEFAULT_K1,
                    b: float = DEFAULT_B) -> Dict[str, float]:
        """BM25 score per candidate docno; documents sharing no query term are absent."""
        accum: Dict[int, float] = {}
        k1_plus_1 = k1 + 1.0
        for term, weight in self._weights(query).items():
            if weight == 0.0 or term not in self.postings.ids:
                continue
            norms = self._doc_norms(k1, b)  # here, where avgdl > 0 is certain
            scale = weight * self.idf(term)
            for doc_ord, tf in zip(*self.postings[term]):
                partial = scale * tf * k1_plus_1 / (tf + norms[doc_ord])
                accum[doc_ord] = accum.get(doc_ord, 0.0) + partial
        return {self.docnos[ord_]: score for ord_, score in accum.items()}

    def retrieve(self, query: WeightedQuery, k: int, k1: float = DEFAULT_K1,
                 b: float = DEFAULT_B) -> RunList:
        """Top-k candidates by score descending, docno ascending on ties:
        `bm25_scores` ranked and cut at k, entry for entry and bit for bit.

        The matched terms are scanned in query order into a dense score list.
        Before a term, `rest` is the sum of the bounds U of the terms not yet
        scanned, and theta the k-th best score so far less a 1e-9 relative
        slack. If rest < theta, no doc yet unseen can enter the top k, so the
        candidates shrink to the seen docs with score + rest >= theta, and
        each later term adds its partial to those alone: by bisection when
        its list is over 8 times longer than the candidates, else by a
        filtered scan. Theta is only computed when rest is below the bounds
        already scanned and the unscanned postings at least double the seen
        docs, as otherwise pruning cannot fire or cannot pay.
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if not (k1 >= 0.0 and 0.0 <= b <= 1.0):
            raise ValueError(f"retrieve needs k1 >= 0 and 0 <= b <= 1, got k1={k1}, b={b}")
        postings, k1_plus_1 = self.postings, k1 + 1.0
        lists = []  # (scale, start, end) of each matched term, in query order
        for term, weight in self._weights(query).items():
            i = postings.ids.get(term)
            if weight != 0.0 and i is not None:
                lists.append((weight * self.idf(term), postings.starts[i], postings.starts[i + 1]))
        if not lists:
            return RunList(qid=query.qid)

        norms = self._doc_norms(k1, b)
        docs, tfs = postings.docs, postings.tfs
        bounds = [scale * k1_plus_1 for scale, _, _ in lists]
        rests = list(accumulate(reversed(bounds)))[::-1]  # rests[j]: bounds of terms j..
        unscanned = sum(end - start for _, start, end in lists)
        scanned = 0.0
        acc = [0.0] * self.n_docs
        seen: set = set()
        candidates = None  # once pruned: the ordinals that can still reach the top k, sorted
        # Each partial below is bm25_scores' expression, so the sums match bit for bit.
        for (scale, start, end), bound, rest in zip(lists, bounds, rests):
            if (candidates is None and rest < scanned and unscanned >= 2 * len(seen)
                    and len(seen) >= k):
                theta = heapq.nlargest(k, map(acc.__getitem__, seen))[-1] * (1.0 - _PRUNE_SLACK)
                if rest < theta:
                    candidates = sorted(d for d in seen if acc[d] + rest >= theta)
                    keep = set(candidates)
            if candidates is None:
                block = docs[start:end]
                seen.update(block)
                for d, tf in zip(block, tfs[start:end]):
                    acc[d] += scale * tf * k1_plus_1 / (tf + norms[d])
            elif 8 * len(candidates) < end - start:
                at = start
                for d in candidates:
                    at = bisect_left(docs, d, at, end)
                    if at < end and docs[at] == d:
                        tf = tfs[at]
                        acc[d] += scale * tf * k1_plus_1 / (tf + norms[d])
            else:
                for d, tf in zip(docs[start:end], tfs[start:end]):
                    if d in keep:
                        acc[d] += scale * tf * k1_plus_1 / (tf + norms[d])
            scanned += bound
            unscanned -= end - start

        docnos = self.docnos
        top = heapq.nsmallest(k, seen if candidates is None else candidates,
                              key=lambda d: (-acc[d], docnos[d]))
        return RunList(qid=query.qid, entries=[RunEntry(docnos[d], acc[d]) for d in top])

    # --- persistence ---

    def save(self, path: str | Path) -> None:
        """Write postings.bin, then meta.json. meta.json is the commit marker:
        it is removed first and written last, so an interrupted save leaves
        a directory that `load` rejects."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        (path / "meta.json").unlink(missing_ok=True)
        postings = self.postings
        with atomic_writer(path / "postings.bin", binary=True) as f:
            f.write(_POSTINGS_MAGIC)
            for column in (postings.df, postings.cf, postings.docs, postings.tfs):
                if sys.byteorder == "big":
                    column = array(_U32, column)
                    column.byteswap()
                f.write(column.tobytes())
        meta = {
            "magic": INDEX_MAGIC,
            "version": INDEX_VERSION,
            "analyzer": self.analyzer.config(),
            "analyzer_fingerprint": self.analyzer.fingerprint(),
            "docs": [[docno, length] for docno, length in zip(self.docnos, self.doc_lengths)],
            "terms": postings.terms,
            "n_postings": len(postings.docs),
        }
        with atomic_writer(path / "meta.json") as f:
            f.write(json.dumps(meta, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path, analyzer: Analyzer) -> "PostingsIndex":
        """The index saved at `path`, which must have been built with `analyzer`."""
        path = Path(path)
        meta_path = path / "meta.json"
        if not meta_path.exists():
            raise IndexingError(f"{path}: not an index directory (missing meta.json); {_REBUILD}")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except ValueError:  # invalid JSON or UTF-8
            meta = None
        if not isinstance(meta, dict):
            raise IndexingError(f"{path}: meta.json is not a JSON object; {_REBUILD}")
        if meta.get("magic") != INDEX_MAGIC:
            raise IndexingError(f"{path}: bad magic {meta.get('magic')!r}; {_REBUILD}")
        if meta.get("version") != INDEX_VERSION:
            raise IndexingError(
                f"{path}: index version {meta.get('version')} unsupported "
                f"(expected {INDEX_VERSION}); {_REBUILD}")

        try:
            index = cls(Analyzer.from_config(meta.get("analyzer")))
        except ConfigError as e:
            raise IndexingError(f"{path}: bad meta.json ({e}); {_REBUILD}") from e
        if index.analyzer.fingerprint() != meta.get("analyzer_fingerprint"):
            raise IndexingError(f"{path}: analyzer fingerprint mismatch; {_REBUILD}")
        if index.analyzer != analyzer:
            raise IndexingError(
                f"{path}: index analyzer differs from the configured one; {_REBUILD}")
        try:
            for docno, length in meta["docs"]:
                index.docnos.append(docno)
                index.doc_lengths.append(int(length))
            terms, n_postings = meta["terms"], int(meta["n_postings"])
            n_terms = len(terms)
        except KeyError as e:
            raise IndexingError(f"{path}: meta.json lacks {e}; {_REBUILD}") from None
        except (TypeError, ValueError) as e:
            raise IndexingError(f"{path}: bad meta.json ({e}); {_REBUILD}") from e

        index.total_tokens = sum(index.doc_lengths)
        raw = (path / "postings.bin").read_bytes()
        if raw[:len(_POSTINGS_MAGIC)] != _POSTINGS_MAGIC:
            raise IndexingError(f"{path}: corrupted postings header; {_REBUILD}")
        expected = len(_POSTINGS_MAGIC) + 4 * (2 * n_terms + 2 * n_postings)
        if len(raw) != expected:
            raise IndexingError(
                f"{path}: postings.bin has {len(raw)} bytes, expected {expected} for "
                f"{n_terms} terms and {n_postings} postings; {_REBUILD}")
        columns = array(_U32)
        columns.frombytes(memoryview(raw)[len(_POSTINGS_MAGIC):])
        if sys.byteorder == "big":
            columns.byteswap()
        df = columns[:n_terms]
        if sum(df) != n_postings:
            raise IndexingError(
                f"{path}: postings.bin document frequencies do not sum to {n_postings}; "
                f"{_REBUILD}")
        docs_at = 2 * n_terms
        index.postings = Postings(terms, df, columns[n_terms:docs_at],
                                  columns[docs_at:docs_at + n_postings],
                                  columns[docs_at + n_postings:])
        return index


def build_index(corpus: Iterable[Document], analyzer: Analyzer) -> PostingsIndex:
    """Index a document stream; docnos must be unique."""
    index = PostingsIndex(analyzer)
    occurrences: Dict[str, List[int]] = defaultdict(list)  # term -> doc ordinal per occurrence
    seen: set[str] = set()
    for doc in corpus:
        if doc.docno in seen:
            raise IndexingError(f"duplicate docno {doc.docno!r}")
        seen.add(doc.docno)
        doc_ord = len(index.docnos)
        tokens = analyzer.analyze(doc.text)
        for token in tokens:
            occurrences[token].append(doc_ord)
        index.docnos.append(doc.docno)
        index.doc_lengths.append(len(tokens))
        index.total_tokens += len(tokens)

    terms = sorted(occurrences)
    df, cf, docs, tfs = array(_U32), array(_U32), array(_U32), array(_U32)
    one = array(_U32, [1])
    for term in terms:
        ords = occurrences.pop(term)  # ascending; each list is freed once written
        n_docs = len(set(ords))
        if n_docs == len(ords):  # no doc repeats the term: every tf is 1
            docs.extend(ords)
            tfs.extend(one * n_docs)
        else:
            counts = Counter(ords)  # keys keep the ascending order of ords
            docs.extend(counts)
            tfs.extend(counts.values())
        df.append(n_docs)
        cf.append(len(ords))
    index.postings = Postings(terms, df, cf, docs, tfs)
    return index
