"""Inverted index with BM25 scoring.

The index is immutable after build and safe to share across threads.
Scoring uses the Robertson BM25 form with the +1-inside-log idf variant,
which keeps scores non-negative even for very common terms:

    score(d) = sum_t w(t) * idf(t) * tf(t,d)*(k1+1) / (tf(t,d) + k1*(1 - b + b*len(d)/avgdl))
    idf(t)   = ln((N - df(t) + 0.5) / (df(t) + 0.5) + 1)

Query term weights are additive: a term listed twice with weight 1 scores
identically to the same term listed once with weight 2.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple

from .analysis import Analyzer
from .corpus_io import Document, RunList, atomic_writer

INDEX_MAGIC = "genqr-index"
INDEX_VERSION = 2
_POSTINGS_MAGIC = b"GQRPOST2"
_U32 = "I"  # array typecode of the postings columns: 4 bytes on CPython's platforms
_REBUILD = "rebuild it with `genqr index --force`"

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75


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

    @classmethod
    def from_lists(cls, lists: Dict[str, Tuple[List[int], List[int]]]) -> "Postings":
        """Columns from term -> (doc ordinals, tfs) lists."""
        terms = sorted(lists)
        docs, tfs = array(_U32), array(_U32)
        for term in terms:
            docs.extend(lists[term][0])
            tfs.extend(lists[term][1])
        return cls(terms, array(_U32, [len(lists[t][0]) for t in terms]),
                   array(_U32, [sum(lists[t][1]) for t in terms]), docs, tfs)

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
        self.postings = Postings.from_lists({})
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

    def bm25_scores(self, query: WeightedQuery, k1: float = DEFAULT_K1,
                    b: float = DEFAULT_B) -> Dict[str, float]:
        """BM25 score per candidate docno; documents sharing no query term are absent."""
        if self.n_docs == 0:
            raise IndexingError("cannot score against an empty index")
        weights = query.aggregated()
        if not any(w > 0 for w in weights.values()):
            raise DegenerateQueryError(f"degenerate query {query.qid!r}: no positive-weight term")

        accum: Dict[int, float] = {}
        k1_plus_1 = k1 + 1.0
        for term, weight in weights.items():
            if weight == 0.0 or term not in self.postings.ids:
                continue
            norms = self._doc_norms(k1, b)  # here, where avgdl > 0 is certain
            scale = weight * self.idf(term)
            for doc_ord, tf in zip(*self.postings[term]):
                partial = scale * tf * k1_plus_1 / (tf + norms[doc_ord])
                accum[doc_ord] = accum.get(doc_ord, 0.0) + partial
        return {self.docnos[ord_]: score for ord_, score in accum.items()}

    def retrieve(self, query: WeightedQuery, k: int, k1: float = DEFAULT_K1,
                 b: float = DEFAULT_B, tag: str = "run") -> RunList:
        """Top-k candidates by score descending, docno ascending on ties."""
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        scores = self.bm25_scores(query, k1=k1, b=b)
        return RunList.from_scores(query.qid, scores.items(), tag=tag, k=k)

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
            "n_docs": self.n_docs,
            "total_tokens": self.total_tokens,
            "docs": [[docno, length] for docno, length in zip(self.docnos, self.doc_lengths)],
            "terms": postings.terms,
            "n_postings": len(postings.docs),
        }
        with atomic_writer(path / "meta.json") as f:
            f.write(json.dumps(meta, sort_keys=True, indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "PostingsIndex":
        path = Path(path)
        meta_path = path / "meta.json"
        if not meta_path.exists():
            raise IndexingError(f"{path}: not an index directory (missing meta.json); {_REBUILD}")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("magic") != INDEX_MAGIC:
            raise IndexingError(f"{path}: bad magic {meta.get('magic')!r}; {_REBUILD}")
        if meta.get("version") != INDEX_VERSION:
            raise IndexingError(
                f"{path}: index version {meta.get('version')} unsupported "
                f"(expected {INDEX_VERSION}); {_REBUILD}")

        index = cls(Analyzer.from_config(meta["analyzer"]))
        if index.analyzer.fingerprint() != meta.get("analyzer_fingerprint"):
            raise IndexingError(f"{path}: analyzer fingerprint mismatch; {_REBUILD}")
        for docno, length in meta["docs"]:
            index.docnos.append(docno)
            index.doc_lengths.append(int(length))
        index.total_tokens = int(meta["total_tokens"])

        terms, n_postings = meta["terms"], int(meta["n_postings"])
        n_terms = len(terms)
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
    lists: Dict[str, Tuple[List[int], List[int]]] = {}
    seen: Dict[str, int] = {}
    for doc in corpus:
        if doc.docno in seen:
            raise IndexingError(f"duplicate docno {doc.docno!r}")
        doc_ord = len(index.docnos)
        seen[doc.docno] = doc_ord
        tokens = analyzer.analyze(doc.text)
        counts: Dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for term, tf in counts.items():
            entry = lists.get(term)
            if entry is None:
                entry = lists[term] = ([], [])
            entry[0].append(doc_ord)
            entry[1].append(tf)
        index.docnos.append(doc.docno)
        index.doc_lengths.append(len(tokens))
        index.total_tokens += len(tokens)
    index.postings = Postings.from_lists(lists)
    return index
