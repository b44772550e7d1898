"""Inverted index with BM25 scoring.

An index is built whole: `build_index` and `PostingsIndex.load` each make
one with a single call of the `PostingsIndex` constructor, which derives
the term ids, list offsets and token total. Nothing assigns its fields
after that, so it is safe to share across threads. `postings(term)` reads
one term's list.

Scoring uses the Robertson BM25 form with the +1-inside-log idf variant,
which keeps scores non-negative even for very common terms:

    score(d) = sum_t w(t) * idf(t) * tf(t,d)*(k1+1) / (tf(t,d) + k1*(1 - b + b*len(d)/avgdl))
    idf(t)   = ln((N - df(t) + 0.5) / (df(t) + 0.5) + 1)

Query term weights are additive: a term listed twice with weight 1 scores
identically to the same term listed once with weight 2.

`retrieve` returns the top k, with the scores bit for bit of the exhaustive
reference scorer that its tests compare against (tests/oracles.py): it
sums each doc's partials into a dense per-ordinal list, in the query's term
order as that scorer does, and ranks only the docs at or above the k-th
best score, through `corpus_io.ranked`. It also prunes, after
MaxScore (Turtle & Flood, IP&M 1995). With k1 >= 0 and 0 <= b <= 1 every
doc norm is >= 0, so a term's partial never exceeds its bound
U = w * idf * (k1 + 1). Once the bounds of the unscanned terms sum to less
than the k-th best score so far, no unseen doc can reach the top k: the
remaining lists only update the docs that still can, found by bisection.
No per-term statistic beyond df is needed.

`build_index` inverts by occurrence (Witten, Moffat & Bell, *Managing
Gigabytes*, ch. 5): one pass over each doc's tokens appends the doc's
ordinal to its term's list, so each list is ascending. Then, term by term
in sorted order, the uint32 columns are written: where no doc repeats the
term (most terms of a Zipf corpus), docs is the list and every tf is 1;
otherwise `Counter` gives each doc once with its tf. df is the number of
distinct docs and cf the number of occurrences.

An index is one file, postings.bin, after PISA's columnar layout (Mallia
et al., OSIRRC 2019):

    magic     b"GQRPOST3", which is also the format version
    header    one line of compact JSON: {"analyzer", "docnos", "terms"}
    columns   uint32, little-endian: doc lengths, df, cf, docs, tfs
    crc       zlib crc32 of all of the above, a little-endian uint32

The column sizes follow from the header and the file size, so no count is
stored. The crc covers every byte that decides a ranking, the analyzer
section included, and detects any change of up to 32 consecutive bits, so
any one changed byte or word. `atomic_writer` commits the file whole.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
import zlib
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from .analysis import Analyzer
from .corpus_io import Document, Ranking, atomic_writer, ranked

_MAGIC = b"GQRPOST3"  # also the format version: a file of another version fails its check
_U32 = "I"  # array typecode of the postings columns: 4 bytes on CPython's platforms
_REBUILD = "rebuild it with `genqr index --force`"
Column = Sequence[int]  # a uint32 array, or a memoryview of a loaded file's bytes

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
    """Bag of (term, weight) pairs, merged at construction: `terms` holds each
    term once, in first-seen order, its weights summed left to right."""

    qid: str
    terms: Tuple[Tuple[str, float], ...]

    def __post_init__(self):
        merged: Dict[str, float] = {}
        for term, weight in self.terms:
            if not math.isfinite(weight) or weight < 0:
                raise ValueError(f"query {self.qid}: bad weight {weight!r} for {term!r}")
            merged[term] = merged.get(term, 0.0) + weight
        object.__setattr__(self, "terms", tuple(merged.items()))

    @classmethod
    def from_terms(cls, qid: str, terms: Iterable[str]) -> "WeightedQuery":
        return cls(qid=qid, terms=tuple((t, 1.0) for t in terms))

    def aggregated(self) -> Dict[str, float]:
        return dict(self.terms)


class PostingsIndex:
    """Postings and statistics of an indexed corpus, over uint32 columns in
    sorted term order: df and cf per term, then every term's doc ordinals
    and tfs concatenated. `save` writes them to postings.bin with the
    analyzer config, docnos, doc lengths and terms."""

    def __init__(self, analyzer: Analyzer, docnos: List[str], doc_lengths: List[int],
                 terms: List[str], df: Column, cf: Column, docs: Column, tfs: Column):
        self.analyzer = analyzer
        self.docnos, self.doc_lengths = docnos, doc_lengths
        self.terms, self.dfs, self.cfs, self.docs, self.tfs = terms, df, cf, docs, tfs
        self.ids = dict(zip(terms, range(len(terms))))
        self.starts = list(accumulate(df, initial=0))  # term i's postings: starts[i]:starts[i+1]
        self.total_tokens = sum(doc_lengths)
        self._norms: Dict[Tuple[float, float], List[float]] = {}

    @property
    def n_docs(self) -> int:
        return len(self.docnos)

    @property
    def avgdl(self) -> float:
        return self.total_tokens / self.n_docs if self.n_docs else 0.0

    def df(self, term: str) -> int:
        i = self.ids.get(term)
        return 0 if i is None else self.dfs[i]

    def collection_freq(self, term: str) -> int:
        i = self.ids.get(term)
        return 0 if i is None else self.cfs[i]

    def postings(self, term: str) -> Tuple[Column, Column]:
        """The doc ordinals, ascending, and tfs of an indexed term."""
        i = self.ids[term]
        start, end = self.starts[i], self.starts[i + 1]
        return self.docs[start:end], self.tfs[start:end]

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

    def _weights(self, query: WeightedQuery) -> Tuple[Tuple[str, float], ...]:
        """`query.terms`, for an index with documents and a query with a
        positive-weight term: the one check of every method's query."""
        if self.n_docs == 0:
            raise IndexingError("cannot score against an empty index")
        if not any(w > 0 for _, w in query.terms):
            raise DegenerateQueryError(f"degenerate query {query.qid!r}: no positive-weight term")
        return query.terms

    def retrieve(self, query: WeightedQuery, k: int, k1: float = DEFAULT_K1,
                 b: float = DEFAULT_B) -> Ranking:
        """Top-k candidates by score descending, docno ascending on ties; a
        candidate is a doc that shares a positive-weight term with the query.

        The matched terms are scanned in query order into a dense score list.
        Before a term, `rest` is the sum of the bounds U of the terms not yet
        scanned, and theta the k-th best score so far less a 1e-9 relative
        slack. If rest < theta, no doc yet unseen can enter the top k, so the
        candidates shrink to the seen docs with score + rest >= theta, and
        each later term adds its partial to those alone, found by bisection.
        Theta is only computed when rest is below the bounds already scanned
        and the unscanned postings at least double the seen docs, as
        otherwise pruning cannot fire or cannot pay. Last, the docs at or
        above the k-th best score, ties at the cut included, are ranked by
        `corpus_io.ranked` and cut at k.
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if not (k1 >= 0.0 and 0.0 <= b <= 1.0):
            raise ValueError(f"retrieve needs k1 >= 0 and 0 <= b <= 1, got k1={k1}, b={b}")
        k1_plus_1 = k1 + 1.0
        lists = []  # (scale, start, end) of each matched term, in query order
        for term, weight in self._weights(query):
            i = self.ids.get(term)
            if weight != 0.0 and i is not None:
                lists.append((weight * self.idf(term), self.starts[i], self.starts[i + 1]))
        if not lists:
            return []

        norms = self._doc_norms(k1, b)
        docs, tfs = self.docs, self.tfs
        bounds = [scale * k1_plus_1 for scale, _, _ in lists]
        rests = list(accumulate(reversed(bounds)))[::-1]  # rests[j]: bounds of terms j..
        unscanned = sum(end - start for _, start, end in lists)
        scanned = 0.0
        acc = [0.0] * self.n_docs
        seen: set = set()
        candidates = None  # once pruned: the ordinals that can still reach the top k, sorted
        # Each partial below is the reference scorer's expression, so the sums match bit for bit.
        for (scale, start, end), bound, rest in zip(lists, bounds, rests):
            if (candidates is None and rest < scanned and unscanned >= 2 * len(seen)
                    and len(seen) >= k):
                theta = heapq.nlargest(k, map(acc.__getitem__, seen))[-1] * (1.0 - _PRUNE_SLACK)
                if rest < theta:
                    candidates = sorted(d for d in seen if acc[d] + rest >= theta)
            if candidates is None:
                block = docs[start:end]
                seen.update(block)
                for d, tf in zip(block, tfs[start:end]):
                    acc[d] += scale * tf * k1_plus_1 / (tf + norms[d])
            else:
                at = start
                for d in candidates:
                    at = bisect_left(docs, d, at, end)
                    if at < end and docs[at] == d:
                        tf = tfs[at]
                        acc[d] += scale * tf * k1_plus_1 / (tf + norms[d])
            scanned += bound
            unscanned -= end - start

        pool = seen if candidates is None else candidates
        scores = sorted(map(acc.__getitem__, pool))
        cut = scores[-min(k, len(scores))]  # the k-th best score, or the worst if fewer
        top = [(self.docnos[d], acc[d]) for d in pool if acc[d] >= cut]  # ties at the cut too
        return ranked(top)[:k]

    # --- persistence ---

    def save(self, path: str | Path) -> None:
        """Write `path`/postings.bin, laid out as the module docstring says,
        through `atomic_writer`: an interrupted save leaves the previous file."""
        header = json.dumps({"analyzer": self.analyzer.config(), "docnos": self.docnos,
                             "terms": self.terms}, separators=(",", ":"))
        pieces = [_MAGIC, header.encode("utf-8") + b"\n"]
        for column in (array(_U32, self.doc_lengths), self.dfs, self.cfs, self.docs, self.tfs):
            if sys.byteorder == "big":
                column = array(_U32, column)
                column.byteswap()
            pieces.append(column)
        crc = 0
        with atomic_writer(Path(path) / "postings.bin", binary=True) as f:
            for piece in pieces:
                f.write(piece)
                crc = zlib.crc32(piece, crc)
            f.write(crc.to_bytes(4, "little"))

    @classmethod
    def load(cls, path: str | Path, analyzer: Analyzer) -> "PostingsIndex":
        """The index saved at `path`, which must have been built with `analyzer`.
        It checks the magic, the crc, the header, the column sizes (df sums
        to the postings count) and last the analyzer; each failure raises
        IndexingError with the rebuild hint."""
        path = Path(path)
        try:
            raw = (path / "postings.bin").read_bytes()
        except FileNotFoundError:
            raise IndexingError(
                f"{path}: not an index directory (missing postings.bin); {_REBUILD}") from None
        if raw[:len(_MAGIC)] != _MAGIC:
            raise IndexingError(
                f"{path}: postings.bin starts {raw[:len(_MAGIC)]!r}, not {_MAGIC!r}: an index "
                f"of another version, or not an index; {_REBUILD}")
        if zlib.crc32(memoryview(raw)[:-4]) != int.from_bytes(raw[-4:], "little"):
            raise IndexingError(f"{path}: postings.bin fails its crc32 check; {_REBUILD}")

        end = raw.find(b"\n", len(_MAGIC), len(raw) - 4)  # the header line's end
        try:
            if end < 0:
                raise ValueError("no header line")
            header = json.loads(raw[len(_MAGIC):end])
            stored = Analyzer.from_config(header["analyzer"])
            docnos, terms = header["docnos"], header["terms"]
            if not (isinstance(docnos, list) and isinstance(terms, list)):
                raise TypeError("docnos and terms must be lists")
        except (KeyError, TypeError, ValueError) as e:  # ValueError covers invalid JSON
            raise IndexingError(
                f"{path}: bad index header ({type(e).__name__}: {e}); {_REBUILD}") from None
        n_docs, n_terms = len(docnos), len(terms)
        n_words, odd_bytes = divmod(len(raw) - 4 - (end + 1), 4)
        n_postings, odd_words = divmod(n_words - n_docs - 2 * n_terms, 2)
        if odd_bytes or odd_words or n_postings < 0:
            raise IndexingError(
                f"{path}: postings.bin has {n_words} words after its header, which do not "
                f"fit {n_docs} docs and {n_terms} terms; {_REBUILD}")
        columns = memoryview(raw)[end + 1:-4].cast(_U32)  # views of raw: no column is copied
        if sys.byteorder == "big":
            columns = array(_U32, columns)
            columns.byteswap()
        df_at, cf_at, docs_at = n_docs, n_docs + n_terms, n_docs + 2 * n_terms
        df = columns[df_at:cf_at]
        if sum(df) != n_postings:
            raise IndexingError(
                f"{path}: postings.bin document frequencies do not sum to {n_postings}; "
                f"{_REBUILD}")
        if stored != analyzer:
            raise IndexingError(
                f"{path}: index analyzer differs from the configured one; {_REBUILD}")
        return cls(stored, docnos, columns[:df_at].tolist(), terms, df, columns[cf_at:docs_at],
                   columns[docs_at:docs_at + n_postings], columns[docs_at + n_postings:])


def build_index(corpus: Iterable[Document], analyzer: Analyzer) -> PostingsIndex:
    """Index a document stream; docnos must be unique."""
    docnos: List[str] = []
    doc_lengths: List[int] = []
    occurrences: Dict[str, List[int]] = defaultdict(list)  # term -> doc ordinal per occurrence
    seen: set[str] = set()
    for doc in corpus:
        if doc.docno in seen:
            raise IndexingError(f"duplicate docno {doc.docno!r}")
        seen.add(doc.docno)
        doc_ord = len(docnos)
        tokens = analyzer.analyze(doc.text)
        for token in tokens:
            occurrences[token].append(doc_ord)
        docnos.append(doc.docno)
        doc_lengths.append(len(tokens))

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
    return PostingsIndex(analyzer, docnos, doc_lengths, terms, df, cf, docs, tfs)
