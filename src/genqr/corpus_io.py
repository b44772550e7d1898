"""Corpus, topic, qrels and TREC run file I/O.

Supported formats:
- corpus: JSONL ({"docno", "text", optional "title"}), TSV
  (docno<TAB>text[<TAB>title]), or classic <DOC>/<DOCNO>/<TEXT> markup.
- topics: TSV (qid<TAB>query) or <top>/<num>/<title> markup (title field only).
- qrels: whitespace-delimited `qid iter docno grade` (iter ignored).
- runs: 6-column `qid Q0 docno rank score tag`, single spaces, scores at
  6 decimals so written files are byte-stable.

Output files are written through `atomic_writer`, so an interrupted write
leaves the previous file, not a truncated one.
"""

from __future__ import annotations

import json
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Dict, Iterable, Iterator, List, Tuple


class CorpusFormatError(ValueError):
    """Malformed corpus/topics/qrels/run input."""


@dataclass(frozen=True)
class Document:
    docno: str
    text: str
    title: str | None = None

    def __post_init__(self):
        if not self.docno:
            raise CorpusFormatError("document with empty docno")


@dataclass(frozen=True)
class Topic:
    qid: str
    query: str

    def __post_init__(self):
        if not self.qid:
            raise CorpusFormatError("topic with empty qid")
        if not self.query.strip():
            raise CorpusFormatError(f"topic {self.qid!r} has an empty query")


class Qrels:
    """Relevance judgments: (qid, docno) -> integer grade, unlisted pairs are 0."""

    def __init__(self, grades: Dict[Tuple[str, str], int] | None = None):
        self._grades: Dict[Tuple[str, str], int] = dict(grades or {})
        self._by_qid: Dict[str, Dict[str, int]] = {}
        for (qid, docno), grade in self._grades.items():
            self._by_qid.setdefault(qid, {})[docno] = grade

    def grade(self, qid: str, docno: str) -> int:
        return self._grades.get((qid, docno), 0)

    def judged(self, qid: str) -> Dict[str, int]:
        """All judged (docno -> grade) pairs for a query, including grade 0."""
        return dict(self._by_qid.get(qid, {}))

    def relevant(self, qid: str, min_rel: int = 1) -> Dict[str, int]:
        return {d: g for d, g in self._by_qid.get(qid, {}).items() if g >= min_rel}

    def qids(self) -> List[str]:
        return list(self._by_qid.keys())

    def __len__(self) -> int:
        return len(self._grades)


@dataclass(frozen=True)
class RunEntry:
    docno: str
    rank: int
    score: float


@dataclass
class RunList:
    """Ranked results for one query in TREC run semantics."""

    qid: str
    entries: List[RunEntry] = field(default_factory=list)
    tag: str = "run"

    @classmethod
    def from_scores(cls, qid: str, scored: Iterable[Tuple[str, float]], tag: str,
                    k: int | None = None) -> "RunList":
        """Build a valid RunList: sort by score desc, docno asc, ranks from 1."""
        ordered = sorted(scored, key=lambda e: (-e[1], e[0]))
        if k is not None:
            ordered = ordered[:k]
        entries = [RunEntry(docno, rank, score)
                   for rank, (docno, score) in enumerate(ordered, start=1)]
        return cls(qid=qid, entries=entries, tag=tag)

    def validate(self) -> None:
        seen = set()
        prev_score = None
        for i, entry in enumerate(self.entries, start=1):
            if entry.rank != i:
                raise CorpusFormatError(
                    f"run {self.tag!r} qid {self.qid}: rank {entry.rank} at position {i}")
            if entry.docno in seen:
                raise CorpusFormatError(
                    f"run {self.tag!r} qid {self.qid}: duplicate docno {entry.docno!r}")
            seen.add(entry.docno)
            if prev_score is not None and entry.score > prev_score:
                raise CorpusFormatError(
                    f"run {self.tag!r} qid {self.qid}: scores increase at rank {i}")
            prev_score = entry.score


def _nonblank_lines(path: Path) -> Iterator[Tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            yield lineno, line


def load_corpus(path: str | Path, format: str = "jsonl") -> Iterator[Document]:
    """Stream documents from a corpus file.

    Yields every record exactly once, in file order. Raises CorpusFormatError
    with the offending line number for malformed records and names the docno
    on duplicates.
    """
    path = Path(path)
    if format == "jsonl":
        docs = _iter_jsonl_corpus(path)
    elif format == "tsv":
        docs = _iter_tsv_corpus(path)
    elif format == "trec-text":
        docs = _iter_trec_text_corpus(path)
    else:
        raise ValueError(f"unknown corpus format {format!r}")

    seen: set[str] = set()
    for doc in docs:
        if doc.docno in seen:
            raise CorpusFormatError(f"{path}: duplicate docno {doc.docno!r}")
        seen.add(doc.docno)
        yield doc


def _iter_jsonl_corpus(path: Path) -> Iterator[Document]:
    for lineno, line in _nonblank_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusFormatError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
        if not isinstance(obj, dict) or "docno" not in obj or "text" not in obj:
            raise CorpusFormatError(
                f"{path}:{lineno}: record must carry 'docno' and 'text' keys")
        yield Document(docno=str(obj["docno"]), text=str(obj["text"]),
                       title=str(obj["title"]) if obj.get("title") is not None else None)


def _iter_tsv_corpus(path: Path) -> Iterator[Document]:
    for lineno, line in _nonblank_lines(path):
        parts = line.split("\t")
        if len(parts) < 2:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected docno<TAB>text[<TAB>title]")
        title = parts[2] if len(parts) > 2 else None
        yield Document(docno=parts[0], text=parts[1], title=title)


_TREC_DOC = re.compile(r"<DOC>(.*?)</DOC>", re.DOTALL | re.IGNORECASE)
_TREC_FIELD = {
    "docno": re.compile(r"<DOCNO>(.*?)</DOCNO>", re.DOTALL | re.IGNORECASE),
    "text": re.compile(r"<TEXT>(.*?)</TEXT>", re.DOTALL | re.IGNORECASE),
    "title": re.compile(r"<TITLE>(.*?)</TITLE>", re.DOTALL | re.IGNORECASE),
}


def _iter_trec_text_corpus(path: Path) -> Iterator[Document]:
    raw = path.read_text(encoding="utf-8")
    for match in _TREC_DOC.finditer(raw):
        block = match.group(1)
        lineno = raw.count("\n", 0, match.start()) + 1
        docno_m = _TREC_FIELD["docno"].search(block)
        if not docno_m or not docno_m.group(1).strip():
            raise CorpusFormatError(f"{path}:{lineno}: <DOC> without <DOCNO>")
        text_m = _TREC_FIELD["text"].search(block)
        title_m = _TREC_FIELD["title"].search(block)
        yield Document(
            docno=docno_m.group(1).strip(),
            text=text_m.group(1).strip() if text_m else "",
            title=title_m.group(1).strip() if title_m else None,
        )


def load_topics(path: str | Path, format: str = "tsv") -> List[Topic]:
    """Load topics; trec-topic extracts the <title> field with tags stripped."""
    path = Path(path)
    if format == "tsv":
        topics = list(_iter_tsv_topics(path))
    elif format == "trec-topic":
        topics = list(_iter_trec_topics(path))
    else:
        raise ValueError(f"unknown topics format {format!r}")

    seen: set[str] = set()
    for topic in topics:
        if topic.qid in seen:
            raise CorpusFormatError(f"{path}: duplicate qid {topic.qid!r}")
        seen.add(topic.qid)
    return topics


def _iter_tsv_topics(path: Path) -> Iterator[Topic]:
    for lineno, line in _nonblank_lines(path):
        if "\t" not in line:
            raise CorpusFormatError(f"{path}:{lineno}: expected qid<TAB>query")
        qid, query = line.split("\t", 1)
        if not query.strip():
            raise CorpusFormatError(f"{path}:{lineno}: empty query for qid {qid!r}")
        yield Topic(qid=qid.strip(), query=query.strip())


_TOP_BLOCK = re.compile(r"<top>(.*?)</top>", re.DOTALL | re.IGNORECASE)
_NUM_FIELD = re.compile(r"<num>\s*(?:Number:)?\s*([^<\n]*)", re.IGNORECASE)
_TITLE_FIELD = re.compile(r"<title>\s*(.*?)\s*(?=<|\Z)", re.DOTALL | re.IGNORECASE)


def _iter_trec_topics(path: Path) -> Iterator[Topic]:
    raw = path.read_text(encoding="utf-8")
    for match in _TOP_BLOCK.finditer(raw):
        block = match.group(1)
        lineno = raw.count("\n", 0, match.start()) + 1
        num_m = _NUM_FIELD.search(block)
        title_m = _TITLE_FIELD.search(block)
        if not num_m or not num_m.group(1).strip():
            raise CorpusFormatError(f"{path}:{lineno}: <top> without <num>")
        qid = num_m.group(1).strip()
        title = " ".join(title_m.group(1).split()) if title_m else ""
        if not title:
            raise CorpusFormatError(f"{path}:{lineno}: empty query for qid {qid!r}")
        yield Topic(qid=qid, query=title)


def load_qrels(path: str | Path) -> Qrels:
    """Load 4-column qrels `qid iter docno grade`; the iter column is ignored."""
    path = Path(path)
    grades: Dict[Tuple[str, str], int] = {}
    for lineno, line in _nonblank_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected 4 columns `qid iter docno grade`, got {len(parts)}")
        qid, _, docno, grade_str = parts
        try:
            grade = int(grade_str)
        except ValueError as e:
            raise CorpusFormatError(
                f"{path}:{lineno}: non-integer grade {grade_str!r}") from e
        if grade < 0:
            raise CorpusFormatError(f"{path}:{lineno}: negative grade {grade}")
        key = (qid, docno)
        if key in grades:
            raise CorpusFormatError(
                f"{path}:{lineno}: repeated assessment for qid {qid!r} docno {docno!r}")
        grades[key] = grade
    return Qrels(grades)


@contextmanager
def atomic_writer(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a file that replaces `path` only when the block completes: a
    UTF-8 text file with "\\n" line ends, or a binary one if `binary`.

    The content goes to a temporary file in the same directory, which
    os.replace then moves over `path`. If the block raises, the temporary
    file is removed and `path` keeps its previous content.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with (open(tmp, "wb") if binary
              else open(tmp, "w", encoding="utf-8", newline="\n")) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_run(runs: List[RunList], path: str | Path) -> None:
    """Write TREC run lines `qid Q0 docno rank score tag`, queries in input order."""
    for run in runs:
        run.validate()
    with atomic_writer(path) as f:
        for run in runs:
            for entry in run.entries:
                f.write(f"{run.qid} Q0 {entry.docno} {entry.rank} "
                        f"{entry.score:.6f} {run.tag}\n")


def read_run(path: str | Path) -> List[RunList]:
    """Read a TREC run file; re-sorts per qid by score desc (docno asc on ties)
    and reassigns ranks, so unsorted input is tolerated."""
    path = Path(path)
    scored: Dict[str, List[Tuple[str, float]]] = {}
    tags: Dict[str, str] = {}
    order: List[str] = []
    for lineno, line in _nonblank_lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected 6 columns, got {len(parts)}")
        qid, _, docno, _, score_str, tag = parts
        try:
            score = float(score_str)
        except ValueError as e:
            raise CorpusFormatError(f"{path}:{lineno}: bad score {score_str!r}") from e
        if qid not in scored:
            scored[qid] = []
            tags[qid] = tag
            order.append(qid)
        scored[qid].append((docno, score))
    return [RunList.from_scores(qid, scored[qid], tags[qid]) for qid in order]
