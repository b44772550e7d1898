"""Corpus, topic, qrels and TREC run file I/O.

Supported formats:
- corpus: JSONL ({"docno", "text"}), TSV (docno<TAB>text), or classic
  <DOC>/<DOCNO>/<TEXT> markup. A title (a JSONL "title" key, a third TSV
  column, a <TITLE> element) is accepted and ignored: only the text is
  indexed.
- topics: TSV (qid<TAB>query) or <top>/<num>/<title> markup (title field only).
- qrels: whitespace-delimited `qid iter docno grade` (iter ignored).
- runs: 6-column `qid Q0 docno rank score tag`, single spaces, scores at
  6 decimals so written files are byte-stable. A rank is the 1-based list
  position: it is written, never stored or read. The tag names the file:
  `write_run` writes one on every line, and `read_run` returns the first
  line's, or None for a file without lines.

Output files are written through `atomic_writer`, so an interrupted write
leaves the previous file, not a truncated one; `write_jsonl` writes a file
of JSON rows (reformulations, failures, replay transcripts) through it.
"""

from __future__ import annotations

import json
import math
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Dict, Iterable, Iterator, List, Optional, Tuple


class CorpusFormatError(ValueError):
    """Malformed corpus/topics/qrels/run input."""


@dataclass(frozen=True, slots=True)
class Document:
    docno: str
    text: str

    def __post_init__(self):
        if not self.docno:
            raise CorpusFormatError("document with empty docno")
        if self.docno.split() != [self.docno]:  # run files split on whitespace
            raise CorpusFormatError(f"docno {self.docno!r} contains whitespace")


@dataclass(frozen=True)
class Topic:
    qid: str
    query: str

    def __post_init__(self):
        if not self.qid:
            raise CorpusFormatError("topic with empty qid")
        if self.qid.split() != [self.qid]:
            raise CorpusFormatError(f"qid {self.qid!r} contains whitespace")
        if not self.query.strip():
            raise CorpusFormatError(f"empty query for qid {self.qid!r}")


Ranking = List[Tuple[str, float]]  # (docno, score) pairs; a rank is the 1-based position
Run = Dict[str, Ranking]  # qid -> ranking, in topic order
Qrels = Dict[str, Dict[str, int]]  # qid -> docno -> grade; an unlisted pair is 0


def ranked(scored: Iterable[Tuple[str, float]]) -> Ranking:
    """The (docno, score) pairs by score descending, docno ascending on ties."""
    return sorted(scored, key=lambda e: (-e[1], e[0]))


def _record(path: Path, lineno: int, cls, *fields):
    """`cls(*fields)`, a Document or Topic; its CorpusFormatError names the
    file and the line of the record."""
    try:
        return cls(*fields)
    except CorpusFormatError as e:
        raise CorpusFormatError(f"{path}:{lineno}: {e}") from None


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file, read in text mode. A file that is not UTF-8
    raises CorpusFormatError `<path>:<line>: not UTF-8`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(Path(path)) from None


def _not_utf8(path: Path) -> CorpusFormatError:
    """The error for a file that is not UTF-8: it names the line, as text mode counts
    lines, of the first bad byte."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        lineno = head.count("\n") + 1
        return CorpusFormatError(f"{path}:{lineno}: not UTF-8")
    return CorpusFormatError(f"{path}: not UTF-8")  # rewritten since the failed read


def _nonblank_lines(path: Path) -> Iterator[Tuple[int, str]]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):  # text mode ends each line with \n
                if line.strip():
                    yield lineno, line.rstrip("\n")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def load_corpus(path: str | Path, format: str = "jsonl") -> Iterator[Document]:
    """Stream documents from a corpus file.

    Yields every record exactly once, in file order. Raises CorpusFormatError
    with the offending line number for malformed records and names the docno
    on duplicates.
    """
    path = Path(path)
    if format not in CORPUS_READERS:
        raise ValueError(f"unknown corpus format {format!r}")

    seen: set[str] = set()
    for lineno, doc in CORPUS_READERS[format](path):
        if doc.docno in seen:
            raise CorpusFormatError(f"{path}:{lineno}: duplicate docno {doc.docno!r}")
        seen.add(doc.docno)
        yield doc


def _iter_jsonl_corpus(path: Path) -> Iterator[Tuple[int, Document]]:
    for lineno, line in _nonblank_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise CorpusFormatError(f"{path}:{lineno}: invalid JSON ({e.msg})") from e
        if not isinstance(obj, dict) or "docno" not in obj or "text" not in obj:
            raise CorpusFormatError(
                f"{path}:{lineno}: record must carry 'docno' and 'text' keys")
        yield lineno, _record(path, lineno, Document, str(obj["docno"]), str(obj["text"]))


def _iter_tsv_corpus(path: Path) -> Iterator[Tuple[int, Document]]:
    for lineno, line in _nonblank_lines(path):
        parts = line.split("\t")
        if len(parts) < 2:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected docno<TAB>text[<TAB>title]")
        yield lineno, _record(path, lineno, Document, parts[0], parts[1])


_TREC_DOC = re.compile(r"<DOC>(.*?)</DOC>", re.DOTALL | re.IGNORECASE)
_TREC_FIELD = {
    "docno": re.compile(r"<DOCNO>(.*?)</DOCNO>", re.DOTALL | re.IGNORECASE),
    "text": re.compile(r"<TEXT>(.*?)</TEXT>", re.DOTALL | re.IGNORECASE),
}


def _marked_blocks(pattern: re.Pattern, path: Path) -> Iterator[Tuple[int, str]]:
    """The first group of each `pattern` match in the file, with the line
    the match starts on."""
    raw = read_text(path)
    lineno, pos = 1, 0
    for match in pattern.finditer(raw):
        lineno += raw.count("\n", pos, match.start())
        pos = match.start()
        yield lineno, match.group(1)


def _iter_trec_text_corpus(path: Path) -> Iterator[Tuple[int, Document]]:
    for lineno, block in _marked_blocks(_TREC_DOC, path):
        docno_m = _TREC_FIELD["docno"].search(block)
        if not docno_m or not docno_m.group(1).strip():
            raise CorpusFormatError(f"{path}:{lineno}: <DOC> without <DOCNO>")
        text_m = _TREC_FIELD["text"].search(block)
        yield lineno, _record(path, lineno, Document, docno_m.group(1).strip(),
                              text_m.group(1).strip() if text_m else "")


CORPUS_READERS = {"jsonl": _iter_jsonl_corpus, "tsv": _iter_tsv_corpus,
                  "trec-text": _iter_trec_text_corpus}


def load_topics(path: str | Path, format: str = "tsv") -> List[Topic]:
    """Load topics; trec-topic extracts the <title> field with tags stripped."""
    path = Path(path)
    if format not in TOPIC_READERS:
        raise ValueError(f"unknown topics format {format!r}")
    topics: List[Topic] = []
    seen: set[str] = set()
    for lineno, topic in TOPIC_READERS[format](path):
        if topic.qid in seen:
            raise CorpusFormatError(f"{path}:{lineno}: duplicate qid {topic.qid!r}")
        seen.add(topic.qid)
        topics.append(topic)
    return topics


def _iter_tsv_topics(path: Path) -> Iterator[Tuple[int, Topic]]:
    for lineno, line in _nonblank_lines(path):
        if "\t" not in line:
            raise CorpusFormatError(f"{path}:{lineno}: expected qid<TAB>query")
        qid, query = line.split("\t", 1)
        yield lineno, _record(path, lineno, Topic, qid.strip(), query.strip())


_TOP_BLOCK = re.compile(r"<top>(.*?)</top>", re.DOTALL | re.IGNORECASE)
_NUM_FIELD = re.compile(r"<num>\s*(?:Number:)?\s*([^<\n]*)", re.IGNORECASE)
_TITLE_FIELD = re.compile(r"<title>\s*(.*?)\s*(?=<|\Z)", re.DOTALL | re.IGNORECASE)


def _iter_trec_topics(path: Path) -> Iterator[Tuple[int, Topic]]:
    for lineno, block in _marked_blocks(_TOP_BLOCK, path):
        num_m = _NUM_FIELD.search(block)
        title_m = _TITLE_FIELD.search(block)
        if not num_m or not num_m.group(1).strip():
            raise CorpusFormatError(f"{path}:{lineno}: <top> without <num>")
        qid = num_m.group(1).strip()
        title = " ".join(title_m.group(1).split()) if title_m else ""
        yield lineno, _record(path, lineno, Topic, qid, title)


TOPIC_READERS = {"tsv": _iter_tsv_topics, "trec-topic": _iter_trec_topics}


def load_qrels(path: str | Path) -> Qrels:
    """Load 4-column qrels `qid iter docno grade`; the iter column is ignored."""
    path = Path(path)
    qrels: Qrels = {}
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
        grades = qrels.setdefault(qid, {})
        if docno in grades:
            raise CorpusFormatError(
                f"{path}:{lineno}: repeated assessment for qid {qid!r} docno {docno!r}")
        grades[docno] = grade
    return qrels


@contextmanager
def atomic_writer(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open a file that replaces `path` only when the block completes: a
    UTF-8 text file with "\\n" line ends, or a binary one if `binary`.

    The parent directory is made if missing. The content goes to a
    temporary file in it, which os.replace then moves over `path`. If the
    block raises, the temporary file is removed and `path` keeps its
    previous content.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with (open(tmp, "wb") if binary
              else open(tmp, "w", encoding="utf-8", newline="\n")) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(rows: Iterable[dict], path: str | Path) -> None:
    """Write one JSON object per line, keys sorted."""
    with atomic_writer(path) as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")


def write_run(run: Run, path: str | Path, tag: str) -> None:
    """Write TREC run lines `qid Q0 docno rank score tag`, queries in the
    run's order; the rank is each entry's 1-based position in its ranking.
    A ranking that repeats a docno, holds a non-finite score or whose scores
    increase is an error, raised before the file is opened."""
    for qid, ranking in run.items():
        seen = set()
        for i, (docno, score) in enumerate(ranking, start=1):
            if docno in seen:
                raise CorpusFormatError(f"qid {qid}: duplicate docno {docno!r}")
            seen.add(docno)
            if not math.isfinite(score):
                raise CorpusFormatError(f"qid {qid}: non-finite score {score} at rank {i}")
            if i > 1 and score > ranking[i - 2][1]:
                raise CorpusFormatError(f"qid {qid}: scores increase at rank {i}")
    with atomic_writer(path) as f:
        for qid, ranking in run.items():
            for rank, (docno, score) in enumerate(ranking, start=1):
                f.write(f"{qid} Q0 {docno} {rank} {score:.6f} {tag}\n")


def read_run(path: str | Path) -> Tuple[Optional[str], Run]:
    """Read a TREC run file as (tag, run); re-sorts per qid by score desc
    (docno asc on ties), so unsorted input is tolerated. The rank column is
    not read: a rank is the list position. A docno listed twice for one qid
    is an error, as in trec_eval."""
    path = Path(path)
    scored: Dict[str, Dict[str, float]] = {}
    tag = None
    for lineno, line in _nonblank_lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise CorpusFormatError(
                f"{path}:{lineno}: expected 6 columns, got {len(parts)}")
        qid, _, docno, _, score_str, line_tag = parts
        try:
            score = float(score_str)
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise CorpusFormatError(f"{path}:{lineno}: bad score {score_str!r}")
        tag = tag or line_tag
        docs = scored.setdefault(qid, {})
        if docno in docs:
            raise CorpusFormatError(
                f"{path}:{lineno}: repeated docno {docno!r} for qid {qid!r}")
        docs[docno] = score
    return tag, {qid: ranked(docs.items()) for qid, docs in scored.items()}
