import json
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TOY
from genqr.corpus_io import (CorpusFormatError, Document, Topic, atomic_writer,
                             load_corpus, load_qrels, load_topics, ranked, read_run,
                             write_jsonl, write_run)
from genqr.evaluation import precision_at_k


# --- corpus loading ---


def test_jsonl_line_parses(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"docno":"d1","text":"goldfish grow"}\n')
    docs = list(load_corpus(path, "jsonl"))
    assert docs == [Document("d1", "goldfish grow")]


def test_empty_file_empty_stream(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    assert list(load_corpus(path, "jsonl")) == []


def test_tsv_three_rows_in_order(tmp_path):
    rows = [f"d{i}\ttext number {i}" for i in range(3)]
    path = tmp_path / "c.tsv"
    path.write_text("\n".join(rows) + "\n")
    docs = list(load_corpus(path, "tsv"))
    # line-count oracle on the generated fixture
    assert len(docs) == len(rows)
    assert [d.docno for d in docs] == ["d0", "d1", "d2"]


def test_malformed_jsonl_reports_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"docno":"d1","text":"x"}\nnot json\n')
    with pytest.raises(CorpusFormatError, match=":2"):
        list(load_corpus(path, "jsonl"))


def test_duplicate_docno_named(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("d1\ta\nd1\tb\n")
    with pytest.raises(CorpusFormatError, match="d1"):
        list(load_corpus(path, "tsv"))


def test_trec_text_corpus(tmp_path):
    path = tmp_path / "c.trec"
    path.write_text(
        "<DOC>\n<DOCNO> D-1 </DOCNO>\n<TITLE>hello</TITLE>\n"
        "<TEXT>\nbody text here\n</TEXT>\n</DOC>\n"
        "<DOC>\n<DOCNO>D-2</DOCNO>\n<TEXT>second</TEXT>\n</DOC>\n")
    docs = list(load_corpus(path, "trec-text"))
    assert docs[0] == Document("D-1", "body text here")  # the <TITLE> stays out of the text
    assert docs[1] == Document("D-2", "second")


def test_trec_text_bad_record_reports_its_line(tmp_path):
    good = "".join(f"<DOC>\n<DOCNO>D-{i}</DOCNO>\n<TEXT>\nbody {i}\n</TEXT>\n</DOC>\n"
                   for i in range(4))  # 6 lines each
    path = tmp_path / "c.trec"
    path.write_text(good + "\n<DOC>\n<TEXT>no docno</TEXT>\n</DOC>\n")
    with pytest.raises(CorpusFormatError, match=r"c\.trec:26: <DOC> without <DOCNO>"):
        list(load_corpus(path, "trec-text"))


@pytest.mark.parametrize("docno", ["doc 1", "doc\t1", " d1"])
def test_docno_with_whitespace_rejected(tmp_path, docno):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"docno": docno, "text": "x"}) + "\n")
    with pytest.raises(CorpusFormatError, match="contains whitespace"):
        list(load_corpus(path, "jsonl"))


def test_corpus_count_matches_nonblank_lines(tmp_path):
    rng = random.Random(7)
    lines = []
    for i in range(40):
        lines.append(f'{{"docno":"d{i}","text":"{"w" * rng.randint(1, 5)}"}}')
        if rng.random() < 0.3:
            lines.append("")  # blank lines are skipped
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert len(list(load_corpus(path, "jsonl"))) == 40


# --- topics ---


def test_topic_line(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("156493\tdo goldfish grow\n")
    assert load_topics(path, "tsv") == [Topic("156493", "do goldfish grow")]


def test_single_record_topics(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("1\tq\n")
    assert len(load_topics(path, "tsv")) == 1


def test_trec_topic_title_extraction(tmp_path):
    # golden 2-topic fixture, checked by eye then frozen
    path = tmp_path / "t.txt"
    path.write_text(
        "<top>\n<num> Number: 301\n<title> International Organized Crime\n"
        "<desc> Description:\nnot the query\n</top>\n"
        "<top>\n<num>302</num>\n<title>\nPoliosis\n</top>\n")
    topics = load_topics(path, "trec-topic")
    assert topics == [Topic("301", "International Organized Crime"),
                      Topic("302", "Poliosis")]


def test_trec_topic_bad_record_reports_its_line(tmp_path):
    good = "".join(f"<top>\n<num> Number: {i}\n<title> topic {i}\n</top>\n"
                   for i in range(3))  # 4 lines each
    path = tmp_path / "t.txt"
    path.write_text(good + "<top>\n<num> Number: 9\n<title>\n</top>\n")
    with pytest.raises(CorpusFormatError, match=r"t\.txt:13: empty query for qid '9'"):
        load_topics(path, "trec-topic")


def test_qid_with_whitespace_rejected():
    with pytest.raises(CorpusFormatError, match="qid '1 2' contains whitespace"):
        Topic("1 2", "goldfish")


def test_duplicate_qid_rejected(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("1\ta\n1\tb\n")
    with pytest.raises(CorpusFormatError, match="duplicate qid"):
        load_topics(path, "tsv")


def test_empty_query_names_qid(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("77\t   \n")
    with pytest.raises(CorpusFormatError, match="77"):
        load_topics(path, "tsv")


def test_unknown_format_raises_value_error(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"docno": "d1", "text": "a"}\n')
    with pytest.raises(ValueError, match="unknown corpus format 'xml'"):
        list(load_corpus(path, "xml"))
    with pytest.raises(ValueError, match="unknown topics format 'jsonl'"):
        load_topics(path, "jsonl")


# Records whose id Document or Topic rejects, or that repeat an id: every
# reader names the file and the line the record starts on.
_BAD_IDS = [
    (load_corpus, "jsonl", '{"docno": "d1", "text": "x"}\n\n{"docno": "doc 1", "text": "y"}\n',
     "/c:3: docno 'doc 1' contains whitespace"),
    (load_corpus, "tsv", "d1\ta\n\tb\n", "/c:2: document with empty docno"),
    (load_corpus, "tsv", "d1\ta\nd2\tb\nd1\tc\n", "/c:3: duplicate docno 'd1'"),
    (load_corpus, "trec-text",
     "<DOC>\n<DOCNO>D-1</DOCNO>\n</DOC>\n<DOC>\n<DOCNO>D 2</DOCNO>\n</DOC>\n",
     "/c:4: docno 'D 2' contains whitespace"),
    (load_topics, "tsv", "1\tq\n2 3\tr\n", "/c:2: qid '2 3' contains whitespace"),
    (load_topics, "tsv", "1\tq\n\n1\tr\n", "/c:3: duplicate qid '1'"),
    (load_topics, "trec-topic",
     "<top>\n<num> Number: 1\n<title> q\n</top>\n<top>\n<num> Number: 2 3\n<title> r\n</top>\n",
     "/c:5: qid '2 3' contains whitespace"),
]


@pytest.mark.parametrize("load,format,text,match", _BAD_IDS,
                         ids=[f"{load.__name__}-{fmt}-{i}"
                              for i, (load, fmt, _, _) in enumerate(_BAD_IDS)])
def test_bad_record_id_names_its_line(tmp_path, load, format, text, match):
    path = tmp_path / "c"
    path.write_text(text)
    with pytest.raises(CorpusFormatError, match=match):
        list(load(path, format))


@pytest.mark.parametrize("load, text, match", [
    (load_topics, "1\tq\n2 r\n", r"/c:2: expected qid<TAB>query$"),
    (load_qrels, "1 0 d7 2\n1 0 d8 -1\n", r"/c:2: negative grade -1$"),
], ids=["topics-tsv-without-a-tab", "qrels-negative-grade"])
def test_a_malformed_line_names_its_line(tmp_path, load, text, match):
    path = tmp_path / "c"
    path.write_text(text)
    with pytest.raises(CorpusFormatError, match=match):
        load(path)


def _read_corpus(fmt):
    return lambda path: list(load_corpus(path, fmt))


def _read_topics(fmt):
    return lambda path: load_topics(path, fmt)


# One byte that is not UTF-8 (Latin-1 e-acute, or 0xff) per reader family;
# the line before it ends in \r\n, \r or \n, as text mode counts lines.
_NOT_UTF8 = [
    ("corpus-jsonl", _read_corpus("jsonl"),
     b'{"docno": "d0", "text": "ok"}\r\n\n{"docno": "d1", "text": "caf\xe9"}\n', 3),
    ("corpus-tsv", _read_corpus("tsv"), b"d0\tok\rd1\tcaf\xe9\n", 2),
    ("corpus-trec-text", _read_corpus("trec-text"),
     b"<DOC>\n<DOCNO>d1</DOCNO>\n<TEXT>caf\xe9</TEXT>\n</DOC>\n", 3),
    ("topics-tsv", _read_topics("tsv"), b"1\tgoldfish\n2\tcaf\xe9\n", 2),
    ("topics-trec-topic", _read_topics("trec-topic"),
     b"<top>\n<num> Number: 1\n<title> caf\xe9\n</top>\n", 3),
    ("qrels", load_qrels, b"1 0 d1 1\n1 0 d\xff 0\n", 2),
    ("runs", read_run, b"1 Q0 d1 1 1.0 t\n1 Q0 d2 2 0.5 t\xff\n", 2),
]


@pytest.mark.parametrize("read,data,lineno", [row[1:] for row in _NOT_UTF8],
                         ids=[row[0] for row in _NOT_UTF8])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, read, data, lineno):
    path = tmp_path / "in"
    path.write_bytes(data)
    with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:{lineno}: not UTF-8$"):
        read(path)


def test_a_bad_byte_past_the_first_read_chunk_names_its_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"".join(b'{"docno": "d%d", "text": "x"}\n' % i for i in range(5000))
                     + b'{"docno": "bad", "text": "\xe9"}\n')
    with pytest.raises(CorpusFormatError, match=r":5001: not UTF-8$"):
        list(load_corpus(path))


# --- qrels ---


def test_qrels_line(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("1 0 d7 2\n")
    qrels = load_qrels(path)
    assert list(qrels) == ["1"]
    assert qrels["1"] == {"d7": 2}


def test_qrels_unlisted_pair_is_zero(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("1 0 d7 2\n")
    qrels = load_qrels(path)
    assert "nope" not in qrels["1"]
    assert "9" not in qrels


def test_qrels_repeated_pair_rejected(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("1 0 d7 2\n1 0 d7 1\n")
    with pytest.raises(CorpusFormatError, match="repeated"):
        load_qrels(path)


def test_qrels_non_integer_grade_reports_line(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("1 0 d7 2\n1 0 d8 x\n")
    with pytest.raises(CorpusFormatError, match=":2"):
        load_qrels(path)


def test_qrels_hundred_lines(tmp_path):
    lines = [f"{q} 0 d{i} {i % 4}" for q in range(10) for i in range(10)]
    path = tmp_path / "q.txt"
    path.write_text("\n".join(lines) + "\n")
    qrels = load_qrels(path)
    assert sum(len(grades) for grades in qrels.values()) == 100  # line-count oracle


# --- runs ---


def test_run_line_format(tmp_path):
    run = {"1": [("d5", 2.5)]}
    path = tmp_path / "r.run"
    write_run(run, path, "bm25")
    assert path.read_text() == "1 Q0 d5 1 2.500000 bm25\n"


def test_empty_run_empty_file(tmp_path):
    path = tmp_path / "r.run"
    write_run({}, path, "t")
    assert path.read_text() == ""
    assert read_run(path) == (None, {})


def test_read_run_resorts_and_reranks(tmp_path):
    path = tmp_path / "r.run"
    path.write_text("1 Q0 low 1 1.000000 t\n1 Q0 hi 2 9.000000 t\n")
    tag, run = read_run(path)
    assert [d for d, _ in run["1"]] == ["hi", "low"]
    out = tmp_path / "out.run"  # the rank column is not read: ranks follow the new order
    write_run(run, out, tag)
    assert out.read_text() == "1 Q0 hi 1 9.000000 t\n1 Q0 low 2 1.000000 t\n"


def test_read_run_bad_columns_reports_line(tmp_path):
    path = tmp_path / "r.run"
    path.write_text("1 Q0 d1 1 0.5 t\n1 Q0 d2 2 0.4\n")
    with pytest.raises(CorpusFormatError, match=":2"):
        read_run(path)


def test_read_run_repeated_docno_rejected(tmp_path):
    path = tmp_path / "r.run"
    path.write_text("1 Q0 d1 1 2.000000 t\n2 Q0 d1 1 2.000000 t\n1 Q0 d1 2 1.000000 t\n")
    with pytest.raises(CorpusFormatError, match=r"r\.run:3: repeated docno 'd1' for qid '1'"):
        read_run(path)


@pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN"])
def test_read_run_rejects_a_non_finite_score(tmp_path, score):
    """A NaN compares false with every score, so its rank would depend on
    the order of the file's lines."""
    path = tmp_path / "r.run"
    path.write_text(f"1 Q0 d1 1 2.0 t\n1 Q0 d2 2 {score} t\n1 Q0 d3 3 1.0 t\n")
    with pytest.raises(CorpusFormatError, match=f"r.run:2: bad score '{score}'"):
        read_run(path)


@pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")])
def test_write_run_rejects_a_non_finite_score(tmp_path, score):
    run = {"1": [("a", 2.0), ("b", score)]}
    with pytest.raises(CorpusFormatError, match=f"qid 1: non-finite score {score} at rank 2"):
        write_run(run, tmp_path / "r.run", "t")
    assert not (tmp_path / "r.run").exists()


def test_read_run_two_queries(tmp_path):
    path = tmp_path / "r.run"
    path.write_text("1 Q0 a 1 2.000000 t\n2 Q0 b 1 1.000000 t\n")
    _, run = read_run(path)
    assert list(run) == ["1", "2"]


def test_read_run_names_a_file_by_its_first_tag(tmp_path):
    path = tmp_path / "r.run"
    path.write_text("\n2 Q0 b 1 1.000000 first\n1 Q0 a 1 2.000000 second\n")
    tag, run = read_run(path)
    assert tag == "first"
    assert list(run) == ["2", "1"]


def test_tie_scores_broken_by_docno():
    ranking = ranked([("z", 1.0), ("a", 1.0), ("m", 2.0)])
    assert [d for d, _ in ranking] == ["m", "a", "z"]


def test_write_read_roundtrip_randomized(tmp_path):
    rng = random.Random(1234)
    for trial in range(25):
        run = {}
        for qid in range(rng.randint(1, 4)):
            docnos = rng.sample([f"doc{i}" for i in range(30)], rng.randint(1, 10))
            scored = [(d, rng.randint(0, 10_000_000) / 1e6) for d in docnos]
            run[str(qid)] = ranked(scored)
        path = tmp_path / f"r{trial}.run"
        write_run(run, path, f"t{trial}")
        assert read_run(path) == (f"t{trial}", run)


# Run-file fields: any non-empty text without whitespace, line breaks or
# surrogates, since lines split on whitespace and files are UTF-8.
_FIELD = st.text(st.characters(exclude_categories=["Z", "Cc", "Cs"]), min_size=1, max_size=8)
# Scores that survive the 6-decimal text form exactly, ties included.
_SCORE = st.integers(-10**12, 10**12).map(lambda i: i / 1e6)


@settings(max_examples=100, deadline=None)
@given(tag=_FIELD, runs=st.dictionaries(
    _FIELD, st.dictionaries(_FIELD, _SCORE, min_size=1, max_size=6), max_size=4))
def test_write_read_roundtrip_property(tmp_path_factory, tag, runs):
    expected = {qid: ranked(scored.items()) for qid, scored in runs.items()}
    path = tmp_path_factory.mktemp("rt") / "r.run"
    write_run(expected, path, tag)
    assert read_run(path) == (tag if expected else None, expected)


def test_write_run_validates_invariants(tmp_path):
    bad = {"1": [("a", 1.0), ("a", 0.5)]}
    with pytest.raises(CorpusFormatError, match="duplicate docno"):
        write_run(bad, tmp_path / "r.run", "t")
    increasing = {"1": [("a", 1.0), ("b", 2.0)]}
    with pytest.raises(CorpusFormatError, match="increase"):
        write_run(increasing, tmp_path / "r.run", "t")


def test_atomic_writer_keeps_previous_file_on_error(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("previous\n")
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_writer(path) as f:
            f.write("partial")
            raise RuntimeError("midway")
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class _InterruptingScore(float):
    def __format__(self, spec):
        raise KeyboardInterrupt


def test_interrupted_write_run_keeps_previous_run(tmp_path):
    path = tmp_path / "r.run"
    write_run({"9": [("z", 3.0)]}, path, "old")
    before = path.read_bytes()
    # the second query's line raises after the first query's lines are written
    run = {"1": [("a", 2.0), ("b", 1.0)], "2": [("c", _InterruptingScore(1.0))]}
    with pytest.raises(KeyboardInterrupt):
        write_run(run, path, "t")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["r.run"]


def test_interrupted_write_jsonl_keeps_previous_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl([{"qid": "old"}], path)
    before = path.read_bytes()

    def rows():
        yield {"qid": "1"}
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_jsonl(rows(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


def test_qrels_relevant_filter(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("1 0 a 3\n1 0 b 1\n1 0 c 0\n")
    qrels = load_qrels(path)

    def relevant(min_rel):  # the docs a binary metric counts as hits at min_rel
        return {d for d in "abc"
                if precision_at_k([(d, 1.0)], qrels["1"], 1, min_rel=min_rel) == 1.0}

    assert relevant(1) == {"a", "b"}
    assert relevant(2) == {"a"}
    assert qrels["1"] == {"a": 3, "b": 1, "c": 0}


# --- byte mutation ---


def _toy_inputs():
    """Each reader's input, made from the toy corpus, topics and qrels."""
    docs = list(load_corpus(TOY / "corpus.jsonl"))
    topics = load_topics(TOY / "topics.tsv")
    qrels = (TOY / "qrels.txt").read_text(encoding="utf-8")
    run = "".join(f"{qid} Q0 {docno} {rank} {1.0 / rank:.6f} toy\n"
                  for rank, (qid, _, docno, _) in enumerate(
                      (line.split() for line in qrels.splitlines()), start=1))
    return {
        "corpus-jsonl": (_read_corpus("jsonl"), (TOY / "corpus.jsonl").read_text("utf-8")),
        "corpus-tsv": (_read_corpus("tsv"), "".join(f"{d.docno}\t{d.text}\n" for d in docs)),
        "corpus-trec-text": (_read_corpus("trec-text"), "".join(
            f"<DOC>\n<DOCNO>{d.docno}</DOCNO>\n<TEXT>\n{d.text}\n</TEXT>\n</DOC>\n"
            for d in docs)),
        "topics-tsv": (_read_topics("tsv"), (TOY / "topics.tsv").read_text("utf-8")),
        "topics-trec-topic": (_read_topics("trec-topic"), "".join(
            f"<top>\n<num> Number: {t.qid}\n<title> {t.query}\n</top>\n" for t in topics)),
        "qrels": (load_qrels, qrels),
        "runs": (read_run, run),
    }


_TOY_INPUTS = _toy_inputs()
# A byte replaced, inserted or deleted; its position is taken modulo the length.
_BYTE_EDIT = st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                       st.integers(0, 2**16), st.integers(0, 255))


@pytest.mark.parametrize("name", sorted(_TOY_INPUTS))
@settings(max_examples=150, deadline=None)
@given(edits=st.lists(_BYTE_EDIT, min_size=1, max_size=3))
def test_a_mutated_input_parses_or_fails_typed(name, edits):
    """After 1-3 byte edits a toy input either parses, or raises
    CorpusFormatError naming the file and a line; no other exception escapes."""
    read, text = _TOY_INPUTS[name]
    data = bytearray(text.encode("utf-8"))
    for kind, at, byte in edits:
        at %= len(data) + (kind == "insert")
        if kind == "replace":
            data[at] = byte
        elif kind == "insert":
            data.insert(at, byte)
        else:
            del data[at]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in"
        path.write_bytes(data)
        try:
            read(path)
        except CorpusFormatError as e:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(e)), str(e)
