import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genqr.corpus_io import (CorpusFormatError, Document, Qrels, RunEntry,
                             RunList, Topic, atomic_writer, load_corpus,
                             load_qrels, load_topics, read_run, write_run)


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
    assert docs[0] == Document("D-1", "body text here", title="hello")
    assert docs[1] == Document("D-2", "second")


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


# --- qrels ---


def test_qrels_line(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("1 0 d7 2\n")
    qrels = load_qrels(path)
    assert qrels.grade("1", "d7") == 2


def test_qrels_unlisted_pair_is_zero(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("1 0 d7 2\n")
    qrels = load_qrels(path)
    assert qrels.grade("1", "nope") == 0
    assert qrels.grade("9", "d7") == 0


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
    assert len(load_qrels(path)) == 100  # line-count oracle


# --- runs ---


def test_run_line_format(tmp_path):
    run = RunList(qid="1", entries=[RunEntry("d5", 1, 2.5)], tag="bm25")
    path = tmp_path / "r.run"
    write_run([run], path)
    assert path.read_text() == "1 Q0 d5 1 2.500000 bm25\n"


def test_empty_run_empty_file(tmp_path):
    path = tmp_path / "r.run"
    write_run([], path)
    assert path.read_text() == ""


def test_read_run_resorts_and_reranks(tmp_path):
    path = tmp_path / "r.run"
    path.write_text("1 Q0 low 1 1.000000 t\n1 Q0 hi 2 9.000000 t\n")
    (run,) = read_run(path)
    assert [e.docno for e in run.entries] == ["hi", "low"]
    assert [e.rank for e in run.entries] == [1, 2]


def test_read_run_bad_columns_reports_line(tmp_path):
    path = tmp_path / "r.run"
    path.write_text("1 Q0 d1 1 0.5 t\n1 Q0 d2 2 0.4\n")
    with pytest.raises(CorpusFormatError, match=":2"):
        read_run(path)


def test_read_run_two_queries(tmp_path):
    path = tmp_path / "r.run"
    path.write_text("1 Q0 a 1 2.000000 t\n2 Q0 b 1 1.000000 t\n")
    runs = read_run(path)
    assert [r.qid for r in runs] == ["1", "2"]


def test_tie_scores_broken_by_docno():
    run = RunList.from_scores("1", [("z", 1.0), ("a", 1.0), ("m", 2.0)], "t")
    assert [e.docno for e in run.entries] == ["m", "a", "z"]


def test_write_read_roundtrip_randomized(tmp_path):
    rng = random.Random(1234)
    for trial in range(25):
        runs = []
        for qid in range(rng.randint(1, 4)):
            docnos = rng.sample([f"doc{i}" for i in range(30)], rng.randint(1, 10))
            scored = [(d, rng.randint(0, 10_000_000) / 1e6) for d in docnos]
            runs.append(RunList.from_scores(str(qid), scored, tag=f"t{trial}"))
        path = tmp_path / f"r{trial}.run"
        write_run(runs, path)
        assert read_run(path) == runs


# Run-file fields: any non-empty text without whitespace, line breaks or
# surrogates, since lines split on whitespace and files are UTF-8.
_FIELD = st.text(st.characters(exclude_categories=["Z", "Cc", "Cs"]), min_size=1, max_size=8)
# Scores that survive the 6-decimal text form exactly, ties included.
_SCORE = st.integers(-10**12, 10**12).map(lambda i: i / 1e6)


@settings(max_examples=100, deadline=None)
@given(runs=st.dictionaries(
    _FIELD, st.tuples(_FIELD, st.dictionaries(_FIELD, _SCORE, min_size=1, max_size=6)),
    max_size=4))
def test_write_read_roundtrip_property(tmp_path_factory, runs):
    expected = [RunList.from_scores(qid, scored.items(), tag)
                for qid, (tag, scored) in runs.items()]
    path = tmp_path_factory.mktemp("rt") / "r.run"
    write_run(expected, path)
    assert read_run(path) == expected


def test_write_run_validates_invariants(tmp_path):
    bad = RunList(qid="1", entries=[RunEntry("a", 1, 1.0), RunEntry("a", 2, 0.5)], tag="t")
    with pytest.raises(CorpusFormatError, match="duplicate docno"):
        write_run([bad], tmp_path / "r.run")
    increasing = RunList(qid="1", entries=[RunEntry("a", 1, 1.0), RunEntry("b", 2, 2.0)], tag="t")
    with pytest.raises(CorpusFormatError, match="increase"):
        write_run([increasing], tmp_path / "r.run")


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
    write_run([RunList(qid="9", entries=[RunEntry("z", 1, 3.0)], tag="old")], path)
    before = path.read_bytes()
    # the second query's line raises after the first query's lines are written
    first = RunList(qid="1", entries=[RunEntry("a", 1, 2.0), RunEntry("b", 2, 1.0)], tag="t")
    second = RunList(qid="2", entries=[RunEntry("c", 1, _InterruptingScore(1.0))], tag="t")
    with pytest.raises(KeyboardInterrupt):
        write_run([first, second], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["r.run"]


def test_qrels_relevant_filter():
    qrels = Qrels({("1", "a"): 3, ("1", "b"): 1, ("1", "c"): 0})
    assert qrels.relevant("1") == {"a": 3, "b": 1}
    assert qrels.relevant("1", min_rel=2) == {"a": 3}
    assert qrels.judged("1") == {"a": 3, "b": 1, "c": 0}
