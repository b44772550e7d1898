import json
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import genqr
from genqr.analysis import Analyzer
from genqr import cli
from genqr.cli import _QueryRunner, cmd_run
from genqr.config import ConfigError
from genqr.corpus_io import Document, Topic, load_topics, read_run
from genqr.index import DegenerateQueryError, WeightedQuery, build_index
from genqr.llm import (Backend, GenRequest, Generator, HttpBackend, ReplayBackend,
                       ResponseCache, StubBackend, cache_key)
from genqr.reformulate import (InstructionSet, ReformulationConfig,
                               ReformulationError, build_context, fuse,
                               paraphrase_instructions, parse_paraphrase_list,
                               query_prompts, query_record, reformulate_query)

from conftest import file_size_limit

TOY = genqr.data_path("toy")
GOLDFISH = Topic("156493", "do goldfish grow")
THESAURUS = {"goldfish": ["carp", "fishbowl", "koi"],
             "grow": ["size", "length", "bigger"],
             "breweries": ["brewery", "taproom", "beer"],
             "austin": ["texas"]}


class SpyBackend(Backend):
    """Records prompts; returns a fixed completion."""

    def __init__(self, reply="kw"):
        super().__init__()
        self.prompts = []
        self.reply = reply

    def identity(self):
        return "spy"

    def _generate(self, request: GenRequest) -> str:
        self.prompts.append(request.prompt)
        return self.reply


def replay_backend():
    return ReplayBackend(genqr.data_path("replay", "goldfish.jsonl"))


def analysed(query, qid="1"):
    """`query` as the pipeline analyses it."""
    return WeightedQuery.from_terms(qid, Analyzer().analyze(query))


def ensemble(backend, instructions, topic, config, cache=None, context=None):
    """`reformulate_query` over the first `config.n` instructions of a set:
    (fused query, keywords)."""
    prompts = query_prompts(topic.query, instructions.all()[: config.n], context,
                            config.prompt_template)
    return reformulate_query(analysed(topic.query, topic.qid),
                             Generator(backend, cache).generate(prompts), config, Analyzer())


def run_topics(runner, *topics):
    """`runner`'s (ranking, reformulations row) for each topic."""
    steps = [runner.prepare(topic) for topic in topics]
    return [runner(step, runner.generator.generate(step.prompts) if runner.generator else ())
            for step in steps]


# --- instruction sets ---


def test_default_set_has_ten_instructions():
    iset = InstructionSet.default()
    assert iset.n == 10
    assert iset.base == ("Improve the search effectiveness by suggesting "
                         "expansion terms for the query")


def test_instruction_set_validation():
    with pytest.raises(ValueError, match="distinct"):
        InstructionSet(base="x", paraphrases=("x",))
    with pytest.raises(ValueError, match="non-empty"):
        InstructionSet(base=" ")


def test_instruction_set_save_load(tmp_path):
    iset = InstructionSet(base="alpha", paraphrases=("beta", "gamma"))
    iset.save(tmp_path / "i.txt")
    assert InstructionSet.load(tmp_path / "i.txt") == iset


def test_interrupted_instruction_set_save_keeps_previous_file(tmp_path):
    path = tmp_path / "i.txt"
    InstructionSet(base="old").save(path)
    with pytest.raises(OSError), file_size_limit(8):  # a disk that fills mid-write
        InstructionSet(base="alpha", paraphrases=("beta", "gamma")).save(path)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["i.txt"]


# --- paraphrasing ---


def test_count_one_no_backend_call():
    spy = SpyBackend()
    iset = paraphrase_instructions(Generator(spy), "base instruction", count=1)
    assert iset.all() == ["base instruction"]
    assert spy.calls == 0


def test_parse_paraphrase_list_formats():
    text = "1. First one\n2) Second one\n- Third one\nFourth one\n\n1. First one\n"
    assert parse_paraphrase_list(text) == \
        ["First one", "Second one", "Third one", "Fourth one"]


def test_replay_paraphrases_match_bundled_set():
    iset = paraphrase_instructions(Generator(replay_backend()),
                                   InstructionSet.default().base, count=10)
    assert iset == InstructionSet.default()
    assert ("Recommend expansion terms for the query to improve search results"
            in iset.all())


def test_too_few_paraphrases_reported():
    spy = SpyBackend(reply="1. only one paraphrase")
    with pytest.raises(ReformulationError, match="found 1"):
        paraphrase_instructions(Generator(spy), "base", count=5)


def test_stub_paraphrase_determinism():
    # not a meaningful paraphraser, but a stable one: frozen output check
    stub = StubBackend(THESAURUS, seed=13, n_terms=4)
    prompt_words = "goldfish grow"
    first = stub.generate(GenRequest(prompt=f"anything {prompt_words}"))
    again = stub.generate(GenRequest(prompt=f"anything {prompt_words}"))
    assert first == again != ""


# --- keyword generation ---


def test_generate_keywords_instruction_8():
    iset = InstructionSet(base=InstructionSet.default().all()[7])
    _, (out,) = ensemble(replay_backend(), iset, GOLDFISH, ReformulationConfig(n=1))
    assert out == "age goldfish grow outsmart outlive ageing species"


def test_generate_keywords_instruction_10():
    iset = InstructionSet(base=InstructionSet.default().all()[9])
    _, (out,) = ensemble(replay_backend(), iset, GOLDFISH, ReformulationConfig(n=1))
    assert out.startswith("Goldfish breed sizes What kind of goldfish grows")


def test_prompt_template():
    assert query_prompts("do goldfish grow", ["Suggest terms"], None) == \
        ["Suggest terms: do goldfish grow"]


# --- fusion ---


def test_fuse_empty_keywords_identity():
    fused = fuse(analysed("do goldfish grow"), [[], [], []],
                 ReformulationConfig(n=3))
    assert dict(fused.terms) == {"do": 1.0, "goldfish": 1.0, "grow": 1.0}


def test_fuse_occurrence_counts():
    fused = fuse(analysed("a b"), [["c", "c"], ["b"]],
                 ReformulationConfig(n=2, beta=1.0, dedup=False))
    assert dict(fused.terms) == {"a": 1.0, "b": 2.0, "c": 2.0}


def test_fuse_beta_scales_expansions():
    fused = fuse(analysed("a"), [["b", "b"]],
                 ReformulationConfig(n=1, beta=0.05))
    assert dict(fused.terms) == pytest.approx({"a": 1.0, "b": 0.1})


def test_fuse_beta_zero_keeps_original_weights():
    fused = fuse(analysed("a b"), [["c", "d"]],
                 ReformulationConfig(n=1, beta=0.0))
    weights = dict(fused.terms)
    assert weights["a"] == weights["b"] == 1.0
    assert weights["c"] == weights["d"] == 0.0


def test_fuse_dedup_permutation_invariant():
    cfg = ReformulationConfig(n=3, dedup=True)
    a = fuse(analysed("q"), [["x", "y"], ["y", "z"], ["z", "x"]], cfg)
    b = fuse(analysed("q"), [["z", "x"], ["x", "y"], ["y", "z"]], cfg)
    assert dict(a.terms) == dict(b.terms)
    assert dict(a.terms)["x"] == 1.0  # collapsed to one occurrence


def test_fuse_multiplicity_preserved_without_dedup():
    cfg = ReformulationConfig(n=3, dedup=False)
    fused = fuse(analysed("q"), [["x"], ["x"], ["x"]], cfg)
    assert dict(fused.terms)["x"] == 3.0


def test_fuse_degenerate_rejected():
    """A fused query with no positive weight (no keyword, or beta 0) is
    built, and `retrieve`, the one check of every method's query, rejects it."""
    index = build_index([Document("d1", "carp koi")], Analyzer())
    for responses, beta in [(["", "..."], 1.0), (["carp koi"], 0.0)]:
        fused, _ = reformulate_query(analysed("...", qid="7"), responses,
                                     ReformulationConfig(n=len(responses), beta=beta),
                                     Analyzer())
        assert not any(w > 0 for _, w in fused.terms)
        with pytest.raises(DegenerateQueryError,
                           match="^degenerate query '7': no positive-weight term$"):
            index.retrieve(fused, k=10)


_FUSE_TOKENS = st.lists(st.sampled_from("abcdexyzq"), max_size=6)
_FUSE_QUERIES = st.lists(st.sampled_from("abcdq"), min_size=1, max_size=5).map(" ".join)
_FUSE_EXPANSIONS = st.lists(_FUSE_TOKENS, max_size=6)


@settings(deadline=None)
@given(query=_FUSE_QUERIES, expansions=_FUSE_EXPANSIONS, seed=st.integers(0, 2**32),
       beta=st.sampled_from([0.0, 0.05, 0.5, 1.0, 3.0]))
@example(query="q", expansions=[["x", "y"], ["y", "z"], ["z", "x"]], seed=1, beta=1.0)
def test_fuse_dedup_permutation_invariant_property(query, expansions, seed, beta):
    cfg = ReformulationConfig(beta=beta, dedup=True)
    rng = random.Random(seed)
    shuffled = [rng.sample(tokens, len(tokens)) for tokens in expansions]
    rng.shuffle(shuffled)
    a = fuse(analysed(query), expansions, cfg)
    b = fuse(analysed(query), shuffled, cfg)
    assert dict(a.terms) == dict(b.terms)
    original = Counter(Analyzer().analyze(query))
    for term in {t for tokens in expansions for t in tokens}:  # one beta per distinct term
        assert dict(a.terms)[term] == pytest.approx(original[term] + beta)


@settings(deadline=None)
@given(query=_FUSE_QUERIES, expansions=_FUSE_EXPANSIONS, dedup=st.booleans())
@example(query="a b", expansions=[["c", "d"]], dedup=False)
def test_fuse_beta_zero_keeps_original_weights_property(query, expansions, dedup):
    fused = fuse(analysed(query), expansions, ReformulationConfig(beta=0.0, dedup=dedup))
    original = Counter(Analyzer().analyze(query))
    expanded = {t for tokens in expansions for t in tokens}
    assert dict(fused.terms) == {t: float(original[t]) for t in original.keys() | expanded}


@settings(deadline=None)
@given(query=_FUSE_QUERIES, expansions=_FUSE_EXPANSIONS,
       beta=st.floats(0.0, 10.0, allow_nan=False))
@example(query="a b", expansions=[["c", "c"], ["b"]], beta=1.0)
@example(query="a", expansions=[["b", "b"]], beta=0.05)
@example(query="q", expansions=[["x"], ["x"], ["x"]], beta=1.0)
@example(query="do goldfish grow", expansions=[[], [], []], beta=1.0)
def test_fuse_total_weight_without_dedup_property(query, expansions, beta):
    fused = fuse(analysed(query), expansions, ReformulationConfig(beta=beta))
    expected = len(Analyzer().analyze(query)) + beta * sum(map(len, expansions))
    assert sum(w for _, w in fused.terms) == pytest.approx(expected, rel=1e-12)


# --- ensembles ---


def test_n1_matches_flanqr_exactly(toy_cfg, toy_index):
    ensemble_runner = _QueryRunner(toy_cfg("genqrensemble", tag="same",
                                           reformulation={"n": 1}), toy_index)
    flanqr_runner = _QueryRunner(toy_cfg("flanqr", tag="same"), toy_index)
    assert flanqr_runner.instructions == [InstructionSet.default().base]
    topics = [Topic(str(i), f"trial {i} goldfish grow") for i in range(50)]
    assert run_topics(ensemble_runner, *topics) == run_topics(flanqr_runner, *topics)


def test_ensemble_call_counts_cold_and_warm(tmp_path):
    stub = StubBackend(THESAURUS, seed=5, n_terms=3)
    cache = ResponseCache(tmp_path / "cache")
    iset = InstructionSet(base="one goldfish", paraphrases=("two goldfish", "three goldfish"))
    cfg = ReformulationConfig(n=3)
    ensemble(stub, iset, GOLDFISH, cfg, cache=cache)
    assert stub.calls == 3
    ensemble(stub, iset, GOLDFISH, cfg, cache=cache)
    assert stub.calls == 3  # warm cache: zero backend calls


def test_replay_ensemble_covers_both_expansion_families():
    fused, _ = ensemble(replay_backend(), InstructionSet.default(), GOLDFISH,
                        ReformulationConfig(n=10))
    terms = dict(fused.terms)
    for token in ("age", "goldfish", "grow", "outsmart", "outlive"):
        assert token in terms
    assert "breed" in terms
    # original terms keep their unit occurrence weight plus expansions
    assert terms["do"] >= 1.0


def test_failed_instruction_names_index():
    iset = InstructionSet(base="known goldfish", paraphrases=("unrecorded prompt",))
    spy = replay_backend()  # transcript lacks these prompts
    with pytest.raises(ReformulationError, match="instruction 1"):
        ensemble(spy, iset, GOLDFISH, ReformulationConfig(n=2))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(delays_ms=st.lists(st.integers(0, 30), min_size=10, max_size=10))
@example(delays_ms=list(range(30, 0, -3)))  # replies in reverse instruction order
def test_http_fanout_matches_sequential_stub(canned, delays_ms):
    canned.reset()
    iset = InstructionSet.default()
    prompts = query_prompts(GOLDFISH.query, iset.all(), None)
    server_stub = StubBackend(THESAURUS, seed=5, n_terms=3)
    canned.reply = lambda prompt: server_stub.generate(GenRequest(prompt=prompt))
    canned.delay = dict(zip(prompts, (d / 1000 for d in delays_ms))).__getitem__
    stub = StubBackend(THESAURUS, seed=5, n_terms=3)
    http = HttpBackend(canned.url, model="toy", completion_field="choices.0.text")
    cfg = ReformulationConfig(n=10)
    got = ensemble(http, iset, GOLDFISH, cfg)
    want = ensemble(stub, iset, GOLDFISH, cfg)
    assert got[1] == tuple(stub.generate(GenRequest(prompt=p)) for p in prompts)
    assert got == want


def test_http_failed_instruction_named_and_rest_cached(canned, tmp_path):
    iset = InstructionSet.default()
    prompts = query_prompts(GOLDFISH.query, iset.all(), None)
    canned.fail_prompts = {prompts[3]: 400}
    http = HttpBackend(canned.url, model="toy", completion_field="choices.0.text",
                       max_in_flight=2)
    cache = ResponseCache(tmp_path / "cache")
    with pytest.raises(ReformulationError, match="instruction 4 generation failed"):
        ensemble(http, iset, GOLDFISH, ReformulationConfig(n=10), cache=cache)
    assert len(canned.payloads) == 10  # the 400 is not retried
    for i, prompt in enumerate(prompts):
        cached = cache.get(cache_key(http, GenRequest(prompt=prompt)))
        assert cached == (None if i == 3 else f"echo {prompt}")


def http_backend(canned, max_in_flight=4):
    return {"kind": "http", "url": canned.url, "model": "toy",
            "completion_field": "choices.0.text", "max_in_flight": max_in_flight}


def test_run_requests_overlap_across_topics(canned, toy_cfg, toy_index):
    canned.delay = lambda prompt: 0.01
    _, _, failures = cmd_run(toy_cfg("flanqr", backend=http_backend(canned, 2)))
    assert failures == 0
    assert len(canned.payloads) == 10  # topics x N, N=1
    assert canned.peak_in_flight == 2


def test_lenient_generation_failure_fails_only_its_topic(canned, toy_cfg, toy_index,
                                                          tmp_path):
    iset = InstructionSet.default()
    topic = load_topics(TOY / "topics.tsv")[3]
    canned.fail_prompts = {query_prompts(topic.query, iset.all()[:3], None)[1]: 400}
    sections = {"reformulation": {"n": 3}, "backend": http_backend(canned)}
    failing = toy_cfg("genqrensemble", tag="failing", cache_dir=str(tmp_path / "c1"),
                      **sections)
    run_path, _, failed = cmd_run(failing, lenient=True)
    canned.fail_prompts = {}
    clean_path, _, _ = cmd_run(toy_cfg("genqrensemble", tag="clean",
                                       cache_dir=str(tmp_path / "c2"), **sections))
    assert failed == 1
    row, = map(json.loads, (run_path.parent / "failing.failures.jsonl").read_text().splitlines())
    assert row["qid"] == topic.qid
    assert row["error"].startswith(f"qid {topic.qid}: instruction 2 generation failed")
    entries = read_run(run_path)[1]
    clean = read_run(clean_path)[1]
    assert topic.qid not in entries
    assert entries == {qid: e for qid, e in clean.items() if qid != topic.qid}


def test_strict_run_raises_the_first_failing_topic(canned, toy_cfg, toy_index, tmp_path):
    topics = tmp_path / "topics.tsv"
    topics.write_text("1\tdo goldfish grow\n2\tgoldfish tank\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("2 0 d999 1\n")  # qid 2 fails before generation: d999 is no toy doc
    canned.fail_first, canned.fail_status = 100, 400  # qid 1 fails in it
    cfg = toy_cfg("flanprf", topics=str(topics), backend=http_backend(canned),
                  feedback_mode="oracle", qrels=str(qrels))
    with pytest.raises(ReformulationError, match="qid 1: instruction 1 generation failed"):
        cmd_run(cfg)


def test_topics_with_one_query_text_share_a_backend_call(canned, toy_cfg, toy_index,
                                                         tmp_path):
    topics = tmp_path / "topics.tsv"
    topics.write_text("1\tdo goldfish grow\n2\tdo goldfish grow\n")
    # No cache, so only the shared batch can answer both topics with one call.
    run_path, _, failures = cmd_run(toy_cfg("flanqr", topics=str(topics), cache_dir=None,
                                            backend=http_backend(canned)))
    assert failures == 0
    assert len(canned.payloads) == 1
    first, second = read_run(run_path)[1].values()
    assert first == second


def test_each_chunk_makes_one_generate_call(toy_cfg, toy_index, monkeypatch):
    whole = cmd_run(toy_cfg("genqrensemble_rf", tag="chunked", cache_dir=None))
    outputs = [path.read_bytes() for path in whole[:2]]
    calls = []
    generate = Generator.generate

    def counting(self, prompts):
        calls.append(len(prompts))
        return generate(self, prompts)

    monkeypatch.setattr(Generator, "generate", counting)
    monkeypatch.setattr(cli, "RUN_CHUNK_TOPICS", 4)
    chunked = cmd_run(toy_cfg("genqrensemble_rf", tag="chunked", cache_dir=None))
    assert calls == [40, 40, 20]  # 10 topics in chunks of 4, N=10
    assert [path.read_bytes() for path in chunked[:2]] == outputs


def test_n_exceeding_set_rejected(toy_cfg, tmp_path):
    InstructionSet(base="only one").save(tmp_path / "one.txt")
    sections = {"instructions": str(tmp_path / "one.txt"), "reformulation": {"n": 5}}
    for method in ("genqrensemble", "genqrensemble_rf"):
        with pytest.raises(ConfigError, match="reformulation.n=5 exceeds the 1-instruction set"):
            toy_cfg(method, **sections)
    for method in ("raw", "flanqr", "flanprf"):  # these ignore n
        assert toy_cfg(method, **sections).instructions.n == 1


# --- RF variant ---


@pytest.mark.parametrize("plain_method,feedback_method", [
    ("genqrensemble", "genqrensemble_rf"), ("raw", "rm3"),
], ids=["genqrensemble_rf", "rm3"])
def test_rf_empty_feedback_degenerates(toy_cfg, toy_index, plain_method, feedback_method):
    sections = {"reformulation": {"n": 4}}
    plain_runner = _QueryRunner(toy_cfg(plain_method, tag="same", **sections), toy_index)
    # fb_docs=0 asks for no feedback; a query that matches no document finds none
    for m, topic in ((0, GOLDFISH), (5, Topic("1", "zzyzx qwvk"))):
        feedback_runner = _QueryRunner(toy_cfg(feedback_method, tag="same", fb_docs=m,
                                               **sections), toy_index)
        assert run_topics(plain_runner, topic) == run_topics(feedback_runner, topic)


def test_oracle_feedback_without_relevant_docs_runs_plain_method(toy_cfg, toy_index):
    sections = {"reformulation": {"n": 4}}
    plain_runner = _QueryRunner(toy_cfg("genqrensemble", tag="same", **sections), toy_index)
    oracle_runner = _QueryRunner(
        toy_cfg("genqrensemble_rf", tag="same", feedback_mode="oracle",
                reformulation={"n": 4}), toy_index)
    topic = Topic("99", GOLDFISH.query)  # no qrels row for qid 99
    assert run_topics(oracle_runner, topic) == run_topics(plain_runner, topic)


@pytest.mark.parametrize("method", ["rm3", "flanprf", "genqrensemble_rf", "genqrensemble"])
def test_feedback_methods_analyze_each_query_once(toy_cfg, toy_index, monkeypatch, method):
    runner = _QueryRunner(toy_cfg(method), toy_index)
    seen = []
    analyze = Analyzer.analyze

    def recording(self, text):
        seen.append(text)
        return analyze(self, text)

    monkeypatch.setattr(Analyzer, "analyze", recording)
    run_topics(runner, GOLDFISH)
    assert seen.count(GOLDFISH.query) == 1


def test_context_is_space_joined():
    fb = (Document("d1", "a b"), Document("d2", "c"))
    assert build_context("1", fb) == "a b c"


def test_context_truncated_at_budget(caplog):
    fb = (Document("d1", "x" * 100),)
    with caplog.at_level("WARNING"):
        context = build_context("1", fb, budget=10)
    assert context == "x" * 10
    assert "truncated" in caplog.text


def test_rf_prompt_golden():
    spy = SpyBackend()
    iset = InstructionSet.default()
    fb = (Document("d1", "goldfish live long"),)
    ensemble(spy, iset, GOLDFISH, ReformulationConfig(n=1),
             context=build_context("156493", fb))
    assert spy.prompts == [
        "Based on the given context information goldfish live long, "
        "Improve the search effectiveness by suggesting expansion terms "
        "for the query: do goldfish grow"
    ]


def test_rf_instruction_prefix():
    out = query_prompts("q", ["Do something"], "ctx words", "{instruction}")
    assert out == ["Based on the given context information ctx words, Do something"]


def test_rf_records_context_in_provenance():
    stub = StubBackend(THESAURUS, seed=2, n_terms=3)
    fb = (Document("d1", "carp tank"),)
    context = build_context("156493", fb)
    fused, keywords = ensemble(stub, InstructionSet.default(), GOLDFISH,
                               ReformulationConfig(n=2), context=context)
    record = query_record(GOLDFISH, fused, keywords, context)
    assert record["context"] == "carp tank"
    assert set(record) == {"qid", "original", "keywords", "fused_terms", "context"}
