import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import genqr
from genqr.analysis import Analyzer
from genqr.cli import _QueryRunner, cmd_run
from genqr.config import ConfigError
from genqr.corpus_io import Topic
from genqr.index import DegenerateQueryError
from genqr.llm import (Backend, GenRequest, Generator, HttpBackend, ReplayBackend,
                       ResponseCache, StubBackend, cache_key)
from genqr.prf import FeedbackDoc, FeedbackSet
from genqr.reformulate import (InstructionSet, ReformulationConfig,
                               ReformulationError, build_context, build_prompt,
                               fuse, paraphrase_instructions, parse_paraphrase_list,
                               query_record, reformulate_query, rf_instruction)

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


def ensemble(backend, instructions, topic, config, cache=None, context=None):
    """`reformulate_query` over the first `config.n` instructions of a set."""
    return reformulate_query(Generator(backend, cache), topic,
                             instructions.all()[: config.n], context, config, Analyzer())


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
    iset = InstructionSet.default()
    out, = reformulate_query(Generator(replay_backend()), GOLDFISH, [iset.all()[7]], None,
                             ReformulationConfig(n=1), Analyzer()).keywords
    assert out == "age goldfish grow outsmart outlive ageing species"


def test_generate_keywords_instruction_10():
    iset = InstructionSet.default()
    out, = reformulate_query(Generator(replay_backend()), GOLDFISH, [iset.all()[9]], None,
                             ReformulationConfig(n=1), Analyzer()).keywords
    assert out.startswith("Goldfish breed sizes What kind of goldfish grows")


def test_prompt_template():
    assert build_prompt("Suggest terms", "do goldfish grow") == \
        "Suggest terms: do goldfish grow"


# --- fusion ---


def test_fuse_empty_keywords_identity():
    fused = fuse(Topic("1", "do goldfish grow"), [[], [], []],
                 ReformulationConfig(n=3), Analyzer())
    assert dict(fused.terms) == {"do": 1.0, "goldfish": 1.0, "grow": 1.0}


def test_fuse_occurrence_counts():
    fused = fuse(Topic("1", "a b"), [["c", "c"], ["b"]],
                 ReformulationConfig(n=2, beta=1.0, dedup=False), Analyzer())
    assert dict(fused.terms) == {"a": 1.0, "b": 2.0, "c": 2.0}


def test_fuse_beta_scales_expansions():
    fused = fuse(Topic("1", "a"), [["b", "b"]],
                 ReformulationConfig(n=1, beta=0.05), Analyzer())
    assert dict(fused.terms) == pytest.approx({"a": 1.0, "b": 0.1})


def test_fuse_beta_zero_keeps_original_weights():
    fused = fuse(Topic("1", "a b"), [["c", "d"]],
                 ReformulationConfig(n=1, beta=0.0), Analyzer())
    weights = dict(fused.terms)
    assert weights["a"] == weights["b"] == 1.0
    assert weights["c"] == weights["d"] == 0.0


def test_fuse_dedup_permutation_invariant():
    cfg = ReformulationConfig(n=3, dedup=True)
    a = fuse(Topic("1", "q"), [["x", "y"], ["y", "z"], ["z", "x"]], cfg, Analyzer())
    b = fuse(Topic("1", "q"), [["z", "x"], ["x", "y"], ["y", "z"]], cfg, Analyzer())
    assert dict(a.terms) == dict(b.terms)
    assert dict(a.terms)["x"] == 1.0  # collapsed to one occurrence


def test_fuse_multiplicity_preserved_without_dedup():
    cfg = ReformulationConfig(n=3, dedup=False)
    fused = fuse(Topic("1", "q"), [["x"], ["x"], ["x"]], cfg, Analyzer())
    assert dict(fused.terms)["x"] == 3.0


def test_fuse_degenerate_rejected():
    with pytest.raises(DegenerateQueryError):
        fuse(Topic("1", "..."), [[]], ReformulationConfig(n=1), Analyzer())


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
    a = fuse(Topic("1", query), expansions, cfg, Analyzer())
    b = fuse(Topic("1", query), shuffled, cfg, Analyzer())
    assert dict(a.terms) == dict(b.terms)
    original = Counter(Analyzer().analyze(query))
    for term in {t for tokens in expansions for t in tokens}:  # one beta per distinct term
        assert dict(a.terms)[term] == pytest.approx(original[term] + beta)


@settings(deadline=None)
@given(query=_FUSE_QUERIES, expansions=_FUSE_EXPANSIONS, dedup=st.booleans())
@example(query="a b", expansions=[["c", "d"]], dedup=False)
def test_fuse_beta_zero_keeps_original_weights_property(query, expansions, dedup):
    fused = fuse(Topic("1", query), expansions, ReformulationConfig(beta=0.0, dedup=dedup),
                 Analyzer())
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
    fused = fuse(Topic("1", query), expansions, ReformulationConfig(beta=beta), Analyzer())
    expected = len(Analyzer().analyze(query)) + beta * sum(map(len, expansions))
    assert sum(w for _, w in fused.terms) == pytest.approx(expected, rel=1e-12)


# --- ensembles ---


def test_n1_matches_flanqr_exactly(toy_cfg, toy_index):
    ensemble_runner = _QueryRunner(toy_cfg("genqrensemble", tag="same",
                                           reformulation={"n": 1}), toy_index)
    flanqr_runner = _QueryRunner(toy_cfg("flanqr", tag="same"), toy_index)
    assert flanqr_runner.instructions == [InstructionSet.default().base]
    for i in range(50):
        topic = Topic(str(i), f"trial {i} goldfish grow")
        ens = ensemble_runner(topic)
        single = flanqr_runner(topic)
        assert ens == single


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
    ref = ensemble(replay_backend(), InstructionSet.default(), GOLDFISH,
                   ReformulationConfig(n=10))
    terms = dict(ref.fused.terms)
    for token in ("age", "goldfish", "grow", "outsmart", "outlive"):
        assert token in terms
    assert "breed" in terms
    # original terms keep their unit occurrence weight plus expansions
    assert terms["do"] >= 1.0


def test_provenance_traces_every_expansion_term():
    ref = ensemble(replay_backend(), InstructionSet.default(), GOLDFISH,
                   ReformulationConfig(n=10))
    original = set(Analyzer().analyze(GOLDFISH.query))
    fused_terms = {t for t, _ in ref.fused.terms}
    for term in fused_terms - original:
        sources = ref.provenance.term_sources.get(term)
        assert sources, f"untraceable expansion term {term!r}"
        assert all(1 <= i <= 10 for i in sources)
    assert ref.provenance.instruction_indices == tuple(range(1, 11))
    assert len(ref.provenance.cache_keys) == 10


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
    prompts = [build_prompt(i, GOLDFISH.query) for i in iset.all()]
    server_stub = StubBackend(THESAURUS, seed=5, n_terms=3)
    canned.reply = lambda prompt: server_stub.generate(GenRequest(prompt=prompt))
    canned.delay = dict(zip(prompts, (d / 1000 for d in delays_ms))).__getitem__
    stub = StubBackend(THESAURUS, seed=5, n_terms=3)
    http = HttpBackend(canned.url, model="toy", completion_field="choices.0.text")
    cfg = ReformulationConfig(n=10)
    try:
        got = ensemble(http, iset, GOLDFISH, cfg)
    finally:
        http.close()
    want = ensemble(stub, iset, GOLDFISH, cfg)
    assert got.keywords == tuple(stub.generate(GenRequest(prompt=p)) for p in prompts)
    assert got.provenance.cache_keys == tuple(
        cache_key(http, GenRequest(prompt=p)) for p in prompts)
    assert got == dataclasses.replace(want, provenance=dataclasses.replace(
        want.provenance, backend_identity=http.identity(),
        cache_keys=got.provenance.cache_keys))


def test_http_failed_instruction_named_and_rest_cached(canned, tmp_path):
    iset = InstructionSet.default()
    prompts = [build_prompt(i, GOLDFISH.query) for i in iset.all()]
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


def test_http_workers_share_max_in_flight(canned, toy_cfg, toy_index):
    canned.delay = lambda prompt: 0.01
    cfg = toy_cfg("genqrensemble", workers=2,
                  backend={"kind": "http", "url": canned.url, "model": "toy",
                           "completion_field": "choices.0.text", "max_in_flight": 2})
    _, _, failures = cmd_run(cfg)
    assert failures == 0
    assert len(canned.payloads) == 10 * 10  # topics x N
    assert canned.peak_in_flight == 2


def test_n_exceeding_set_rejected(toy_cfg, toy_index, tmp_path):
    InstructionSet(base="only one").save(tmp_path / "one.txt")
    cfg = toy_cfg("genqrensemble", instructions=str(tmp_path / "one.txt"),
                  reformulation={"n": 5})
    with pytest.raises(ConfigError, match="exceeds|has"):
        cmd_run(cfg)


# --- RF variant ---


def test_rf_empty_feedback_degenerates(toy_cfg, toy_index):
    plain_runner = _QueryRunner(toy_cfg("genqrensemble", tag="same",
                                        reformulation={"n": 4}), toy_index)
    # m=0 asks for no feedback; a query that matches no document finds none
    for m, topic in ((0, GOLDFISH), (5, Topic("1", "zzyzx qwvk"))):
        rf_runner = _QueryRunner(toy_cfg("genqrensemble_rf", tag="same",
                                         reformulation={"n": 4, "m": m}), toy_index)
        plain = plain_runner(topic)
        rf = rf_runner(topic)
        assert plain == rf


def test_context_is_space_joined():
    fb = FeedbackSet(qid="1", docs=(FeedbackDoc("d1", "a b", 2.0),
                                    FeedbackDoc("d2", "c", 1.0)), source="pseudo")
    assert build_context(fb) == "a b c"


def test_context_truncated_at_budget(caplog):
    fb = FeedbackSet(qid="1", docs=(FeedbackDoc("d1", "x" * 100, 1.0),), source="pseudo")
    with caplog.at_level("WARNING"):
        context = build_context(fb, budget=10)
    assert context == "x" * 10
    assert "truncated" in caplog.text


def test_rf_prompt_golden():
    spy = SpyBackend()
    iset = InstructionSet.default()
    fb = FeedbackSet(qid="156493",
                     docs=(FeedbackDoc("d1", "goldfish live long", 3.0),),
                     source="oracle")
    ensemble(spy, iset, GOLDFISH, ReformulationConfig(n=1), context=build_context(fb))
    assert spy.prompts == [
        "Based on the given context information goldfish live long, "
        "Improve the search effectiveness by suggesting expansion terms "
        "for the query: do goldfish grow"
    ]


def test_rf_instruction_prefix():
    out = rf_instruction("ctx words", "Do something")
    assert out == "Based on the given context information ctx words, Do something"


def test_rf_records_context_in_provenance():
    stub = StubBackend(THESAURUS, seed=2, n_terms=3)
    fb = FeedbackSet(qid="156493",
                     docs=(FeedbackDoc("d1", "carp tank", 3.0),), source="pseudo")
    ref = ensemble(stub, InstructionSet.default(), GOLDFISH, ReformulationConfig(n=2),
                   context=build_context(fb))
    assert ref.provenance.context == "carp tank"
    record = query_record(GOLDFISH, ref.fused, ref.keywords, ref.provenance.context)
    assert record["context"] == "carp tank"
    assert set(record) == {"qid", "original", "keywords", "fused_terms", "context"}
