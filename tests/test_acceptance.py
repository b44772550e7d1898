"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

import pytest

import genqr
from genqr.analysis import Analyzer
from genqr.cli import cmd_eval, cmd_index, cmd_run
from genqr.config import config_from_dict
from genqr.corpus_io import Document, Qrels, RunList, load_qrels, read_run
from genqr.evaluation import (average_precision, evaluate_run,
                              holm_bonferroni, mrr, ndcg_at_k, paired_ttest,
                              parse_metric, precision_at_k)
from genqr.index import WeightedQuery, build_index
from genqr.llm import Backend, Generator, ReplayBackend
from genqr.prf import FeedbackDoc, FeedbackSet, rm3_expand, select_feedback
from genqr.reformulate import (InstructionSet, ReformulationConfig, build_context,
                               paraphrase_instructions, reformulate_query)

from conftest import TOY, toy_config_dict
from oracles import (ap_oracle, bm25_oracle, ndcg_oracle, prec_oracle,
                     rank_oracle, rm3_oracle, rr_oracle)


def _ok(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_criterion_1_bm25_oracle_equivalence():
    rng = random.Random(20240501)
    start = time.monotonic()
    for trial in range(100):
        n_docs = rng.randint(2, 100)
        vocab = [f"w{i}" for i in range(rng.randint(3, 50))]
        docs = [Document(f"d{i:03d}", " ".join(rng.choices(vocab, k=rng.randint(1, 40))))
                for i in range(n_docs)]
        index = build_index(docs, Analyzer())
        terms = rng.sample(vocab, min(len(vocab), rng.randint(1, 6)))
        weights = {t: rng.choice([0.05, 0.5, 1.0, 2.0]) for t in terms}
        query = WeightedQuery(qid="q", terms=tuple(weights.items()))
        k1 = rng.choice([0.9, 1.2, 1.6])
        b = rng.choice([0.0, 0.5, 0.75, 1.0])
        k = rng.randint(1, 20)

        run = index.retrieve(query, k=k, k1=k1, b=b)
        ref = rank_oracle(bm25_oracle(
            {d.docno: Analyzer().analyze(d.text) for d in docs}, weights, k1, b), k)
        assert [e.docno for e in run.entries] == [d for d, _ in ref]
        for entry, (_, score) in zip(run.entries, ref):
            assert entry.score == pytest.approx(score, abs=1e-9)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _ok(1, f"BM25 matches the brute-force scorer on 100 corpora ({elapsed:.1f}s)")


def test_criterion_2_metric_oracle_equivalence():
    rng = random.Random(77)
    start = time.monotonic()
    for _ in range(500):
        docs = [f"d{i}" for i in range(rng.randint(1, 10))]
        grades = {d: rng.randint(0, 3) for d in docs if rng.random() < 0.85}
        ranked = rng.sample(docs, rng.randint(0, len(docs)))
        run = RunList.from_scores(
            "1", [(d, float(len(ranked) - i)) for i, d in enumerate(ranked)], "t")
        qrels = Qrels({("1", d): g for d, g in grades.items()})
        k = rng.randint(1, 10)
        checks = [
            (ndcg_at_k(run, qrels, k), ndcg_oracle(ranked, grades, k)),
            (average_precision(run, qrels), ap_oracle(ranked, grades)),
            (mrr(run, qrels), rr_oracle(ranked, grades)),
            (precision_at_k(run, qrels, k), prec_oracle(ranked, grades, k)),
        ]
        for mine, ref in checks:
            if ref is None:
                assert mine is None
            else:
                assert mine == pytest.approx(ref, abs=1e-9)
    # hand-derived case: grades [0,1,2] at ranks 1..3, judged set {2,1,0}
    qrels = Qrels({("1", "x"): 0, ("1", "y"): 1, ("1", "z"): 2})
    run = RunList.from_scores("1", [("x", 3.0), ("y", 2.0), ("z", 1.0)], "t")
    assert ndcg_at_k(run, qrels, 3) == pytest.approx(0.6199, abs=1e-4)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _ok(2, f"metrics match direct-definition oracles on 500 instances ({elapsed:.1f}s)")


def test_criterion_3_flanqr_is_ensemble_n1(tmp_path):
    work_a = tmp_path / "a"
    work_b = tmp_path / "b"
    cfg_a = config_from_dict(toy_config_dict("flanqr", "same", work=str(work_a)))
    cfg_b = config_from_dict(toy_config_dict("genqrensemble", "same", work=str(work_b),
                                             reformulation={"n": 1}))
    cmd_index(cfg_a)
    cmd_index(cfg_b)
    run_a, ref_a, _ = cmd_run(cfg_a)
    run_b, ref_b, _ = cmd_run(cfg_b)
    assert run_a.read_bytes() == run_b.read_bytes()
    assert ref_a.read_bytes() == ref_b.read_bytes()
    _ok(3, "ensemble with N=1 and the single-instruction path emit identical runs")


def test_criterion_4_rf_degeneracy_and_prompt_prefix(tmp_path):
    # m=0 degenerates byte-for-byte
    work_a, work_b = tmp_path / "a", tmp_path / "b"
    cfg_plain = config_from_dict(toy_config_dict("genqrensemble", "same", work=str(work_a)))
    cfg_rf0 = config_from_dict(toy_config_dict(
        "genqrensemble_rf", "same", work=str(work_b),
        reformulation={"feedback_mode": "pseudo", "m": 0}))
    cmd_index(cfg_plain)
    cmd_index(cfg_rf0)
    run_plain, ref_plain, _ = cmd_run(cfg_plain)
    run_rf0, ref_rf0, _ = cmd_run(cfg_rf0)
    assert run_plain.read_bytes() == run_rf0.read_bytes()
    assert ref_plain.read_bytes() == ref_rf0.read_bytes()

    # RF prompts start exactly with the context prefix + space-joined texts
    class Spy(Backend):
        def __init__(self):
            super().__init__()
            self.prompts = []

        def identity(self):
            return "spy"

        def _generate(self, request):
            self.prompts.append(request.prompt)
            return "kw"

    spy = Spy()
    feedback = FeedbackSet(qid="1", docs=(FeedbackDoc("d1", "first text", 2.0),
                                          FeedbackDoc("d2", "second", 1.0)),
                           source="pseudo")
    from genqr.corpus_io import Topic
    reformulate_query(Generator(spy), Topic("1", "goldfish growth"),
                      InstructionSet.default().all(), build_context(feedback),
                      ReformulationConfig(n=10), Analyzer())
    assert len(spy.prompts) == 10
    for prompt in spy.prompts:
        assert prompt.startswith("Based on the given context information first text second, ")
    assert spy.prompts[0] == (
        "Based on the given context information first text second, "
        "Improve the search effectiveness by suggesting expansion terms "
        "for the query: goldfish growth")
    _ok(4, "RF with m=0 equals the plain ensemble; RF prompts carry the context prefix")


def test_criterion_5_transcript_fidelity():
    backend = ReplayBackend(genqr.data_path("replay", "goldfish.jsonl"))
    base = "Improve the search effectiveness by suggesting expansion terms for the query"
    iset = paraphrase_instructions(Generator(backend), base, count=10)
    expected = [
        "Improve the search effectiveness by suggesting expansion terms for the query",
        "Recommend expansion terms for the query to improve search results",
        "Improve the search effectiveness by suggesting useful expansion terms for the query",
        "Maximize search utility by suggesting relevant expansion phrases for the query",
        "Enhance search efficiency by proposing valuable terms to expand the query",
        "Elevate search performance by recommending relevant expansion phrases for the query",
        "Boost the search accuracy by providing helpful expansion terms to enrich the query",
        "Increase the search efficacy by offering beneficial expansion keywords for the query",
        "Optimize search results by suggesting meaningful expansion terms to enhance the query",
        "Enhance search outcomes by recommending beneficial expansion terms to supplement the query",
    ]
    assert iset.all() == expected

    from genqr.corpus_io import Topic
    ref = reformulate_query(Generator(backend), Topic("156493", "do goldfish grow"),
                            iset.all(), None, ReformulationConfig(n=10), Analyzer())
    fused_terms = {t for t, _ in ref.fused.terms}
    assert {"age", "goldfish", "grow", "outsmart", "outlive"} <= fused_terms
    _ok(5, "replay reproduces the 10-instruction set and the recorded expansion tokens")


def test_criterion_6_rm3_correctness():
    docs = [Document("d1", "a c c b"), Document("d2", "c b d d"),
            Document("d3", "a a d b"), Document("d4", "a b d c")]
    index = build_index(docs, Analyzer())
    texts = {d.docno: d.text for d in docs}
    run = RunList.from_scores("q", [("d1", 2.0), ("d2", 1.0)], "t")
    feedback = select_feedback(run, lambda d: texts[d], m=2)
    query = WeightedQuery.from_terms("q", ["a", "b"])

    out = rm3_expand(index, query, feedback, fb_terms=2, lam=0.5, mu=8.0)
    weights = dict(out.terms)
    ref = rm3_oracle({d.docno: d.text.split() for d in docs}, ["d1", "d2"],
                     {"a": 1.0, "b": 1.0}, fb_terms=2, lam=0.5, mu=8.0)
    assert set(weights) == set(ref)
    for term in ref:
        assert weights[term] == pytest.approx(ref[term], abs=1e-9)

    identity = rm3_expand(index, query, feedback, fb_terms=2, lam=1.0, mu=8.0)
    assert dict(identity.terms) == pytest.approx({"a": 0.5, "b": 0.5}, abs=1e-12)

    from genqr.prf import estimate_relevance_model
    model = estimate_relevance_model(index, query, feedback, fb_terms=2, mu=8.0)
    assert sum(model.values()) == pytest.approx(1.0, abs=1e-9)
    _ok(6, "RM3 matches the exhaustive enumeration; lam=1 is the identity")


def test_criterion_7_significance_machinery():
    a = {str(i): float(v) for i, v in enumerate([1, 2, 3, 4, 5])}
    b = {str(i): 0.0 for i in range(5)}
    assert paired_ttest(a, b) == pytest.approx(0.0132, abs=5e-4)
    flags = holm_bonferroni([0.01, 0.04, 0.03], alpha=0.05)
    assert flags == [True, False, False]
    _ok(7, "paired t-test and step-down correction reproduce the reference values")


def _grid_means(tmp_path):
    """Index once, run the whole method grid, return mean nDCG@10 per tag."""
    work = str(tmp_path)
    variants = {
        "bm25": toy_config_dict("raw", "bm25", work=work),
        "flanqr": toy_config_dict("flanqr", "flanqr", work=work),
        "ens": toy_config_dict("genqrensemble", "ens", work=work),
        "rm3": toy_config_dict("rm3", "rm3", work=work),
        "flanprf": toy_config_dict("flanprf", "flanprf", work=work),
        "rf_pseudo": toy_config_dict(
            "genqrensemble_rf", "rf_pseudo", work=work,
            reformulation={"feedback_mode": "pseudo", "m": 5}),
        "rf_oracle": toy_config_dict(
            "genqrensemble_rf", "rf_oracle", work=work,
            reformulation={"feedback_mode": "oracle", "m": 5}),
    }
    qrels = load_qrels(TOY / "qrels.txt")
    spec = parse_metric("ndcg@10")
    means = {}
    first = True
    for tag, raw_cfg in variants.items():
        cfg = config_from_dict(raw_cfg)
        if first:
            cmd_index(cfg)
            first = False
        run_path, _, failed = cmd_run(cfg)
        assert failed == 0
        means[tag] = evaluate_run(read_run(run_path), qrels, spec).mean
    return means


def test_criterion_8_direction_check(tmp_path):
    start = time.monotonic()
    means = _grid_means(tmp_path)
    elapsed = time.monotonic() - start
    assert means["ens"] >= means["flanqr"] >= means["bm25"]
    assert means["rf_oracle"] >= means["rf_pseudo"]
    assert elapsed < 60.0
    _ok(8, "nDCG@10 means: ensemble {ens:.3f} >= single {fl:.3f} >= raw {bm:.3f}; "
           "oracle RF {ro:.3f} >= pseudo RF {rp:.3f} ({t:.1f}s)".format(
               ens=means["ens"], fl=means["flanqr"], bm=means["bm25"],
               ro=means["rf_oracle"], rp=means["rf_pseudo"], t=elapsed))


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for attempt in ("one", "two"):
        work = tmp_path / attempt  # fresh index, cache, and output dirs: cold cache
        cfg = config_from_dict(toy_config_dict("genqrensemble", "det", work=str(work)))
        cmd_index(cfg)
        run_path, ref_path, _ = cmd_run(cfg)
        eval_dir = work / "eval"
        cmd_eval([run_path], TOY / "qrels.txt", ["ndcg@10", "map", "mrr", "p@10"],
                 eval_dir, baseline=None)
        blobs = [run_path.read_bytes(), ref_path.read_bytes(),
                 (eval_dir / "comparison.tsv").read_bytes()]
        for report in sorted(eval_dir.glob("det.*.tsv")):
            blobs.append(report.read_bytes())
        outputs.append(blobs)
    assert outputs[0] == outputs[1]
    _ok(9, "two cold-cache runs are byte-identical across run, provenance, and reports")
