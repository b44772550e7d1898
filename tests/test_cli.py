import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
import yaml

import genqr
import genqr.index
from genqr.cli import (cmd_eval, cmd_index, cmd_paraphrase, cmd_querywise,
                       cmd_run, cmd_sweep, main)
from genqr.config import ConfigError, ExperimentConfig, config_from_dict, load_config
from genqr.corpus_io import load_qrels, load_topics, read_run
from genqr.evaluation import evaluate_run, parse_metric
from genqr.index import IndexingError, PostingsIndex, WeightedQuery
from genqr.llm import GenRequest, ReplayBackend, ResponseCache, cache_key
from genqr.reformulate import PARAPHRASE_PROMPT, InstructionSet, ReformulationConfig

from conftest import TOY, toy_config_dict


# --- config ---


def test_load_config_resolves_input_paths(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "corpus": "corpus.jsonl", "topics": "topics.tsv",
        "index_dir": "idx", "run_tag": "x",
    }))
    (tmp_path / "corpus.jsonl").write_text('{"docno":"d1","text":"x"}\n')
    (tmp_path / "topics.tsv").write_text("1\tq\n")
    cfg = load_config(cfg_path)
    assert Path(cfg.corpus).is_absolute() and Path(cfg.corpus).exists()
    assert cfg.index_dir == "idx"  # outputs stay working-directory relative


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        config_from_dict({"mystery": 1})


@pytest.mark.parametrize("section,value,match", [
    ("analyzer", {"mystery": 1}, "mystery"),
    ("analyzer", {"stemmer": "krovetz"}, "krovetz"),
    ("analyzer", {"stopwords": 5}, "analyzer"),
    ("reformulation", {"mystery": 1}, "mystery"),
    ("reformulation", {"n": 0}, "n must be"),
    ("rm3", {"mystery": 1}, "mystery"),
    ("sampling", {"mystery": 1}, "mystery"),
    ("sampling", {"top_p": 0}, "top_p"),
], ids=lambda v: v if isinstance(v, str) else next(iter(v)))
def test_bad_config_section_raises_config_error(section, value, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(toy_config_dict(**{section: value}))


def test_unknown_method_rejected():
    with pytest.raises(ConfigError, match="method"):
        config_from_dict(toy_config_dict(method="quantum"))


def test_llm_method_requires_backend():
    raw = toy_config_dict(method="genqrensemble")
    raw.pop("backend")
    with pytest.raises(ConfigError, match="backend"):
        config_from_dict(raw)


def test_rf_method_defaults_to_pseudo_feedback():
    cfg = config_from_dict(toy_config_dict(method="genqrensemble_rf"))
    assert cfg.reformulation.feedback_mode == "pseudo"


def test_config_leaves_shared_reformulation_section_unchanged():
    rc = ReformulationConfig(feedback_mode="none")
    backend = {"kind": "stub", "vocab": str(TOY / "thesaurus.json")}
    ExperimentConfig(method="genqrensemble_rf", reformulation=rc, backend=backend)
    assert rc.feedback_mode == "none"
    plain = ExperimentConfig(method="genqrensemble", reformulation=rc, backend=backend)
    assert plain.reformulation.feedback_mode == "none"


def test_feedback_mode_none_runs_as_pseudo(toy_cfg, toy_index):
    _, ref_none, _ = cmd_run(toy_cfg("flanprf", tag="none",
                                     reformulation={"feedback_mode": "none"}))
    _, ref_pseudo, _ = cmd_run(toy_cfg("flanprf", tag="pseudo"))
    assert ref_none.read_bytes() == ref_pseudo.read_bytes()


@pytest.mark.parametrize("parser", ["raw-append", "whitespace"])
def test_keyword_parser_deprecated_but_loads(parser):
    with pytest.warns(DeprecationWarning, match="keyword_parser") as record:
        cfg = config_from_dict(toy_config_dict(reformulation={"keyword_parser": parser,
                                                              "n": 3}))
    assert len(record) == 1
    assert cfg.reformulation == ReformulationConfig(n=3)


def test_unknown_keyword_parser_rejected():
    with pytest.raises(ConfigError, match="keyword_parser 'regex'"):
        config_from_dict(toy_config_dict(reformulation={"keyword_parser": "regex"}))


@pytest.mark.parametrize("rm3", [{"fb_docs": -1}, {"fb_terms": -1}, {"lam": 2},
                                 {"lam": -0.1}, {"lam": float("nan")}, {"mu": -1.0},
                                 {"mu": float("inf")}, {"mu": float("nan")}],
                         ids=lambda rm3: "{}={}".format(*next(iter(rm3.items()))))
def test_bad_rm3_params_rejected_by_load_config(tmp_path, rm3):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(toy_config_dict("rm3", rm3=rm3)))
    with pytest.raises(ConfigError, match=f"rm3.{next(iter(rm3))}"):
        load_config(cfg_path)


# --- start-up ---

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY_MODULES = ("scipy", "numpy", "requests")


def _loaded_heavy_modules(code: str) -> list:
    """Run `code` in a fresh interpreter with PYTHONPATH=src; return which of
    HEAVY_MODULES it left loaded."""
    probe = code + ("\nimport json, sys\n"
                    f"print(json.dumps([m for m in {HEAVY_MODULES!r} if m in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_loads_no_heavy_modules():
    assert _loaded_heavy_modules("import genqr.cli") == []


def test_stub_run_does_not_load_requests(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(
        toy_config_dict("genqrensemble", work=str(tmp_path))))
    code = (f"from genqr.cli import main\n"
            f"assert main(['index', '--config', {str(cfg_path)!r}]) == 0\n"
            f"assert main(['run', '--config', {str(cfg_path)!r}]) == 0\n")
    assert _loaded_heavy_modules(code) == []
    assert (tmp_path / "runs" / "run.run").exists()


# --- index command ---


def test_index_builds_and_is_idempotent(toy_cfg, caplog):
    cfg = toy_cfg("raw")
    first = cmd_index(cfg)
    assert first.n_docs == 50
    with caplog.at_level("INFO"):
        again = cmd_index(cfg)
    assert "up to date" in caplog.text
    assert again.postings == first.postings


def test_version_1_index_asks_for_force_rebuild(toy_cfg):
    cfg = toy_cfg("raw")
    cmd_index(cfg)
    meta_path = Path(cfg.index_dir) / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["version"] = 1
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(IndexingError, match="version 1 .*genqr index --force"):
        PostingsIndex.load(cfg.index_dir)
    with pytest.raises(IndexingError, match="version 1 .*genqr index --force"):
        cmd_index(cfg)
    assert cmd_index(cfg, force=True).n_docs == 50


def test_interrupted_index_save_is_rejected_then_rebuilt(toy_cfg, monkeypatch, caplog):
    cfg = toy_cfg("raw")
    built = cmd_index(cfg)
    real_writer = genqr.index.atomic_writer

    @contextmanager
    def dies_mid_postings(path, binary=False):
        with real_writer(path, binary) as f:
            if binary:
                f.write(b"GQRPOST2\x01\x00")
                raise OSError("no space left on device")
            yield f

    monkeypatch.setattr(genqr.index, "atomic_writer", dies_mid_postings)
    with pytest.raises(OSError, match="no space"):
        cmd_index(cfg, force=True)
    monkeypatch.undo()

    dest = Path(cfg.index_dir)
    assert sorted(p.name for p in dest.iterdir()) == ["postings.bin"]  # no meta, no temp file
    with pytest.raises(IndexingError, match="genqr index --force"):
        PostingsIndex.load(dest)
    with caplog.at_level("INFO"):
        rebuilt = cmd_index(cfg)
    assert "indexed 50 documents" in caplog.text
    assert rebuilt.postings == built.postings
    assert PostingsIndex.load(dest).postings == built.postings


def test_index_analyzer_mismatch_errors(toy_cfg):
    cfg = toy_cfg("raw")
    cmd_index(cfg)
    changed = toy_cfg("raw", analyzer={"stopwords": ["the"]})
    with pytest.raises(IndexingError, match="force"):
        cmd_index(changed)
    rebuilt = cmd_index(changed, force=True)
    assert rebuilt.analyzer.stopwords == frozenset({"the"})


# --- run command ---


def test_raw_run_equals_direct_retrieval(toy_cfg, toy_index):
    cfg = toy_cfg("raw")
    run_path, ref_path, failed = cmd_run(cfg)
    assert failed == 0
    runs = read_run(run_path)
    index = PostingsIndex.load(cfg.index_dir)
    for topic in load_topics(cfg.topics):
        expected = index.retrieve(
            WeightedQuery.from_terms(topic.qid, index.analyzer.analyze(topic.query)),
            k=cfg.retrieval_depth, k1=cfg.k1, b=cfg.b, tag=cfg.run_tag)
        got = next(r for r in runs if r.qid == topic.qid)
        assert [(e.docno, e.rank) for e in got.entries] == \
            [(e.docno, e.rank) for e in expected.entries]
        for a, b in zip(got.entries, expected.entries):
            assert a.score == pytest.approx(b.score, abs=1e-6)  # 6-decimal file format
    # provenance rows carry the fused weighted query
    rows = [json.loads(line) for line in ref_path.read_text().splitlines()]
    assert all(row["keywords"] == [] and row["context"] is None for row in rows)


def test_flanqr_equals_ensemble_n1_byte_for_byte(toy_cfg, toy_index):
    cfg_a = toy_cfg("flanqr", tag="same")
    cfg_b = toy_cfg("genqrensemble", tag="same",
                    reformulation={"n": 1})
    run_a, ref_a, _ = cmd_run(cfg_a)
    out_b = cmd_run(cfg_b)
    # same tag writes the same filenames; compare bytes of the second pass
    assert run_a.read_bytes() == out_b[0].read_bytes()
    assert ref_a.read_bytes() == out_b[1].read_bytes()


def test_rf_oracle_vs_pseudo_differ_only_via_context(toy_cfg, toy_index):
    pseudo_cfg = toy_cfg("genqrensemble_rf", tag="pseudo",
                         reformulation={"feedback_mode": "pseudo", "m": 2})
    oracle_cfg = toy_cfg("genqrensemble_rf", tag="oracle",
                         reformulation={"feedback_mode": "oracle", "m": 2})
    _, ref_p, _ = cmd_run(pseudo_cfg)
    _, ref_o, _ = cmd_run(oracle_cfg)
    rows_p = [json.loads(line) for line in ref_p.read_text().splitlines()]
    rows_o = [json.loads(line) for line in ref_o.read_text().splitlines()]
    corpus = {json.loads(l)["docno"]: json.loads(l)["text"]
              for l in (TOY / "corpus.jsonl").read_text().splitlines()}
    qrels = load_qrels(TOY / "qrels.txt")
    index = PostingsIndex.load(pseudo_cfg.index_dir)
    for row_p, row_o in zip(rows_p, rows_o):
        assert row_p["qid"] == row_o["qid"]
        assert row_p["original"] == row_o["original"]
        assert row_p["context"] != row_o["context"]
        # oracle context is the grade-ordered relevant texts
        qid = row_o["qid"]
        graded = sorted(qrels.relevant(qid).items(), key=lambda kv: (-kv[1], kv[0]))
        expected_oracle = " ".join(corpus[d] for d, _ in graded[:2])
        assert row_o["context"] == expected_oracle
        # pseudo context is the top-2 texts of a first-pass raw retrieval
        raw_query = WeightedQuery.from_terms(qid, index.analyzer.analyze(row_p["original"]))
        first = index.retrieve(raw_query, k=pseudo_cfg.retrieval_depth)
        expected_pseudo = " ".join(corpus[e.docno] for e in first.entries[:2])
        assert row_p["context"] == expected_pseudo


def test_lenient_mode_records_failures(toy_cfg, toy_index, tmp_path):
    topics = tmp_path / "topics.tsv"
    topics.write_text("1\tgoldfish growth\n2\t???\n")  # qid 2 analyzes to nothing
    cfg = toy_cfg("raw", topics=str(topics))
    with pytest.raises(Exception):
        cmd_run(cfg, lenient=False)
    run_path, _, failed = cmd_run(cfg, lenient=True)
    assert failed == 1
    failures = [json.loads(line) for line in
                (run_path.parent / "raw.failures.jsonl").read_text().splitlines()]
    assert failures[0]["qid"] == "2"
    assert all(r.qid == "1" for r in read_run(run_path))


def test_reranker_seam(toy_cfg, toy_index, tmp_path):
    # a reranker that reverses each query's ordering via the file exchange
    script = tmp_path / "reverse.py"
    script.write_text(
        "import sys\n"
        "lines = [l.split() for l in open(sys.argv[1])]\n"
        "with open(sys.argv[2], 'w') as out:\n"
        "    for qid, _, docno, rank, score, tag in lines:\n"
        "        out.write(f'{qid} Q0 {docno} {rank} {-float(score):.6f} {tag}\\n')\n")
    plain = toy_cfg("raw", tag="plain")
    rerank = toy_cfg("raw", tag="rerank", reranker_cmd=f"python3 {script}")
    run_plain, _, _ = cmd_run(plain)
    run_rerank, _, _ = cmd_run(rerank)
    for before, after in zip(read_run(run_plain), read_run(run_rerank)):
        assert [e.docno for e in after.entries] == \
            [e.docno for e in reversed(before.entries)]


# --- eval / querywise / sweep ---


def test_eval_single_run(toy_cfg, toy_index, tmp_path):
    run_path, _, _ = cmd_run(toy_cfg("raw"))
    table = cmd_eval([run_path], TOY / "qrels.txt", ["ndcg@10", "map"],
                     tmp_path / "eval")
    assert len(table["rows"]) == 2
    assert (tmp_path / "eval" / "raw.ndcg@10.tsv").exists()
    assert (tmp_path / "eval" / "comparison.tsv").exists()


def test_eval_identical_runs_zero_delta_p_one(toy_cfg, toy_index, tmp_path):
    run_a, _, _ = cmd_run(toy_cfg("raw", tag="a"))
    run_b, _, _ = cmd_run(toy_cfg("raw", tag="b"))
    table = cmd_eval([run_a, run_b], TOY / "qrels.txt", ["ndcg@10"],
                     tmp_path / "eval", baseline="a")
    row_b = next(r for r in table["rows"] if r["run"] == "b")
    assert row_b["delta_pct"] == pytest.approx(0.0)
    assert row_b["p_value"] == 1.0
    assert row_b["significant"] is False


def test_eval_relative_improvement_matches_hand_computation(toy_cfg, toy_index, tmp_path):
    run_a, _, _ = cmd_run(toy_cfg("raw", tag="base"))
    run_b, _, _ = cmd_run(toy_cfg("genqrensemble", tag="ens"))
    table = cmd_eval([run_a, run_b], TOY / "qrels.txt", ["ndcg@10"],
                     tmp_path / "eval", baseline="base")
    qrels = load_qrels(TOY / "qrels.txt")
    spec = parse_metric("ndcg@10")
    mean_a = evaluate_run(read_run(run_a), qrels, spec).mean
    mean_b = evaluate_run(read_run(run_b), qrels, spec).mean
    row = next(r for r in table["rows"] if r["run"] == "ens")
    assert row["delta_pct"] == pytest.approx(100.0 * (mean_b - mean_a) / mean_a)


def test_querywise_self_comparison_all_zero(toy_cfg, toy_index, tmp_path):
    run_path, _, _ = cmd_run(toy_cfg("raw"))
    out = tmp_path / "qw.csv"
    rows = cmd_querywise(run_path, run_path, TOY / "qrels.txt", "ndcg@10", out)
    assert all(r["delta"] == 0.0 for r in rows)
    assert out.read_text().splitlines()[0] == "qid,value_a,value_b,delta"


def test_querywise_matches_eval_module(toy_cfg, toy_index, tmp_path):
    run_a, _, _ = cmd_run(toy_cfg("raw", tag="a"))
    run_b, _, _ = cmd_run(toy_cfg("genqrensemble", tag="b"))
    rows = cmd_querywise(run_a, run_b, TOY / "qrels.txt", "ndcg@10",
                         tmp_path / "qw.csv")
    qrels = load_qrels(TOY / "qrels.txt")
    spec = parse_metric("ndcg@10")
    per_a = evaluate_run(read_run(run_a), qrels, spec).per_query
    per_b = evaluate_run(read_run(run_b), qrels, spec).per_query
    for row in rows:
        assert row["value_a"] == pytest.approx(per_a[row["qid"]])
        assert row["value_b"] == pytest.approx(per_b[row["qid"]])
    deltas = [r["delta"] for r in rows]
    assert deltas == sorted(deltas)


def test_querywise_disjoint_queries_error(toy_cfg, toy_index, tmp_path):
    run_path, _, _ = cmd_run(toy_cfg("raw"))
    other = tmp_path / "other.run"
    other.write_text("99 Q0 d011 1 1.000000 x\n")
    with pytest.raises(ValueError, match="share no evaluated"):
        cmd_querywise(run_path, other, TOY / "qrels.txt", "ndcg@10",
                      tmp_path / "qw.csv")


def test_sweep_m_zero_equals_plain_ensemble(toy_cfg, toy_index, tmp_path):
    cfg = toy_cfg("genqrensemble_rf", tag="sweep", metrics=["ndcg@10"])
    rows = cmd_sweep(cfg, "m", [0], tmp_path / "sweep.csv")
    plain_run, _, _ = cmd_run(toy_cfg("genqrensemble", tag="plain",
                                      metrics=["ndcg@10"]))
    qrels = load_qrels(TOY / "qrels.txt")
    plain_mean = evaluate_run(read_run(plain_run), qrels, parse_metric("ndcg@10")).mean
    assert rows[0]["mean"] == pytest.approx(plain_mean)


def test_sweep_row_count_and_reuse(toy_cfg, toy_index, tmp_path, monkeypatch):
    cfg = toy_cfg("genqrensemble_rf", tag="s", metrics=["ndcg@10", "map"])
    out = tmp_path / "sweep.csv"
    rows = cmd_sweep(cfg, "m", [0, 1, 2], out)
    assert len(rows) == 3 * 2
    assert out.read_text().splitlines()[0] == "param,value,metric,mean"

    # warm-cache re-sweep issues zero backend calls
    from genqr.llm import StubBackend
    calls = {"n": 0}
    original = StubBackend._generate

    def counting(self, request):
        calls["n"] += 1
        return original(self, request)

    monkeypatch.setattr(StubBackend, "_generate", counting)
    rows_again = cmd_sweep(cfg, "m", [0, 1, 2], out)
    assert calls["n"] == 0
    assert rows_again == rows


@pytest.mark.parametrize("param,values", [("n", [3, 0]), ("beta", [1.0, -1.0]),
                                          ("retrieval_depth", [0])])
def test_sweep_bad_value_rejected_before_any_run(toy_cfg, toy_index, tmp_path,
                                                 param, values):
    cfg = toy_cfg("genqrensemble", tag="bad", metrics=["ndcg@10"])
    with pytest.raises(ConfigError, match=param):
        cmd_sweep(cfg, param, values, tmp_path / "sweep.csv")
    assert not Path(cfg.output_dir).exists()
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_bad_lambda_rejected_before_any_run(toy_index, tmp_path):
    cfg_path = tmp_path / "rm3.yaml"
    cfg_path.write_text(yaml.safe_dump(toy_config_dict("rm3", tag="lam", work=str(tmp_path))))
    with pytest.raises(ConfigError, match="lambda=2"):
        main(["sweep", "--config", str(cfg_path), "--param", "lambda", "--values", "0.5,2",
              "--out", str(tmp_path / "sweep.csv"), "--lenient"])
    assert not (tmp_path / "runs").exists()
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_unknown_param_rejected(toy_cfg, toy_index, tmp_path):
    cfg = toy_cfg("genqrensemble", tag="bad", metrics=["ndcg@10"])
    for param in ("mystery", "reformulation.mystery", "backend.seed"):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            cmd_sweep(cfg, param, [1], tmp_path / "sweep.csv")


def test_sweep_leaves_base_config_unchanged(toy_cfg, toy_index, tmp_path):
    cfg = toy_cfg("genqrensemble", tag="s", metrics=["ndcg@10"])
    before = repr(cfg)
    cmd_sweep(cfg, "n", [1, 2], tmp_path / "sweep.csv")
    assert repr(cfg) == before
    assert sorted(p.name for p in Path(cfg.output_dir).glob("*.run")) == \
        ["s-n1.run", "s-n2.run"]


def test_beta_zero_matches_raw_on_every_metric(toy_cfg, toy_index, tmp_path):
    # zero-weight expansions are annihilated by the scorer's weight linearity
    raw_run, _, _ = cmd_run(toy_cfg("raw", tag="r"))
    beta0_run, _, _ = cmd_run(toy_cfg("genqrensemble", tag="z",
                                      reformulation={"beta": 0.0}))
    qrels = load_qrels(TOY / "qrels.txt")
    for metric in ("ndcg@10", "map", "mrr", "p@10"):
        spec = parse_metric(metric)
        a = evaluate_run(read_run(raw_run), qrels, spec)
        b = evaluate_run(read_run(beta0_run), qrels, spec)
        assert a.per_query == pytest.approx(b.per_query)


def test_warm_cache_rerun_byte_identical(toy_cfg, toy_index):
    cfg = toy_cfg("genqrensemble", tag="warm")
    run_path, ref_path, _ = cmd_run(cfg)
    first = (run_path.read_bytes(), ref_path.read_bytes())
    run_path, ref_path, _ = cmd_run(cfg)
    assert (run_path.read_bytes(), ref_path.read_bytes()) == first


def test_worker_pool_output_independent_of_workers(toy_cfg, toy_index):
    single = cmd_run(toy_cfg("genqrensemble", tag="w1", workers=1))
    pooled = cmd_run(toy_cfg("genqrensemble", tag="w1", workers=4))
    assert pooled[0].read_bytes() == single[0].read_bytes()
    assert pooled[1].read_bytes() == single[1].read_bytes()


# --- paraphrase command ---


def test_paraphrase_command_writes_instruction_file(tmp_path):
    cfg = config_from_dict({
        "corpus": str(TOY / "corpus.jsonl"), "topics": str(TOY / "topics.tsv"),
        "index_dir": f"{tmp_path}/idx", "method": "raw",
        "backend": {"kind": "replay",
                    "transcript": str(genqr.data_path("replay", "goldfish.jsonl"))},
    })
    out = tmp_path / "instructions.txt"
    iset = cmd_paraphrase(cfg, count=10, out_path=out)
    assert iset.n == 10
    assert out.read_text().splitlines()[1] == \
        "Recommend expansion terms for the query to improve search results"


def test_paraphrase_cache_key_keeps_512_tokens(tmp_path):
    transcript = str(genqr.data_path("replay", "goldfish.jsonl"))
    cfg = config_from_dict({
        "corpus": str(TOY / "corpus.jsonl"), "topics": str(TOY / "topics.tsv"),
        "method": "raw", "cache_dir": str(tmp_path / "cache"), "max_new_tokens": 32,
        "backend": {"kind": "replay", "transcript": transcript},
    })
    cmd_paraphrase(cfg, count=10, out_path=tmp_path / "instructions.txt")
    request = GenRequest(prompt=f"{PARAPHRASE_PROMPT} {InstructionSet.default().base}",
                         sampling=cfg.sampling, max_new_tokens=512)
    key = cache_key(ReplayBackend(transcript), request)
    assert ResponseCache(tmp_path / "cache").get(key) is not None


# --- argparse entry point ---


def test_main_end_to_end(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(toy_config_dict(
        method="genqrensemble", tag="cli", work=str(tmp_path))))
    assert main(["index", "--config", str(cfg_path)]) == 0
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert main(["eval", str(tmp_path / "runs" / "cli.run"),
                 "--qrels", str(TOY / "qrels.txt"),
                 "--metrics", "ndcg@10", "--out", str(tmp_path / "eval")]) == 0
    assert (tmp_path / "eval" / "comparison.tsv").exists()
    assert main(["querywise", str(tmp_path / "runs" / "cli.run"),
                 str(tmp_path / "runs" / "cli.run"),
                 "--qrels", str(TOY / "qrels.txt"),
                 "--out", str(tmp_path / "qw.csv")]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--param", "n",
                 "--values", "1,2", "--out", str(tmp_path / "sweep.csv")]) == 0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 2 * 4
