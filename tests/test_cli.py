import dataclasses
import json
import os
import re
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
from genqr.analysis import Analyzer
from genqr.config import (METHODS, ConfigError, ExperimentConfig, Rm3Params,
                          config_from_dict, load_config)
from genqr.corpus_io import CorpusFormatError, load_qrels, load_topics, read_run
from genqr.evaluation import evaluate_run, holm_bonferroni, parse_metric
from genqr.index import IndexingError, PostingsIndex, WeightedQuery
from genqr.llm import (GenRequest, ReplayBackend, ResponseCache, SamplingConfig, cache_key,
                       write_transcript)
from genqr.reformulate import PARAPHRASE_PROMPT, InstructionSet, ReformulationConfig
from genqr.schema import build

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


def test_load_config_takes_inline_stub_vocab(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump({
        "method": "genqrensemble",
        "backend": {"kind": "stub", "vocab": {"Goldfish": ["carp"]}},
    }))
    assert load_config(cfg_path).make_generator().backend.vocab == {"goldfish": ["carp"]}


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
    pytest.param("reformulation", {"dedup": "no"},
                 "reformulation.dedup must be bool, got 'no'", id="dedup=no"),
    pytest.param("reformulation", {"n": 2.5}, "reformulation.n must be int, got 2.5",
                 id="n=2.5"),
    pytest.param("reformulation", {"n": True}, "reformulation.n must be int, got True",
                 id="n=true"),
    pytest.param("reformulation", {"beta": float("inf")},
                 "reformulation.beta must be finite, got inf", id="beta=inf"),
    pytest.param("reformulation", {"context_budget": -5},
                 r"reformulation.context_budget must be in \[0, inf\), got -5", id="context_budget=-5"),
    pytest.param("sampling", {"top_k": 1.5}, "sampling.top_k must be int, got 1.5",
                 id="top_k=1.5"),
    pytest.param("sampling", {"temperature": float("nan")},
                 "sampling.temperature must be finite, got nan", id="temperature=nan"),
    pytest.param("rm3", {"fb_docs": 2.5}, "rm3.fb_docs must be int, got 2.5",
                 id="fb_docs=2.5"),
    pytest.param("analyzer", {"stopwords": "the"},
                 "analyzer.stopwords must be a list of str, got 'the'", id="stopwords=the"),
    pytest.param("analyzer", {"lowercase": "false"},
                 r"unknown analyzer keys: \['lowercase'\]", id="lowercase=false"),
], ids=lambda v: v if isinstance(v, str) else next(iter(v)))
def test_bad_config_section_raises_config_error(section, value, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(toy_config_dict(**{section: value}))


_BAD_VALUES = [
    ("workers", True, r"unknown config keys: \['workers'\]"),
    ("retrieval_depth", 2.5, "retrieval_depth must be int, got 2.5"),
    ("k1", "1.2", "k1 must be float, got '1.2'"),
    ("b", float("nan"), "b must be finite, got nan"),
    ("b", 2, r"b must be in \[0, 1\], got 2"),
    ("max_new_tokens", 0, r"max_new_tokens must be in \[1, inf\), got 0"),
    ("rm3", None, "rm3 must be a mapping of Rm3Params fields, got None"),
    ("backend", ["stub"], r"backend must be a mapping of Backend fields, got \['stub'\]"),
    ("instructions", 5, "instructions must be str, got 5"),
    ("run_tag", "my run", "run_tag must be non-empty and without whitespace, got 'my run'"),
    ("run_tag", "", "run_tag must be non-empty and without whitespace, got ''"),
    ("run_tag", "../escaped", r"run_tag must not contain '/', got '\.\./escaped'"),
    ("run_tag", "sub/x", "run_tag must not contain '/', got 'sub/x'"),
    ("reformulation", {"prompt_template": "{instruction}: {querry}"},
     r"reformulation.prompt_template must be a format string .*\(KeyError: 'querry'\)"),
    ("reformulation", {"prompt_template": "{instruction}: {query"},
     r"reformulation.prompt_template must be a format string .*\(ValueError: "),
    ("reformulation", {"prompt_template": ""},
     r"reformulation.prompt_template must be a format string .*, got '' "
     r"\(no \{instruction\} and no \{query\}\)"),
    ("reformulation", {"prompt_template": "{instruction}"},
     r"reformulation.prompt_template must be a format string .*\(no \{query\}\)"),
    ("reformulation", {"prompt_template": "{query}"},
     r"reformulation.prompt_template must be a format string .*\(no \{instruction\}\)"),
    ("metrics", "ndcg@10", "metrics must be a list of str, got 'ndcg@10'"),
    ("corpus_format", "xml", r"corpus_format must be one of \(.*'trec-text'\), got 'xml'"),
    ("topics_format", "jsonl", r"topics_format must be one of \(.*'trec-topic'\), got 'jsonl'"),
    ("metrics", ["bogus"], "metrics: unknown metric 'bogus'"),
    ("metrics", ["ndcg"], "metrics: ndcg requires a positive cutoff"),
    ("metrics", ["map@5"], "metrics: map takes no cutoff"),
    ("metrics", ["p@0"], "metrics: precision requires a positive cutoff"),
    ("metrics", ["p@x"], "metrics: metric 'p@x': cutoff 'x' is not an integer"),
    ("metrics", ["map", "MAP"], "metrics: metric 'MAP' repeats map"),
]


@pytest.mark.parametrize("key,value,match", _BAD_VALUES,
                         ids=[f"{key}={value!r}" for key, value, _ in _BAD_VALUES])
def test_bad_config_value_raises_config_error(key, value, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(toy_config_dict(**{key: value}))


_BACKEND_BASES = {
    "stub": toy_config_dict()["backend"],
    "http": {"kind": "http", "url": "http://127.0.0.1:9/v1/complete", "model": "toy"},
}
_BAD_BACKENDS = [
    ("stub", {"n_terms": -1}, r"backend.n_terms must be in \[0, inf\), got -1"),
    ("stub", {"n_terms": "4"}, "backend.n_terms must be int, got '4'"),
    ("stub", {"seed": "x"}, "backend.seed must be int, got 'x'"),
    ("stub", {"max_in_flight": 0}, r"backend.max_in_flight must be in \[1, inf\), got 0"),
    ("stub", {"max_in_flight": 2.5}, "backend.max_in_flight must be int, got 2.5"),
    ("stub", {"max_in_flight": True}, "backend.max_in_flight must be int, got True"),
    ("stub", {"mystery": 1}, r"unknown backend keys: \['mystery'\]"),
    ("stub", {"vocab": None}, "backend.vocab is required"),
    ("http", {"timeout": -1}, r"backend.timeout must be in \(0, inf\), got -1"),
    ("http", {"timeout": 0}, r"backend.timeout must be in \(0, inf\), got 0"),
    ("http", {"max_retries": 0}, r"backend.max_retries must be in \[1, inf\), got 0"),
    ("http", {"backoff": -1}, r"backend.backoff must be in \[0, inf\), got -1"),
    ("http", {"url": 5}, "backend.url must be str, got 5"),
    ("http", {"url": "localhost:8000/v1"},
     "backend: url must be an http:// or https:// URL, got 'localhost:8000/v1'"),
    ("http", {"url": "ftp://example.org/v1"}, "backend: url must be an http:// or https://"),
    ("http", {"url": "http:///v1"}, "backend: url must be an http:// or https://"),
    ("gpt", {}, "unknown backend kind 'gpt'"),
    # a replay row's options hold the transcript's text, which the test writes to bad.jsonl
    ("replay", {"transcript": "not json\n"},
     r"backend: .*bad.jsonl:1: invalid JSON \(Expecting value\)"),
    ("replay", {"transcript": '{"prompt": "p", "response": "r"}\n\n{"prompt": "q"}\n'},
     "backend: .*bad.jsonl:3: a row needs string 'prompt' and 'response' values"),
    ("replay", {"transcript": '["p", "r"]\n'},
     "backend: .*bad.jsonl:1: a row needs string 'prompt' and 'response' values"),
    # a stub row's file vocab is the text the test writes to bad.json
    ("stub", {"vocab": "not json"}, r"backend: .*bad.json: invalid JSON \(Expecting value\)"),
    ("stub", {"vocab": '["a"]'}, "backend: .*bad.json: a vocab must map words to lists of strings"),
    ("stub", {"vocab": {"a": 5}}, "backend: vocab: a vocab must map words to lists of strings"),
    ("stub", {"vocab": {"a": ["b", 3]}},
     "backend: vocab: a vocab must map words to lists of strings"),
]


@pytest.mark.parametrize("kind,options,match", _BAD_BACKENDS,
                         ids=[f"{kind}-{options}" for kind, options, _ in _BAD_BACKENDS])
def test_bad_backend_option_raises_config_error(kind, options, match, tmp_path):
    backend = {**_BACKEND_BASES.get(kind, {"kind": kind}), **options}
    backend = {k: v for k, v in backend.items() if v is not None}  # None drops the key
    if kind == "replay":
        transcript = tmp_path / "bad.jsonl"
        transcript.write_text(backend["transcript"])
        backend["transcript"] = str(transcript)
    if kind == "stub" and isinstance(options.get("vocab"), str):
        vocab = tmp_path / "bad.json"
        vocab.write_text(options["vocab"])
        backend["vocab"] = str(vocab)
    # raw never generates, yet its backend section is checked when it loads
    with pytest.raises(ConfigError, match=match):
        config_from_dict(toy_config_dict("raw", backend=backend))


def test_missing_input_file_fails_at_load(tmp_path):
    backend = {**_BACKEND_BASES["stub"], "vocab": str(tmp_path / "missing.json")}
    with pytest.raises(ConfigError, match="backend: .*No such file.*missing.json"):
        config_from_dict(toy_config_dict("raw", backend=backend))
    with pytest.raises(ConfigError, match="instructions .*No such file.*missing.txt"):
        config_from_dict(toy_config_dict("raw", instructions=str(tmp_path / "missing.txt")))


def test_bad_backend_option_stops_lenient_run_before_any_query(toy_index, tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(toy_config_dict(
        "genqrensemble", work=str(tmp_path),
        backend={**_BACKEND_BASES["stub"], "n_terms": -1})))
    with pytest.raises(ConfigError, match="backend.n_terms"):
        main(["run", "--config", str(cfg_path), "--lenient"])
    assert not (tmp_path / "runs").exists()
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("cls,serialise", [
    (Analyzer, Analyzer.config), (SamplingConfig, dataclasses.asdict),
    (ReformulationConfig, dataclasses.asdict), (Rm3Params, dataclasses.asdict),
    (ExperimentConfig, dataclasses.asdict),
], ids=lambda v: getattr(v, "__name__", None))
def test_section_defaults_round_trip(cls, serialise):
    assert build(cls, serialise(cls())) == cls()


@pytest.mark.parametrize("section,attr", [("rm3", "lam"), ("reformulation", "n"),
                                          (None, "k1")])
def test_config_sections_are_frozen(section, attr):
    cfg = config_from_dict(toy_config_dict())
    target = getattr(cfg, section) if section else cfg
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(target, attr, 1)


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


def test_oracle_feedback_without_qrels_fails_at_load():
    raw = toy_config_dict("flanprf", qrels=None, reformulation={"feedback_mode": "oracle"})
    with pytest.raises(ConfigError, match="oracle feedback needs a qrels path"):
        config_from_dict(raw)
    config_from_dict({**raw, "method": "flanqr"})  # a pre-retrieval method takes no feedback


def test_instructions_file_read_at_load(tmp_path):
    path = tmp_path / "instructions.txt"
    path.write_text("first\nsecond\n")
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump({"method": "genqrensemble", "instructions": path.name,
                                        "reformulation": {"n": 2},
                                        "backend": _BACKEND_BASES["stub"]}))
    assert load_config(cfg_path).instructions == InstructionSet("first", ("second",))
    path.write_text("same\nsame\n")
    with pytest.raises(ConfigError, match="instructions .*: instructions must be distinct"):
        load_config(cfg_path)


def test_feedback_mode_none_runs_as_pseudo():
    """The removed feedback mode "none" fails at load."""
    with pytest.raises(ConfigError, match=r"reformulation.feedback_mode must be one of "
                                          r"\('pseudo', 'oracle'\), got 'none'"):
        config_from_dict(toy_config_dict("flanprf", reformulation={"feedback_mode": "none"}))


@pytest.mark.parametrize("parser", ["raw-append", "whitespace"])
def test_keyword_parser_deprecated_but_loads(parser):
    """The removed keyword_parser key fails at load, whichever parser it names."""
    with pytest.raises(ConfigError, match=r"unknown reformulation keys: \['keyword_parser'\]"):
        config_from_dict(toy_config_dict(reformulation={"keyword_parser": parser, "n": 3}))


def test_unknown_keyword_parser_rejected():
    with pytest.raises(ConfigError, match=r"unknown reformulation keys: \['keyword_parser'\]"):
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


def _loaded_heavy_modules(code: str, watched: tuple = HEAVY_MODULES) -> list:
    """Run `code` in a fresh interpreter with PYTHONPATH=src; return which of
    the `watched` modules it left loaded."""
    probe = code + ("\nimport json, sys\n"
                    f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_loads_no_heavy_modules():
    assert _loaded_heavy_modules("import genqr.cli", HEAVY_MODULES + ("yaml",)) == []


def test_stub_run_does_not_load_requests(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(
        toy_config_dict("genqrensemble", work=str(tmp_path))))
    code = (f"from genqr.cli import main\n"
            f"assert main(['index', '--config', {str(cfg_path)!r}]) == 0\n"
            f"assert main(['run', '--config', {str(cfg_path)!r}]) == 0\n")
    assert _loaded_heavy_modules(code) == []
    assert (tmp_path / "runs" / "run.run").exists()


_HTTP_PROBE = '''
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from genqr.llm import GenRequest, HttpBackend

class Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = b'{"text": "koi carp"}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
threading.Thread(target=server.serve_forever, daemon=True).start()
backend = HttpBackend(f"http://127.0.0.1:{server.server_port}/v1", model="toy",
                      max_retries=1, timeout=10)
assert backend.generate(GenRequest(prompt="goldfish")) == "koi carp"
server.shutdown()
'''


def test_http_request_does_not_load_requests():
    assert _loaded_heavy_modules(_HTTP_PROBE, HEAVY_MODULES + ("urllib3",)) == []


def test_json_config_run_does_not_load_yaml(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(toy_config_dict("genqrensemble", work=str(tmp_path))))
    code = (f"from genqr.cli import main\n"
            f"assert main(['index', '--config', {str(cfg_path)!r}]) == 0\n"
            f"assert main(['run', '--config', {str(cfg_path)!r}]) == 0\n")
    assert _loaded_heavy_modules(code, HEAVY_MODULES + ("yaml",)) == []
    assert (tmp_path / "runs" / "run.run").exists()


def test_yaml_config_with_comments_loads(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text("# an experiment\n"
                        "method: rm3  # pseudo feedback\n"
                        "rm3:\n"
                        "  fb_docs: 5\n"
                        "run_tag: commented\n")
    cfg = load_config(cfg_path)
    assert (cfg.method, cfg.rm3.fb_docs, cfg.run_tag) == ("rm3", 5, "commented")
    for empty in ("", "# only a comment\n", "null"):  # an empty document: all defaults
        cfg_path.write_text(empty)
        assert load_config(cfg_path) == ExperimentConfig()
    for root in ("[]", "false", "0", '""', "- method: rm3\n", "just text\n"):
        cfg_path.write_text(root)
        with pytest.raises(ConfigError, match="config root must be a mapping"):
            load_config(cfg_path)


def test_json_config_takes_exponent_floats(tmp_path):
    # YAML 1.1 reads 2.5e3 as a string; as JSON it is the float it looks like.
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text('{"method": "rm3", "rm3": {"mu": 2.5e3, "lam": 1e-1}}')
    cfg = load_config(cfg_path)
    assert (cfg.rm3.mu, cfg.rm3.lam) == (2500.0, 0.1)


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
        PostingsIndex.load(cfg.index_dir, cfg.analyzer)
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
        PostingsIndex.load(dest, cfg.analyzer)
    with caplog.at_level("INFO"):
        rebuilt = cmd_index(cfg)
    assert "indexed 50 documents" in caplog.text
    assert rebuilt.postings == built.postings
    assert PostingsIndex.load(dest, cfg.analyzer).postings == built.postings


def test_run_against_index_of_another_analyzer_asks_for_force_rebuild(toy_cfg):
    cmd_index(toy_cfg("raw"))
    changed = toy_cfg("raw", analyzer={"stemmer": "porter"})
    with pytest.raises(IndexingError, match="index analyzer differs from the configured one; "
                                            "rebuild it with `genqr index --force`"):
        cmd_run(changed)
    assert not Path(changed.output_dir).exists()


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
    tag, runs = read_run(run_path)
    assert tag == cfg.run_tag
    index = PostingsIndex.load(cfg.index_dir, cfg.analyzer)
    for topic in load_topics(cfg.topics):
        expected = index.retrieve(
            WeightedQuery.from_terms(topic.qid, index.analyzer.analyze(topic.query)),
            k=cfg.retrieval_depth, k1=cfg.k1, b=cfg.b)
        got = next(r for r in runs if r.qid == topic.qid)
        assert [e.docno for e in got.entries] == [e.docno for e in expected.entries]
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
    index = PostingsIndex.load(pseudo_cfg.index_dir, pseudo_cfg.analyzer)
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
    assert all(r.qid == "1" for r in read_run(run_path)[1])


def test_clean_rerun_removes_the_old_failures_file(toy_cfg, toy_index, tmp_path):
    topics = tmp_path / "topics.tsv"
    topics.write_text("1\tgoldfish growth\n2\t???\n")  # qid 2 analyzes to nothing
    run_path, _, failed = cmd_run(toy_cfg("raw", topics=str(topics)), lenient=True)
    fail_path = run_path.parent / "raw.failures.jsonl"
    assert failed == 1 and fail_path.exists()
    topics.write_text("1\tgoldfish growth\n")
    _, _, failed = cmd_run(toy_cfg("raw", topics=str(topics)), lenient=True)
    assert failed == 0 and not fail_path.exists()


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
    for before, after in zip(read_run(run_plain)[1], read_run(run_rerank)[1]):
        assert [e.docno for e in after.entries] == \
            [e.docno for e in reversed(before.entries)]


# --- eval / querywise / sweep ---


def test_eval_single_run(toy_cfg, toy_index, tmp_path):
    run_path, _, _ = cmd_run(toy_cfg("raw"))
    table = cmd_eval([run_path], load_qrels(TOY / "qrels.txt"), ["ndcg@10", "map"],
                     tmp_path / "eval")
    assert len(table["rows"]) == 2
    assert (tmp_path / "eval" / "raw.ndcg@10.tsv").exists()
    assert (tmp_path / "eval" / "comparison.tsv").exists()


def test_eval_identical_runs_zero_delta_p_one(toy_cfg, toy_index, tmp_path):
    run_a, _, _ = cmd_run(toy_cfg("raw", tag="a"))
    run_b, _, _ = cmd_run(toy_cfg("raw", tag="b"))
    table = cmd_eval([run_a, run_b], load_qrels(TOY / "qrels.txt"), ["ndcg@10"],
                     tmp_path / "eval", baseline="a")
    row_b = next(r for r in table["rows"] if r["run"] == "b")
    assert row_b["delta_pct"] == pytest.approx(0.0)
    assert row_b["p_value"] == 1.0
    assert row_b["significant"] is False


def test_eval_relative_improvement_matches_hand_computation(toy_cfg, toy_index, tmp_path):
    run_a, _, _ = cmd_run(toy_cfg("raw", tag="base"))
    run_b, _, _ = cmd_run(toy_cfg("genqrensemble", tag="ens"))
    qrels = load_qrels(TOY / "qrels.txt")
    table = cmd_eval([run_a, run_b], qrels, ["ndcg@10"], tmp_path / "eval", baseline="base")
    spec = parse_metric("ndcg@10")
    mean_a = evaluate_run(read_run(run_a)[1], qrels, spec).mean
    mean_b = evaluate_run(read_run(run_b)[1], qrels, spec).mean
    row = next(r for r in table["rows"] if r["run"] == "ens")
    assert row["delta_pct"] == pytest.approx(100.0 * (mean_b - mean_a) / mean_a)


def _run_with_relevant_at(path, tag, rank_of_relevant):
    """A run file ranking doc "r" at the given rank of each qid, among nine others."""
    lines = []
    for qid, at in rank_of_relevant.items():
        docs = [f"n{i}" for i in range(1, 10)]
        docs.insert(at - 1, "r")
        lines += [f"{qid} Q0 {d} {i} {10 - i}.000000 {tag}" for i, d in enumerate(docs, 1)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_eval_holm_flags_only_the_tested_rows(tmp_path):
    qids = ["q1", "q2", "q3", "q4", "q5"]
    qrels = tmp_path / "qrels.txt"  # only q1 has a grade >= 2
    qrels.write_text("".join(f"{q} 0 r {2 if q == 'q1' else 1}\n" for q in qids))
    runs = [_run_with_relevant_at(tmp_path / f"{tag}.run", tag, dict(zip(qids, ranks)))
            for tag, ranks in [("base", [5, 6, 5, 7, 5]), ("good", [1, 1, 1, 1, 2]),
                               ("near", [4, 7, 5, 6, 5])]]
    table = cmd_eval(runs, load_qrels(qrels), ["ndcg@10", "map", "mrr"], tmp_path / "eval",
                     baseline="base", min_rel=2)
    rows = table["rows"]
    assert [(r["run"], r["metric"]) for r in rows] == \
        [(run, m) for run in ("base", "good", "near") for m in ("ndcg@10", "map", "mrr")]
    # nDCG counts every grade > 0; map and mrr at min_rel 2 evaluate q1 alone
    tested = [r for r in rows if r["p_value"] is not None]
    assert [(r["run"], r["metric"]) for r in tested] == [("good", "ndcg@10"),
                                                         ("near", "ndcg@10")]
    assert all(r["evaluated"] == 1 for r in rows if r["metric"] != "ndcg@10")
    flags = holm_bonferroni([r["p_value"] for r in tested], 0.05)
    assert flags == [True, False]
    assert [r["significant"] for r in tested] == flags
    assert all(r["significant"] is None for r in rows if r["p_value"] is None)


@pytest.mark.parametrize("baseline", ["a", None])
def test_eval_rejects_alpha_before_writing(toy_cfg, toy_index, tmp_path, baseline):
    runs = [cmd_run(toy_cfg("raw", tag=tag))[0] for tag in ("a", "b")]
    out = tmp_path / "eval"
    out.mkdir()
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\), got 1.5"):
        cmd_eval(runs, load_qrels(TOY / "qrels.txt"), ["ndcg@10", "map"], out, baseline=baseline,
                 alpha=1.5)
    assert list(out.iterdir()) == []


def test_bad_alpha_leaves_out_uncreated(toy_cfg, toy_index, tmp_path):
    run_path, _, _ = cmd_run(toy_cfg("raw"))
    out = tmp_path / "eval"
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\), got 0.0"):
        main(["eval", str(run_path), "--qrels", str(TOY / "qrels.txt"), "--out", str(out),
              "--alpha", "0"])
    assert not out.exists()


def test_eval_rejects_a_run_tag_with_a_slash_before_writing(tmp_path):
    """The tag names the report files: `../outside` would put them beside --out."""
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "x.run").write_text("1 Q0 d001 1 1.000000 ../outside\n")
    with pytest.raises(ValueError, match=r"x.run: run tag '\.\./outside' must not contain '/'"):
        cmd_eval([runs / "x.run"], load_qrels(TOY / "qrels.txt"), ["map"], runs / "ev2")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["runs", "x.run"]


def test_eval_evaluates_a_metric_once(toy_cfg, toy_index, tmp_path):
    run_path, _, _ = cmd_run(toy_cfg("raw"))
    out = tmp_path / "eval"
    with pytest.raises(ValueError, match="metric 'MAP' repeats map"):
        main(["eval", str(run_path), "--qrels", str(TOY / "qrels.txt"), "--out", str(out),
              "--metrics", "map", "MAP", "map"])
    assert not out.exists()


def test_querywise_self_comparison_all_zero(toy_cfg, toy_index, tmp_path):
    run_path, _, _ = cmd_run(toy_cfg("raw"))
    out = tmp_path / "qw.csv"
    rows = cmd_querywise(run_path, run_path, load_qrels(TOY / "qrels.txt"), "ndcg@10", out)
    assert all(r["delta"] == 0.0 for r in rows)
    assert out.read_text().splitlines()[0] == "qid,value_a,value_b,delta"


def test_querywise_matches_eval_module(toy_cfg, toy_index, tmp_path):
    run_a, _, _ = cmd_run(toy_cfg("raw", tag="a"))
    run_b, _, _ = cmd_run(toy_cfg("genqrensemble", tag="b"))
    rows = cmd_querywise(run_a, run_b, load_qrels(TOY / "qrels.txt"), "ndcg@10",
                         tmp_path / "qw.csv")
    qrels = load_qrels(TOY / "qrels.txt")
    spec = parse_metric("ndcg@10")
    per_a = evaluate_run(read_run(run_a)[1], qrels, spec).per_query
    per_b = evaluate_run(read_run(run_b)[1], qrels, spec).per_query
    for row in rows:
        assert row["value_a"] == pytest.approx(per_a[row["qid"]])
        assert row["value_b"] == pytest.approx(per_b[row["qid"]])
    deltas = [r["delta"] for r in rows]
    assert deltas == sorted(deltas)


def test_querywise_disjoint_queries_score_missing_zero(toy_cfg, toy_index, tmp_path):
    run_path, _, _ = cmd_run(toy_cfg("raw"))
    other = tmp_path / "other.run"
    other.write_text("99 Q0 d011 1 1.000000 x\n")  # qid 99 is unjudged
    rows = cmd_querywise(run_path, other, load_qrels(TOY / "qrels.txt"), "ndcg@10",
                         tmp_path / "qw.csv")
    per_a = evaluate_run(read_run(run_path)[1], load_qrels(TOY / "qrels.txt"),
                         parse_metric("ndcg@10")).per_query
    assert sorted(r["qid"] for r in rows) == sorted(load_qrels(TOY / "qrels.txt").qids())
    for row in rows:
        assert row["value_a"] == pytest.approx(per_a[row["qid"]])
        assert row["value_b"] == 0.0


def test_querywise_without_relevant_documents_error(toy_cfg, toy_index, tmp_path):
    run_path, _, _ = cmd_run(toy_cfg("raw"))
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("1 0 d001 0\n")
    with pytest.raises(ValueError, match="no judged topic has a relevant document"):
        cmd_querywise(run_path, run_path, load_qrels(qrels), "ndcg@10", tmp_path / "qw.csv")


def _failing_topics(tmp_path):
    """The toy topics, each with a query that analyses to nothing."""
    topics = tmp_path / "failing.tsv"
    topics.write_text("".join(f"{t.qid}\t???\n" for t in load_topics(TOY / "topics.tsv")))
    return str(topics)


def test_eval_scores_judged_topics_missing_from_run(toy_cfg, toy_index, tmp_path, caplog):
    failed_path, _, failed = cmd_run(toy_cfg("raw", tag="failed",
                                             topics=_failing_topics(tmp_path)), lenient=True)
    assert failed == 10 and failed_path.read_text() == ""
    raw_lines = cmd_run(toy_cfg("raw"))[0].read_text().splitlines()
    first_qid = raw_lines[0].split()[0]
    partial = tmp_path / "partial.run"  # the raw run cut to its first topic
    partial.write_text("".join(line.replace(" raw", " partial") + "\n" for line in raw_lines
                               if line.split()[0] == first_qid))
    with caplog.at_level("WARNING"):
        table = cmd_eval([failed_path, partial], load_qrels(TOY / "qrels.txt"), ["map"],
                         tmp_path / "eval")
    rows = {row["run"]: row for row in table["rows"]}
    assert rows["failed"]["evaluated"] == rows["partial"]["evaluated"] == 10
    assert rows["failed"]["mean"] == 0.0
    one = evaluate_run(read_run(partial)[1], load_qrels(TOY / "qrels.txt"),
                       parse_metric("map")).per_query[first_qid]
    assert rows["partial"]["mean"] == pytest.approx(one / 10)
    assert "failed: 10 judged topics missing" in caplog.text
    assert "partial: 9 judged topics missing" in caplog.text


def test_sweep_scores_failed_queries_zero(toy_cfg, toy_index, tmp_path, caplog):
    cfg = toy_cfg("raw", tag="s", topics=_failing_topics(tmp_path), metrics=["map"])
    with caplog.at_level("WARNING"), pytest.raises(RuntimeError, match="10 queries failed"):
        cmd_sweep(cfg, "k1", [1.2], tmp_path / "sweep.csv", lenient=True)
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1] == "k1,1.2,map,0.000000"
    assert "s-k11.2: 10 judged topics missing" in caplog.text


def test_sweep_reports_like_eval(toy_cfg, toy_index, tmp_path):
    cfg = toy_cfg("genqrensemble_rf", tag="g")
    rows = cmd_sweep(cfg, "method", METHODS, tmp_path / "sweep.csv")
    runs = Path(cfg.output_dir)
    tags = [f"g-method{method}" for method in METHODS]
    swept = {tag: (runs / f"{tag}.run").read_bytes() for tag in tags}
    for method, tag in zip(METHODS, tags):
        run_path, _, _ = cmd_run(toy_cfg(method, tag=tag, output_dir=str(tmp_path / "alone")))
        assert run_path.read_bytes() == swept[tag]

    eval_out = tmp_path / "eval"
    assert main(["eval", *(str(runs / f"{tag}.run") for tag in tags),
                 "--qrels", str(TOY / "qrels.txt"), "--baseline", tags[0],
                 "--out", str(eval_out)]) == 0
    table = (runs / "g-method" / "comparison.tsv").read_bytes()
    assert table == (eval_out / "comparison.tsv").read_bytes()

    table_means = [tuple(line.split("\t")[:3])
                   for line in table.decode().splitlines()[1:]]
    csv_means = [(f"g-method{row['value']}", row["metric"], f"{row['mean']:.6f}")
                 for row in rows]
    assert csv_means == table_means
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1:] == \
        [f"method,{row['value']},{row['metric']},{row['mean']:.6f}" for row in rows]


def test_sweep_m_zero_equals_plain_ensemble(toy_cfg, toy_index, tmp_path):
    cfg = toy_cfg("genqrensemble_rf", tag="sweep", metrics=["ndcg@10"])
    rows = cmd_sweep(cfg, "m", [0], tmp_path / "sweep.csv")
    plain_run, _, _ = cmd_run(toy_cfg("genqrensemble", tag="plain",
                                      metrics=["ndcg@10"]))
    qrels = load_qrels(TOY / "qrels.txt")
    plain_mean = evaluate_run(read_run(plain_run)[1], qrels, parse_metric("ndcg@10")).mean
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


def test_sweep_tag_with_a_slash_rejected_before_any_run(toy_cfg, toy_index, tmp_path):
    cfg = toy_cfg("genqrensemble", tag="t")
    template = "{instruction}/{query}"  # a swept value names the run: t-<param><value>
    with pytest.raises(ConfigError, match="run_tag must not contain '/'"):
        cmd_sweep(cfg, "reformulation.prompt_template", ["{instruction}:{query}", template],
                  tmp_path / "sweep.csv")
    assert not Path(cfg.output_dir).exists()


@pytest.mark.parametrize("values,tag", [([1, 1], "rep-m1"), ([0, 2, 0], "rep-m0")])
def test_sweep_repeated_value_rejected_before_any_run(toy_cfg, toy_index, tmp_path,
                                                      values, tag):
    cfg = toy_cfg("genqrensemble_rf", tag="rep", metrics=["ndcg@10"])
    with pytest.raises(ConfigError, match=f"repeated run tag '{tag}'"):
        cmd_sweep(cfg, "m", values, tmp_path / "sweep.csv")
    assert not Path(cfg.output_dir).exists()
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("qrels", [None, "missing.txt"])
def test_sweep_without_qrels_file_rejected_before_any_run(toy_cfg, toy_index, tmp_path,
                                                          qrels):
    qrels = qrels and str(tmp_path / qrels)
    cfg = toy_cfg("raw", tag="noq", qrels=qrels)
    with pytest.raises(ConfigError, match=re.escape(f"sweep needs a qrels file in the "
                                                    f"config, got {qrels!r}")):
        cmd_sweep(cfg, "k1", [1.2], tmp_path / "sweep.csv")
    assert not Path(cfg.output_dir).exists()
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_malformed_qrels_rejected_before_any_run(toy_cfg, toy_index, tmp_path):
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("1 0 d001 x\n")
    cfg = toy_cfg("raw", tag="badq", qrels=str(qrels))
    with pytest.raises(CorpusFormatError, match="non-integer grade 'x'"):
        cmd_sweep(cfg, "k1", [1.0, 1.2], tmp_path / "sweep.csv")
    assert not list(tmp_path.rglob("*.run"))
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_reads_the_qrels_once(toy_cfg, toy_index, tmp_path, monkeypatch):
    paths = []

    def counting(path):
        paths.append(path)
        return load_qrels(path)

    monkeypatch.setattr(genqr.cli, "load_qrels", counting)
    cmd_sweep(toy_cfg("raw", tag="once"), "k1", [1.0, 1.2], tmp_path / "sweep.csv")
    assert len(paths) == 1


def test_sweep_bad_lambda_rejected_before_any_run(toy_index, tmp_path):
    cfg_path = tmp_path / "rm3.yaml"
    cfg_path.write_text(yaml.safe_dump(toy_config_dict("rm3", tag="lam", work=str(tmp_path))))
    with pytest.raises(ConfigError, match="lambda=2"):
        main(["sweep", "--config", str(cfg_path), "--param", "lambda", "--values", "0.5,2",
              "--out", str(tmp_path / "sweep.csv"), "--lenient"])
    assert not (tmp_path / "runs").exists()
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_bool_values_through_main(toy_index, tmp_path):
    cfg_path = tmp_path / "ens.yaml"
    cfg_path.write_text(yaml.safe_dump(toy_config_dict("genqrensemble", tag="d",
                                                       work=str(tmp_path))))
    args = ["sweep", "--config", str(cfg_path), "--param", "reformulation.dedup",
            "--out", str(tmp_path / "sweep.csv")]
    assert main(args + ["--values", "false,true"]) == 0
    runs = tmp_path / "runs"
    off = (runs / "d-reformulation.dedupFalse.reformulations.jsonl").read_text()
    on = (runs / "d-reformulation.dedupTrue.reformulations.jsonl").read_text()
    assert off != on
    for values, match in [("0,1", "dedup must be bool, got 0"),
                          ("yes", "dedup must be bool, got 'yes'")]:
        with pytest.raises(ConfigError, match=match):
            main(args + ["--values", values])


def test_sweep_unknown_param_rejected(toy_cfg, toy_index, tmp_path):
    cfg = toy_cfg("genqrensemble", tag="bad", metrics=["ndcg@10"])
    for param in ("mystery", "reformulation.mystery", "backend.mystery"):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            cmd_sweep(cfg, param, [1], tmp_path / "sweep.csv")


def test_sweep_over_backend_seed(toy_cfg, toy_index, tmp_path):
    cfg = toy_cfg("genqrensemble", tag="s", metrics=["ndcg@10"])
    cmd_sweep(cfg, "backend.seed", [1, 2], tmp_path / "sweep.csv")
    runs = Path(cfg.output_dir)
    one = (runs / "s-backend.seed1.reformulations.jsonl").read_text()
    two = (runs / "s-backend.seed2.reformulations.jsonl").read_text()
    assert one != two
    assert cfg.backend.seed == 42


def test_sweep_n_past_the_instruction_set_fails_before_any_run(toy_cfg, toy_index, tmp_path):
    cfg = toy_cfg("genqrensemble", tag="s", metrics=["ndcg@10"])
    with pytest.raises(ConfigError, match="n=20: reformulation.n=20 exceeds the "
                                          "10-instruction set"):
        cmd_sweep(cfg, "n", [1, 20], tmp_path / "sweep.csv")
    assert not Path(cfg.output_dir).exists()
    assert not (tmp_path / "sweep.csv").exists()


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
        a = evaluate_run(read_run(raw_run)[1], qrels, spec)
        b = evaluate_run(read_run(beta0_run)[1], qrels, spec)
        assert a.per_query == pytest.approx(b.per_query)


def test_warm_cache_rerun_byte_identical(toy_cfg, toy_index):
    cfg = toy_cfg("genqrensemble", tag="warm")
    run_path, ref_path, _ = cmd_run(cfg)
    first = (run_path.read_bytes(), ref_path.read_bytes())
    run_path, ref_path, _ = cmd_run(cfg)
    assert (run_path.read_bytes(), ref_path.read_bytes()) == first


def test_workers_key_is_deprecated_and_ignored(toy_cfg):
    """The removed workers key fails at load, whatever its value."""
    for workers in (4, 0):
        with pytest.raises(ConfigError, match=r"unknown config keys: \['workers'\]"):
            toy_cfg("genqrensemble", workers=workers)


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


def test_paraphrase_starts_from_the_configured_instruction_set(tmp_path):
    (tmp_path / "mine.txt").write_text("Name search words for\nList more words for\n")
    write_transcript([{"prompt": f"{PARAPHRASE_PROMPT} Name search words for",
                       "response": "1. Give terms for\n2. Suggest words for"}],
                     tmp_path / "t.jsonl")
    cfg = config_from_dict({"instructions": str(tmp_path / "mine.txt"),
                            "backend": {"kind": "replay",
                                        "transcript": str(tmp_path / "t.jsonl")}})
    cmd_paraphrase(cfg, count=3, out_path=tmp_path / "out.txt")
    assert (tmp_path / "out.txt").read_text().splitlines() == \
        ["Name search words for", "Give terms for", "Suggest words for"]


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
