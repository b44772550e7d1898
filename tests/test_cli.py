import csv
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
from hypothesis import example, given, settings, strategies as st

import genqr
import genqr.index
from genqr.cli import (_QueryRunner, cmd_eval, cmd_index, cmd_paraphrase, cmd_querywise,
                       cmd_run, cmd_sweep, main)
from genqr.analysis import Analyzer
from genqr.config import (METHODS, ConfigError, ExperimentConfig, Rm3Params,
                          config_from_dict, load_config, read_config)
from genqr.corpus_io import CorpusFormatError, load_qrels, load_topics, read_run
from genqr.evaluation import evaluate_run, holm_bonferroni, parse_metric
from genqr.index import IndexingError, PostingsIndex, WeightedQuery
from genqr.llm import (BackendError, GenRequest, ReplayBackend, ResponseCache, SamplingConfig,
                       cache_key, write_transcript)
from genqr.reformulate import PARAPHRASE_PROMPT, InstructionSet, ReformulationConfig
from genqr.schema import build

from conftest import (TOY, assert_same_index, read_index_file, toy_config_dict,
                      write_index_file)


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


def test_config_paths_follow_one_rule(tmp_path, monkeypatch):
    """Input and backend paths alike: a relative one resolves against the
    config's directory, an empty or absolute one is kept as given."""
    base, elsewhere = tmp_path / "cfg", tmp_path / "cwd"
    base.mkdir()
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    transcript = tmp_path / "t.jsonl"
    write_transcript([{"prompt": "p", "response": "r"}], transcript)
    write_transcript([{"prompt": "p", "response": "r"}], base / "t.jsonl")
    cfg = config_from_dict({"corpus": "", "topics": str(tmp_path / "topics.tsv"),
                            "qrels": "q.txt", "backend": {"kind": "replay",
                                                          "transcript": str(transcript)}},
                           base_dir=base)
    assert (cfg.corpus, cfg.topics, cfg.qrels) == ("", str(tmp_path / "topics.tsv"),
                                                   str(base / "q.txt"))
    assert cfg.backend.transcript == str(transcript)
    cfg = config_from_dict({"backend": {"kind": "replay", "transcript": "t.jsonl"}},
                           base_dir=base)
    assert cfg.backend.transcript == str(base / "t.jsonl")
    for kind, key in (("replay", "transcript"), ("stub", "vocab")):
        # "" stays "", so the backend opens the working directory, not the config's
        with pytest.raises(ConfigError, match=r"backend: .*Is a directory: '\.'"):
            config_from_dict({"backend": {"kind": kind, key: ""}}, base_dir=base)


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
    pytest.param("rm3", {"fb_docs": 2.5}, r"unknown rm3 keys: \['fb_docs'\]",
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
    ("fb_docs", -1, r"fb_docs must be in \[0, inf\), got -1"),
    ("fb_docs", 2.5, "fb_docs must be int, got 2.5"),
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
    # a key given twice, as written or in lower case, and a prompt recorded twice
    ("stub", {"vocab": '{"goldfish": ["carp"], "goldfish": ["koi"]}'},
     "backend: .*bad.json: key 'goldfish' given twice"),
    ("stub", {"vocab": '{"Goldfish": ["carp"], "goldfish": ["koi"]}'},
     "backend: .*bad.json: key 'goldfish' given twice"),
    ("stub", {"vocab": {"Goldfish": ["carp"], "goldfish": ["koi"]}},
     "backend: vocab: key 'goldfish' given twice"),
    ("replay", {"transcript": '{"prompt": "p0", "response": "r"}\n'
                              '{"prompt": "p1", "response": "a", "response": "b"}\n'},
     "backend: .*bad.jsonl:2: key 'response' given twice"),
    ("replay", {"transcript": '{"prompt": "p2", "response": "x"}\n\n'
                              '{"prompt": "p2", "response": "y"}\n'},
     r"backend: .*bad.jsonl:3: prompt \w+ has another response at line 1"),
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


# One Latin-1 byte per config input, on the line given: (input, bytes, line).
_CONFIG_NOT_UTF8 = [
    ("config", b'{"method": "raw",\n "run_tag": "caf\xe9"}\n', 2),
    ("vocab", b'{"goldfish": ["carp"],\n "caf\xe9": ["tea"]}\n', 2),
    ("transcript", b'{"prompt": "p", "response": "r"}\n{"prompt": "q\xe9", "response": "s"}\n', 2),
    ("instructions", b"Expand the query.\nAdd synonyms.\nAdd caf\xe9 terms.\n", 3),
]


@pytest.mark.parametrize("source,data,lineno", _CONFIG_NOT_UTF8,
                         ids=[row[0] for row in _CONFIG_NOT_UTF8])
def test_a_config_input_that_is_not_utf8_names_its_line(tmp_path, source, data, lineno):
    path = tmp_path / source
    path.write_bytes(data)
    where = f"{re.escape(str(path))}:{lineno}: not UTF-8$"
    if source == "config":
        with pytest.raises(ConfigError, match=f"^{where}"):
            load_config(path)
        return
    extra = {"instructions": str(path)} if source == "instructions" else {
        "backend": {"kind": "stub", "vocab": str(path)} if source == "vocab"
        else {"kind": "replay", "transcript": str(path)}}
    with pytest.raises(ConfigError, match=f"^(backend|instructions '.*'): {where}"):
        config_from_dict(toy_config_dict("raw", **extra))


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
    assert (cfg.feedback_mode, cfg.fb_docs) == ("pseudo", 5)


def test_oracle_feedback_without_qrels_fails_at_load():
    raw = toy_config_dict("flanprf", qrels=None, feedback_mode="oracle")
    with pytest.raises(ConfigError, match="oracle feedback needs a qrels path"):
        config_from_dict(raw)
    config_from_dict({**raw, "method": "flanqr"})  # a pre-retrieval method takes no feedback


def test_rm3_oracle_feedback_without_qrels_fails_at_load():
    raw = toy_config_dict("rm3", qrels=None, feedback_mode="oracle")
    with pytest.raises(ConfigError, match="oracle feedback needs a qrels path"):
        config_from_dict(raw)
    config_from_dict({**raw, "method": "raw"})


@pytest.mark.parametrize("section,key", [("reformulation", "m"),
                                         ("reformulation", "feedback_mode"),
                                         ("rm3", "fb_docs")])
def test_removed_feedback_keys_fail_at_load(tmp_path, section, key):
    """A config that still sets a removed per-method feedback key names it:
    top-level `fb_docs` and `feedback_mode` replace all three."""
    cfg_path = tmp_path / "exp.yaml"
    value = "oracle" if key == "feedback_mode" else 2
    cfg_path.write_text(yaml.safe_dump(toy_config_dict("rm3", **{section: {key: value}})))
    with pytest.raises(ConfigError, match=rf"unknown {section} keys: \['{key}'\]"):
        load_config(cfg_path)


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
    with pytest.raises(ConfigError, match=r"^feedback_mode must be one of "
                                          r"\('pseudo', 'oracle'\), got 'none'"):
        config_from_dict(toy_config_dict("flanprf", feedback_mode="none"))


@pytest.mark.parametrize("parser", ["raw-append", "whitespace"])
def test_keyword_parser_deprecated_but_loads(parser):
    """The removed keyword_parser key fails at load, whichever parser it names."""
    with pytest.raises(ConfigError, match=r"unknown reformulation keys: \['keyword_parser'\]"):
        config_from_dict(toy_config_dict(reformulation={"keyword_parser": parser, "n": 3}))


def test_unknown_keyword_parser_rejected():
    with pytest.raises(ConfigError, match=r"unknown reformulation keys: \['keyword_parser'\]"):
        config_from_dict(toy_config_dict(reformulation={"keyword_parser": "regex"}))


@pytest.mark.parametrize("rm3", [{"fb_terms": -1}, {"lam": 2},
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
    # tempfile and urllib.parse are left out: on some machines site loads them first
    watched = HEAVY_MODULES + ("yaml", "concurrent.futures", "subprocess", "shlex")
    assert _loaded_heavy_modules("import genqr.cli", watched) == []


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
                        "  fb_terms: 7\n"
                        "run_tag: commented\n")
    cfg = load_config(cfg_path)
    assert (cfg.method, cfg.rm3.fb_terms, cfg.run_tag) == ("rm3", 7, "commented")
    for empty in ("", "# only a comment\n", "null"):  # an empty document: all defaults
        cfg_path.write_text(empty)
        assert load_config(cfg_path) == ExperimentConfig()
    for root in ("[]", "false", "0", '""', "- method: rm3\n", "just text\n"):
        cfg_path.write_text(root)
        with pytest.raises(ConfigError, match="config root must be a mapping"):
            load_config(cfg_path)


def test_malformed_yaml_config_names_its_line(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text("corpus: a\n\tmethod: raw\n")  # a tab cannot indent YAML
    with pytest.raises(ConfigError, match=f"^{re.escape(str(cfg_path))}:2: invalid YAML "
                                          r"\(found character '\\t' that cannot start"):
        load_config(cfg_path)


# A key given twice, at the top and one level down: (file name, text, line).
_REPEATED_KEYS = [
    ("top.json", '{"method": "raw", "method": "rm3"}', None),
    ("nested.json", '{"rm3": {"mu": 1.0, "lam": 0.2, "mu": 2.0}}', None),
    ("top.yaml", "method: raw\nrun_tag: t\nmethod: rm3\n", 3),
    ("nested.yaml", "rm3:\n  mu: 1.0\n  mu: 2.0\n", 3),
]


@pytest.mark.parametrize("name,text,lineno", _REPEATED_KEYS,
                         ids=[row[0] for row in _REPEATED_KEYS])
def test_config_key_given_twice_is_rejected(tmp_path, name, text, lineno):
    cfg_path = tmp_path / name
    cfg_path.write_text(text)
    key = "method" if name.startswith("top") else "mu"
    where = re.escape(str(cfg_path)) + (f":{lineno}: invalid YAML \\(" if lineno else ": ")
    with pytest.raises(ConfigError, match=f"^{where}key '{key}' given twice"):
        load_config(cfg_path)


def test_yaml_merge_key_is_not_a_repeated_key(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text("rm3: {<<: {fb_terms: 3, mu: 1.0}, mu: 2.0}\n")
    assert load_config(cfg_path).rm3 == Rm3Params(fb_terms=3, mu=2.0)


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
    assert_same_index(again, first)


def test_version_1_index_asks_for_force_rebuild(toy_cfg):
    cfg = toy_cfg("raw")
    cmd_index(cfg)
    _, header, columns = read_index_file(cfg.index_dir)
    write_index_file(cfg.index_dir, b"GQRPOST1", header, columns)
    old = r"b'GQRPOST1', not b'GQRPOST3': an index of another version.*genqr index --force"
    with pytest.raises(IndexingError, match=old):
        PostingsIndex.load(cfg.index_dir, cfg.analyzer)
    with pytest.raises(IndexingError, match=old):
        cmd_index(cfg)
    assert cmd_index(cfg, force=True).n_docs == 50


def test_interrupted_index_save_is_rejected_then_rebuilt(toy_cfg, monkeypatch, caplog):
    """A `--force` save that dies mid-write leaves the previous index, which
    still loads. A torn postings.bin, as a copy that stopped part way leaves,
    is rejected, and `genqr index --force` rebuilds it."""
    cfg = toy_cfg("raw")
    built = cmd_index(cfg)
    real_writer = genqr.index.atomic_writer

    @contextmanager
    def dies_mid_postings(path, binary=False):
        with real_writer(path, binary) as f:
            if binary:
                f.write(b"GQRPOST3{")
                raise OSError("no space left on device")
            yield f

    monkeypatch.setattr(genqr.index, "atomic_writer", dies_mid_postings)
    with pytest.raises(OSError, match="no space"):
        cmd_index(cfg, force=True)
    monkeypatch.undo()

    dest = Path(cfg.index_dir)
    assert sorted(p.name for p in dest.iterdir()) == ["postings.bin"]  # no temp file
    assert_same_index(PostingsIndex.load(dest, cfg.analyzer), built)

    postings = dest / "postings.bin"
    postings.write_bytes(postings.read_bytes()[:-100])
    for load in (lambda: PostingsIndex.load(dest, cfg.analyzer), lambda: cmd_index(cfg)):
        with pytest.raises(IndexingError, match="crc32 check; rebuild it with "
                                                "`genqr index --force`$"):
            load()
    with caplog.at_level("INFO"):
        rebuilt = cmd_index(cfg, force=True)
    assert "indexed 50 documents" in caplog.text
    assert_same_index(rebuilt, built)
    assert_same_index(PostingsIndex.load(dest, cfg.analyzer), built)


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
    tag, run = read_run(run_path)
    assert tag == cfg.run_tag
    index = PostingsIndex.load(cfg.index_dir, cfg.analyzer)
    for topic in load_topics(cfg.topics):
        expected = index.retrieve(
            WeightedQuery.from_terms(topic.qid, index.analyzer.analyze(topic.query)),
            k=cfg.retrieval_depth, k1=cfg.k1, b=cfg.b)
        got = run[topic.qid]
        assert [d for d, _ in got] == [d for d, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert a == pytest.approx(b, abs=1e-6)  # 6-decimal file format
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
    pseudo_cfg = toy_cfg("genqrensemble_rf", tag="pseudo", feedback_mode="pseudo", fb_docs=2)
    oracle_cfg = toy_cfg("genqrensemble_rf", tag="oracle", feedback_mode="oracle", fb_docs=2)
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
        graded = sorted(((d, g) for d, g in qrels[qid].items() if g >= 1),
                        key=lambda kv: (-kv[1], kv[0]))
        expected_oracle = " ".join(corpus[d] for d, _ in graded[:2])
        assert row_o["context"] == expected_oracle
        # pseudo context is the top-2 texts of a first-pass raw retrieval
        raw_query = WeightedQuery.from_terms(qid, index.analyzer.analyze(row_p["original"]))
        first = index.retrieve(raw_query, k=pseudo_cfg.retrieval_depth)
        expected_pseudo = " ".join(corpus[d] for d, _ in first[:2])
        assert row_p["context"] == expected_pseudo


@pytest.mark.parametrize("min_rel,taken", [(1, ["d011", "d012", "d013"]), (3, ["d011"])])
def test_oracle_feedback_takes_the_docs_at_min_rel(toy_cfg, toy_index, min_rel, taken):
    # Topic 1 is judged d011: 3, d012: 2, d013: 1. Oracle feedback takes only
    # the docs that the config's binary metrics count as relevant.
    cfg = toy_cfg("rm3", feedback_mode="oracle", fb_docs=3, min_rel=min_rel)
    runner = _QueryRunner(cfg, toy_index)
    step = runner.prepare(next(t for t in load_topics(cfg.topics) if t.qid == "1"))
    assert [doc.docno for doc in step.feedback] == taken


def test_an_empty_query_takes_no_pseudo_feedback(toy_cfg, tmp_path):
    """A query that analyses to no terms finds no feedback documents: an RF
    method answers it as its plain method does, and rm3 fails it as raw does."""
    topics = tmp_path / "topics.tsv"
    topics.write_text("1\tthe goldfish\n2\tgoldfish tank size\n")  # qid 1 analyses to nothing
    analyzer = {"stopwords": ["the", "goldfish"]}
    cmd_index(toy_cfg("raw", analyzer=analyzer))
    failed, first = {}, {}
    for method in METHODS:
        run_path, ref_path, failed[method] = cmd_run(
            toy_cfg(method, topics=str(topics), analyzer=analyzer), lenient=True)
        first[method] = (read_run(run_path)[1].get("1"),
                         json.loads(ref_path.read_text().splitlines()[0]))
    assert failed == {"raw": 1, "flanqr": 0, "genqrensemble": 0, "rm3": 1, "flanprf": 0,
                      "genqrensemble_rf": 0}
    assert first["rm3"][0] is first["raw"][0] is None
    for rf, plain in (("genqrensemble_rf", "genqrensemble"), ("flanprf", "flanqr")):
        assert first[rf] == first[plain] and first[rf][0]
        assert first[rf][1]["context"] is None


def test_a_repeated_token_is_one_fused_term(toy_cfg, toy_index, tmp_path):
    """The reformulations row is the query as scored: a repeated token is
    one term at its summed weight, and ranks as that term does."""
    topics = tmp_path / "topics.tsv"
    topics.write_text("1\tgoldfish tank goldfish\n")
    cfg = toy_cfg("raw", topics=str(topics))
    run_path, ref_path, _ = cmd_run(cfg)
    assert json.loads(ref_path.read_text())["fused_terms"] == [
        {"term": "goldfish", "weight": 2.0}, {"term": "tank", "weight": 1.0}]
    expected = toy_index.retrieve(WeightedQuery("1", (("goldfish", 2.0), ("tank", 1.0))),
                                  k=cfg.retrieval_depth)
    ranking = read_run(run_path)[1]["1"]
    assert [d for d, _ in ranking] == [d for d, _ in expected]
    assert [s for _, s in ranking] == pytest.approx([s for _, s in expected], abs=1e-6)


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
    assert all(qid == "1" for qid in read_run(run_path)[1])


def test_clean_rerun_removes_the_old_failures_file(toy_cfg, toy_index, tmp_path):
    topics = tmp_path / "topics.tsv"
    topics.write_text("1\tgoldfish growth\n2\t???\n")  # qid 2 analyzes to nothing
    run_path, _, failed = cmd_run(toy_cfg("raw", topics=str(topics)), lenient=True)
    fail_path = run_path.parent / "raw.failures.jsonl"
    assert failed == 1 and fail_path.exists()
    topics.write_text("1\tgoldfish growth\n")
    _, _, failed = cmd_run(toy_cfg("raw", topics=str(topics)), lenient=True)
    assert failed == 0 and not fail_path.exists()


def _reversing_reranker(tmp_path):
    """A reranker_cmd that reverses each query's ordering via the file exchange."""
    script = tmp_path / "reverse.py"
    script.write_text(
        "import sys\n"
        "lines = [l.split() for l in open(sys.argv[1])]\n"
        "with open(sys.argv[2], 'w') as out:\n"
        "    for qid, _, docno, rank, score, tag in lines:\n"
        "        out.write(f'{qid} Q0 {docno} {rank} {-float(score):.6f} {tag}\\n')\n")
    return f"python3 {script}"


def test_reranker_seam(toy_cfg, toy_index, tmp_path):
    plain = toy_cfg("raw", tag="plain")
    rerank = toy_cfg("raw", tag="rerank", reranker_cmd=_reversing_reranker(tmp_path))
    run_plain, _, _ = cmd_run(plain)
    run_rerank, _, _ = cmd_run(rerank)
    for before, after in zip(read_run(run_plain)[1].values(), read_run(run_rerank)[1].values()):
        assert [d for d, _ in after] == \
            [d for d, _ in reversed(before)]


def test_reranker_exchange_files_leave_output_dir(toy_cfg, toy_index, tmp_path):
    """The hook's candidates and reranked files are gone after the run, so
    `eval` over <output_dir>/*.run sees one file per tag."""
    cfg = toy_cfg("raw", tag="rr", reranker_cmd=_reversing_reranker(tmp_path))
    cmd_run(cfg)
    out = Path(cfg.output_dir)
    assert sorted(p.name for p in out.iterdir()) == ["rr.reformulations.jsonl", "rr.run"]
    table = cmd_eval(sorted(out.glob("*.run")), load_qrels(TOY / "qrels.txt"), ["map"],
                     tmp_path / "eval")
    assert [row["run"] for row in table["rows"]] == ["rr"]

    failing = toy_cfg("raw", tag="bad", reranker_cmd="false")
    with pytest.raises(subprocess.CalledProcessError):
        cmd_run(failing)
    assert sorted(p.name for p in out.iterdir()) == ["rr.reformulations.jsonl", "rr.run"]


def test_reranker_output_missing_a_ranked_qid_fails_the_run(toy_cfg, toy_index):
    cfg = toy_cfg("raw", tag="rr", reranker_cmd="touch")  # writes an empty reranked run
    with pytest.raises(RuntimeError, match=r"^reranker output is missing qid \S+$"):
        cmd_run(cfg)
    assert not Path(cfg.output_dir, "rr.run").exists()


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


@pytest.mark.parametrize("args, match", [
    (["{run}"], r"^duplicate run tag 'raw' across inputs$"),
    (["--baseline", "nope"], r"^baseline tag 'nope' not among the evaluated runs$"),
    (["--min-rel", "0"], r"^min_rel must be >= 1, got 0$"),
], ids=["duplicate-tag", "missing-baseline", "min-rel-0"])
def test_eval_rejects_its_inputs_before_writing(toy_cfg, toy_index, tmp_path, args, match):
    run_path, _, _ = cmd_run(toy_cfg("raw"))
    out = tmp_path / "eval"
    with pytest.raises(ValueError, match=match):
        main(["eval", str(run_path), *(a.format(run=run_path) for a in args),
              "--qrels", str(TOY / "qrels.txt"), "--out", str(out)])
    assert not out.exists()


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
    assert sorted(r["qid"] for r in rows) == sorted(load_qrels(TOY / "qrels.txt"))
    for row in rows:
        assert row["value_a"] == pytest.approx(per_a[row["qid"]])
        assert row["value_b"] == 0.0


def test_querywise_out_in_a_new_directory(toy_cfg, toy_index, tmp_path):
    run_path, _, _ = cmd_run(toy_cfg("raw"))
    out = tmp_path / "nodir2" / "q.csv"
    assert main(["querywise", str(run_path), str(run_path), "--qrels", str(TOY / "qrels.txt"),
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "qid,value_a,value_b,delta"
    assert [p.name for p in out.parent.iterdir()] == ["q.csv"]


def test_querywise_quotes_a_qid_with_a_comma(tmp_path):
    run_a, run_b, qrels = tmp_path / "a.run", tmp_path / "b.run", tmp_path / "qrels.txt"
    run_a.write_text("q,1 Q0 d1 1 2.000000 a\n")
    run_b.write_text("q,1 Q0 d2 1 2.000000 b\nq,1 Q0 d1 2 1.000000 b\n")
    qrels.write_text("q,1 0 d1 1\n")
    cmd_querywise(run_a, run_b, load_qrels(qrels), "mrr", tmp_path / "qw.csv")
    with open(tmp_path / "qw.csv", newline="") as f:
        assert list(csv.reader(f)) == [["qid", "value_a", "value_b", "delta"],
                                       ["q,1", "1.000000", "0.500000", "0.500000"]]


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


def test_sweep_scores_failed_queries_zero(toy_index, tmp_path, caplog):
    raw = toy_config_dict("raw", tag="s", work=str(tmp_path), topics=_failing_topics(tmp_path),
                          metrics=["map"])
    with caplog.at_level("WARNING"), pytest.raises(RuntimeError, match="10 queries failed"):
        cmd_sweep(raw, None, "k1", [1.2], tmp_path / "sweep.csv", lenient=True)
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1] == "k1,1.2,map,0.000000"
    assert "s-k11.2: 10 judged topics missing" in caplog.text


def test_sweep_out_in_a_new_directory(toy_index, tmp_path):
    raw = toy_config_dict("rm3", tag="s", work=str(tmp_path), metrics=["map"])
    out = tmp_path / "nodir" / "sweep.csv"
    rows = cmd_sweep(raw, None, "fb_docs", [1, 2, 3], out)
    assert out.read_text().splitlines() == ["param,value,metric,mean"] + \
        [f"fb_docs,{row['value']},map,{row['mean']:.6f}" for row in rows]
    assert [p.name for p in out.parent.iterdir()] == ["sweep.csv"]


def test_sweep_reports_like_eval(toy_cfg, toy_index, tmp_path):
    raw = toy_config_dict("genqrensemble_rf", tag="g", work=str(tmp_path))
    rows = cmd_sweep(raw, None, "method", METHODS, tmp_path / "sweep.csv")
    runs = Path(raw["output_dir"])
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


def test_sweep_quotes_a_value_with_a_quote(toy_index, tmp_path):
    raw = toy_config_dict("genqrensemble", tag="q", work=str(tmp_path), metrics=["map"])
    template = '"{instruction}":{query}'
    rows = cmd_sweep(raw, None, "reformulation.prompt_template", [template],
                     tmp_path / "sweep.csv")
    with open(tmp_path / "sweep.csv", newline="") as f:
        assert list(csv.reader(f))[1:] == [["reformulation.prompt_template", template, "map",
                                            f"{rows[0]['mean']:.6f}"]]


def test_sweep_m_zero_equals_plain_ensemble(toy_cfg, toy_index, tmp_path):
    raw = toy_config_dict("genqrensemble_rf", tag="sweep", work=str(tmp_path),
                          metrics=["ndcg@10"])
    rows = cmd_sweep(raw, None, "fb_docs", [0], tmp_path / "sweep.csv")
    plain_run, _, _ = cmd_run(toy_cfg("genqrensemble", tag="plain",
                                      metrics=["ndcg@10"]))
    qrels = load_qrels(TOY / "qrels.txt")
    plain_mean = evaluate_run(read_run(plain_run)[1], qrels, parse_metric("ndcg@10")).mean
    assert rows[0]["mean"] == pytest.approx(plain_mean)


def test_sweep_row_count_and_reuse(toy_index, tmp_path, monkeypatch):
    raw = toy_config_dict("genqrensemble_rf", tag="s", work=str(tmp_path),
                          metrics=["ndcg@10", "map"])
    out = tmp_path / "sweep.csv"
    rows = cmd_sweep(raw, None, "fb_docs", [0, 1, 2], out)
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
    rows_again = cmd_sweep(raw, None, "fb_docs", [0, 1, 2], out)
    assert calls["n"] == 0
    assert rows_again == rows


@pytest.mark.parametrize("param,values", [("n", [3, 0]), ("beta", [1.0, -1.0]),
                                          ("retrieval_depth", [0])])
def test_sweep_bad_value_rejected_before_any_run(toy_index, tmp_path, param, values):
    raw = toy_config_dict("genqrensemble", tag="bad", work=str(tmp_path), metrics=["ndcg@10"])
    with pytest.raises(ConfigError, match=param):
        cmd_sweep(raw, None, param, values, tmp_path / "sweep.csv")
    assert not Path(raw["output_dir"]).exists()
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_value_with_a_slash_is_tagged_by_position(toy_index, tmp_path):
    raw = toy_config_dict("genqrensemble", tag="t", work=str(tmp_path), metrics=["map"])
    templates = ["{instruction}:{query}", "{instruction}/{query}"]  # a tag names files
    rows = cmd_sweep(raw, None, "reformulation.prompt_template", templates,
                     tmp_path / "sweep.csv")
    assert sorted(p.name for p in Path(raw["output_dir"]).glob("*.run")) == \
        ["t-reformulation.prompt_template2.run",
         "t-reformulation.prompt_template{instruction}:{query}.run"]
    assert [row["value"] for row in rows] == templates


@pytest.mark.parametrize("values,tag", [([1, 1], "rep-fb_docs1"), ([0, 2, 0], "rep-fb_docs0")])
def test_sweep_repeated_value_rejected_before_any_run(toy_index, tmp_path, values, tag):
    raw = toy_config_dict("genqrensemble_rf", tag="rep", work=str(tmp_path),
                          metrics=["ndcg@10"])
    with pytest.raises(ConfigError, match=f"repeated run tag '{tag}'"):
        cmd_sweep(raw, None, "fb_docs", values, tmp_path / "sweep.csv")
    assert not Path(raw["output_dir"]).exists()
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("qrels", [None, "missing.txt"])
def test_sweep_without_qrels_file_rejected_before_any_run(toy_index, tmp_path, qrels):
    qrels = qrels and str(tmp_path / qrels)
    raw = toy_config_dict("raw", tag="noq", work=str(tmp_path), qrels=qrels)
    with pytest.raises(ConfigError, match=re.escape(f"sweep needs a qrels file in the "
                                                    f"config, got {qrels!r}")):
        cmd_sweep(raw, None, "k1", [1.2], tmp_path / "sweep.csv")
    assert not Path(raw["output_dir"]).exists()
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_malformed_qrels_rejected_before_any_run(toy_index, tmp_path):
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("1 0 d001 x\n")
    raw = toy_config_dict("raw", tag="badq", work=str(tmp_path), qrels=str(qrels))
    with pytest.raises(CorpusFormatError, match="non-integer grade 'x'"):
        cmd_sweep(raw, None, "k1", [1.0, 1.2], tmp_path / "sweep.csv")
    assert not list(tmp_path.rglob("*.run"))
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_reads_the_qrels_once(toy_index, tmp_path, monkeypatch):
    paths = []

    def counting(path):
        paths.append(path)
        return load_qrels(path)

    monkeypatch.setattr(genqr.cli, "load_qrels", counting)
    cmd_sweep(toy_config_dict("raw", tag="once", work=str(tmp_path)), None, "k1", [1.0, 1.2],
              tmp_path / "sweep.csv")
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


def test_sweep_unknown_param_rejected(toy_index, tmp_path):
    raw = toy_config_dict("genqrensemble", tag="bad", work=str(tmp_path), metrics=["ndcg@10"])
    # m was the alias of the removed reformulation.m; fb_docs is a config field now
    for param, section, key in [("mystery", "config", "mystery"), ("m", "config", "m"),
                                ("reformulation.mystery", "reformulation", "mystery"),
                                ("backend.mystery", "backend", "mystery")]:
        with pytest.raises(ConfigError, match=re.escape(
                f"sweep {param}=1: unknown {section} keys: [{key!r}]")):
            cmd_sweep(raw, None, param, [1], tmp_path / "sweep.csv")
    assert not Path(raw["output_dir"]).exists()


def test_sweep_over_backend_seed(toy_index, tmp_path):
    raw = toy_config_dict("genqrensemble", tag="s", work=str(tmp_path), metrics=["ndcg@10"])
    cmd_sweep(raw, None, "backend.seed", [1, 2], tmp_path / "sweep.csv")
    runs = Path(raw["output_dir"])
    one = (runs / "s-backend.seed1.reformulations.jsonl").read_text()
    two = (runs / "s-backend.seed2.reformulations.jsonl").read_text()
    assert one != two
    assert raw["backend"]["seed"] == 42


def test_sweep_n_past_the_instruction_set_fails_before_any_run(toy_index, tmp_path):
    raw = toy_config_dict("genqrensemble", tag="s", work=str(tmp_path), metrics=["ndcg@10"])
    with pytest.raises(ConfigError, match="n=20: reformulation.n=20 exceeds the "
                                          "10-instruction set"):
        cmd_sweep(raw, None, "n", [1, 20], tmp_path / "sweep.csv")
    assert not Path(raw["output_dir"]).exists()
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_leaves_base_config_unchanged(toy_index, tmp_path):
    raw = toy_config_dict("genqrensemble", tag="s", work=str(tmp_path), metrics=["ndcg@10"],
                          reformulation={"n": 3})
    before = json.dumps(raw)
    cmd_sweep(raw, None, "n", [1, 2], tmp_path / "sweep.csv")
    assert json.dumps(raw) == before
    assert sorted(p.name for p in Path(raw["output_dir"]).glob("*.run")) == \
        ["s-n1.run", "s-n2.run"]


def _assert_sweep_equals_run(cfg_path, param, values, tags, tmp_path, values_text=None):
    """`sweep` of the config file writes, under each of `tags`, the run and
    reformulations files that `run` writes of the file with `param` set to
    the tag's value, and no other run. Given `values_text`, the sweep runs
    through `main` with that text as `--values`."""
    raw, base_dir = read_config(cfg_path)
    if values_text is None:
        cmd_sweep(raw, base_dir, param, values, tmp_path / "sweep.csv")
    else:
        assert main(["sweep", "--config", str(cfg_path), "--param", param, "--values",
                     values_text, "--out", str(tmp_path / "sweep.csv")]) == 0
    swept_dir = Path(raw["output_dir"])
    assert sorted(p.stem for p in swept_dir.glob("*.run")) == sorted(tags)
    section, _, key = param.rpartition(".")
    for value, tag in zip(values, tags):
        edited = json.loads(json.dumps(raw))
        (edited.setdefault(section, {}) if section else edited)[key] = value
        edited.update(run_tag=tag, output_dir=str(tmp_path / "alone"))
        edited_path = cfg_path.with_name("edited.yaml")
        edited_path.write_text(yaml.safe_dump(edited))
        for path in cmd_run(load_config(edited_path))[:2]:
            assert path.read_bytes() == (swept_dir / path.name).read_bytes(), path.name


def _config_file(directory, raw):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "exp.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_sweep_of_method_equals_run(toy_index, tmp_path):
    cfg_path = _config_file(tmp_path / "cfg", toy_config_dict("raw", tag="m",
                                                              work=str(tmp_path)))
    _assert_sweep_equals_run(cfg_path, "method", list(METHODS),
                             [f"m-method{method}" for method in METHODS], tmp_path)


def test_sweep_instruction_sets_by_relative_path(toy_index, tmp_path, monkeypatch):
    cfg_dir = tmp_path / "cfg"
    (cfg_dir / "sets").mkdir(parents=True)
    (cfg_dir / "sets" / "a.txt").write_text("Name search words for\nList more words for\n")
    (cfg_dir / "b.txt").write_text("Give terms for\nSuggest words for\nWrite keywords for\n")
    cfg_path = _config_file(cfg_dir, toy_config_dict(
        "genqrensemble", tag="t", work=str(tmp_path), reformulation={"n": 2}))
    monkeypatch.chdir(tmp_path)  # neither set is in the working directory
    _assert_sweep_equals_run(cfg_path, "instructions", ["sets/a.txt", "b.txt"],
                             ["t-instructions1", "t-instructionsb.txt"], tmp_path)
    runs = tmp_path / "runs"
    rows = [[json.loads(line)["keywords"] for line in
             (runs / f"{tag}.reformulations.jsonl").read_text().splitlines()]
            for tag in ("t-instructions1", "t-instructionsb.txt")]
    assert rows[0] != rows[1]


def test_sweep_topics_by_relative_path(toy_index, tmp_path, monkeypatch):
    cfg_dir = tmp_path / "cfg"
    (cfg_dir / "sub").mkdir(parents=True)
    lines = (TOY / "topics.tsv").read_text().splitlines(keepends=True)
    (cfg_dir / "few.tsv").write_text("".join(lines[:3]))
    (cfg_dir / "sub" / "rest.tsv").write_text("".join(lines[3:]))
    cfg_path = _config_file(cfg_dir, toy_config_dict("rm3", tag="t", work=str(tmp_path)))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    _assert_sweep_equals_run(cfg_path, "topics", ["few.tsv", "sub/rest.tsv"],
                             ["t-topicsfew.tsv", "t-topics2"], tmp_path)


def test_sweep_prompt_template_with_a_space(toy_index, tmp_path):
    cfg_path = _config_file(tmp_path / "cfg", toy_config_dict(
        "genqrensemble", tag="t", work=str(tmp_path), reformulation={"n": 3}))
    _assert_sweep_equals_run(cfg_path, "reformulation.prompt_template",
                             ["{instruction}: {query}", "{query}. {instruction}"],
                             ["t-reformulation.prompt_template1",
                              "t-reformulation.prompt_template2"], tmp_path)


@pytest.mark.parametrize("param, values, tags", [
    ("reformulation.prompt_template", ["{query}, {instruction}", "{instruction}: {query}"],
     ["t-reformulation.prompt_template1", "t-reformulation.prompt_template2"]),
    ("metrics", [["map"], ["ndcg@10", "p@5"]], ["t-metrics['map']", "t-metrics2"]),
], ids=["comma", "list"])
def test_sweep_values_from_a_json_array_through_main(toy_index, tmp_path, param, values, tags):
    """`--values` as a JSON array gives its items: a value may hold a comma
    or be a list."""
    cfg_path = _config_file(tmp_path / "cfg", toy_config_dict(
        "genqrensemble", tag="t", work=str(tmp_path), reformulation={"n": 3}))
    _assert_sweep_equals_run(cfg_path, param, values, tags, tmp_path, json.dumps(values))


def test_sweep_reranker_cmd_with_a_space(toy_index, tmp_path):
    cfg_path = _config_file(tmp_path / "cfg", toy_config_dict("raw", tag="t",
                                                              work=str(tmp_path)))
    _assert_sweep_equals_run(cfg_path, "reranker_cmd", [_reversing_reranker(tmp_path), "cp"],
                             ["t-reranker_cmd1", "t-reranker_cmdcp"], tmp_path)


class _Stop(Exception):
    pass


@settings(max_examples=50, deadline=None)
@example(values=["a b", "a/b"])
@example(values=["a b", "1"])  # both tagged s-reranker_cmd1
@given(values=st.lists(st.text(st.sampled_from("a1/ .\t\n-_#é"), max_size=4),
                       min_size=1, max_size=4))
def test_sweep_tags_are_valid_and_distinct_or_rejected(tmp_path_factory, values):
    """Any values of a key that takes any string get valid run tags, one per
    value and all distinct, or the sweep fails on a repeated tag before its
    first run."""
    work = tmp_path_factory.mktemp("sweep")
    tags = []

    def no_run(cfg, lenient=False):
        tags.append(cfg.run_tag)
        return work / f"{cfg.run_tag}.run", None, 0

    def stop(*args, **kwargs):
        raise _Stop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(genqr.cli, "cmd_run", no_run)
        mp.setattr(genqr.cli, "cmd_eval", stop)
        try:
            cmd_sweep(toy_config_dict("raw", tag="s", work=str(work)), None, "reranker_cmd",
                      values, work / "sweep.csv")
        except _Stop:
            assert len(set(tags)) == len(tags) == len(values)
            assert all(tag.split() == [tag] and "/" not in tag for tag in tags)
        except ConfigError as e:
            assert not tags
            assert re.fullmatch(r"sweep reranker_cmd: repeated run tag '\S+'", str(e))


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


def test_paraphrase_count_zero_creates_nothing(tmp_path):
    cfg = config_from_dict({
        "method": "raw", "cache_dir": str(tmp_path / "cache"),
        "backend": {"kind": "replay",
                    "transcript": str(genqr.data_path("replay", "goldfish.jsonl"))},
    })
    with pytest.raises(ValueError, match="^count must be >= 1, got 0$"):
        cmd_paraphrase(cfg, count=0, out_path=tmp_path / "instructions.txt")
    assert sorted(tmp_path.iterdir()) == []


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


def _paraphrase_config(tmp_path, base="Name search words for", **extra):
    """A config file for `genqr paraphrase`: a one-instruction set `base`
    and a replay transcript that answers its paraphrase prompt."""
    (tmp_path / "set.txt").write_text(base + "\n")
    write_transcript([{"prompt": f"{PARAPHRASE_PROMPT} Name search words for",
                       "response": "1. Give terms for\n2. Suggest words for"}],
                     tmp_path / "t.jsonl")
    raw = {"instructions": "set.txt",
           "backend": {"kind": "replay", "transcript": "t.jsonl"}, **extra}
    return _config_file(tmp_path, raw)


def test_paraphrase_through_main(tmp_path):
    cfg_path = _paraphrase_config(tmp_path)
    out = tmp_path / "out.txt"
    assert main(["paraphrase", "--config", str(cfg_path), "--count", "3",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines() == \
        ["Name search words for", "Give terms for", "Suggest words for"]


@pytest.mark.parametrize("base, extra, error, match", [
    ("Name search words for", {"backend": None}, ConfigError,
     r"^paraphrase needs a backend section$"),
    ("List more words for", {}, BackendError,
     r"^no recorded response for prompt [0-9a-f]+ in \S+t\.jsonl$"),
    ("", {}, ConfigError, r"^instructions '\S+set\.txt': no instructions found$"),
], ids=["no-backend", "backend-call-fails", "no-instruction"])
def test_paraphrase_failures_through_main(tmp_path, base, extra, error, match):
    cfg_path = _paraphrase_config(tmp_path, base, **extra)
    out = tmp_path / "out.txt"
    with pytest.raises(error, match=match):
        main(["paraphrase", "--config", str(cfg_path), "--count", "3", "--out", str(out)])
    assert not out.exists()


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
