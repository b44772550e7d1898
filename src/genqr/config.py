"""Declarative experiment configuration (YAML).

One file describes a full experiment: data paths, analyzer, BM25
parameters, the reformulation method and its parameters, the generation
backend, and output locations. Input paths are resolved relative to the
config file; output paths (index_dir, cache_dir, output_dir) are resolved
relative to the working directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional

import yaml

from .analysis import Analyzer
from .llm import (DEFAULT_MAX_NEW_TOKENS, Backend, HttpBackend, ReplayBackend,
                  ResponseCache, SamplingConfig, StubBackend)
from .prf import DEFAULT_FB_DOCS, DEFAULT_FB_TERMS, DEFAULT_LAMBDA, DEFAULT_MU
from .reformulate import InstructionSet, ReformulationConfig

METHODS = ("raw", "flanqr", "genqrensemble", "rm3", "flanprf", "genqrensemble_rf")
LLM_METHODS = ("flanqr", "genqrensemble", "flanprf", "genqrensemble_rf")
FEEDBACK_METHODS = ("rm3", "flanprf", "genqrensemble_rf")


class ConfigError(ValueError):
    pass


@dataclass
class Rm3Params:
    fb_docs: int = DEFAULT_FB_DOCS
    fb_terms: int = DEFAULT_FB_TERMS
    lam: float = DEFAULT_LAMBDA
    mu: float = DEFAULT_MU

    def __post_init__(self):
        if self.fb_docs < 0:
            raise ConfigError(f"rm3.fb_docs must be >= 0, got {self.fb_docs}")
        if self.fb_terms < 0:
            raise ConfigError(f"rm3.fb_terms must be >= 0, got {self.fb_terms}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"rm3.lam must be in [0, 1], got {self.lam}")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ConfigError(f"rm3.mu must be finite and >= 0, got {self.mu}")


@dataclass
class ExperimentConfig:
    corpus: str = ""
    topics: str = ""
    index_dir: str = "index"
    corpus_format: str = "jsonl"
    topics_format: str = "tsv"
    qrels: Optional[str] = None
    analyzer: Analyzer = field(default_factory=Analyzer)
    k1: float = 1.2
    b: float = 0.75
    method: str = "raw"
    retrieval_depth: int = 100
    metrics: List[str] = field(default_factory=lambda: ["ndcg@10", "map", "mrr", "p@10"])
    min_rel: int = 1
    reformulation: ReformulationConfig = field(default_factory=ReformulationConfig)
    rm3: Rm3Params = field(default_factory=Rm3Params)
    backend: dict = field(default_factory=dict)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS
    instructions: Optional[str] = None
    base_instruction: Optional[str] = None
    cache_dir: Optional[str] = None
    output_dir: str = "runs"
    run_tag: str = "run"
    workers: int = 1
    reranker_cmd: Optional[str] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.retrieval_depth < 1:
            raise ConfigError(f"retrieval_depth must be positive, got {self.retrieval_depth}")
        if self.workers < 1:
            raise ConfigError(f"workers must be positive, got {self.workers}")
        if self.method in LLM_METHODS and not self.backend:
            raise ConfigError(f"method {self.method!r} needs a backend section")
        if self.method == "genqrensemble_rf" and self.reformulation.feedback_mode == "none":
            self.reformulation.feedback_mode = "pseudo"
        if self.method == "flanprf" and self.reformulation.feedback_mode == "none":
            self.reformulation.feedback_mode = "pseudo"

    def load_instructions(self) -> InstructionSet:
        if self.instructions:
            return InstructionSet.load(self.instructions)
        return InstructionSet.default()

    def make_backend(self) -> Backend:
        return make_backend(self.backend)

    def make_cache(self) -> Optional[ResponseCache]:
        return ResponseCache(self.cache_dir) if self.cache_dir else None


_INPUT_PATH_KEYS = ("corpus", "topics", "qrels", "instructions")
_BACKEND_PATH_KEYS = ("vocab", "transcript")


def make_backend(cfg: dict) -> Backend:
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    try:
        if kind == "stub":
            return StubBackend(**cfg)
        if kind == "replay":
            return ReplayBackend(**cfg)
        if kind == "http":
            return HttpBackend(**cfg)
    except TypeError as e:
        raise ConfigError(f"bad backend options for kind {kind!r}: {e}") from e
    raise ConfigError(f"unknown backend kind {kind!r}; choose stub, replay, or http")


_SECTIONS = (
    ("analyzer", Analyzer.from_config),
    ("reformulation", lambda d: ReformulationConfig(**d)),
    ("rm3", lambda d: Rm3Params(**d)),
    ("sampling", lambda d: SamplingConfig(**d)),
)


def config_from_dict(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    raw = dict(raw)
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    if isinstance(raw.get("backend"), dict):
        raw["backend"] = dict(raw["backend"])
    if base_dir is not None:
        for key in _INPUT_PATH_KEYS:
            if raw.get(key):
                raw[key] = str((base_dir / raw[key]).resolve()
                               if not Path(raw[key]).is_absolute() else Path(raw[key]))
        backend = raw.get("backend")
        if isinstance(backend, dict):
            for key in _BACKEND_PATH_KEYS:
                if backend.get(key) and not Path(backend[key]).is_absolute():
                    backend[key] = str((base_dir / backend[key]).resolve())

    for key, build in _SECTIONS:
        if isinstance(raw.get(key), dict):
            try:
                raw[key] = build(raw[key])
            except (TypeError, ValueError) as e:
                raise ConfigError(f"{key}: {e}") from e
    try:
        return ExperimentConfig(**raw)
    except TypeError as e:
        raise ConfigError(str(e)) from e


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    raw = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    return config_from_dict(raw, base_dir=path.parent)
