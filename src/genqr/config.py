"""Declarative experiment configuration (YAML or JSON).

One file describes a full experiment: data paths, analyzer, BM25
parameters, the reformulation method and its parameters, the generation
backend, and output locations. Input paths, the backend's vocab and
transcript among them, are resolved against the config file's directory
when relative and non-empty; output paths (index_dir, cache_dir,
output_dir) are resolved relative to the working directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from .analysis import Analyzer
from .corpus_io import CORPUS_READERS, TOPIC_READERS, CorpusFormatError, read_text
from .evaluation import DEFAULT_METRICS, parse_metrics
from .index import DEFAULT_B, DEFAULT_K1
from .llm import (BACKENDS, DEFAULT_MAX_NEW_TOKENS, Backend, BackendError, Generator,
                  ResponseCache, SamplingConfig)
from .prf import FEEDBACK_MODES, Rm3Params
from .reformulate import InstructionSet, ReformulationConfig
from .schema import ConfigError, build, check_fields, check_value, unique_keys

METHODS = ("raw", "flanqr", "genqrensemble", "rm3", "flanprf", "genqrensemble_rf")
FEEDBACK_METHODS = ("rm3", "flanprf", "genqrensemble_rf")
ENSEMBLE_METHODS = ("genqrensemble", "genqrensemble_rf")
LLM_METHODS = ("flanqr", "genqrensemble", "flanprf", "genqrensemble_rf")


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: str = ""
    topics: str = ""
    index_dir: str = "index"
    corpus_format: str = field(default="jsonl", metadata={"choices": tuple(CORPUS_READERS)})
    topics_format: str = field(default="tsv", metadata={"choices": tuple(TOPIC_READERS)})
    qrels: Optional[str] = None
    analyzer: Analyzer = field(default_factory=Analyzer)
    k1: float = field(default=DEFAULT_K1, metadata={"min": 0})
    b: float = field(default=DEFAULT_B, metadata={"min": 0, "max": 1})
    method: str = field(default="raw", metadata={"choices": METHODS})
    retrieval_depth: int = field(default=100, metadata={"min": 1})
    metrics: List[str] = field(default_factory=lambda: list(DEFAULT_METRICS))
    min_rel: int = field(default=1, metadata={"min": 1})
    fb_docs: int = field(default=5, metadata={"min": 0})
    feedback_mode: str = field(default="pseudo", metadata={"choices": FEEDBACK_MODES})
    reformulation: ReformulationConfig = field(default_factory=ReformulationConfig)
    rm3: Rm3Params = field(default_factory=Rm3Params)
    backend: Optional[Backend] = None
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    max_new_tokens: int = field(default=DEFAULT_MAX_NEW_TOKENS, metadata={"min": 1})
    instructions: InstructionSet = field(default_factory=InstructionSet.default)
    cache_dir: Optional[str] = None
    output_dir: str = "runs"
    run_tag: str = "run"
    reranker_cmd: Optional[str] = None

    def __post_init__(self):
        check_fields(self)
        if self.method in LLM_METHODS and self.backend is None:
            raise ConfigError(f"method {self.method!r} needs a backend section")
        n, n_set = self.reformulation.n, self.instructions.n
        if self.method in ENSEMBLE_METHODS and n > n_set:
            raise ConfigError(f"reformulation.n={n} exceeds the {n_set}-instruction set")
        if self.method in FEEDBACK_METHODS and self.feedback_mode == "oracle" and not self.qrels:
            raise ConfigError("oracle feedback needs a qrels path in the config")
        if self.run_tag.split() != [self.run_tag]:
            raise ConfigError(f"run_tag must be non-empty and without whitespace, "
                              f"got {self.run_tag!r}")
        if "/" in self.run_tag:  # the tag names the run's files
            raise ConfigError(f"run_tag must not contain '/', got {self.run_tag!r}")
        try:
            parse_metrics(self.metrics, min_rel=self.min_rel)
        except ValueError as e:
            raise ConfigError(f"metrics: {e}") from e

    def make_generator(self) -> Generator:
        cache = ResponseCache(self.cache_dir) if self.cache_dir else None
        return Generator(self.backend, cache, self.sampling, self.max_new_tokens)


_PATH_KEYS = ("corpus", "topics", "qrels", "instructions", "vocab", "transcript")


def _resolve_paths(mapping: dict, base_dir: Path | None) -> dict:
    """A copy of `mapping` whose path keys that hold a non-empty relative path are
    resolved against `base_dir`; other values, empty and absolute paths too, as given."""
    return {key: str((base_dir / value).resolve())
            if base_dir is not None and key in _PATH_KEYS and isinstance(value, str) and value
            and not Path(value).is_absolute() else value
            for key, value in mapping.items()}


def make_backend(cfg: dict, base_dir: Path | None) -> Backend:
    options = _resolve_paths(cfg, base_dir)
    kind = options.pop("kind", None)
    if not (isinstance(kind, str) and kind in BACKENDS):
        raise ConfigError(f"unknown backend kind {kind!r}; choose stub, replay, or http")
    try:
        return build(BACKENDS[kind], options, "backend")
    except (OSError, BackendError, CorpusFormatError) as e:  # an unreadable vocab or transcript
        raise ConfigError(f"backend: {e}") from e


def config_from_dict(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Build the config from a mapping: the backend is built and the
    instruction file read here, so every check runs before any command."""
    raw = _resolve_paths(raw, base_dir)
    backend = raw.get("backend")
    if isinstance(backend, dict):
        raw["backend"] = make_backend(backend, base_dir) if backend else None
    instructions = raw.pop("instructions", None)
    if instructions is not None:
        check_value("instructions", str, instructions, {})
        try:
            raw["instructions"] = InstructionSet.load(instructions)
        except (OSError, ValueError) as e:
            raise ConfigError(f"instructions {instructions!r}: {e}") from e
    return build(ExperimentConfig, raw)


def _load_yaml(text: str, path: Path):
    """The YAML document in `text`. Malformed YAML, or a key given twice in
    one mapping, is a ConfigError `<path>:<line>: invalid YAML (...)`."""
    import yaml  # imported only for a config that is not JSON: it takes 20-40 ms

    class Loader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            keys = set()  # as written: a `<<` merge's keys may be overridden
            for key_node, _ in node.value:
                if isinstance(key_node, yaml.ScalarNode) and not key_node.tag.endswith(":merge"):
                    key = self.construct_object(key_node)
                    if key in keys:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"key {key!r} given twice", key_node.start_mark)
                    keys.add(key)
            return super().construct_mapping(node, deep)

    try:
        return yaml.load(text, Loader=Loader)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark else str(path)
        raise ConfigError(f"{where}: invalid YAML ({getattr(e, 'problem', None) or e})") from None


def read_config(path: str | Path) -> Tuple[dict, Path]:
    """The config file's mapping, unchecked, and the directory it resolves against."""
    path = Path(path)
    try:
        text = read_text(path)
    except CorpusFormatError as e:
        raise ConfigError(str(e)) from None
    try:
        raw = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError:
        raw = _load_yaml(text, path)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
    if raw is None:  # an empty YAML document
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    return raw, path.parent


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(*read_config(path))
