"""Instruction-ensemble query reformulation.

Pre-retrieval: N paraphrases of one reformulation instruction are each
prompted with the user query; every generated keyword is appended to the
original query as a weighted expansion term. The single-instruction path
(flanqr) is the N=1 special case and must produce identical output.

Post-retrieval: the same flow with feedback-document text prepended to
every instruction as context ("Based on the given context information
<C>, <instruction>"), where <C> is the space-joined feedback texts.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis import Analyzer
from .corpus_io import Topic
from .index import DegenerateQueryError, WeightedQuery
from .llm import (DEFAULT_MAX_NEW_TOKENS, Backend, BackendError, GenRequest,
                  ResponseCache, SamplingConfig, cache_key, cached_generate)
from .prf import FeedbackSet

logger = logging.getLogger(__name__)

PARAPHRASE_PROMPT = "Generate 10 paraphrases for the following instruction:"
RF_CONTEXT_PREFIX = "Based on the given context information "
DEFAULT_PROMPT_TEMPLATE = "{instruction}: {query}"
DEFAULT_CONTEXT_BUDGET = 4000

# Both parsers give the same tokens, since the analyzer splits on whitespace
# itself; both names stay accepted so existing configs still load.
KEYWORD_PARSERS = ("whitespace", "raw-append")
FEEDBACK_MODES = ("none", "pseudo", "oracle")


class ReformulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class InstructionSet:
    """A base reformulation instruction plus its paraphrases."""

    base: str
    paraphrases: Tuple[str, ...] = ()

    def __post_init__(self):
        instructions = self.all()
        if any(not i.strip() for i in instructions):
            raise ValueError("instructions must be non-empty")
        if len(set(instructions)) != len(instructions):
            raise ValueError("instructions must be distinct")

    @property
    def n(self) -> int:
        return 1 + len(self.paraphrases)

    def all(self) -> List[str]:
        return [self.base, *self.paraphrases]

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.all()) + "\n", encoding="utf-8")

    @classmethod
    def from_lines(cls, lines: List[str]) -> "InstructionSet":
        lines = [line.strip() for line in lines if line.strip()]
        if not lines:
            raise ValueError("no instructions found")
        return cls(base=lines[0], paraphrases=tuple(lines[1:]))

    @classmethod
    def load(cls, path: str | Path) -> "InstructionSet":
        return cls.from_lines(Path(path).read_text(encoding="utf-8").splitlines())

    @classmethod
    def default(cls) -> "InstructionSet":
        """The bundled 10-instruction set."""
        text = resources.files("genqr").joinpath("data/instructions.txt").read_text("utf-8")
        return cls.from_lines(text.splitlines())


@dataclass
class ReformulationConfig:
    n: int = 10
    beta: float = 1.0
    dedup: bool = False
    keyword_parser: str = "raw-append"
    feedback_mode: str = "none"
    m: int = 5
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE
    context_budget: int = DEFAULT_CONTEXT_BUDGET

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.beta < 0 or self.beta != self.beta:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.keyword_parser not in KEYWORD_PARSERS:
            raise ValueError(f"unknown keyword_parser {self.keyword_parser!r}")
        if self.feedback_mode not in FEEDBACK_MODES:
            raise ValueError(f"unknown feedback_mode {self.feedback_mode!r}")
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")


@dataclass(frozen=True)
class Provenance:
    backend_identity: str
    instruction_indices: Tuple[int, ...]  # 1-based, parallel to keywords
    term_sources: Dict[str, Tuple[int, ...]]  # expansion term -> instruction indices
    cache_keys: Tuple[str, ...]
    context: Optional[str] = None


@dataclass(frozen=True)
class Reformulation:
    qid: str
    original: str
    keywords: Tuple[str, ...]
    fused: WeightedQuery
    provenance: Provenance

    def as_record(self) -> dict:
        return {
            "qid": self.qid,
            "original": self.original,
            "keywords": list(self.keywords),
            "fused_terms": [{"term": t, "weight": w} for t, w in self.fused.terms],
            "context": self.provenance.context,
        }


# --- instruction paraphrasing ------------------------------------------------

_ENUM_PREFIX = re.compile(r"^\s*(?:\d+\s*[.):\-]?|[-*•])\s*")


def parse_paraphrase_list(text: str) -> List[str]:
    """Parse a numbered or newline-separated list into distinct items."""
    items: List[str] = []
    for line in text.splitlines():
        item = _ENUM_PREFIX.sub("", line).strip()
        if item and item not in items:
            items.append(item)
    return items


def paraphrase_instructions(backend: Backend, base: str, count: int,
                            sampling: SamplingConfig = SamplingConfig(),
                            cache: Optional[ResponseCache] = None,
                            max_new_tokens: int = 512) -> InstructionSet:
    """Build an InstructionSet of `count` instructions (base included).

    count=1 returns the base alone without calling the backend. Otherwise
    the backend response is parsed as a list and truncated to count-1
    paraphrases; fewer parseable paraphrases than requested is an error.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count == 1:
        return InstructionSet(base=base)
    prompt = f"{PARAPHRASE_PROMPT} {base}"
    request = GenRequest(prompt=prompt, sampling=sampling, max_new_tokens=max_new_tokens)
    response = cached_generate(cache, backend, [request])[0]
    paraphrases = [p for p in parse_paraphrase_list(response) if p != base]
    if len(paraphrases) < count - 1:
        raise ReformulationError(
            f"requested {count - 1} paraphrases but found {len(paraphrases)} "
            f"parseable in the response")
    return InstructionSet(base=base, paraphrases=tuple(paraphrases[: count - 1]))


# --- keyword generation and fusion -------------------------------------------


def build_prompt(instruction: str, query: str,
                 template: str = DEFAULT_PROMPT_TEMPLATE) -> str:
    return template.format(instruction=instruction, query=query)


def generate_keywords(backend: Backend, instruction: str, query: Topic,
                      sampling: SamplingConfig = SamplingConfig(),
                      template: str = DEFAULT_PROMPT_TEMPLATE,
                      cache: Optional[ResponseCache] = None,
                      max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS) -> str:
    """One instruction-conditioned generation; returns the raw generated text."""
    request = GenRequest(prompt=build_prompt(instruction, query.query, template),
                         sampling=sampling, max_new_tokens=max_new_tokens)
    return cached_generate(cache, backend, [request])[0]


def fuse(original: Topic, expansions: Sequence[List[str]], config: ReformulationConfig,
         analyzer: Analyzer) -> WeightedQuery:
    """Weight-merge the analyzed original query with expansion tokens.

    `expansions` holds one token list per generated keyword, as made by
    `analyzer.analyze(keyword)`. Original terms carry weight 1.0 per occurrence;
    expansion tokens carry weight beta per occurrence (or per distinct
    token when dedup is set). Terms on both sides accumulate both weights.
    """
    weights: Dict[str, float] = {}
    order: List[str] = []

    for token in analyzer.analyze(original.query):
        if token not in weights:
            weights[token] = 0.0
            order.append(token)
        weights[token] += 1.0

    expansion = [token for tokens in expansions for token in tokens]
    if config.dedup:
        expansion = list(dict.fromkeys(expansion))
    for token in expansion:
        if token not in weights:
            weights[token] = 0.0
            order.append(token)
        weights[token] += config.beta

    if not any(w > 0 for w in weights.values()):
        raise DegenerateQueryError(
            f"query {original.qid!r}: fusion produced no positive-weight terms")
    return WeightedQuery(qid=original.qid, terms=tuple((t, weights[t]) for t in order))


# --- ensemble pipelines -------------------------------------------------------


def _run_instructions(backend: Backend, instructions: List[str], indices: List[int],
                      query: Topic, config: ReformulationConfig, analyzer: Analyzer,
                      sampling: SamplingConfig, cache: Optional[ResponseCache],
                      max_new_tokens: int, context: Optional[str]) -> Reformulation:
    batch = [GenRequest(prompt=build_prompt(instruction, query.query, config.prompt_template),
                        sampling=sampling, max_new_tokens=max_new_tokens)
             for instruction in instructions]
    keys = [cache_key(backend, request) for request in batch]
    try:
        keywords = cached_generate(cache, backend, batch, keys)
    except BackendError as e:
        raise ReformulationError(f"qid {query.qid}: instruction {indices[e.batch_index]} "
                                 f"generation failed: {e}") from e

    expansions = [analyzer.analyze(keyword) for keyword in keywords]
    fused = fuse(query, expansions, config, analyzer)

    term_sources: Dict[str, List[int]] = {}
    for idx, tokens in zip(indices, expansions):
        for token in set(tokens):
            term_sources.setdefault(token, []).append(idx)
    provenance = Provenance(
        backend_identity=backend.identity(),
        instruction_indices=tuple(indices),
        term_sources={t: tuple(sorted(set(v))) for t, v in sorted(term_sources.items())},
        cache_keys=tuple(keys),
        context=context,
    )
    return Reformulation(qid=query.qid, original=query.query,
                         keywords=tuple(keywords), fused=fused, provenance=provenance)


def genqr_ensemble(backend: Backend, instructions: InstructionSet, query: Topic,
                   config: ReformulationConfig, analyzer: Analyzer,
                   sampling: SamplingConfig = SamplingConfig(),
                   cache: Optional[ResponseCache] = None,
                   max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS) -> Reformulation:
    """Pre-retrieval ensemble: one generation per instruction, fused."""
    if config.n > instructions.n:
        raise ReformulationError(
            f"config requests {config.n} instructions but the set has {instructions.n}")
    used = instructions.all()[: config.n]
    return _run_instructions(backend, used, list(range(1, config.n + 1)), query,
                             config, analyzer, sampling, cache, max_new_tokens,
                             context=None)


def flanqr(backend: Backend, instruction: str, query: Topic,
           config: ReformulationConfig, analyzer: Analyzer,
           sampling: SamplingConfig = SamplingConfig(),
           cache: Optional[ResponseCache] = None,
           max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS) -> Reformulation:
    """Single-instruction zero-shot reformulation (the N=1 baseline path)."""
    return _run_instructions(backend, [instruction], [1], query, config, analyzer,
                             sampling, cache, max_new_tokens, context=None)


def build_context(feedback: FeedbackSet, budget: int = DEFAULT_CONTEXT_BUDGET) -> str:
    """Single-space join of feedback document texts, truncated to `budget` chars."""
    context = " ".join(feedback.texts())
    if len(context) > budget:
        logger.warning("qid %s: context truncated from %d to %d characters",
                       feedback.qid, len(context), budget)
        context = context[:budget]
    return context


def rf_instruction(context: str, instruction: str) -> str:
    return f"{RF_CONTEXT_PREFIX}{context}, {instruction}"


def genqr_ensemble_rf(backend: Backend, instructions: InstructionSet, query: Topic,
                      feedback: Optional[FeedbackSet], config: ReformulationConfig,
                      analyzer: Analyzer, sampling: SamplingConfig = SamplingConfig(),
                      cache: Optional[ResponseCache] = None,
                      max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS) -> Reformulation:
    """Post-retrieval ensemble: context-prefixed instructions, then as pre-retrieval.

    An empty feedback set degenerates to the no-feedback ensemble.
    """
    if feedback is None or len(feedback) == 0:
        return genqr_ensemble(backend, instructions, query, config, analyzer,
                              sampling, cache, max_new_tokens)
    if config.n > instructions.n:
        raise ReformulationError(
            f"config requests {config.n} instructions but the set has {instructions.n}")
    context = build_context(feedback, config.context_budget)
    used = [rf_instruction(context, i) for i in instructions.all()[: config.n]]
    return _run_instructions(backend, used, list(range(1, config.n + 1)), query,
                             config, analyzer, sampling, cache, max_new_tokens,
                             context=context)
