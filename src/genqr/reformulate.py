"""Instruction-ensemble query reformulation.

`reformulate_query` is the one pipeline. Each of N instructions is prompted
with the user query, and every generated keyword is appended to the
original query as a weighted expansion term. The single-instruction
baseline (flanqr) is the N=1 case.

Post-retrieval, feedback-document text is prepended to every instruction
as context ("Based on the given context information <C>, <instruction>"),
where <C> is the space-joined feedback texts; with no context the
pipeline is the pre-retrieval one.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis import Analyzer
from .corpus_io import Topic
from .index import DegenerateQueryError, WeightedQuery
from .llm import BackendError, Generator
from .prf import FeedbackSet

logger = logging.getLogger(__name__)

PARAPHRASE_PROMPT = "Generate 10 paraphrases for the following instruction:"
RF_CONTEXT_PREFIX = "Based on the given context information "
DEFAULT_PROMPT_TEMPLATE = "{instruction}: {query}"
DEFAULT_CONTEXT_BUDGET = 4000
PARAPHRASE_MAX_NEW_TOKENS = 512

# "none", the former default, still loads; the RF methods then use pseudo feedback.
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
    feedback_mode: str = "pseudo"
    m: int = 5
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE
    context_budget: int = DEFAULT_CONTEXT_BUDGET

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.beta < 0 or self.beta != self.beta:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
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


def query_record(topic: Topic, fused: Optional[WeightedQuery] = None,
                 keywords: Sequence[str] = (), context: Optional[str] = None) -> dict:
    """The reformulations-file row of one query; no `fused` query (a failed
    query) gives no fused terms."""
    return {
        "qid": topic.qid,
        "original": topic.query,
        "keywords": list(keywords),
        "fused_terms": [] if fused is None else [{"term": t, "weight": w}
                                                  for t, w in fused.terms],
        "context": context,
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


def paraphrase_instructions(generator: Generator, base: str,
                            count: int) -> InstructionSet:
    """Build an InstructionSet of `count` instructions (base included).

    count=1 returns the base alone without calling the backend. Otherwise
    the response to one PARAPHRASE_MAX_NEW_TOKENS request is parsed as a
    list and truncated to count-1 paraphrases; fewer parseable paraphrases
    than requested is an error.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count == 1:
        return InstructionSet(base=base)
    generator = replace(generator, max_new_tokens=PARAPHRASE_MAX_NEW_TOKENS)
    response = generator.generate([f"{PARAPHRASE_PROMPT} {base}"])[0][0]
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


# --- the pipeline --------------------------------------------------------------


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


def reformulate_query(generator: Generator, topic: Topic, instructions: Sequence[str],
                      context: Optional[str], config: ReformulationConfig,
                      analyzer: Analyzer) -> Reformulation:
    """One generation per instruction, fused into the topic's query.

    `instructions` are the ones to use, in order (instruction i is 1-based
    index i in the provenance); `context`, unless None, is the feedback
    context prefixed to each of them.
    """
    if context is not None:
        instructions = [rf_instruction(context, i) for i in instructions]
    prompts = [build_prompt(i, topic.query, config.prompt_template) for i in instructions]
    try:
        keywords, keys = generator.generate(prompts)
    except BackendError as e:
        raise ReformulationError(f"qid {topic.qid}: instruction {e.batch_index + 1} "
                                 f"generation failed: {e}") from e

    expansions = [analyzer.analyze(keyword) for keyword in keywords]
    fused = fuse(topic, expansions, config, analyzer)

    term_sources: Dict[str, List[int]] = {}
    for idx, tokens in enumerate(expansions, start=1):
        for token in set(tokens):
            term_sources.setdefault(token, []).append(idx)
    provenance = Provenance(
        backend_identity=generator.backend.identity(),
        instruction_indices=tuple(range(1, len(prompts) + 1)),
        term_sources={t: tuple(v) for t, v in sorted(term_sources.items())},
        cache_keys=tuple(keys),
        context=context,
    )
    return Reformulation(qid=topic.qid, original=topic.query,
                         keywords=tuple(keywords), fused=fused, provenance=provenance)


# perfbench/trace_cli.py patches these three old names to time the pipeline.
# They are bound to the one function object, so patching them wraps it; they
# go when the benchmark upkeep of ROADMAP item 7 has trace_cli patch
# `reformulate_query` instead. Not exported.
flanqr = genqr_ensemble = genqr_ensemble_rf = reformulate_query
