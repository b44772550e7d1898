"""Instruction-ensemble query reformulation.

`reformulate_query` is the expansion step of the LLM methods. Each of N
instructions is prompted with the user query (`query_prompts`), and every
generated keyword is analysed and appended to the already-analysed query
as a weighted expansion term. The single-instruction baselines (flanqr,
flanprf) are the N=1 case.

Post-retrieval, feedback-document text is prepended to every instruction
as context ("Based on the given context information <C>, <instruction>"),
where <C> is the space-joined feedback texts (`build_context`); with no
context the pipeline is the pre-retrieval one.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from string import Formatter
from typing import List, Optional, Sequence, Tuple, Union

from .analysis import Analyzer
from .corpus_io import Document, Topic, atomic_writer, read_text
from .index import WeightedQuery
from .llm import Generator
from .schema import ConfigError, check_fields

logger = logging.getLogger(__name__)

PARAPHRASE_PROMPT = "Generate 10 paraphrases for the following instruction:"
RF_CONTEXT_PREFIX = "Based on the given context information "
DEFAULT_PROMPT_TEMPLATE = "{instruction}: {query}"
DEFAULT_CONTEXT_BUDGET = 4000
PARAPHRASE_MAX_NEW_TOKENS = 512


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
        with atomic_writer(path) as f:
            f.write("\n".join(self.all()) + "\n")

    @classmethod
    def from_lines(cls, lines: List[str]) -> "InstructionSet":
        lines = [line.strip() for line in lines if line.strip()]
        if not lines:
            raise ValueError("no instructions found")
        return cls(base=lines[0], paraphrases=tuple(lines[1:]))

    @classmethod
    def load(cls, path: str | Path) -> "InstructionSet":
        return cls.from_lines(read_text(path).splitlines())

    @classmethod
    def default(cls) -> "InstructionSet":
        """The bundled 10-instruction set."""
        text = resources.files("genqr").joinpath("data/instructions.txt").read_text("utf-8")
        return cls.from_lines(text.splitlines())


@dataclass(frozen=True)
class ReformulationConfig:
    n: int = field(default=10, metadata={"min": 1})
    beta: float = field(default=1.0, metadata={"min": 0})
    dedup: bool = False
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE
    context_budget: int = field(default=DEFAULT_CONTEXT_BUDGET, metadata={"min": 0})

    def __post_init__(self):
        check_fields(self)
        template = self.prompt_template
        try:  # the fields `query_prompts` fills, and no other
            template.format(instruction="i", query="q")
        except (LookupError, ValueError, AttributeError) as e:
            problem = f"{type(e).__name__}: {e}"
        else:  # each of them at least once
            names = {name for _, name, _, _ in Formatter().parse(template)}
            problem = " and ".join(f"no {{{name}}}" for name in ("instruction", "query")
                                   if name not in names)
        if problem:
            raise ConfigError(f"prompt_template must be a format string of {{instruction}} "
                              f"and {{query}}, got {template!r} ({problem})")


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
    response, = generator.generate([f"{PARAPHRASE_PROMPT} {base}"])
    if isinstance(response, Exception):
        raise response
    paraphrases = [p for p in parse_paraphrase_list(response) if p != base]
    if len(paraphrases) < count - 1:
        raise ReformulationError(
            f"requested {count - 1} paraphrases but found {len(paraphrases)} "
            f"parseable in the response")
    return InstructionSet(base=base, paraphrases=tuple(paraphrases[: count - 1]))


# --- keyword generation and fusion -------------------------------------------


def fuse(original: WeightedQuery, expansions: Sequence[List[str]],
         config: ReformulationConfig) -> WeightedQuery:
    """Weight-merge the analysed original query with expansion tokens.

    `original` is the analysed query, each term at weight 1.0 per occurrence.
    `expansions` holds one token list per generated keyword, as made by
    `analyzer.analyze(keyword)`. Expansion tokens carry weight beta per
    occurrence (or per distinct token when dedup is set). Terms on both
    sides accumulate both weights, in first-seen order, as `WeightedQuery`
    merges them.
    """
    expansion = [token for tokens in expansions for token in tokens]
    if config.dedup:
        expansion = dict.fromkeys(expansion)
    return WeightedQuery(qid=original.qid, terms=original.terms + tuple(
        (token, config.beta) for token in expansion))


# --- the pipeline --------------------------------------------------------------


def build_context(qid: str, docs: Sequence[Document],
                  budget: int = DEFAULT_CONTEXT_BUDGET) -> str:
    """Single-space join of feedback document texts, truncated to `budget` chars."""
    context = " ".join(doc.text for doc in docs)
    if len(context) > budget:
        logger.warning("qid %s: context truncated from %d to %d characters",
                       qid, len(context), budget)
        context = context[:budget]
    return context


def query_prompts(query: str, instructions: Sequence[str], context: Optional[str],
                  template: str = DEFAULT_PROMPT_TEMPLATE) -> List[str]:
    """One prompt per instruction, in order; `context`, unless None, is the
    feedback context prefixed to each instruction."""
    if context is not None:
        instructions = [f"{RF_CONTEXT_PREFIX}{context}, {i}" for i in instructions]
    return [template.format(instruction=i, query=query) for i in instructions]


def reformulate_query(original: WeightedQuery, responses: Sequence[Union[str, Exception]],
                      config: ReformulationConfig,
                      analyzer: Analyzer) -> Tuple[WeightedQuery, Tuple[str, ...]]:
    """A topic's generated keywords, fused into `original`, its analysed
    query: (fused query, keywords).

    `responses` answer the topic's `query_prompts`, in instruction order; a
    failed generation is its exception, and the lowest-numbered one (1-based)
    fails the topic. `analyzer` analyses the keywords.
    """
    for i, response in enumerate(responses, start=1):
        if isinstance(response, Exception):
            raise ReformulationError(f"qid {original.qid}: instruction {i} "
                                     f"generation failed: {response}") from response
    expansions = [analyzer.analyze(keyword) for keyword in responses]
    return fuse(original, expansions, config), tuple(responses)


# perfbench/trace_cli.py patches these old names, bound to the one function, to time
# the pipeline; they go when trace_cli patches `reformulate_query` instead. Not exported.
flanqr = genqr_ensemble = genqr_ensemble_rf = reformulate_query
