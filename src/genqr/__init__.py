"""Ensemble query reformulation toolkit: instruction-ensemble zero-shot
query rewriting over a BM25 index, with RM3 feedback baselines and a
TREC-style evaluation harness."""

from importlib import resources
from pathlib import Path

from .analysis import Analyzer, porter_stem
from .corpus_io import (Document, Qrels, RunEntry, RunList, Topic, load_corpus,
                        load_qrels, load_topics, read_run, write_run)
from .evaluation import (EvalReport, MetricSpec, average_precision,
                         evaluate_run, holm_bonferroni, mrr, ndcg_at_k,
                         paired_ttest, parse_metric, precision_at_k)
from .index import (DegenerateQueryError, PostingsIndex, WeightedQuery,
                    build_index)
from .llm import (Backend, GenRequest, Generator, HttpBackend, ReplayBackend,
                  ResponseCache, SamplingConfig, StubBackend, cache_key,
                  cached_generate)
from .prf import (FeedbackDoc, FeedbackSet, estimate_relevance_model,
                  rm3_expand, select_feedback, select_oracle_feedback)
from .reformulate import (InstructionSet, Reformulation, ReformulationConfig,
                          build_context, fuse, paraphrase_instructions,
                          query_record, reformulate_query)

__version__ = "0.1.0"


def data_path(*parts: str) -> Path:
    """Path to a bundled data file (e.g. data_path("toy", "corpus.jsonl"))."""
    return Path(str(resources.files("genqr").joinpath("/".join(("data",) + parts))))
