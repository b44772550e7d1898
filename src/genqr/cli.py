"""Experiment orchestration CLI.

Subcommands:
  index       build (or verify) the on-disk inverted index
  run         execute a retrieval method over all topics -> TREC run +
              reformulation provenance JSONL
  eval        score runs against qrels; comparison table with relative
              improvements and Holm-Bonferroni-corrected significance
  querywise   per-query metric deltas between two runs (CSV)
  sweep       run each value of a swept parameter, then eval the runs
              against the first (comparison table + long CSV)
  paraphrase  generate an instruction set from a base instruction

Exit code is 0 iff no query failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import shlex
import subprocess
import sys
from itertools import islice
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .config import (ENSEMBLE_METHODS, LLM_METHODS, RF_METHODS, ConfigError,
                     ExperimentConfig, load_config)
from .corpus_io import (Qrels, RunList, Topic, atomic_writer, load_corpus, load_qrels,
                        load_topics, read_run, write_jsonl, write_run)
from .evaluation import (DEFAULT_METRICS, EvalReport, evaluate_run, holm_bonferroni,
                         missing_topics, paired_ttest, parse_metric, parse_metrics)
from .index import PostingsIndex, WeightedQuery, build_index
from .llm import Generator
from .prf import FeedbackSet, rm3_expand, select_feedback, select_oracle_feedback
from .reformulate import (InstructionSet, build_context, paraphrase_instructions,
                          query_prompts, query_record, reformulate_query)

logger = logging.getLogger(__name__)


def cmd_index(cfg: ExperimentConfig, force: bool = False) -> PostingsIndex:
    """Build the index, or verify it when one already exists (idempotent)."""
    dest = Path(cfg.index_dir)
    if (dest / "meta.json").exists() and not force:
        existing = PostingsIndex.load(dest, cfg.analyzer)
        logger.info("index %s is up to date", dest)
        return existing
    index = build_index(load_corpus(cfg.corpus, cfg.corpus_format), cfg.analyzer)
    index.save(dest)
    logger.info("indexed %d documents (%d tokens) into %s",
                index.n_docs, index.total_tokens, dest)
    return index


# Topics whose prompts go to the backend in one batch. A chunk holds at
# most RUN_CHUNK_TOPICS x N prompts at once, and an RF prompt carries up to
# context_budget (default 4,000) characters of feedback text: about 2.6 MB
# of prompts at N=10.
RUN_CHUNK_TOPICS = 64


class _Prepared(NamedTuple):
    """A topic's analysed query, feedback, LLM context and prompts."""

    topic: Topic
    query: WeightedQuery
    feedback: Optional[FeedbackSet]
    context: Optional[str]
    prompts: List[str]


def _attempt(step, *args):
    """`step(*args)`, or the exception it raised: a topic's failure is its own."""
    try:
        return step(*args)
    except Exception as e:
        return e


class _QueryRunner:
    """Per-topic execution of the configured method: one path for all six.

    The topic's query is analysed once. A feedback method (rm3, flanprf,
    genqrensemble_rf) then takes m feedback documents: the judged ones
    under oracle feedback, else the top m of a first pass. RM3 expands the
    query from them; the LLM methods expand it with their text as context.
    A feedback method that finds none runs as its pre-retrieval form: rm3
    as raw, an RF method as its plain method. flanqr and flanprf are
    genqrensemble and genqrensemble_rf with the first instruction only.
    """

    def __init__(self, cfg: ExperimentConfig, index: PostingsIndex):
        self.cfg = cfg
        self.index = index
        self.analyzer = index.analyzer
        self.texts: Dict[str, str] = {}
        self.qrels: Optional[Qrels] = None
        self.generator: Optional[Generator] = None
        self.instructions: List[str] = []
        method, ref_cfg = cfg.method, cfg.reformulation
        self.feedback_m = (cfg.rm3.fb_docs if method == "rm3"
                           else ref_cfg.m if method in RF_METHODS else 0)

        if self.feedback_m:
            self.texts = {doc.docno: doc.text
                          for doc in load_corpus(cfg.corpus, cfg.corpus_format)}
        if method in RF_METHODS and ref_cfg.feedback_mode == "oracle":
            self.qrels = load_qrels(cfg.qrels)
        if method in LLM_METHODS:
            n = ref_cfg.n if method in ENSEMBLE_METHODS else 1
            self.instructions = cfg.instructions.all()[:n]
            self.generator = cfg.make_generator()

    def _feedback(self, query: WeightedQuery) -> Optional[FeedbackSet]:
        """The method's feedback documents; None when it takes or finds none."""
        m, cfg = self.feedback_m, self.cfg
        if m == 0:
            return None
        if self.qrels is not None:
            feedback = select_oracle_feedback(self.qrels, self.texts.__getitem__, query.qid, m)
        else:
            first_pass = self.index.retrieve(query, k=m, k1=cfg.k1, b=cfg.b)
            feedback = select_feedback(first_pass, self.texts.__getitem__, m)
        if len(feedback) == 0:
            logger.warning("qid %s: no feedback documents, running without feedback",
                           query.qid)
            return None
        return feedback

    def prepare(self, topic: Topic) -> _Prepared:
        """Analyse the topic's query, take its feedback and build its prompts."""
        ref_cfg = self.cfg.reformulation
        query = WeightedQuery.from_terms(topic.qid, self.analyzer.analyze(topic.query))
        feedback = self._feedback(query)
        context, prompts = None, []
        if self.generator is not None:
            if feedback is not None:
                context = build_context(feedback, ref_cfg.context_budget)
            prompts = query_prompts(topic.query, self.instructions, context,
                                    ref_cfg.prompt_template)
        return _Prepared(topic, query, feedback, context, prompts)

    def __call__(self, step: _Prepared,
                 responses: Sequence[Union[str, Exception]]) -> Tuple[RunList, dict]:
        """Expand the prepared query, from the responses to its prompts or by
        RM3, and retrieve: the topic's ranking and reformulations row."""
        cfg, query, keywords = self.cfg, step.query, ()
        if self.generator is not None:
            query, keywords = reformulate_query(query, responses, cfg.reformulation,
                                                self.analyzer)
        elif step.feedback is not None:
            query = rm3_expand(self.index, query, step.feedback, cfg.rm3)
        run = self.index.retrieve(query, k=cfg.retrieval_depth, k1=cfg.k1, b=cfg.b)
        return run, query_record(step.topic, query, keywords, step.context)


def cmd_run(cfg: ExperimentConfig, lenient: bool = False) -> Tuple[Path, Path, int]:
    """Run the configured method over every topic.

    Each chunk of RUN_CHUNK_TOPICS topics is prepared, then one
    `Generator.generate` call answers all its prompts on at most the
    backend's `max_in_flight` threads, the run's only concurrency; then each
    topic is expanded and retrieved. Returns (run file, reformulations file,
    failure count). A failing topic fails alone: the run raises the error of
    the first one in topic order unless lenient, in which case it gets an
    empty ranking and a row in <tag>.failures.jsonl.
    """
    index = PostingsIndex.load(cfg.index_dir, cfg.analyzer)
    topics = load_topics(cfg.topics, cfg.topics_format)
    runner = _QueryRunner(cfg, index)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures: List[dict] = []
    results: List[Tuple[RunList, dict]] = []
    for start in range(0, len(topics), RUN_CHUNK_TOPICS):
        chunk = topics[start:start + RUN_CHUNK_TOPICS]
        steps = [_attempt(runner.prepare, topic) for topic in chunk]
        prompts = [p for step in steps if isinstance(step, _Prepared) for p in step.prompts]
        responses = iter(runner.generator.generate(prompts)
                         if runner.generator is not None else ())
        for topic, step in zip(chunk, steps):
            if isinstance(step, _Prepared):
                step = _attempt(runner, step, list(islice(responses, len(step.prompts))))
            if isinstance(step, Exception):
                if not lenient:
                    raise step
                logger.error("qid %s failed: %s", topic.qid, step)
                failures.append({"qid": topic.qid, "error": str(step)})
                step = (RunList(qid=topic.qid), query_record(topic))
            results.append(step)

    runs = [run for run, _ in results]
    if cfg.reranker_cmd:
        runs = _apply_reranker(cfg, runs, out_dir)

    run_path = out_dir / f"{cfg.run_tag}.run"
    write_run(runs, run_path, cfg.run_tag)
    ref_path = out_dir / f"{cfg.run_tag}.reformulations.jsonl"
    write_jsonl((record for _, record in results), ref_path)
    fail_path = out_dir / f"{cfg.run_tag}.failures.jsonl"
    if failures:
        write_jsonl(sorted(failures, key=lambda r: r["qid"]), fail_path)
    else:  # an earlier run's failures are no longer this tag's
        fail_path.unlink(missing_ok=True)
    logger.info("wrote %s (%d queries, %d failures)", run_path, len(topics), len(failures))
    return run_path, ref_path, len(failures)


def _apply_reranker(cfg: ExperimentConfig, runs: List[RunList],
                    out_dir: Path) -> List[RunList]:
    """File-exchange reranker hook: hand the run to an external command
    `<reranker_cmd> <candidates> <reranked>` and read back new scores."""
    cand_path = out_dir / f"{cfg.run_tag}.candidates.run"
    rerank_path = out_dir / f"{cfg.run_tag}.reranked.run"
    write_run(runs, cand_path, cfg.run_tag)
    cmd = shlex.split(cfg.reranker_cmd) + [str(cand_path), str(rerank_path)]
    subprocess.run(cmd, check=True)
    reranked = {run.qid: run for run in read_run(rerank_path)[1]}
    for run in runs:
        if run.entries and run.qid not in reranked:
            raise RuntimeError(f"reranker output is missing qid {run.qid}")
    return [reranked.get(run.qid, run) for run in runs]


def cmd_eval(run_paths: List[str | Path], qrels: Qrels,
             metrics: List[str], out_dir: str | Path, baseline: Optional[str] = None,
             alpha: float = 0.05, min_rel: int = 1) -> dict:
    """Evaluate runs, write per-run reports and a cross-run comparison table.

    Relative improvements and significance are computed against the
    `baseline` run tag; the Holm-Bonferroni family is every (run, metric)
    comparison against the baseline in this invocation. Judged topics
    missing from a run score as empty rankings, with a warning. Everything
    is computed before `out_dir` is made, so an input that fails writes
    nothing.
    """
    specs = parse_metrics(metrics, min_rel=min_rel)

    tagged_runs: Dict[str, List[RunList]] = {}  # in input order
    for path in run_paths:
        tag, runs = read_run(path)
        tag = tag or Path(path).stem
        if "/" in tag:  # the tag names the report files
            raise ValueError(f"{path}: run tag {tag!r} must not contain '/'")
        if tag in tagged_runs:
            raise ValueError(f"duplicate run tag {tag!r} across inputs")
        tagged_runs[tag] = runs
    if baseline is not None and baseline not in tagged_runs:
        raise ValueError(f"baseline tag {baseline!r} not among the evaluated runs")

    reports: Dict[Tuple[str, str], EvalReport] = {}
    for tag, runs in tagged_runs.items():
        for spec in specs:
            reports[(tag, spec.label)] = evaluate_run(runs, qrels, spec)
        missing = missing_topics(runs, qrels)
        if missing:
            logger.warning("%s: %d judged topics missing from the run, scored as empty "
                           "rankings", tag, len(missing))

    rows = []
    for tag in tagged_runs:
        for spec in specs:
            report = reports[(tag, spec.label)]
            row = {"run": tag, "metric": spec.label, "mean": report.mean,
                   "evaluated": report.evaluated, "delta_pct": None,
                   "p_value": None, "significant": None}
            if baseline is not None and tag != baseline:
                # Every run is scored over the same judged topics, missing ones at 0.
                base = reports[(baseline, spec.label)]
                if base.mean != 0.0:
                    row["delta_pct"] = 100.0 * (report.mean - base.mean) / base.mean
                if report.evaluated >= 2:
                    row["p_value"] = paired_ttest(report.per_query, base.per_query)
            rows.append(row)

    tested = [row for row in rows if row["p_value"] is not None]
    for row, flag in zip(tested, holm_bonferroni([row["p_value"] for row in tested], alpha)):
        row["significant"] = flag

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for (tag, label), report in reports.items():
        report.save(out_dir / f"{tag}.{label}.tsv")
        report.save(out_dir / f"{tag}.{label}.json")
    table = {"baseline": baseline, "alpha": alpha, "rows": rows}
    with atomic_writer(out_dir / "comparison.json") as f:
        f.write(json.dumps(table, sort_keys=True, indent=1))
    with atomic_writer(out_dir / "comparison.tsv") as f:
        f.write("run\tmetric\tmean\tevaluated\tdelta_pct\tp_value\tsignificant\n")
        for row in rows:
            f.write("\t".join([
                row["run"], row["metric"], f"{row['mean']:.6f}", str(row["evaluated"]),
                "" if row["delta_pct"] is None else f"{row['delta_pct']:+.2f}",
                "" if row["p_value"] is None else f"{row['p_value']:.6f}",
                "" if row["significant"] is None else str(row["significant"]).lower(),
            ]) + "\n")
    return table


def cmd_querywise(run_a: str | Path, run_b: str | Path, qrels: Qrels,
                  metric: str, out_path: str | Path, min_rel: int = 1) -> List[dict]:
    """Per-query values of one metric for two runs plus their delta (CSV)."""
    spec = parse_metric(metric, min_rel=min_rel)
    report_a = evaluate_run(read_run(run_a)[1], qrels, spec)
    report_b = evaluate_run(read_run(run_b)[1], qrels, spec)
    if not report_a.per_query:
        raise ValueError("no judged topic has a relevant document")
    rows = [{"qid": q, "value_a": a, "value_b": report_b.per_query[q],
             "delta": a - report_b.per_query[q]} for q, a in report_a.per_query.items()]
    rows.sort(key=lambda r: (r["delta"], r["qid"]))
    with atomic_writer(out_path) as f:
        f.write("qid,value_a,value_b,delta\n")
        for row in rows:
            f.write(f"{row['qid']},{row['value_a']:.6f},{row['value_b']:.6f},"
                    f"{row['delta']:.6f}\n")
    return rows


_SWEEP_PARAMS = {
    "m": "reformulation.m",
    "n": "reformulation.n",
    "beta": "reformulation.beta",
    "fb_docs": "rm3.fb_docs",
    "fb_terms": "rm3.fb_terms",
    "lambda": "rm3.lam",
}


def _swept_config(cfg: ExperimentConfig, param: str, value) -> ExperimentConfig:
    """A copy of `cfg` with `param` set to `value` and its own run tag, built
    through the config classes so that their validation runs."""
    section, _, attr = _SWEEP_PARAMS.get(param, param).rpartition(".")
    target = getattr(cfg, section, None) if section else cfg
    if not (dataclasses.is_dataclass(target)
            and attr in {f.name for f in dataclasses.fields(target)}):
        raise ConfigError(f"unknown sweep parameter {param!r}")
    try:
        swept = dataclasses.replace(target, **{attr: value})
        if section:
            swept = dataclasses.replace(cfg, **{section: swept})
        return dataclasses.replace(swept, run_tag=f"{cfg.run_tag}-{param}{value}")
    except ValueError as e:
        raise ConfigError(f"sweep {param}={value}: {e}") from e


def cmd_sweep(cfg: ExperimentConfig, param: str, values: List,
              out_path: str | Path, lenient: bool = False) -> List[dict]:
    """Run once per swept value, then evaluate the runs with `cmd_eval`, the
    first value's run as the baseline: reports and comparison table go to
    <output_dir>/<run_tag>-<param>/. The long-format CSV (param, value,
    metric, mean) at `out_path` holds the table's means. Index and LLM cache
    are reused. Every value, and the qrels file, is checked before the first
    run."""
    if not values:
        raise ValueError("sweep needs at least one value")
    if not (cfg.qrels and Path(cfg.qrels).is_file()):
        raise ConfigError(f"sweep needs a qrels file in the config, got {cfg.qrels!r}")
    qrels = load_qrels(cfg.qrels)  # a malformed line fails here, not after every run
    configs = [_swept_config(cfg, param, value) for value in values]
    value_of = {}  # run tag -> swept value
    for value, sub in zip(values, configs):
        if sub.run_tag in value_of:
            raise ConfigError(f"sweep {param}: repeated run tag {sub.run_tag!r}")
        value_of[sub.run_tag] = value

    run_paths, failures = [], 0
    for sub in configs:
        run_path, _, failed = cmd_run(sub, lenient=lenient)
        run_paths.append(run_path)
        failures += failed
    table = cmd_eval(run_paths, qrels, cfg.metrics,
                     Path(cfg.output_dir) / f"{cfg.run_tag}-{param}",
                     baseline=configs[0].run_tag, min_rel=cfg.min_rel)
    rows = [{"param": param, "value": value_of[row["run"]], "metric": row["metric"],
             "mean": row["mean"]} for row in table["rows"]]
    with atomic_writer(out_path) as f:
        f.write("param,value,metric,mean\n")
        for row in rows:
            f.write(f"{row['param']},{row['value']},{row['metric']},{row['mean']:.6f}\n")
    if failures:
        raise RuntimeError(f"{failures} queries failed during the sweep")
    return rows


def cmd_paraphrase(cfg: ExperimentConfig, count: int, out_path: str | Path) -> InstructionSet:
    """Generate `count` instructions (base + paraphrases) and persist them."""
    if cfg.backend is None:
        raise ConfigError("paraphrase needs a backend section")
    instructions = paraphrase_instructions(cfg.make_generator(), cfg.instructions.base,
                                           count)
    instructions.save(out_path)
    logger.info("wrote %d instructions to %s", instructions.n, out_path)
    return instructions


def _parse_values(raw: str) -> List:
    """Comma-separated sweep values: each a JSON number or true/false where it
    parses as one, else the string; the config check then judges it."""
    values = []
    for piece in raw.split(","):
        try:
            values.append(json.loads(piece))
        except ValueError:
            values.append(piece.strip())
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="genqr",
                                     description="Ensemble query reformulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build the inverted index")
    p_index.add_argument("--config", required=True)
    p_index.add_argument("--force", action="store_true")

    p_run = sub.add_parser("run", help="run the configured method over all topics")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--lenient", action="store_true",
                       help="score failing queries as empty rankings instead of aborting")

    p_eval = sub.add_parser("eval", help="evaluate run files against qrels")
    p_eval.add_argument("runs", nargs="+")
    p_eval.add_argument("--qrels", required=True)
    p_eval.add_argument("--metrics", nargs="+", default=list(DEFAULT_METRICS))
    p_eval.add_argument("--baseline", default=None,
                        help="run tag used for relative improvements and significance")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--alpha", type=float, default=0.05)
    p_eval.add_argument("--min-rel", type=int, default=1)

    p_qw = sub.add_parser("querywise", help="per-query deltas between two runs")
    p_qw.add_argument("run_a")
    p_qw.add_argument("run_b")
    p_qw.add_argument("--qrels", required=True)
    p_qw.add_argument("--metric", default="ndcg@10")
    p_qw.add_argument("--out", required=True)
    p_qw.add_argument("--min-rel", type=int, default=1)

    p_sweep = sub.add_parser("sweep", help="run + evaluate across parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--lenient", action="store_true")

    p_par = sub.add_parser("paraphrase", help="generate an instruction set")
    p_par.add_argument("--config", required=True)
    p_par.add_argument("--count", type=int, default=10)
    p_par.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    if args.command == "index":
        cmd_index(load_config(args.config), force=args.force)
        return 0
    if args.command == "run":
        _, _, failed = cmd_run(load_config(args.config), lenient=args.lenient)
        return 1 if failed else 0
    if args.command == "eval":
        cmd_eval(args.runs, load_qrels(args.qrels), args.metrics, args.out,
                 baseline=args.baseline, alpha=args.alpha, min_rel=args.min_rel)
        return 0
    if args.command == "querywise":
        cmd_querywise(args.run_a, args.run_b, load_qrels(args.qrels), args.metric,
                      args.out, min_rel=args.min_rel)
        return 0
    if args.command == "sweep":
        cmd_sweep(load_config(args.config), args.param, _parse_values(args.values),
                  args.out, lenient=args.lenient)
        return 0
    if args.command == "paraphrase":
        cmd_paraphrase(load_config(args.config), args.count, args.out)
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
