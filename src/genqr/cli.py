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
import json
import logging
import sys
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .config import (ENSEMBLE_METHODS, FEEDBACK_METHODS, LLM_METHODS, ConfigError,
                     ExperimentConfig, config_from_dict, load_config, read_config)
from .corpus_io import (Document, Qrels, Ranking, Run, Topic, atomic_writer, load_corpus,
                        load_qrels, load_topics, read_run, write_jsonl, write_run)
from .evaluation import (DEFAULT_METRICS, EvalReport, evaluate_run, holm_bonferroni,
                         missing_topics, paired_ttest, parse_metric, parse_metrics)
from .index import PostingsIndex, WeightedQuery, build_index
from .llm import Generator
from .prf import rm3_expand, select_feedback, select_oracle_feedback
from .reformulate import (InstructionSet, build_context, paraphrase_instructions,
                          query_prompts, query_record, reformulate_query)

logger = logging.getLogger(__name__)


def cmd_index(cfg: ExperimentConfig, force: bool = False) -> PostingsIndex:
    """Build the index, or verify it when one already exists (idempotent)."""
    dest = Path(cfg.index_dir)
    if (dest / "postings.bin").exists() and not force:
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
    feedback: Optional[Tuple[Document, ...]]
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
    genqrensemble_rf) then takes m = `fb_docs` documents: the judged ones
    under oracle `feedback_mode`, else the top m of a first pass. RM3
    expands the query from them; the LLM methods use their text as context.
    A feedback method that finds none runs as its pre-retrieval form: rm3
    as raw, an RF method as its plain method. flanqr and flanprf are
    genqrensemble and genqrensemble_rf with the first instruction only.
    """

    def __init__(self, cfg: ExperimentConfig, index: PostingsIndex):
        self.cfg = cfg
        self.index = index
        self.analyzer = index.analyzer
        self.docs: Dict[str, Document] = {}
        self.qrels: Optional[Qrels] = None
        self.generator: Optional[Generator] = None
        self.instructions: List[str] = []
        self.feedback_m = cfg.fb_docs if cfg.method in FEEDBACK_METHODS else 0

        if self.feedback_m:
            self.docs = {doc.docno: doc for doc in load_corpus(cfg.corpus, cfg.corpus_format)}
            if cfg.feedback_mode == "oracle":
                self.qrels = load_qrels(cfg.qrels)
        if cfg.method in LLM_METHODS:
            n = cfg.reformulation.n if cfg.method in ENSEMBLE_METHODS else 1
            self.instructions = cfg.instructions.all()[:n]
            self.generator = cfg.make_generator()

    def _feedback(self, query: WeightedQuery) -> Optional[Tuple[Document, ...]]:
        """The method's feedback documents; None when it takes or finds none."""
        m, cfg = self.feedback_m, self.cfg
        if m == 0:
            return None
        if self.qrels is not None:
            feedback = select_oracle_feedback(self.qrels, self.docs.__getitem__, query.qid, m,
                                              cfg.min_rel)
        else:  # a query with no terms takes no first pass: it finds no documents
            first_pass = self.index.retrieve(query, k=m, k1=cfg.k1, b=cfg.b) if query.terms else []
            feedback = select_feedback(first_pass, self.docs.__getitem__, query.qid, m)
        if not feedback:
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
                context = build_context(topic.qid, feedback, ref_cfg.context_budget)
            prompts = query_prompts(topic.query, self.instructions, context,
                                    ref_cfg.prompt_template)
        return _Prepared(topic, query, feedback, context, prompts)

    def __call__(self, step: _Prepared,
                 responses: Sequence[Union[str, Exception]]) -> Tuple[Ranking, dict]:
        """Expand the prepared query, from the responses to its prompts or by
        RM3, and retrieve: the topic's ranking and reformulations row."""
        cfg, query, keywords = self.cfg, step.query, ()
        if self.generator is not None:
            query, keywords = reformulate_query(query, responses, cfg.reformulation,
                                                self.analyzer)
        elif step.feedback is not None:
            query = rm3_expand(self.index, query, step.feedback, cfg.rm3)
        ranking = self.index.retrieve(query, k=cfg.retrieval_depth, k1=cfg.k1, b=cfg.b)
        return ranking, query_record(step.topic, query, keywords, step.context)


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

    failures: List[dict] = []
    run: Run = {}
    records: List[dict] = []
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
                step = ([], query_record(topic))
            run[topic.qid] = step[0]
            records.append(step[1])

    if cfg.reranker_cmd:
        run = _apply_reranker(cfg, run, out_dir)

    run_path = out_dir / f"{cfg.run_tag}.run"
    write_run(run, run_path, cfg.run_tag)
    ref_path = out_dir / f"{cfg.run_tag}.reformulations.jsonl"
    write_jsonl(records, ref_path)
    fail_path = out_dir / f"{cfg.run_tag}.failures.jsonl"
    if failures:
        write_jsonl(sorted(failures, key=lambda r: r["qid"]), fail_path)
    else:  # an earlier run's failures are no longer this tag's
        fail_path.unlink(missing_ok=True)
    logger.info("wrote %s (%d queries, %d failures)", run_path, len(topics), len(failures))
    return run_path, ref_path, len(failures)


def _apply_reranker(cfg: ExperimentConfig, run: Run, out_dir: Path) -> Run:
    """File-exchange reranker hook: hand the run to an external command
    `<reranker_cmd> <candidates> <reranked>` and read back new scores. The
    two files live in a temporary directory under `out_dir`, removed once
    the output is read or the hook fails, so no run file but the run's own
    is left there."""
    import shlex  # here, not at module top: only a run with a reranker loads them
    import subprocess
    import tempfile

    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{cfg.run_tag}.rerank-", dir=out_dir) as tmp:
        cand_path = Path(tmp) / f"{cfg.run_tag}.candidates.run"
        rerank_path = Path(tmp) / f"{cfg.run_tag}.reranked.run"
        write_run(run, cand_path, cfg.run_tag)
        cmd = shlex.split(cfg.reranker_cmd) + [str(cand_path), str(rerank_path)]
        subprocess.run(cmd, check=True)
        reranked = read_run(rerank_path)[1]
    for qid, ranking in run.items():
        if ranking and qid not in reranked:
            raise RuntimeError(f"reranker output is missing qid {qid}")
    return {qid: reranked.get(qid, ranking) for qid, ranking in run.items()}


def cmd_eval(run_paths: List[str | Path], qrels: Qrels,
             metrics: List[str], out_dir: str | Path, baseline: Optional[str] = None,
             alpha: float = 0.05, min_rel: int = 1) -> dict:
    """Evaluate runs, write per-run reports and a cross-run comparison table.

    Relative improvements and significance are computed against the
    `baseline` run tag; the Holm-Bonferroni family is every (run, metric)
    comparison against the baseline in this invocation. Judged topics
    missing from a run score as empty rankings, with a warning. Everything
    is computed before the first write, which makes `out_dir`, so an input
    that fails writes nothing.
    """
    specs = parse_metrics(metrics, min_rel=min_rel)

    tagged_runs: Dict[str, Run] = {}  # in input order
    for path in run_paths:
        tag, run = read_run(path)
        tag = tag or Path(path).stem
        if "/" in tag:  # the tag names the report files
            raise ValueError(f"{path}: run tag {tag!r} must not contain '/'")
        if tag in tagged_runs:
            raise ValueError(f"duplicate run tag {tag!r} across inputs")
        tagged_runs[tag] = run
    if baseline is not None and baseline not in tagged_runs:
        raise ValueError(f"baseline tag {baseline!r} not among the evaluated runs")

    reports: Dict[Tuple[str, str], EvalReport] = {}
    for tag, run in tagged_runs.items():
        for spec in specs:
            reports[(tag, spec.label)] = evaluate_run(run, qrels, spec)
        missing = missing_topics(run, qrels)
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
    _write_csv(out_path, [["qid", "value_a", "value_b", "delta"]] + [
        [row["qid"], *(f"{row[k]:.6f}" for k in ("value_a", "value_b", "delta"))] for row in rows])
    return rows


def _write_csv(path: str | Path, rows: Iterable[Sequence[str]]) -> None:
    """Write `rows` as CSV with "\\n" line ends, quoting a field with a comma or a quote."""
    import csv  # here, not at module top: only querywise and sweep write CSV

    with atomic_writer(path) as f:
        csv.writer(f, lineterminator="\n").writerows(rows)


_SWEEP_PARAMS = {
    "n": "reformulation.n",
    "beta": "reformulation.beta",
    "fb_terms": "rm3.fb_terms",
    "lambda": "rm3.lam",
}


def cmd_sweep(raw: dict, base_dir: Optional[Path], param: str, values: List,
              out_path: str | Path, lenient: bool = False) -> List[dict]:
    """Run the config file's mapping `raw` (its relative paths against
    `base_dir`) once per value of `param`, as `run` runs the file with `param`
    set: tagged <run_tag>-<param><value>, or <run_tag>-<param><position> where
    the value's text holds whitespace or '/'. Then evaluate the runs with
    `cmd_eval`, the first value's run as the baseline: reports and comparison
    table go to <output_dir>/<run_tag>-<param>/, the table's means to the long
    CSV (param, value, metric, mean) at `out_path`. Index and LLM cache are
    reused. Every value, and the qrels file, is checked before the first run."""
    if not values:
        raise ValueError("sweep needs at least one value")
    cfg = config_from_dict(raw, base_dir)
    if not (cfg.qrels and Path(cfg.qrels).is_file()):
        raise ConfigError(f"sweep needs a qrels file in the config, got {cfg.qrels!r}")
    qrels = load_qrels(cfg.qrels)  # a malformed line fails here, not after every run
    section, _, key = _SWEEP_PARAMS.get(param, param).rpartition(".")
    nested = raw.get(section) if isinstance(raw.get(section), dict) else {}
    configs, value_of = [], {}  # value_of: run tag -> swept value
    for position, value in enumerate(values, start=1):
        tag = f"{cfg.run_tag}-{param}{value}"
        if tag.split() != [tag] or "/" in tag:  # the tag names the run's files
            tag = f"{cfg.run_tag}-{param}{position}"
        swept = {**raw, section: {**nested, key: value}} if section else {**raw, key: value}
        try:
            configs.append(config_from_dict({**swept, "run_tag": tag}, base_dir))
        except ConfigError as e:
            raise ConfigError(f"sweep {param}={value}: {e}") from e
        if tag in value_of:
            raise ConfigError(f"sweep {param}: repeated run tag {tag!r}")
        value_of[tag] = value

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
    _write_csv(out_path, [["param", "value", "metric", "mean"]] + [
        [row["param"], str(row["value"]), row["metric"], f"{row['mean']:.6f}"] for row in rows])
    if failures:
        raise RuntimeError(f"{failures} queries failed during the sweep")
    return rows


def cmd_paraphrase(cfg: ExperimentConfig, count: int, out_path: str | Path) -> InstructionSet:
    """Generate `count` instructions (base + paraphrases) and persist them."""
    if cfg.backend is None:
        raise ConfigError("paraphrase needs a backend section")
    if count < 1:  # checked before make_generator creates cache_dir
        raise ValueError(f"count must be >= 1, got {count}")
    instructions = paraphrase_instructions(cfg.make_generator(), cfg.instructions.base,
                                           count)
    instructions.save(out_path)
    logger.info("wrote %d instructions to %s", instructions.n, out_path)
    return instructions


def _parse_values(raw: str) -> List:
    """Sweep values: a JSON array's items (a value may hold a comma or be a
    list), else the comma-separated pieces, each a JSON number or true/false
    where it parses as one, else the string; the config check judges each."""
    try:
        values = json.loads(raw)
    except ValueError:
        values = None
    if isinstance(values, list):
        return values
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
    p_sweep.add_argument("--values", required=True, help="comma-separated or a JSON array")
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
        cmd_sweep(*read_config(args.config), args.param, _parse_values(args.values),
                  args.out, lenient=args.lenient)
        return 0
    cmd_paraphrase(load_config(args.config), args.count, args.out)  # paraphrase, the one left
    return 0


if __name__ == "__main__":
    sys.exit(main())
