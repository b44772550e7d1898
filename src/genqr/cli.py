"""Experiment orchestration CLI.

Subcommands:
  index       build (or verify) the on-disk inverted index
  run         execute a retrieval method over all topics -> TREC run +
              reformulation provenance JSONL
  eval        score runs against qrels; comparison table with relative
              improvements and Holm-Bonferroni-corrected significance
  querywise   per-query metric deltas between two runs (CSV)
  sweep       re-run + evaluate across a swept parameter (long CSV)
  paraphrase  generate an instruction set from a base instruction

Exit code is 0 iff no query failed.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import logging
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .config import (FEEDBACK_METHODS, LLM_METHODS, ConfigError,
                     ExperimentConfig, load_config)
from .corpus_io import (Qrels, RunList, Topic, atomic_writer, load_corpus,
                        load_qrels, load_topics, read_run, write_run)
from .evaluation import (EvalReport, evaluate_run, holm_bonferroni,
                         paired_ttest, parse_metric)
from .index import IndexingError, PostingsIndex, WeightedQuery, build_index
from .prf import (FeedbackSet, rm3_expand, select_feedback,
                  select_oracle_feedback)
from .reformulate import (InstructionSet, flanqr, genqr_ensemble,
                          genqr_ensemble_rf, paraphrase_instructions)

logger = logging.getLogger(__name__)


def cmd_index(cfg: ExperimentConfig, force: bool = False) -> PostingsIndex:
    """Build the index, or verify it when one already exists (idempotent)."""
    dest = Path(cfg.index_dir)
    if (dest / "meta.json").exists() and not force:
        existing = PostingsIndex.load(dest)
        if existing.analyzer.fingerprint() == cfg.analyzer.fingerprint():
            logger.info("index %s is up to date", dest)
            return existing
        raise IndexingError(
            f"{dest}: existing index uses a different analyzer; "
            f"rerun with --force to reindex")
    index = build_index(load_corpus(cfg.corpus, cfg.corpus_format), cfg.analyzer)
    index.save(dest)
    logger.info("indexed %d documents (%d tokens) into %s",
                index.n_docs, index.total_tokens, dest)
    return index


def _load_index_for(cfg: ExperimentConfig) -> PostingsIndex:
    if not (Path(cfg.index_dir) / "meta.json").exists():
        raise IndexingError(f"no index at {cfg.index_dir}; run `genqr index` first")
    index = PostingsIndex.load(cfg.index_dir)
    if index.analyzer.fingerprint() != cfg.analyzer.fingerprint():
        raise IndexingError(
            f"{cfg.index_dir}: index analyzer differs from the configured one; reindex")
    return index


def _corpus_text_lookup(cfg: ExperimentConfig) -> Dict[str, str]:
    return {doc.docno: doc.text
            for doc in load_corpus(cfg.corpus, cfg.corpus_format)}


class _QueryRunner:
    """Per-topic execution of the configured method."""

    def __init__(self, cfg: ExperimentConfig, index: PostingsIndex):
        self.cfg = cfg
        self.index = index
        self.analyzer = index.analyzer
        self.backend = cfg.make_backend() if cfg.method in LLM_METHODS else None
        self.cache = cfg.make_cache()
        self.lookup: Optional[Dict[str, str]] = None
        self.qrels: Optional[Qrels] = None
        self.instructions: Optional[InstructionSet] = None
        self.ref_cfg = cfg.reformulation

        if cfg.method in FEEDBACK_METHODS:
            self.lookup = _corpus_text_lookup(cfg)
        if cfg.method in ("flanprf", "genqrensemble_rf") \
                and cfg.reformulation.feedback_mode == "oracle":
            if not cfg.qrels:
                raise ConfigError("oracle feedback needs a qrels path in the config")
            self.qrels = load_qrels(cfg.qrels)

        if cfg.method in LLM_METHODS:
            full = cfg.load_instructions()
            if cfg.method in ("flanqr", "flanprf"):
                self.instructions = InstructionSet(base=full.base)
                self.ref_cfg = dataclasses.replace(cfg.reformulation, n=1)
            else:
                self.instructions = full
                if cfg.reformulation.n > full.n:
                    raise ConfigError(
                        f"reformulation.n={cfg.reformulation.n} exceeds the "
                        f"{full.n}-instruction set")

    def _raw_query(self, topic: Topic) -> WeightedQuery:
        return WeightedQuery.from_terms(topic.qid, self.analyzer.analyze(topic.query))

    def _text(self, docno: str) -> str:
        return self.lookup[docno]

    def _feedback(self, topic: Topic) -> Optional[FeedbackSet]:
        m = self.ref_cfg.m
        if m == 0:
            return None
        if self.ref_cfg.feedback_mode == "oracle":
            return select_oracle_feedback(self.qrels, self._text, topic.qid, m)
        first_pass = self.index.retrieve(self._raw_query(topic), k=self.cfg.retrieval_depth,
                                         k1=self.cfg.k1, b=self.cfg.b)
        return select_feedback(first_pass, self._text, m)

    def __call__(self, topic: Topic) -> Tuple[RunList, dict]:
        cfg = self.cfg
        method = cfg.method
        record: dict

        if method == "raw":
            fused = self._raw_query(topic)
            record = _plain_record(topic, fused)
        elif method == "rm3":
            fused = self._rm3_query(topic)
            record = _plain_record(topic, fused)
        elif method == "flanqr":
            ref = flanqr(self.backend, self.instructions.base, topic, self.ref_cfg,
                         self.analyzer, cfg.sampling, self.cache, cfg.max_new_tokens)
            fused, record = ref.fused, ref.as_record()
        elif method == "genqrensemble":
            ref = genqr_ensemble(self.backend, self.instructions, topic, self.ref_cfg,
                                 self.analyzer, cfg.sampling, self.cache,
                                 cfg.max_new_tokens)
            fused, record = ref.fused, ref.as_record()
        else:  # flanprf, genqrensemble_rf
            feedback = self._feedback(topic)
            ref = genqr_ensemble_rf(self.backend, self.instructions, topic, feedback,
                                    self.ref_cfg, self.analyzer, cfg.sampling,
                                    self.cache, cfg.max_new_tokens)
            fused, record = ref.fused, ref.as_record()

        run = self.index.retrieve(fused, k=cfg.retrieval_depth, k1=cfg.k1, b=cfg.b,
                                  tag=cfg.run_tag)
        return run, record

    def _rm3_query(self, topic: Topic) -> WeightedQuery:
        raw = self._raw_query(topic)
        first_pass = self.index.retrieve(raw, k=self.cfg.retrieval_depth,
                                         k1=self.cfg.k1, b=self.cfg.b)
        feedback = select_feedback(first_pass, self._text, self.cfg.rm3.fb_docs)
        if len(feedback) == 0:
            logger.warning("qid %s: no feedback candidates, keeping raw query", topic.qid)
            return raw
        return rm3_expand(self.index, raw, feedback, fb_terms=self.cfg.rm3.fb_terms,
                          lam=self.cfg.rm3.lam, mu=self.cfg.rm3.mu)


def _plain_record(topic: Topic, fused: WeightedQuery) -> dict:
    return {
        "qid": topic.qid,
        "original": topic.query,
        "keywords": [],
        "fused_terms": [{"term": t, "weight": w} for t, w in fused.terms],
        "context": None,
    }


def cmd_run(cfg: ExperimentConfig, lenient: bool = False) -> Tuple[Path, Path, int]:
    """Run the configured method over every topic.

    Returns (run file, reformulations file, failure count). Per-query
    failures abort unless lenient, in which case the query gets an empty
    ranking and a row in <tag>.failures.jsonl.
    """
    index = _load_index_for(cfg)
    topics = load_topics(cfg.topics, cfg.topics_format)
    runner = _QueryRunner(cfg, index)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures: List[dict] = []

    def process(topic: Topic) -> Tuple[RunList, dict]:
        try:
            return runner(topic)
        except Exception as e:
            if not lenient:
                raise
            logger.error("qid %s failed: %s", topic.qid, e)
            failures.append({"qid": topic.qid, "error": str(e)})
            return (RunList(qid=topic.qid, entries=[], tag=cfg.run_tag),
                    {"qid": topic.qid, "original": topic.query, "keywords": [],
                     "fused_terms": [], "context": None})

    try:
        if cfg.workers > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(process, topics))
        else:
            results = [process(t) for t in topics]
    finally:
        if runner.backend is not None:
            runner.backend.close()

    runs = [run for run, _ in results]
    if cfg.reranker_cmd:
        runs = _apply_reranker(cfg, runs, out_dir)

    run_path = out_dir / f"{cfg.run_tag}.run"
    write_run(runs, run_path)
    ref_path = out_dir / f"{cfg.run_tag}.reformulations.jsonl"
    with atomic_writer(ref_path) as f:
        for _, record in results:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    if failures:
        fail_path = out_dir / f"{cfg.run_tag}.failures.jsonl"
        with atomic_writer(fail_path) as f:
            for row in sorted(failures, key=lambda r: r["qid"]):
                f.write(json.dumps(row, sort_keys=True) + "\n")
    logger.info("wrote %s (%d queries, %d failures)", run_path, len(topics), len(failures))
    return run_path, ref_path, len(failures)


def _apply_reranker(cfg: ExperimentConfig, runs: List[RunList],
                    out_dir: Path) -> List[RunList]:
    """File-exchange reranker hook: hand the run to an external command
    `<reranker_cmd> <candidates> <reranked>` and read back new scores."""
    cand_path = out_dir / f"{cfg.run_tag}.candidates.run"
    rerank_path = out_dir / f"{cfg.run_tag}.reranked.run"
    write_run(runs, cand_path)
    cmd = shlex.split(cfg.reranker_cmd) + [str(cand_path), str(rerank_path)]
    subprocess.run(cmd, check=True)
    reranked = {run.qid: run for run in read_run(rerank_path)}
    out = []
    for run in runs:
        if run.entries and run.qid not in reranked:
            raise RuntimeError(f"reranker output is missing qid {run.qid}")
        new = reranked.get(run.qid, run)
        out.append(RunList(qid=run.qid, entries=new.entries, tag=cfg.run_tag))
    return out


def cmd_eval(run_paths: List[str | Path], qrels_path: str | Path,
             metrics: List[str], out_dir: str | Path, baseline: Optional[str] = None,
             alpha: float = 0.05, min_rel: int = 1, gain: str = "linear") -> dict:
    """Evaluate runs, write per-run reports and a cross-run comparison table.

    Relative improvements and significance are computed against the
    `baseline` run tag; the Holm-Bonferroni family is every (run, metric)
    comparison against the baseline in this invocation.
    """
    qrels = load_qrels(qrels_path)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = [parse_metric(m, min_rel=min_rel, gain=gain) for m in metrics]

    tagged_runs: Dict[str, List[RunList]] = {}
    tag_order: List[str] = []
    for path in run_paths:
        runs = read_run(path)
        tag = runs[0].tag if runs else Path(path).stem
        if tag in tagged_runs:
            raise ValueError(f"duplicate run tag {tag!r} across inputs")
        tagged_runs[tag] = runs
        tag_order.append(tag)
    if baseline is not None and baseline not in tagged_runs:
        raise ValueError(f"baseline tag {baseline!r} not among the evaluated runs")

    reports: Dict[Tuple[str, str], EvalReport] = {}
    for tag in tag_order:
        for spec in specs:
            report = evaluate_run(tagged_runs[tag], qrels, spec)
            reports[(tag, spec.label)] = report
            report.save(out_dir / f"{tag}.{spec.label}.tsv")
            report.save(out_dir / f"{tag}.{spec.label}.json")

    rows = []
    comparisons = []  # indices into rows that carry a p-value
    p_values: List[float] = []
    for tag in tag_order:
        for spec in specs:
            report = reports[(tag, spec.label)]
            row = {"run": tag, "metric": spec.label, "mean": report.mean,
                   "evaluated": report.evaluated, "delta_pct": None,
                   "p_value": None, "significant": None}
            if baseline is not None and tag != baseline:
                base = reports[(baseline, spec.label)]
                common = sorted(set(report.per_query) & set(base.per_query))
                if base.mean != 0.0:
                    row["delta_pct"] = 100.0 * (report.mean - base.mean) / base.mean
                if len(common) >= 2:
                    p = paired_ttest({q: report.per_query[q] for q in common},
                                     {q: base.per_query[q] for q in common})
                    row["p_value"] = p
                    comparisons.append(len(rows))
                    p_values.append(p)
            rows.append(row)

    if p_values:
        flags = holm_bonferroni(p_values, alpha)
        for idx, flag in zip(comparisons, flags):
            rows[idx]["significant"] = flag

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


def cmd_querywise(run_a: str | Path, run_b: str | Path, qrels_path: str | Path,
                  metric: str, out_path: str | Path, min_rel: int = 1,
                  gain: str = "linear") -> List[dict]:
    """Per-query values of one metric for two runs plus their delta (CSV)."""
    qrels = load_qrels(qrels_path)
    spec = parse_metric(metric, min_rel=min_rel, gain=gain)
    report_a = evaluate_run(read_run(run_a), qrels, spec)
    report_b = evaluate_run(read_run(run_b), qrels, spec)
    common = sorted(set(report_a.per_query) & set(report_b.per_query))
    if not common:
        raise ValueError("the two runs share no evaluated queries")
    rows = [{"qid": q, "value_a": report_a.per_query[q],
             "value_b": report_b.per_query[q],
             "delta": report_a.per_query[q] - report_b.per_query[q]}
            for q in common]
    rows.sort(key=lambda r: (r["delta"], r["qid"]))
    with atomic_writer(out_path) as f:
        f.write("qid,value_a,value_b,delta\n")
        for row in rows:
            f.write(f"{row['qid']},{row['value_a']:.6f},{row['value_b']:.6f},"
                    f"{row['delta']:.6f}\n")
    return rows


_SWEEP_PARAMS = {
    "m": ("reformulation", "m"),
    "n": ("reformulation", "n"),
    "beta": ("reformulation", "beta"),
    "fb_docs": ("rm3", "fb_docs"),
    "fb_terms": ("rm3", "fb_terms"),
    "lambda": ("rm3", "lam"),
}


def _swept_config(cfg: ExperimentConfig, param: str, value) -> ExperimentConfig:
    """A copy of `cfg` with `param` set to `value` and its own run tag, built
    through the config classes so that their validation runs."""
    if param in _SWEEP_PARAMS:
        section, attr = _SWEEP_PARAMS[param]
    elif "." in param:
        section, attr = param.split(".", 1)
    else:
        section, attr = None, param
    target = getattr(cfg, section, None) if section else cfg
    if not (dataclasses.is_dataclass(target)
            and attr in {f.name for f in dataclasses.fields(target)}):
        raise ConfigError(f"unknown sweep parameter {param!r}")
    cfg = copy.deepcopy(cfg)
    try:
        changes = {"run_tag": f"{cfg.run_tag}-{param}{value}"}
        if section:
            changes[section] = dataclasses.replace(getattr(cfg, section), **{attr: value})
        else:
            changes[attr] = value
        return dataclasses.replace(cfg, **changes)
    except ValueError as e:
        raise ConfigError(f"sweep {param}={value}: {e}") from e


def cmd_sweep(cfg: ExperimentConfig, param: str, values: List,
              out_path: str | Path, lenient: bool = False) -> List[dict]:
    """Run + evaluate once per swept value; emit long-format CSV rows
    (param, value, metric, mean). Index and LLM cache are reused. Every
    value is validated before the first run."""
    if not values:
        raise ValueError("sweep needs at least one value")
    if not cfg.qrels:
        raise ConfigError("sweep needs a qrels path in the config")
    configs = [_swept_config(cfg, param, value) for value in values]
    qrels = load_qrels(cfg.qrels)
    specs = [parse_metric(m, min_rel=cfg.min_rel) for m in cfg.metrics]

    rows = []
    failures = 0
    for value, sub in zip(values, configs):
        run_path, _, failed = cmd_run(sub, lenient=lenient)
        failures += failed
        runs = read_run(run_path)
        for spec in specs:
            report = evaluate_run(runs, qrels, spec)
            rows.append({"param": param, "value": value,
                         "metric": spec.label, "mean": report.mean})
    with atomic_writer(out_path) as f:
        f.write("param,value,metric,mean\n")
        for row in rows:
            f.write(f"{row['param']},{row['value']},{row['metric']},{row['mean']:.6f}\n")
    if failures:
        raise RuntimeError(f"{failures} queries failed during the sweep")
    return rows


def cmd_paraphrase(cfg: ExperimentConfig, count: int, out_path: str | Path) -> InstructionSet:
    """Generate `count` instructions (base + paraphrases) and persist them."""
    backend = cfg.make_backend()
    base = cfg.base_instruction or InstructionSet.default().base
    try:
        instructions = paraphrase_instructions(backend, base, count,
                                               sampling=cfg.sampling,
                                               cache=cfg.make_cache())
    finally:
        backend.close()
    instructions.save(out_path)
    logger.info("wrote %d instructions to %s", instructions.n, out_path)
    return instructions


def _parse_values(raw: str) -> List:
    values = []
    for piece in raw.split(","):
        piece = piece.strip()
        try:
            values.append(int(piece))
        except ValueError:
            values.append(float(piece))
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
    p_eval.add_argument("--metrics", nargs="+",
                        default=["ndcg@10", "map", "mrr", "p@10"])
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
        cmd_eval(args.runs, args.qrels, args.metrics, args.out,
                 baseline=args.baseline, alpha=args.alpha, min_rel=args.min_rel)
        return 0
    if args.command == "querywise":
        cmd_querywise(args.run_a, args.run_b, args.qrels, args.metric, args.out,
                      min_rel=args.min_rel)
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
