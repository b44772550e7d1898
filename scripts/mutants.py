#!/usr/bin/env python3
"""Mutation check: every catalogued mutant of src/genqr must fail its tests.

    python3 scripts/mutants.py

A mutant replaces one exact snippet of one file under src/genqr with a
fault. For each mutant the script copies src/ to a temporary directory,
applies the mutant there, and runs the mutant's tests with PYTHONPATH set
to the copy, under the `mutants` hypothesis profile of tests/conftest.py
(derandomized, no shrinking). The mutant is caught when every one of its
tests fails, and survives when one passes.

Errors, which fail the check like a survivor:
- a snippet that does not occur exactly once in its file, so the catalog
  follows the code;
- a listed test that pytest cannot find or run;
- a listed test that fails on the unmutated copy, checked once first.

The exit status is 0 only when every mutant run is caught.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/genqr
    snippet: str
    replacement: str
    tests: Tuple[str, ...]  # pytest node ids, relative to the repo root


CATALOG = [
    # --- a rank is the list position ---
    Mutant("write_run numbers from 0", "corpus_io.py",
           "for rank, entry in enumerate(run.entries, start=1):\n"
           "                f.write(",
           "for rank, entry in enumerate(run.entries, start=0):\n"
           "                f.write(",
           ("tests/test_corpus_io.py::test_run_line_format",
            "tests/test_corpus_io.py::test_read_run_resorts_and_reranks")),
    Mutant("mrr numbers from 0", "evaluation.py",
           "    for rank, entry in enumerate(run.entries, start=1):\n"
           "        if entry.docno in relevant:\n"
           "            return 1.0 / rank",
           "    for rank, entry in enumerate(run.entries, start=0):\n"
           "        if entry.docno in relevant:\n"
           "            return 1.0 / rank",
           ("tests/test_acceptance.py::test_criterion_2_metric_oracle_equivalence",)),
    Mutant("Holm flags zipped over every row", "cli.py",
           "for row, flag in zip(tested, holm_bonferroni(",
           "for row, flag in zip(rows, holm_bonferroni(",
           ("tests/test_cli.py::test_eval_holm_flags_only_the_tested_rows",)),
    Mutant("feedback helper names the wrong qid", "prf.py",
           "return _feedback_set(run.qid,",
           "return _feedback_set(run.entries[0].docno,",
           ("tests/test_prf.py::test_missing_docno_named",)),
    # --- a run's tag belongs to its file ---
    Mutant("read_run takes the last line's tag", "corpus_io.py",
           "tag = tag or line_tag",
           "tag = line_tag",
           ("tests/test_corpus_io.py::test_read_run_names_a_file_by_its_first_tag",)),
    Mutant("run_tag may hold '/'", "config.py",
           'if "/" in self.run_tag:',
           "if False:",
           ("tests/test_cli.py::test_bad_config_value_raises_config_error[run_tag='../escaped']",
            "tests/test_cli.py::test_sweep_tag_with_a_slash_rejected_before_any_run")),
    Mutant("eval takes a run file's tag with '/'", "cli.py",
           'if "/" in tag:',
           "if False:",
           ("tests/test_cli.py::test_eval_rejects_a_run_tag_with_a_slash_before_writing",)),
    # --- a score is a finite number ---
    Mutant("read_run takes a non-finite score", "corpus_io.py",
           "        if not math.isfinite(score):\n",
           "        if False:\n",
           ("tests/test_corpus_io.py::test_read_run_rejects_a_non_finite_score[nan]",
            "tests/test_corpus_io.py::test_read_run_rejects_a_non_finite_score[-inf]")),
    Mutant("RunList.validate passes a non-finite score", "corpus_io.py",
           "            if not math.isfinite(entry.score):\n",
           "            if False:\n",
           ("tests/test_corpus_io.py::test_write_run_rejects_a_non_finite_score[nan]",
            "tests/test_corpus_io.py::test_write_run_rejects_a_non_finite_score[inf]")),
    # --- one metric, one evaluation; eval computes before it writes ---
    Mutant("a repeated metric is evaluated again", "evaluation.py",
           "        if spec.label in specs:\n",
           "        if False:\n",
           ("tests/test_evaluation.py::test_parse_metrics_rejects_a_repeated_label",
            "tests/test_cli.py::test_eval_evaluates_a_metric_once",
            "tests/test_cli.py::test_bad_config_value_raises_config_error[metrics=['map', 'MAP']]")),
    Mutant("eval makes --out before it computes", "cli.py",
           "    specs = parse_metrics(metrics, min_rel=min_rel)\n",
           "    Path(out_dir).mkdir(parents=True, exist_ok=True)\n"
           "    specs = parse_metrics(metrics, min_rel=min_rel)\n",
           ("tests/test_cli.py::test_bad_alpha_leaves_out_uncreated",
            "tests/test_cli.py::test_eval_evaluates_a_metric_once",
            "tests/test_cli.py::test_eval_rejects_a_run_tag_with_a_slash_before_writing")),
    # --- fusion ---
    Mutant("fuse never dedups", "reformulate.py",
           "    if config.dedup:\n        expansion = dict.fromkeys(expansion)",
           "    if False:\n        expansion = dict.fromkeys(expansion)",
           ("tests/test_reformulate.py::test_fuse_dedup_permutation_invariant",
            "tests/test_reformulate.py::test_fuse_dedup_permutation_invariant_property")),
    Mutant("fuse always dedups", "reformulate.py",
           "    if config.dedup:\n        expansion = dict.fromkeys(expansion)",
           "    if True:\n        expansion = dict.fromkeys(expansion)",
           ("tests/test_reformulate.py::test_fuse_occurrence_counts",
            "tests/test_reformulate.py::test_fuse_total_weight_without_dedup_property")),
    Mutant("fuse weights the original by beta", "reformulate.py",
           "    weights = original.aggregated()\n",
           "    weights = {t: w * config.beta for t, w in original.aggregated().items()}\n",
           ("tests/test_reformulate.py::test_fuse_beta_zero_keeps_original_weights",
            "tests/test_reformulate.py::test_fuse_beta_zero_keeps_original_weights_property")),
    Mutant("fuse dedups adjacent repeats only", "reformulate.py",
           "        expansion = dict.fromkeys(expansion)",
           "        expansion = [t for i, t in enumerate(expansion)\n"
           "                     if i == 0 or expansion[i - 1] != t]",
           ("tests/test_reformulate.py::test_fuse_dedup_permutation_invariant_property",)),
    Mutant("fuse ignores beta", "reformulate.py",
           "weights[token] = weights.get(token, 0.0) + config.beta",
           "weights[token] = weights.get(token, 0.0) + 1.0",
           ("tests/test_reformulate.py::test_fuse_beta_scales_expansions",
            "tests/test_pipeline_oracle.py::test_query_runner_matches_pipeline_oracle")),
    # --- the sweep reports like eval ---
    Mutant("sweep baseline is the last value", "cli.py",
           "baseline=configs[0].run_tag",
           "baseline=configs[-1].run_tag",
           ("tests/test_cli.py::test_sweep_reports_like_eval",)),
    # --- the run loop ---
    Mutant("phase-1 errors raised at once", "cli.py",
           "steps = [_attempt(runner.prepare, topic) for topic in chunk]",
           "steps = [runner.prepare(topic) for topic in chunk]",
           ("tests/test_reformulate.py::test_strict_run_raises_the_first_failing_topic",)),
    Mutant("a clean rerun keeps the old failures file", "cli.py",
           "        fail_path.unlink(missing_ok=True)\n",
           "        pass\n",
           ("tests/test_cli.py::test_clean_rerun_removes_the_old_failures_file",)),
    # --- a prompt template names both fields ---
    Mutant("prompt_template may omit {query}", "reformulate.py",
           'for name in ("instruction", "query")',
           'for name in ("instruction",)',
           ("tests/test_cli.py::test_bad_config_value_raises_config_error"
            "[reformulation={'prompt_template': '{instruction}'}]",
            "tests/test_cli.py::test_bad_config_value_raises_config_error"
            "[reformulation={'prompt_template': ''}]")),
    # --- corpus reading ---
    Mutant("trec-text count position does not advance", "corpus_io.py",
           "        pos = match.start()\n",
           "",
           ("tests/test_corpus_io.py::test_trec_text_bad_record_reports_its_line",
            "tests/test_corpus_io.py::test_trec_topic_bad_record_reports_its_line")),
    # --- the response cache ---
    Mutant("no newline repair in ResponseCache.put", "llm.py",
           'data = "\\n" + data',
           "data = data",
           ("tests/test_llm.py::test_torn_last_line_skipped_and_next_put_starts_a_new_line",)),
    Mutant("an interrupt caches only the responses read", "llm.py",
           "cache.put({key: future.result() for key, future in futures.items()\n"
           "                       if not future.cancelled() and future.exception() is None})",
           "cache.put({key: results[key] for key in futures\n"
           "                       if isinstance(results.get(key), str)})",
           ("tests/test_llm.py::test_interrupted_batch_caches_the_responses_that_arrived",)),
    Mutant("no flock in ResponseCache.put", "llm.py",
           "            fcntl.flock(f, fcntl.LOCK_EX)\n",
           "",
           ("tests/test_llm.py::test_processes_appending_at_once_lose_no_entry",)),
    # --- the index build ---
    Mutant("every tf is 1", "index.py",
           "tfs.extend(counts.values())",
           "tfs.extend(one * n_docs)",
           ("tests/test_index.py::test_build_equals_inverted_index_oracle",
            "tests/test_index.py::test_single_doc_statistics")),
    Mutant("cf written as df", "index.py",
           "cf.append(len(ords))",
           "cf.append(n_docs)",
           ("tests/test_index.py::test_build_equals_inverted_index_oracle",
            "tests/test_index.py::test_build_save_load_preserves_index")),
    Mutant("an index loads under any analyzer", "index.py",
           "        if index.analyzer != analyzer:\n",
           "        if False:\n",
           ("tests/test_cli.py::test_index_analyzer_mismatch_errors",
            "tests/test_cli.py::test_run_against_index_of_another_analyzer_asks_for_force_rebuild")),
    # --- rank-safe top k ---
    Mutant("no 1e-9 slack on the pruning threshold", "index.py",
           "[-1] * (1.0 - _PRUNE_SLACK)",
           "[-1]",
           ("tests/test_index.py::test_pruning_threshold_absorbs_rounding",)),
    Mutant("> for >= in the candidate filter", "index.py",
           "if acc[d] + rest >= theta",
           "if acc[d] + rest > theta",
           ("tests/test_index.py::test_doc_on_the_pruning_threshold_is_kept",)),
    Mutant("probe phase skipped", "index.py",
           "                for d in candidates:\n                    at = bisect_left(",
           "                for d in ():\n                    at = bisect_left(",
           ("tests/test_index.py::test_pruned_terms_are_probed",
            "tests/test_index.py::test_retrieve_equals_exhaustive_top_k")),
    Mutant("no docno tie-break in retrieve", "index.py",
           "key=lambda d: (-acc[d], docnos[d])",
           "key=lambda d: -acc[d]",
           ("tests/test_index.py::test_doc_on_the_pruning_threshold_is_kept",
            "tests/test_index.py::test_retrieve_equals_exhaustive_top_k",
            "tests/test_pipeline_oracle.py::test_query_runner_matches_pipeline_oracle")),
    # --- feedback and RM3 ---
    Mutant("feedback from ranks 2 to m+1", "cli.py",
           "first_pass = self.index.retrieve(query, k=m, k1=cfg.k1, b=cfg.b)",
           "first_pass = self.index.retrieve(query, k=m + 1, k1=cfg.k1, b=cfg.b)\n"
           "            first_pass.entries = first_pass.entries[1:]",
           ("tests/test_pipeline_oracle.py::test_query_runner_matches_pipeline_oracle",)),
    Mutant("rm3_expand ignores params.mu", "prf.py",
           "estimate_relevance_model(index, original, feedback, params) if",
           "estimate_relevance_model(index, original, feedback,\n"
           "                                         Rm3Params(fb_terms=params.fb_terms)) if",
           ("tests/test_acceptance.py::test_criterion_6_rm3_correctness",)),
]


def apply(mutant: Mutant, src: Path) -> None:
    path = src / "genqr" / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.snippet)
    if count != 1:
        raise ValueError(f"snippet occurs {count} times in src/genqr/{mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def run_tests(tests: Sequence[str], mutant: Optional[Mutant] = None) -> Tuple[int, Set[str], str]:
    """pytest over `tests` against a copy of src/ with `mutant` applied:
    (exit code, ids that failed or errored, output)."""
    with tempfile.TemporaryDirectory(prefix="genqr-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            apply(mutant, src)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rfE", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutants", *tests],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return proc.returncode, failed, proc.stdout + proc.stderr


def check_mutant(mutant: Mutant) -> Tuple[str, str]:
    """("caught" | "survived" | "error", detail)."""
    try:
        code, failed, output = run_tests(mutant.tests, mutant)
    except ValueError as e:
        return "error", str(e)
    if code not in (0, 1):
        return "error", f"pytest exit {code}:\n{output[-2000:]}"
    passed = [t for t in mutant.tests if t not in failed]
    if passed:
        return "survived", "passed: " + ", ".join(passed)
    return "caught", ""


def main() -> int:
    code, failed, output = run_tests(list(dict.fromkeys(t for m in CATALOG for t in m.tests)))
    if code != 0:
        print(f"error: the tests fail on the unmutated source (pytest exit {code}): "
              f"{sorted(failed) or output[-2000:]}")
        return 1
    outcomes = []
    for mutant in CATALOG:
        outcome, detail = check_mutant(mutant)
        outcomes.append(outcome)
        print(f"{outcome:8}  {mutant.name}" + (f": {detail}" if detail else ""), flush=True)
    caught = outcomes.count("caught")
    print(f"{caught} of {len(CATALOG)} mutants caught, {outcomes.count('survived')} survived, "
          f"{outcomes.count('error')} errors")
    return 0 if caught == len(CATALOG) else 1


if __name__ == "__main__":
    sys.exit(main())
