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
           "for rank, (docno, score) in enumerate(ranking, start=1):\n"
           "                f.write(",
           "for rank, (docno, score) in enumerate(ranking, start=0):\n"
           "                f.write(",
           ("tests/test_corpus_io.py::test_run_line_format",
            "tests/test_corpus_io.py::test_read_run_resorts_and_reranks")),
    Mutant("mrr numbers from 0", "evaluation.py",
           "    for rank, (docno, _) in enumerate(ranking[:k], start=1):\n"
           "        if docno in relevant:\n"
           "            return 1.0 / rank",
           "    for rank, (docno, _) in enumerate(ranking[:k], start=0):\n"
           "        if docno in relevant:\n"
           "            return 1.0 / rank",
           ("tests/test_acceptance.py::test_criterion_2_metric_oracle_equivalence",)),
    Mutant("mrr@k reads rank k + 1", "evaluation.py",
           "for rank, (docno, _) in enumerate(ranking[:k], start=1)",
           "for rank, (docno, _) in enumerate(ranking[:k and k + 1], start=1)",
           ("tests/test_evaluation.py::test_mrr_cases",
            "tests/test_acceptance.py::test_criterion_2_metric_oracle_equivalence")),
    Mutant("Holm flags zipped over every row", "cli.py",
           "for row, flag in zip(tested, holm_bonferroni(",
           "for row, flag in zip(rows, holm_bonferroni(",
           ("tests/test_cli.py::test_eval_holm_flags_only_the_tested_rows",)),
    Mutant("feedback names the wrong qid", "prf.py",
           'f"qid {qid}: feedback docno',
           'f"qid {ranking[0][0]}: feedback docno',
           ("tests/test_prf.py::test_missing_docno_named",
            "tests/test_prf.py::test_oracle_missing_docno_named")),
    # --- a run's tag belongs to its file ---
    Mutant("read_run takes the last line's tag", "corpus_io.py",
           "tag = tag or line_tag",
           "tag = line_tag",
           ("tests/test_corpus_io.py::test_read_run_names_a_file_by_its_first_tag",)),
    Mutant("run_tag may hold '/'", "config.py",
           'if "/" in self.run_tag:',
           "if False:",
           ("tests/test_cli.py::test_bad_config_value_raises_config_error[run_tag='../escaped']",
            "tests/test_cli.py::test_bad_config_value_raises_config_error[run_tag='sub/x']")),
    Mutant("eval takes a run file's tag with '/'", "cli.py",
           'if "/" in tag:',
           "if False:",
           ("tests/test_cli.py::test_eval_rejects_a_run_tag_with_a_slash_before_writing",)),
    # --- a score is a finite number ---
    Mutant("read_run takes a non-finite score", "corpus_io.py",
           "            score = math.nan\n        if not math.isfinite(score):\n",
           "            score = math.nan\n        if False:\n",
           ("tests/test_corpus_io.py::test_read_run_rejects_a_non_finite_score[nan]",
            "tests/test_corpus_io.py::test_read_run_rejects_a_non_finite_score[-inf]")),
    Mutant("write_run passes a non-finite score", "corpus_io.py",
           "            if not math.isfinite(score):\n",
           "            if False:\n",
           ("tests/test_corpus_io.py::test_write_run_rejects_a_non_finite_score[nan]",
            "tests/test_corpus_io.py::test_write_run_rejects_a_non_finite_score[inf]")),
    Mutant("write_run accepts a repeated docno", "corpus_io.py",
           "            if docno in seen:\n                raise CorpusFormatError(f\"qid {qid}: duplicate",
           "            if False:\n                raise CorpusFormatError(f\"qid {qid}: duplicate",
           ("tests/test_corpus_io.py::test_write_run_validates_invariants",)),
    # --- a backend fixture states each key and each prompt once ---
    Mutant("vocab keeps the last of a repeated key", "llm.py",
           "vocab = json.loads(read_text(vocab), object_pairs_hook=unique_keys)",
           "vocab = json.loads(read_text(vocab))",
           ("tests/test_cli.py::test_bad_backend_option_raises_config_error"
            """[stub-{'vocab': '{"goldfish": ["carp"], "goldfish": ["koi"]}'}]""",)),
    Mutant("vocab folds keys into one word in lower case", "llm.py",
           "self.vocab = unique_keys((str(k).lower(), list(vs)) for k, vs in vocab.items())",
           "self.vocab = {str(k).lower(): list(vs) for k, vs in vocab.items()}",
           ("tests/test_cli.py::test_bad_backend_option_raises_config_error"
            """[stub-{'vocab': '{"Goldfish": ["carp"], "goldfish": ["koi"]}'}]""",
            "tests/test_cli.py::test_bad_backend_option_raises_config_error"
            "[stub-{'vocab': {'Goldfish': ['carp'], 'goldfish': ['koi']}}]")),
    Mutant("replay row keeps the last of a repeated key", "llm.py",
           "row = json.loads(line, object_pairs_hook=unique_keys)",
           "row = json.loads(line)",
           ("tests/test_cli.py::test_bad_backend_option_raises_config_error"
            """[replay-{'transcript': '{"prompt": "p0", "response": "r"}\\\\n"""
            """{"prompt": "p1", "response": "a", "response": "b"}\\\\n'}]""",)),
    Mutant("replay keeps the last response", "llm.py",
           "if self._responses.setdefault(prompt, response) != response:",
           "if self._responses.__setitem__(prompt, response):",
           ("tests/test_cli.py::test_bad_backend_option_raises_config_error"
            """[replay-{'transcript': '{"prompt": "p2", "response": "x"}\\\\n\\\\n"""
            """{"prompt": "p2", "response": "y"}\\\\n'}]""",)),
    # --- querywise and sweep write CSV ---
    Mutant("CSV fields joined unquoted", "cli.py",
           'csv.writer(f, lineterminator="\\n").writerows(rows)',
           'f.writelines(",".join(row) + "\\n" for row in rows)',
           ("tests/test_cli.py::test_querywise_quotes_a_qid_with_a_comma",
            "tests/test_cli.py::test_sweep_quotes_a_value_with_a_quote")),
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
    Mutant("evaluate_run drops missing judged topics", "evaluation.py",
           "for qid in [*run, *missing_topics(run, qrels)]:",
           "for qid in run:",
           ("tests/test_evaluation.py::test_evaluate_run_scores_missing_judged_topics_zero",
            "tests/test_evaluation.py::test_evaluate_run_matches_the_oracles_topic_by_topic")),
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
           "terms=original.terms + tuple(",
           "terms=tuple((t, w * config.beta) for t, w in original.terms) + tuple(",
           ("tests/test_reformulate.py::test_fuse_beta_zero_keeps_original_weights",
            "tests/test_reformulate.py::test_fuse_beta_zero_keeps_original_weights_property")),
    Mutant("fuse dedups adjacent repeats only", "reformulate.py",
           "        expansion = dict.fromkeys(expansion)",
           "        expansion = [t for i, t in enumerate(expansion)\n"
           "                     if i == 0 or expansion[i - 1] != t]",
           ("tests/test_reformulate.py::test_fuse_dedup_permutation_invariant_property",)),
    Mutant("fuse ignores beta", "reformulate.py",
           "(token, config.beta) for token in expansion",
           "(token, 1.0) for token in expansion",
           ("tests/test_reformulate.py::test_fuse_beta_scales_expansions",
            "tests/test_pipeline_oracle.py::test_query_runner_matches_pipeline_oracle")),
    Mutant("WeightedQuery keeps repeated terms", "index.py",
           '        object.__setattr__(self, "terms", tuple(merged.items()))\n',
           "",
           ("tests/test_index.py::test_weighted_query_merges_repeated_terms",
            "tests/test_cli.py::test_a_repeated_token_is_one_fused_term")),
    # --- the sweep reports like eval ---
    Mutant("sweep splits a JSON array at commas", "cli.py",
           "    if isinstance(values, list):\n        return values\n",
           "",
           ("tests/test_cli.py::test_sweep_values_from_a_json_array_through_main[comma]",
            "tests/test_cli.py::test_sweep_values_from_a_json_array_through_main[list]")),
    Mutant("sweep baseline is the last value", "cli.py",
           "baseline=configs[0].run_tag",
           "baseline=configs[-1].run_tag",
           ("tests/test_cli.py::test_sweep_reports_like_eval",)),
    # --- a swept config is the config file with one key set ---
    Mutant("swept config built without the config's directory", "cli.py",
           'config_from_dict({**swept, "run_tag": tag}, base_dir)',
           'config_from_dict({**swept, "run_tag": tag})',
           ("tests/test_cli.py::test_sweep_instruction_sets_by_relative_path",
            "tests/test_cli.py::test_sweep_topics_by_relative_path")),
    Mutant("swept value's text used as the tag unchecked", "cli.py",
           'if tag.split() != [tag] or "/" in tag:',
           "if False:",
           ("tests/test_cli.py::test_sweep_value_with_a_slash_is_tagged_by_position",
            "tests/test_cli.py::test_sweep_prompt_template_with_a_space",
            "tests/test_cli.py::test_sweep_reranker_cmd_with_a_space",
            "tests/test_cli.py::test_sweep_tags_are_valid_and_distinct_or_rejected")),
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
    Mutant("decode error escapes", "corpus_io.py",
           "        raise _not_utf8(Path(path)) from None\n",
           "        raise\n",
           ("tests/test_corpus_io.py::test_a_byte_that_is_not_utf8_names_its_line[corpus-trec-text]",
            "tests/test_corpus_io.py::test_a_byte_that_is_not_utf8_names_its_line"
            "[topics-trec-topic]",
            "tests/test_cli.py::test_a_config_input_that_is_not_utf8_names_its_line[config]",
            "tests/test_cli.py::test_a_config_input_that_is_not_utf8_names_its_line[vocab]",
            "tests/test_cli.py::test_a_config_input_that_is_not_utf8_names_its_line[transcript]",
            "tests/test_cli.py::test_a_config_input_that_is_not_utf8_names_its_line"
            "[instructions]")),
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
           "        if stored != analyzer:\n",
           "        if False:\n",
           ("tests/test_cli.py::test_index_analyzer_mismatch_errors",
            "tests/test_cli.py::test_run_against_index_of_another_analyzer_asks_for_force_rebuild")),
    Mutant("checksum not compared", "index.py",
           'if zlib.crc32(memoryview(raw)[:-4]) != int.from_bytes(raw[-4:], "little"):',
           "if False:",
           ("tests/test_index.py::test_any_changed_byte_or_word_fails_the_load",
            "tests/test_index.py::test_overwritten_doc_ordinal_rejected")),
    # --- outputs ---
    Mutant("atomic_writer makes no directory", "corpus_io.py",
           "    path.parent.mkdir(parents=True, exist_ok=True)\n",
           "",
           ("tests/test_cli.py::test_sweep_out_in_a_new_directory",
            "tests/test_cli.py::test_querywise_out_in_a_new_directory")),
    Mutant("reranker exchange files left in output_dir", "cli.py",
           "        cand_path = Path(tmp) / f\"{cfg.run_tag}.candidates.run\"\n"
           "        rerank_path = Path(tmp) / f\"{cfg.run_tag}.reranked.run\"\n",
           "        cand_path = out_dir / f\"{cfg.run_tag}.candidates.run\"\n"
           "        rerank_path = out_dir / f\"{cfg.run_tag}.reranked.run\"\n",
           ("tests/test_cli.py::test_reranker_exchange_files_leave_output_dir",)),
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
    Mutant("no docno tie-break in retrieve", "corpus_io.py",
           "key=lambda e: (-e[1], e[0])",
           "key=lambda e: -e[1]",
           ("tests/test_corpus_io.py::test_tie_scores_broken_by_docno",
            "tests/test_index.py::test_ties_at_the_cut_go_by_docno",
            "tests/test_index.py::test_doc_on_the_pruning_threshold_is_kept",
            "tests/test_index.py::test_retrieve_equals_exhaustive_top_k",
            "tests/test_acceptance.py::test_criterion_1_bm25_oracle_equivalence",
            "tests/test_pipeline_oracle.py::test_query_runner_matches_pipeline_oracle")),
    Mutant("k-th score off by one", "index.py",
           "cut = scores[-min(k, len(scores))]",
           "cut = scores[-min(k + 1, len(scores))]",
           ("tests/test_index.py::test_retrieve_ranks_only_the_docs_at_the_cut",)),
    Mutant("theta from the (k+1)-th score", "index.py",
           "heapq.nlargest(k, map(",
           "heapq.nlargest(k + 1, map(",
           ("tests/test_index.py::test_pruning_keeps_only_docs_that_can_reach_the_top_k",)),
    Mutant("ties at the cut dropped", "index.py",
           "if acc[d] >= cut]",
           "if acc[d] > cut]",
           ("tests/test_index.py::test_ties_at_the_cut_go_by_docno",
            "tests/test_index.py::test_retrieve_equals_exhaustive_top_k")),
    # --- feedback and RM3 ---
    Mutant("feedback from ranks 2 to m+1", "cli.py",
           "first_pass = self.index.retrieve(query, k=m, k1=cfg.k1, b=cfg.b)",
           "first_pass = self.index.retrieve(query, k=m + 1, k1=cfg.k1, b=cfg.b)[1:]",
           ("tests/test_pipeline_oracle.py::test_query_runner_matches_pipeline_oracle",)),
    Mutant("first pass taken on an empty query", "cli.py",
           "if query.terms else []",
           "if True else []",
           ("tests/test_cli.py::test_an_empty_query_takes_no_pseudo_feedback",
            "tests/test_pipeline_oracle.py::test_query_runner_matches_pipeline_oracle")),
    Mutant("oracle feedback ignores min_rel", "cli.py",
           "query.qid, m,\n                                              cfg.min_rel)",
           "query.qid, m)",
           ("tests/test_cli.py::test_oracle_feedback_takes_the_docs_at_min_rel[3-taken1]",
            "tests/test_pipeline_oracle.py::test_query_runner_matches_pipeline_oracle")),
    Mutant("rm3 ignores oracle mode", "cli.py",
           '            if cfg.feedback_mode == "oracle":\n',
           '            if cfg.feedback_mode == "oracle" and cfg.method != "rm3":\n',
           ("tests/test_pipeline_oracle.py::test_query_runner_matches_pipeline_oracle",)),
    Mutant("an RF method reads a constant depth instead of fb_docs", "cli.py",
           "self.feedback_m = cfg.fb_docs if cfg.method in FEEDBACK_METHODS else 0",
           'self.feedback_m = (cfg.fb_docs if cfg.method == "rm3" else 5) '
           "if cfg.method in FEEDBACK_METHODS else 0",
           ("tests/test_pipeline_oracle.py::test_query_runner_matches_pipeline_oracle",)),
    Mutant("an empty feedback doc under mu = 0 divides by zero", "prf.py",
           "p = (tf[term] + mu * p_coll[term]) / norm if norm else 0.0",
           "p = (tf[term] + mu * p_coll[term]) / norm",
           ("tests/test_prf.py::test_empty_feedback_doc_under_mu_zero_gives_no_term_mass",
            "tests/test_pipeline_oracle.py::test_query_runner_matches_pipeline_oracle")),
    Mutant("RM3's P(t|C) reads df for cf", "prf.py",
           "index.collection_freq(term) / total",
           "index.df(term) / total",
           ("tests/test_prf.py::test_frozen_two_doc_fixture",
            "tests/test_acceptance.py::test_criterion_6_rm3_correctness")),
    Mutant("rm3 drops the relevance model for an empty query", "prf.py",
           "    if lam < 1.0:\n",
           "    if lam < 1.0 and original.terms:\n",
           ("tests/test_prf.py::test_an_empty_query_expands_from_the_relevance_model_alone",
            "tests/test_pipeline_oracle.py::test_query_runner_matches_pipeline_oracle")),
    Mutant("rm3_expand ignores params.mu", "prf.py",
           "estimate_relevance_model(index, original, feedback, params).items()",
           "estimate_relevance_model(index, original, feedback,\n"
           "                                             Rm3Params(fb_terms=params.fb_terms)).items()",
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
