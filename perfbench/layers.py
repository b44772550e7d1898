"""Per-layer metrics from the spans that trace_cli.py writes.

Conventions, shared by every layer:
- `*.calls`     number of calls in the traced command sequence;
- `*.self_s`    summed self time (span duration minus the time its child
                spans cover) over the whole sequence;
- `*.s`         median duration of one call, for the once-per-command
                steps (index save/load, corpus, run and qrels I/O);
- `*.p50_ms`, `*.tail_ms`  per-call percentiles; the tail is the highest
                of p99.9/p99/p95/p90/p75/p50 with at least ten samples
                beyond it, and `*.tail_pct` / `*.samples` record which
                percentile that was and over how many calls.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Tuple

TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

_UNITS = [
    ("analysis.analyze.calls", "count"), ("analysis.analyze.chars", "chars"),
    ("analysis.analyze.self_s", "s"),
    ("index.build.self_s", "s"), ("index.save.s", "s"), ("index.postings_bytes", "bytes"),
    ("index.load.s", "s"),
    ("index.retrieve.calls", "count"), ("index.retrieve.p50_ms", "ms"),
    ("index.retrieve.tail_ms", "ms"), ("index.retrieve.tail_pct", "%"),
    ("index.retrieve.samples", "count"), ("index.postings_scanned", "count"),
    ("index.collection_freq.calls", "count"), ("index.collection_freq.self_s", "s"),
    ("prf.rm3_expand.calls", "count"), ("prf.rm3_expand.p50_ms", "ms"),
    ("prf.rm3_expand.tail_ms", "ms"), ("prf.rm3_expand.tail_pct", "%"),
    ("prf.rm3_expand.samples", "count"), ("prf.rm3_expand.total_s", "s"),
    ("prf.rm3_expand.cf_share", "ratio"), ("prf.select_feedback.self_s", "s"),
    ("llm.generate.calls", "count"), ("llm.generate.p50_ms", "ms"),
    ("llm.generate.tail_ms", "ms"), ("llm.generate.tail_pct", "%"),
    ("llm.generate.samples", "count"), ("llm.generate.wait_s", "s"),
    ("llm.generate.cold_wall_share", "ratio"), ("llm.generate.failures", "count"),
    ("llm.http.requests", "count"), ("llm.http.retries", "count"),
    ("llm.http.max_in_flight", "count"),
    ("llm.cache.hits", "count"), ("llm.cache.misses", "count"),
    ("llm.cache.lookups", "count"), ("llm.cache.hit_ratio", "ratio"),
    ("llm.cache.get.self_s", "s"), ("llm.cache.put.self_s", "s"),
    ("llm.cache_key.calls", "count"), ("llm.cache_key.self_s", "s"),
    ("llm.identity.calls", "count"),
    ("reformulate.ensemble.self_s", "s"), ("reformulate.fuse.calls", "count"),
    ("reformulate.fuse.self_s", "s"), ("reformulate.build_context.self_s", "s"),
    ("reformulate.fused_terms", "terms"),
    ("corpus_io.load_corpus.s", "s"), ("corpus_io.write_run.s", "s"),
    ("corpus_io.read_run.s", "s"), ("corpus_io.load_qrels.s", "s"),
    ("evaluation.evaluate_run.self_s", "s"), ("evaluation.paired_ttest.calls", "count"),
    ("cli.import_s", "s"), ("cli.cmd_run.self_s", "s"),
    ("cli.query.p50_ms", "ms"), ("cli.query.tail_ms", "ms"), ("cli.query.tail_pct", "%"),
    ("cli.query.samples", "count"),
    ("trace.untraced_s", "s"), ("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio"),
]
_HIGHER_IS_BETTER = {"llm.cache.hits", "llm.cache.hit_ratio"}

# name -> (unit, better), in the order of BENCHMARK.json's per_layer list.
METRICS: Dict[str, Tuple[str, str]] = {
    name: (unit, "higher" if name in _HIGHER_IS_BETTER else "lower") for name, unit in _UNITS}


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail(values: List[float]) -> Tuple[float, float]:
    """(percentile level, value) of the highest level with >= 10 samples beyond it."""
    n = len(values)
    for level in TAIL_LEVELS:
        if n * (100.0 - level) / 100.0 >= 10:
            return level, percentile(values, level)
    return 50.0, percentile(values, 50.0)


def _union(intervals: List[Tuple[float, float]]) -> float:
    covered, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


class Command:
    """Spans of one traced CLI process."""

    def __init__(self, label: str, doc: dict, wall_s: float):
        self.label = label
        self.wall_s = wall_s
        self.import_s = doc["import_s"]
        self.spans = doc["spans"]
        children: Dict[int, List[Tuple[float, float]]] = {}
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        self.self_s = [end - start - _union(children.get(i, []))
                       for i, (name, start, end, *_) in enumerate(self.spans)]

    def named(self, name: str) -> Iterable[int]:
        return (i for i, span in enumerate(self.spans) if span[0] == name)

    def has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def aggregate(commands: List[Command], cold_llm_labels: Iterable[str],
              mock_peak_in_flight: int, untraced_s: float) -> Dict[str, float]:
    """Every metric in METRICS, from the traced command sequence."""
    def spans(name):
        return [(c, i) for c in commands for i in c.named(name)]

    def durations(name):
        return [c.spans[i][2] - c.spans[i][1] for c, i in spans(name)]

    def self_total(name):
        return sum(c.self_s[i] for c, i in spans(name))

    def extras(name):
        return [c.spans[i][6] for c, i in spans(name)]

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    out: Dict[str, float] = {}

    def latency(prefix, values_s):
        ms = [v * 1000.0 for v in values_s]
        level, value = tail(ms) if ms else (0.0, 0.0)
        out[f"{prefix}.p50_ms"] = percentile(ms, 50.0) if ms else 0.0
        out[f"{prefix}.tail_ms"] = value
        out[f"{prefix}.tail_pct"] = level
        out[f"{prefix}.samples"] = len(ms)

    out["analysis.analyze.calls"] = len(spans("analysis.analyze"))
    out["analysis.analyze.chars"] = sum(extras("analysis.analyze"))
    out["analysis.analyze.self_s"] = self_total("analysis.analyze")

    out["index.build.self_s"] = self_total("index.build")
    out["index.save.s"] = median_or_zero(durations("index.save"))
    out["index.postings_bytes"] = max(extras("index.save"), default=0)
    out["index.load.s"] = median_or_zero(durations("index.load"))
    retrieve = durations("index.retrieve")
    out["index.retrieve.calls"] = len(retrieve)
    latency("index.retrieve", retrieve)
    out["index.postings_scanned"] = sum(extras("index.retrieve"))
    out["index.collection_freq.calls"] = len(spans("index.collection_freq"))
    out["index.collection_freq.self_s"] = self_total("index.collection_freq")

    rm3 = durations("prf.rm3_expand")
    out["prf.rm3_expand.calls"] = len(rm3)
    latency("prf.rm3_expand", rm3)
    out["prf.rm3_expand.total_s"] = sum(rm3)
    cf_in_rm3 = sum(c.spans[i][2] - c.spans[i][1] for c, i in spans("index.collection_freq")
                    if c.has_ancestor(i, "prf.rm3_expand"))
    out["prf.rm3_expand.cf_share"] = cf_in_rm3 / sum(rm3) if rm3 else 0.0
    out["prf.select_feedback.self_s"] = self_total("prf.select_feedback")

    generate = durations("llm.generate")
    out["llm.generate.calls"] = len(generate)
    latency("llm.generate", generate)
    out["llm.generate.wait_s"] = sum(generate)
    cold = set(cold_llm_labels)
    cold_wait = sum(c.spans[i][2] - c.spans[i][1] for c, i in spans("llm.generate")
                    if c.label in cold)
    cold_wall = sum(c.wall_s for c in commands if c.label in cold)
    out["llm.generate.cold_wall_share"] = cold_wait / cold_wall if cold_wall else 0.0
    out["llm.generate.failures"] = sum(1 for c, i in spans("llm.generate") if c.spans[i][5])
    posts = spans("llm.http.post")
    out["llm.http.requests"] = len(posts)
    posts_per_generate: Dict[Tuple[int, int], int] = {}
    for c, i in posts:
        key = (id(c), c.spans[i][3])
        posts_per_generate[key] = posts_per_generate.get(key, 0) + 1
    out["llm.http.retries"] = sum(n - 1 for n in posts_per_generate.values())
    out["llm.http.max_in_flight"] = mock_peak_in_flight

    hits = sum(1 for hit in extras("llm.cache.get") if hit)
    lookups = len(spans("llm.cache.get"))
    out["llm.cache.hits"] = hits
    out["llm.cache.misses"] = lookups - hits
    out["llm.cache.lookups"] = lookups
    out["llm.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["llm.cache.get.self_s"] = self_total("llm.cache.get")
    out["llm.cache.put.self_s"] = self_total("llm.cache.put")
    out["llm.cache_key.calls"] = len(spans("llm.cache_key"))
    out["llm.cache_key.self_s"] = self_total("llm.cache_key")
    out["llm.identity.calls"] = len(spans("llm.identity"))

    out["reformulate.ensemble.self_s"] = self_total("reformulate.ensemble")
    fused = extras("reformulate.fuse")
    out["reformulate.fuse.calls"] = len(fused)
    out["reformulate.fuse.self_s"] = self_total("reformulate.fuse")
    out["reformulate.build_context.self_s"] = self_total("reformulate.build_context")
    out["reformulate.fused_terms"] = statistics.mean(fused) if fused else 0.0

    corpus_calls: Dict[Tuple[int, int], float] = {}
    for c, i in spans("corpus_io.load_corpus"):
        key = (id(c), c.spans[i][6])
        corpus_calls[key] = corpus_calls.get(key, 0.0) + c.spans[i][2] - c.spans[i][1]
    out["corpus_io.load_corpus.s"] = median_or_zero(list(corpus_calls.values()))
    for fn in ("write_run", "read_run", "load_qrels"):
        out[f"corpus_io.{fn}.s"] = median_or_zero(durations(f"corpus_io.{fn}"))

    out["evaluation.evaluate_run.self_s"] = self_total("evaluation.evaluate_run")
    out["evaluation.paired_ttest.calls"] = len(spans("evaluation.paired_ttest"))

    out["cli.import_s"] = statistics.median(c.import_s for c in commands)
    out["cli.cmd_run.self_s"] = self_total("cli.cmd_run")
    latency("cli.query", durations("cli.query"))

    traced_s = sum(c.wall_s for c in commands)
    out["trace.untraced_s"] = untraced_s
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    if set(out) != set(METRICS):
        raise RuntimeError(f"per-layer metrics out of step with METRICS: {set(out) ^ set(METRICS)}")
    return out
