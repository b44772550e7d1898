"""Ranked-retrieval effectiveness metrics and significance testing.

Metric conventions follow the trec_eval family:
- nDCG uses linear gain only, grade/log2(rank+1); the ideal DCG is
  computed over all judged documents for the query, not only retrieved
  ones.
- Queries with no relevant documents (no grade above the metric's
  threshold) are skipped, not scored zero; aggregates average over
  evaluated queries only.
- A judged topic missing from the run is scored as an empty ranking
  (trec_eval -c), so it counts 0 when it has a relevant document.
- Binary metrics (MAP, MRR, P@k) binarize at grade >= min_rel.
- MRR@k, MS MARCO's MRR@10 protocol, scores 0 when the first relevant
  document is below rank k; plain MRR reads the whole ranking.

Significance: two-sided paired t-test (p through the regularized
incomplete beta function, evaluated in-repo by its continued fraction)
with Holm-Bonferroni step-down correction.

Floats are summed with `math.fsum`, correctly rounded, so that reports do
not depend on the Python version: 3.12 changed `sum()` of floats.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .corpus_io import Qrels, Ranking, Run, atomic_writer

METRIC_KINDS = ("ndcg", "map", "mrr", "precision")
DEFAULT_METRICS = ("ndcg@10", "map", "mrr", "p@10")
_METRIC_ALIASES = {"p": "precision"}


@dataclass(frozen=True)
class MetricSpec:
    kind: str
    k: Optional[int] = None
    min_rel: int = 1

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind in ("ndcg", "precision") and (self.k is None or self.k < 1):
            raise ValueError(f"{self.kind} requires a positive cutoff k")
        if self.kind == "map" and self.k is not None:
            raise ValueError("map takes no cutoff")
        if self.kind == "mrr" and self.k is not None and self.k < 1:
            raise ValueError("mrr takes no cutoff or a positive one")
        if self.min_rel < 1:
            raise ValueError(f"min_rel must be >= 1, got {self.min_rel}")

    @property
    def label(self) -> str:
        name = "p" if self.kind == "precision" else self.kind
        return name if self.k is None else f"{name}@{self.k}"


def parse_metric(text: str, min_rel: int = 1) -> MetricSpec:
    """Parse labels like "ndcg@10", "map", "mrr", "mrr@10", "p@10"."""
    name, _, cutoff = text.strip().lower().partition("@")
    try:
        k = int(cutoff) if cutoff else None
    except ValueError:
        raise ValueError(f"metric {text!r}: cutoff {cutoff!r} is not an integer") from None
    kind = _METRIC_ALIASES.get(name, name)
    if kind not in METRIC_KINDS:
        raise ValueError(f"unknown metric {text!r}")
    return MetricSpec(kind, k=k, min_rel=min_rel)


def parse_metrics(texts: Sequence[str], min_rel: int = 1) -> List[MetricSpec]:
    """Parse a metric list; two entries with one label ("map", "MAP") are an error."""
    specs: Dict[str, MetricSpec] = {}
    for text in texts:
        spec = parse_metric(text, min_rel=min_rel)
        if spec.label in specs:
            raise ValueError(f"metric {text!r} repeats {spec.label}")
        specs[spec.label] = spec
    return list(specs.values())


def ndcg_at_k(ranking: Ranking, grades: Dict[str, int], k: int) -> Optional[float]:
    """nDCG@k, or None when the query has no relevant documents."""
    ideal_grades = sorted((g for g in grades.values() if g > 0), reverse=True)
    if not ideal_grades:
        return None
    dcg = 0.0
    for i, (docno, _) in enumerate(ranking[:k], start=1):
        grade = grades.get(docno, 0)
        if grade > 0:
            dcg += grade / math.log2(i + 1)
    idcg = math.fsum(g / math.log2(i + 1)
                     for i, g in enumerate(ideal_grades[:k], start=1))
    return dcg / idcg


def average_precision(ranking: Ranking, grades: Dict[str, int],
                      min_rel: int = 1) -> Optional[float]:
    """AP over the full ranking; None when the query has no relevant documents."""
    relevant = {d for d, g in grades.items() if g >= min_rel}
    if not relevant:
        return None
    hits = 0
    total = 0.0
    for i, (docno, _) in enumerate(ranking, start=1):
        if docno in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def mrr(ranking: Ranking, grades: Dict[str, int], min_rel: int = 1,
        k: Optional[int] = None) -> Optional[float]:
    """Reciprocal rank of the first relevant document in the top k (in the
    whole ranking when k is None), 0 if there is none."""
    relevant = {d for d, g in grades.items() if g >= min_rel}
    if not relevant:
        return None
    for rank, (docno, _) in enumerate(ranking[:k], start=1):
        if docno in relevant:
            return 1.0 / rank
    return 0.0


def precision_at_k(ranking: Ranking, grades: Dict[str, int], k: int,
                   min_rel: int = 1) -> Optional[float]:
    """Relevant fraction of the top k (denominator k even if fewer retrieved)."""
    relevant = {d for d, g in grades.items() if g >= min_rel}
    if not relevant:
        return None
    hits = sum(1 for docno, _ in ranking[:k] if docno in relevant)
    return hits / k


def compute_metric(ranking: Ranking, grades: Dict[str, int], spec: MetricSpec) -> Optional[float]:
    """`spec`'s metric of one topic's ranking against its grades (docno -> grade)."""
    if spec.kind == "ndcg":
        return ndcg_at_k(ranking, grades, spec.k)
    if spec.kind == "map":
        return average_precision(ranking, grades, min_rel=spec.min_rel)
    if spec.kind == "mrr":
        return mrr(ranking, grades, min_rel=spec.min_rel, k=spec.k)
    return precision_at_k(ranking, grades, spec.k, min_rel=spec.min_rel)


@dataclass
class EvalReport:
    metric: str
    per_query: Dict[str, float] = field(default_factory=dict)
    skipped: List[str] = field(default_factory=list)

    @property
    def mean(self) -> float:
        if not self.per_query:
            return 0.0
        return math.fsum(self.per_query.values()) / len(self.per_query)

    @property
    def evaluated(self) -> int:
        return len(self.per_query)

    def to_tsv(self) -> str:
        lines = [f"{self.metric}\t{qid}\t{value:.6f}"
                 for qid, value in sorted(self.per_query.items())]
        lines.append(f"{self.metric}\tall\t{self.mean:.6f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "metric": self.metric,
            "mean": self.mean,
            "evaluated": self.evaluated,
            "skipped": sorted(self.skipped),
            "per_query": dict(sorted(self.per_query.items())),
        }, sort_keys=True, indent=1)

    def save(self, path: str | Path) -> None:
        with atomic_writer(path) as f:
            f.write(self.to_json() if Path(path).suffix == ".json" else self.to_tsv())


def missing_topics(run: Run, qrels: Qrels) -> List[str]:
    """Judged topics that `run` does not answer, in qrels order."""
    return [qid for qid in qrels if qid not in run]


def evaluate_run(run: Run, qrels: Qrels, spec: MetricSpec) -> EvalReport:
    """Per-query metric values plus the mean over evaluated queries; judged
    topics absent from `run` follow the run's own as empty rankings."""
    report = EvalReport(metric=spec.label)
    for qid in [*run, *missing_topics(run, qrels)]:
        value = compute_metric(run.get(qid, []), qrels.get(qid, {}), spec)
        if value is None:
            report.skipped.append(qid)
        else:
            report.per_query[qid] = value
    return report


# --- significance -------------------------------------------------------------


def paired_ttest(a: Dict[str, float], b: Dict[str, float]) -> float:
    """Two-sided paired t-test p-value over per-query values keyed by qid.

    When every difference is the same, t is 0/0 or infinite: p is 1.0 if
    the differences are 0, else 0.0.
    """
    if set(a) != set(b):
        missing = sorted(set(a) ^ set(b))
        raise ValueError(f"qid sets differ; symmetric difference: {missing}")
    qids = sorted(a)
    n = len(qids)
    if n < 2:
        raise ValueError(f"need at least 2 paired observations, got {n}")
    diffs = [a[q] - b[q] for q in qids]
    if len(set(diffs)) == 1:  # decided here, as the variance below may not round to 0
        return 1.0 if diffs[0] == 0.0 else 0.0
    mean = math.fsum(diffs) / n
    var = math.fsum((d - mean) ** 2 for d in diffs) / (n - 1)
    t = mean / math.sqrt(var / n)
    return student_t_two_sided(t, n - 1)


def student_t_two_sided(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with `dof` degrees of freedom.

    This is the regularized incomplete beta I_x(dof/2, 1/2) at
    x = dof/(dof+t^2). Its continued fraction (Numerical Recipes, 2nd ed.,
    section 6.4) converges fast for x < (a+1)/(a+b+2); above that the
    symmetry I_x(a, b) = 1 - I_{1-x}(b, a) is used.

    The absolute error is below 1e-11 for dof <= 5000. It grows with dof,
    through the cancellation in lgamma(a + 1/2) - lgamma(a): about 1e-9 at
    dof = 1e7.
    """
    if math.isnan(t):
        return math.nan
    a, b = dof / 2.0, 0.5
    x = dof / (dof + t * t)
    if x == 0.0:  # t^2 overflowed
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        p = front * _beta_cf(a, b, x) / a
    else:
        p = 1.0 - front * _beta_cf(b, a, 1.0 - x) / b
    # Rounding must not carry p outside [0, 1], which holm_bonferroni rejects.
    return min(max(p, 0.0), 1.0)


_CF_TINY = 1e-300
_CF_MAX_ITER = 10_000


def _nonzero(v: float) -> float:
    return v if abs(v) >= _CF_TINY else _CF_TINY


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, by modified Lentz."""
    c = 1.0
    d = 1.0 / _nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # even step: d_2m = m(b-m)x / ((a+2m-1)(a+2m))
        aa = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2))
        d = 1.0 / _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        h *= d * c
        # odd step: d_2m+1 = -(a+m)(a+b+m)x / ((a+2m)(a+2m+1))
        aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))
        d = 1.0 / _nonzero(1.0 + aa * d)
        c = _nonzero(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= sys.float_info.epsilon:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}")


def holm_bonferroni(p_values: Sequence[float], alpha: float) -> List[bool]:
    """Step-down Holm-Bonferroni decisions, returned in input order.

    Sorted ascending, p_(i) is rejected while p_(i) <= alpha/(m-i+1); the
    first failure retains all remaining hypotheses.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value out of range: {p}")
    m = len(p_values)
    flags = [False] * m
    order = sorted(range(m), key=lambda i: (p_values[i], i))
    for pos, idx in enumerate(order):
        if p_values[idx] <= alpha / (m - pos):
            flags[idx] = True
        else:
            break
    return flags
