"""Ranked-retrieval effectiveness metrics and significance testing.

Metric conventions follow the trec_eval family:
- nDCG uses linear gain grade/log2(rank+1) by default (exponential gain
  2^grade-1 available via MetricSpec.gain); the ideal DCG is computed
  over all judged documents for the query, not only retrieved ones.
- Queries with no relevant documents (no grade above the metric's
  threshold) are skipped, not scored zero; aggregates average over
  evaluated queries only.
- Binary metrics (MAP, MRR, P@k) binarize at grade >= min_rel.

Significance: two-sided paired t-test (p through the regularized
incomplete beta function, evaluated in-repo by its continued fraction)
with Holm-Bonferroni step-down correction.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .corpus_io import Qrels, RunList, atomic_writer

METRIC_KINDS = ("ndcg", "map", "mrr", "precision")
GAINS = ("linear", "exp")


@dataclass(frozen=True)
class MetricSpec:
    kind: str
    k: Optional[int] = None
    min_rel: int = 1
    gain: str = "linear"

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind in ("ndcg", "precision") and (self.k is None or self.k < 1):
            raise ValueError(f"{self.kind} requires a positive cutoff k")
        if self.kind in ("map", "mrr") and self.k is not None:
            raise ValueError(f"{self.kind} takes no cutoff")
        if self.min_rel < 1:
            raise ValueError(f"min_rel must be >= 1, got {self.min_rel}")
        if self.gain not in GAINS:
            raise ValueError(f"unknown gain {self.gain!r}")

    @property
    def label(self) -> str:
        if self.kind == "ndcg":
            return f"ndcg@{self.k}"
        if self.kind == "precision":
            return f"p@{self.k}"
        return self.kind


def parse_metric(text: str, min_rel: int = 1, gain: str = "linear") -> MetricSpec:
    """Parse labels like "ndcg@10", "map", "mrr", "p@10"."""
    name, _, cutoff = text.strip().lower().partition("@")
    k = int(cutoff) if cutoff else None
    if name == "ndcg":
        return MetricSpec("ndcg", k=k, min_rel=min_rel, gain=gain)
    if name in ("p", "precision"):
        return MetricSpec("precision", k=k, min_rel=min_rel)
    if name == "map":
        return MetricSpec("map", k=k, min_rel=min_rel)
    if name == "mrr":
        return MetricSpec("mrr", k=k, min_rel=min_rel)
    raise ValueError(f"unknown metric {text!r}")


def _gain(grade: int, gain: str) -> float:
    return float(grade) if gain == "linear" else float(2 ** grade - 1)


def ndcg_at_k(run: RunList, qrels: Qrels, k: int, gain: str = "linear") -> Optional[float]:
    """nDCG@k, or None when the query has no relevant documents."""
    judged = qrels.judged(run.qid)
    ideal_grades = sorted((g for g in judged.values() if g > 0), reverse=True)
    if not ideal_grades:
        return None
    dcg = 0.0
    for i, entry in enumerate(run.entries[:k], start=1):
        grade = judged.get(entry.docno, 0)
        if grade > 0:
            dcg += _gain(grade, gain) / math.log2(i + 1)
    idcg = sum(_gain(g, gain) / math.log2(i + 1)
               for i, g in enumerate(ideal_grades[:k], start=1))
    return dcg / idcg


def average_precision(run: RunList, qrels: Qrels, min_rel: int = 1) -> Optional[float]:
    """AP over the full ranking; None when the query has no relevant documents."""
    relevant = qrels.relevant(run.qid, min_rel=min_rel)
    if not relevant:
        return None
    hits = 0
    total = 0.0
    for i, entry in enumerate(run.entries, start=1):
        if entry.docno in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def mrr(run: RunList, qrels: Qrels, min_rel: int = 1) -> Optional[float]:
    """Reciprocal rank of the first relevant document, 0 if none retrieved."""
    relevant = qrels.relevant(run.qid, min_rel=min_rel)
    if not relevant:
        return None
    for entry in run.entries:
        if entry.docno in relevant:
            return 1.0 / entry.rank
    return 0.0


def precision_at_k(run: RunList, qrels: Qrels, k: int, min_rel: int = 1) -> Optional[float]:
    """Relevant fraction of the top k (denominator k even if fewer retrieved)."""
    relevant = qrels.relevant(run.qid, min_rel=min_rel)
    if not relevant:
        return None
    hits = sum(1 for entry in run.entries[:k] if entry.docno in relevant)
    return hits / k


def compute_metric(run: RunList, qrels: Qrels, spec: MetricSpec) -> Optional[float]:
    if spec.kind == "ndcg":
        return ndcg_at_k(run, qrels, spec.k, gain=spec.gain)
    if spec.kind == "map":
        return average_precision(run, qrels, min_rel=spec.min_rel)
    if spec.kind == "mrr":
        return mrr(run, qrels, min_rel=spec.min_rel)
    return precision_at_k(run, qrels, spec.k, min_rel=spec.min_rel)


@dataclass
class EvalReport:
    metric: str
    per_query: Dict[str, float] = field(default_factory=dict)
    skipped: List[str] = field(default_factory=list)

    @property
    def mean(self) -> float:
        if not self.per_query:
            return 0.0
        return sum(self.per_query.values()) / len(self.per_query)

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


def evaluate_run(runs: List[RunList], qrels: Qrels, spec: MetricSpec) -> EvalReport:
    """Per-query metric values plus the mean over evaluated queries."""
    report = EvalReport(metric=spec.label)
    for run in runs:
        value = compute_metric(run, qrels, spec)
        if value is None:
            report.skipped.append(run.qid)
        else:
            report.per_query[run.qid] = value
    return report


# --- significance -------------------------------------------------------------


def paired_ttest(a: Dict[str, float], b: Dict[str, float]) -> float:
    """Two-sided paired t-test p-value over per-query values keyed by qid.

    Zero-variance differences give p = 1.0 by convention.
    """
    if set(a) != set(b):
        missing = sorted(set(a) ^ set(b))
        raise ValueError(f"qid sets differ; symmetric difference: {missing}")
    qids = sorted(a)
    n = len(qids)
    if n < 2:
        raise ValueError(f"need at least 2 paired observations, got {n}")
    diffs = [a[q] - b[q] for q in qids]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if var == 0.0:
        return 1.0
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
