#!/usr/bin/env python3
"""Print how far the rankings of two TREC run files differ, topic by topic:

    python3 scripts/run_diff.py A.run B.run

Both files are read with `genqr.corpus_io.read_run`, so each topic is
ranked by score descending, docno ascending on ties. A topic that one file
lacks is an empty ranking there. For each qid of either file (A's order,
then B's others) a tab-separated row gives:

- rbo: extrapolated rank-biased overlap, RBO_ext at p = 0.9 (Webber,
  Moffat & Zobel, "A Similarity Measure for Indefinite Rankings", TOIS
  2010, eq. 32), which allows rankings of unequal length. It is 1 for
  identical rankings and 0 for rankings that share no docno;
- first_diff: the first 1-based rank whose docnos differ, or "-" when the
  rankings are identical. A ranking that is a prefix of the other differs
  at the rank after its last.

The `mean` row averages rbo over every qid ("-" for two empty files), and
first_diff over the topics that differ ("-" when none does); the `differ`
row counts those topics and all topics.
"""

import argparse
import math
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from genqr.corpus_io import Run, read_run  # noqa: E402


def rbo_ext(a: Sequence[str], b: Sequence[str], p: float = 0.9) -> float:
    """RBO_ext of two rankings of distinct docnos (eq. 32). With S the
    shorter ranking (length s), L the longer (length l) and X_d the overlap
    of S's top min(d, s) with L's top d:

        (1-p)/p * (sum_{d<=l} X_d/d p^d + sum_{s<d<=l} X_s (d-s)/(s d) p^d)
          + ((X_l - X_s)/l + X_s/s) p^l

    Two empty rankings agree (1); an empty and a non-empty one do not (0).
    """
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    s, l = len(short), len(long_)
    if l == 0:
        return 1.0
    if s == 0:
        return 0.0
    x = [0] * (l + 1)  # x[d] = X_d
    seen_short, seen_long = set(), set()
    for d in range(1, l + 1):
        x[d] = x[d - 1] + (long_[d - 1] in seen_short)
        seen_long.add(long_[d - 1])
        if d <= s:
            x[d] += short[d - 1] in seen_long
            seen_short.add(short[d - 1])
    total = math.fsum([*(x[d] / d * p ** d for d in range(1, l + 1)),
                       *(x[s] * (d - s) / (s * d) * p ** d for d in range(s + 1, l + 1))])
    return (1 - p) / p * total + ((x[l] - x[s]) / l + x[s] / s) * p ** l


def first_difference(a: Sequence[str], b: Sequence[str]) -> Optional[int]:
    """The first 1-based rank at which `a` and `b` differ; None if they are equal."""
    for rank, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            return rank
    return None if len(a) == len(b) else min(len(a), len(b)) + 1


def diff_runs(run_a: Run, run_b: Run) -> List[Tuple[str, float, Optional[int]]]:
    """(qid, rbo, first_diff) per qid of either run, A's qids first."""
    rows = []
    for qid in dict.fromkeys([*run_a, *run_b]):
        a = [docno for docno, _ in run_a.get(qid, [])]
        b = [docno for docno, _ in run_b.get(qid, [])]
        rows.append((qid, rbo_ext(a, b), first_difference(a, b)))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("run_a")
    parser.add_argument("run_b")
    args = parser.parse_args(argv)
    rows = diff_runs(read_run(args.run_a)[1], read_run(args.run_b)[1])
    print("qid\trbo\tfirst_diff")
    for qid, rbo, first in rows:
        print(f"{qid}\t{rbo:.6f}\t{'-' if first is None else first}")
    firsts = [first for _, _, first in rows if first is not None]
    mean_rbo = f"{math.fsum(rbo for _, rbo, _ in rows) / len(rows):.6f}" if rows else "-"
    mean_first = f"{math.fsum(firsts) / len(firsts):.2f}" if firsts else "-"
    print(f"mean\t{mean_rbo}\t{mean_first}")
    print(f"differ\t{len(firsts)}\t{len(rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
