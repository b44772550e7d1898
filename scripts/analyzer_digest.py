#!/usr/bin/env python3
"""Print one sha256 over the analyzer's token streams of the bundled data
under both stemmers, each with a small stopword set.

The toy grid uses only the default analyzer; this digest also gates
stopword removal and the Porter stemmer. A change that must keep every
token stream identical prints the same digest before and after it:

    python3 scripts/analyzer_digest.py

Every line of each file is analyzed as it stands, markup included, so the
JSON and TSV punctuation exercises the tokenizer's separators. The texts are
the toy corpus and topics, the goldfish replay transcript and the default
instruction set; the analyzer is the one in the checkout holding this script.
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from genqr.analysis import Analyzer  # noqa: E402

DATA = ROOT / "src" / "genqr" / "data"
TEXTS = ("toy/corpus.jsonl", "toy/topics.tsv", "replay/goldfish.jsonl", "instructions.txt")
STOPWORDS = frozenset({"a", "for", "of", "the", "to"})


def analyzer_digest() -> str:
    digest = hashlib.sha256()
    for stemmer in ("none", "porter"):
        analyzer = Analyzer(stopwords=STOPWORDS, stemmer=stemmer)
        for name in TEXTS:
            lines = (DATA / name).read_text(encoding="utf-8").splitlines()
            digest.update(json.dumps([analyzer.config(), name]).encode())
            for line in lines:
                digest.update(json.dumps(analyzer.analyze(line)).encode() + b"\n")
    return digest.hexdigest()


if __name__ == "__main__":
    print(analyzer_digest())
