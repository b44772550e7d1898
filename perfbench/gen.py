"""Seeded synthetic inputs for the benchmark: corpus, topics and graded qrels.

The same (seed, n_docs, n_topics) always writes the same bytes. Nothing is
downloaded: the vocabulary is the bundled toy thesaurus plus a synthetic
Zipf vocabulary of pronounceable words.

- Documents are 20-120 tokens of Zipf text in comma/period-punctuated,
  capitalised sentences, so the analyzer's punctuation split does real
  work. About 5% of tokens are thesaurus words, so stub expansions hit
  real postings.
- Each topic is two thesaurus keys plus one mid-frequency Zipf word.
- Qrels grade a document by how many distinct words of the topic's
  thesaurus cluster it holds; a few documents per topic are planted with
  cluster words so every topic has graded relevant documents.

Usage: python3 gen.py --seed 0 --docs 20000 --topics 30 --out DIR --thesaurus PATH
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from pathlib import Path
from typing import Dict, List

ZIPF_VOCAB = 40000
ZIPF_S = 1.05
THESAURUS_SHARE = 0.05
MIN_TOKENS, MAX_TOKENS = 20, 120
PLANTED_PER_TOPIC = 15
QUERY_WORD_RANKS = (20, 4000)  # the topic's Zipf word: not a stopword, not a hapax

_ONSETS = ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "z", "br", "cr", "dr", "fl", "gr", "pl", "st", "tr"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
_CODAS = ["", "", "n", "r", "s", "l", "m", "nd", "st"]


def zipf_vocabulary(rng: random.Random, size: int, reserved: set) -> List[str]:
    """`size` distinct pronounceable words, none of them in `reserved`."""
    syllables = [o + v + c for o, v, c in itertools.product(_ONSETS, _VOWELS, _CODAS)]
    words: List[str] = []
    seen = set(reserved)
    while len(words) < size:
        word = "".join(rng.choice(syllables) for _ in range(rng.randint(1, 3)))
        if len(word) > 2 and word not in seen:
            seen.add(word)
            words.append(word)
    # Frequent words are short, as in natural text.
    return sorted(words, key=len)


def _sentences(tokens: List[str], rng: random.Random) -> str:
    out: List[str] = []
    start = True
    for i, token in enumerate(tokens):
        if start:
            token = token.capitalize()
            start = False
        last = i == len(tokens) - 1
        if last or rng.random() < 0.08:
            token += "."
            start = True
        elif rng.random() < 0.07:
            token += ","
        out.append(token)
    return " ".join(out)


def generate(seed: int, n_docs: int, n_topics: int, thesaurus: Dict[str, List[str]]):
    """Return (docs, topics, qrels) as lists of (docno, text), (qid, query)
    and (qid, docno, grade)."""
    rng = random.Random(seed)
    keys = sorted(thesaurus)
    thes_words = sorted(set(keys) | {w for vs in thesaurus.values() for w in vs})
    vocab = zipf_vocabulary(rng, ZIPF_VOCAB, set(thes_words))
    cum, total = [], 0.0
    for rank in range(1, len(vocab) + 1):
        total += rank ** -ZIPF_S
        cum.append(total)

    token_lists: List[List[str]] = []
    for _ in range(n_docs):
        length = rng.randint(MIN_TOKENS, MAX_TOKENS)
        tokens = rng.choices(vocab, cum_weights=cum, k=length)
        for i in range(length):
            if rng.random() < THESAURUS_SHARE:
                tokens[i] = rng.choice(thes_words)
        token_lists.append(tokens)

    lo, hi = QUERY_WORD_RANKS
    topics, clusters = [], []
    for t in range(1, n_topics + 1):
        a, b = rng.sample(keys, 2)
        word = vocab[rng.randrange(lo, min(hi, len(vocab)))]
        topics.append((str(t), f"{a} {b} {word}"))
        cluster = sorted({a, b, *thesaurus[a], *thesaurus[b]})
        clusters.append(cluster)
        for ordinal in rng.sample(range(n_docs), min(PLANTED_PER_TOPIC, n_docs)):
            planted = rng.sample(cluster, rng.randint(1, min(5, len(cluster))))
            tokens = token_lists[ordinal]
            for term in planted:
                tokens.insert(rng.randrange(len(tokens) + 1), term)

    docs = [(f"d{i:06d}", _sentences(tokens, rng)) for i, tokens in enumerate(token_lists)]
    doc_sets = [set(tokens) for tokens in token_lists]

    qrels = []
    for (qid, _), cluster in zip(topics, clusters):
        members = set(cluster)
        for (docno, _), terms in zip(docs, doc_sets):
            hits = len(members & terms)
            if hits >= 3:
                qrels.append((qid, docno, min(3, hits - 2)))
            elif hits == 2 and rng.random() < 0.1:
                qrels.append((qid, docno, 0))
    return docs, topics, qrels


def write_inputs(out: Path, seed: int, n_docs: int, n_topics: int,
                 thesaurus_path: Path) -> Dict[str, Path]:
    thesaurus = json.loads(thesaurus_path.read_text(encoding="utf-8"))
    docs, topics, qrels = generate(seed, n_docs, n_topics, thesaurus)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"corpus": out / "corpus.jsonl", "topics": out / "topics.tsv",
             "qrels": out / "qrels.txt"}
    with open(paths["corpus"], "w", encoding="utf-8", newline="\n") as f:
        for docno, text in docs:
            f.write(json.dumps({"docno": docno, "text": text}) + "\n")
    with open(paths["topics"], "w", encoding="utf-8", newline="\n") as f:
        for qid, query in topics:
            f.write(f"{qid}\t{query}\n")
    with open(paths["qrels"], "w", encoding="utf-8", newline="\n") as f:
        for qid, docno, grade in qrels:
            f.write(f"{qid} 0 {docno} {grade}\n")
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--docs", type=int, required=True)
    parser.add_argument("--topics", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--thesaurus", type=Path, required=True)
    args = parser.parse_args()
    for name, path in write_inputs(args.out, args.seed, args.docs, args.topics,
                                   args.thesaurus).items():
        print(f"{name}\t{path}")


if __name__ == "__main__":
    main()
