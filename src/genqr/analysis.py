"""Text analysis: deterministic tokenization, stopword removal, stemming.

Analysis is a pure function of (analyzer config, text): the same config and
input always produce the same token sequence.

Tokenisation rule: the text is lowercased, then a character is a separator
when `str.isspace()` is true for it or its Unicode category is P* or S*
(punctuation or symbol), and a word character otherwise; a token is a
maximal run of word characters. `analyze` computes this as
`text.lower().translate(_SEPARATORS).split()`: P*/S* characters become
spaces, and `split()` with no argument splits on exactly the characters
for which `str.isspace()` is true (CPython decides both with
`_PyUnicode_IsWhitespace`), so no per-character Python code runs for a
character already in the table.
"""

from __future__ import annotations

import hashlib
import json
import unicodedata
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import FrozenSet, List

from .schema import build, check_fields

STEMMERS = ("none", "porter")


class _SeparatorTable(dict):
    """`str.translate` table: code point -> space for P*/S*, else itself.

    Entries are filled on first lookup. The value for a code point never
    changes, so threads that fill the same entry at once write the same
    value and no lock is needed.
    """

    def __missing__(self, code: int) -> int:
        # Returning None would make translate delete the character.
        value = 32 if unicodedata.category(chr(code))[0] in "PS" else code
        self[code] = value
        return value


_SEPARATORS = _SeparatorTable()


@dataclass(frozen=True)
class Analyzer:
    stopwords: FrozenSet[str] = field(default_factory=frozenset)
    stemmer: str = field(default="none", metadata={"choices": STEMMERS})

    __post_init__ = check_fields

    def analyze(self, text: str) -> List[str]:
        """Tokenize `text` under this configuration; empty input yields []."""
        tokens = text.lower().translate(_SEPARATORS).split()
        if self.stopwords:
            tokens = [t for t in tokens if t not in self.stopwords]
        if self.stemmer == "porter":
            tokens = [porter_stem(t) for t in tokens]
        return tokens

    def config(self) -> dict:
        return dict(asdict(self), stopwords=sorted(self.stopwords))

    def fingerprint(self) -> str:
        blob = json.dumps(self.config(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_config(cls, cfg: dict) -> "Analyzer":
        return build(cls, cfg, "analyzer")


# --- Porter stemmer (classic 1980 algorithm) -------------------------------
#
# Hand-rolled because no stemmer package is available in this environment.
# Operates on lowercase ASCII words; anything containing non-letters is
# returned unchanged.

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Count of vowel-consonant sequences ([C](VC)^m[V] form)."""
    n = 0
    i = 0
    length = len(stem)
    while i < length and _is_cons(stem, i):
        i += 1
    while i < length:
        while i < length and not _is_cons(stem, i):
            i += 1
        if i >= length:
            break
        n += 1
        while i < length and _is_cons(stem, i):
            i += 1
    return n


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2] and _is_cons(word, len(word) - 1))


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (_is_cons(word, len(word) - 3)
            and not _is_cons(word, len(word) - 2)
            and _is_cons(word, len(word) - 1)):
        return False
    return word[-1] not in "wxy"


# Suffix tables, longest suffix first, so each step tries the longest match.
_STEP2 = sorted([
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
], key=lambda p: -len(p[0]))

_STEP3 = sorted([
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
], key=lambda p: -len(p[0]))

_STEP4 = sorted([
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
], key=len, reverse=True)


# Tokens repeat across a corpus, so each distinct word is stemmed once
# while it stays among the most recently used.
_STEM_CACHE_SIZE = 2 ** 16


@lru_cache(maxsize=_STEM_CACHE_SIZE)
def porter_stem(word: str) -> str:
    if len(word) <= 2 or not word.isascii() or not word.isalpha():
        return word

    # Step 1a
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif not word.endswith("ss") and word.endswith("s"):
        word = word[:-1]

    # Step 1b
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            word = word[:-1]
    else:
        stripped = None
        if word.endswith("ed") and _has_vowel(word[:-2]):
            stripped = word[:-2]
        elif word.endswith("ing") and _has_vowel(word[:-3]):
            stripped = word[:-3]
        if stripped is not None:
            word = stripped
            if word.endswith(("at", "bl", "iz")):
                word += "e"
            elif _ends_double_cons(word) and word[-1] not in "lsz":
                word = word[:-1]
            elif _measure(word) == 1 and _ends_cvc(word):
                word += "e"

    # Step 1c
    if word.endswith("y") and _has_vowel(word[:-1]):
        word = word[:-1] + "i"

    # Step 2
    for suffix, repl in _STEP2:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 0:
                word = stem + repl
            break

    # Step 3
    for suffix, repl in _STEP3:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _measure(stem) > 0:
                word = stem + repl
            break

    # Step 4
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if suffix == "ion" and (not stem or stem[-1] not in "st"):
                continue
            if _measure(stem) > 1:
                word = stem
            break

    # Step 5a
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem

    # Step 5b
    if _measure(word) > 1 and _ends_double_cons(word) and word.endswith("l"):
        word = word[:-1]

    return word
