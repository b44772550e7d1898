import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import analyze_oracle

from genqr.analysis import Analyzer, porter_stem

# Letters, marks, digits, punctuation, symbols, separators, controls and
# unassigned code points, plus the characters where str.isspace() and the
# ASCII whitespace set disagree.
_TEXT = st.text(st.one_of(
    st.characters(categories=["L", "M", "N", "P", "S", "Z", "Cc", "Cn"]),
    st.sampled_from("\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\t\n '-.!éİß"),
), max_size=40)

_STOPWORDS = frozenset({"a", "the", "s", "-", "!"})
_CONFIGS = [Analyzer(lowercase=lower, strip_punctuation=strip, stopwords=_STOPWORDS,
                     stemmer=stemmer)
            for lower, strip, stemmer in itertools.product(
                (True, False), (True, False), ("none", "porter"))]
_CONFIG_IDS = ["lower={} strip={} stem={}".format(a.lowercase, a.strip_punctuation, a.stemmer)
               for a in _CONFIGS]


def test_lowercase_strip_basic():
    assert Analyzer().analyze("Do Goldfish GROW?") == ["do", "goldfish", "grow"]


def test_empty_input():
    assert Analyzer().analyze("") == []


def test_apostrophe_splits_and_stopwords():
    analyzer = Analyzer(stopwords=frozenset({"a"}))
    assert analyzer.analyze("it's a test") == ["it", "s", "test"]


def test_determinism():
    analyzer = Analyzer(stopwords=frozenset({"the"}), stemmer="porter")
    text = "The runners were running; the fastest RUNNER won!"
    assert analyzer.analyze(text) == analyzer.analyze(text)


def test_keep_punctuation_tokens():
    analyzer = Analyzer(strip_punctuation=False)
    assert analyzer.analyze("Hello, world!") == ["hello", ",", "world", "!"]


def test_no_lowercase():
    analyzer = Analyzer(lowercase=False)
    assert analyzer.analyze("Hello World") == ["Hello", "World"]


def test_unicode_symbols_split():
    assert Analyzer().analyze("café ☕ naïve") == ["café", "naïve"]


@pytest.mark.parametrize("analyzer", _CONFIGS, ids=_CONFIG_IDS)
@settings(max_examples=100, deadline=None)
@given(text=_TEXT)
@example(text="it's")
@example(text="café ☕ naïve")
@example(text="a\x1cb")
def test_analyze_matches_character_loop_oracle(analyzer, text):
    stem = porter_stem if analyzer.stemmer == "porter" else None
    assert analyzer.analyze(text) == analyze_oracle(
        text, analyzer.lowercase, analyzer.strip_punctuation, analyzer.stopwords, stem)


@pytest.mark.parametrize("analyzer", _CONFIGS, ids=_CONFIG_IDS)
@settings(max_examples=50, deadline=None)
@given(text=_TEXT)
@example(text="it's a\x1cb\u3000c")
def test_analyzing_whitespace_chunks_equals_analyzing_whole(analyzer, text):
    chunked = [tok for chunk in text.split() for tok in analyzer.analyze(chunk)]
    assert chunked == analyzer.analyze(text)


def test_stemmer_applied():
    analyzer = Analyzer(stemmer="porter")
    assert analyzer.analyze("Motoring caresses") == ["motor", "caress"]


def test_unknown_stemmer_rejected():
    with pytest.raises(ValueError, match="stemmer"):
        Analyzer(stemmer="krovetz")


def test_fingerprint_tracks_config():
    a = Analyzer()
    b = Analyzer(stopwords=frozenset({"the"}))
    assert a.fingerprint() == Analyzer().fingerprint()
    assert a.fingerprint() != b.fingerprint()


def test_config_roundtrip():
    analyzer = Analyzer(lowercase=False, strip_punctuation=False,
                        stopwords=frozenset({"x", "y"}), stemmer="porter")
    assert Analyzer.from_config(analyzer.config()) == analyzer


@pytest.mark.parametrize("word,stem", [
    ("caresses", "caress"), ("ponies", "poni"), ("cats", "cat"),
    ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
    ("motoring", "motor"), ("hopping", "hop"), ("falling", "fall"),
    ("filing", "file"), ("happy", "happi"), ("sky", "sky"),
    ("relational", "relat"), ("conditional", "condit"), ("rational", "ration"),
    ("digitizer", "digit"), ("operator", "oper"), ("feudalism", "feudal"),
    ("decisiveness", "decis"), ("triplicate", "triplic"), ("hopeful", "hope"),
    ("goodness", "good"), ("revival", "reviv"), ("adjustable", "adjust"),
    ("replacement", "replac"), ("adoption", "adopt"), ("activate", "activ"),
    ("effective", "effect"), ("rate", "rate"), ("controll", "control"),
])
def test_porter_reference_vectors(word, stem):
    assert porter_stem(word) == stem
