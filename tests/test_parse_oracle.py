"""lang's template walk and tokenizer against reference implementations.

The walk is lang._parse, driven on token sequences without the memo that
lang.parse keeps per text. Comparisons are exact: the same
ParsedUtterance, or a ParseError with the same message, token and position.
"""

import string
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parse_oracle
from wugnet.curriculum import BUILTIN_PHASES, builtin_curriculum
from wugnet.lang import Lexicon, ParseError, _parse, default_lexicon, parse, tokenize

# At least one surface form per part of speech, both number-word counts
# (2 and vague), and every way a token can read (or fail to read) as a
# plural: listed plural-of entries ("balls", "people"), strip-s plurals of
# a count noun ("babys"), a mass noun ("juices") and a proper noun
# ("moms"), a novel plural ("wugs"), an unlisted stem that is no noun
# ("flys") or no lexeme ("Wugs"), an -ss word ("glass"), tokens of two
# letters or fewer ("a", "xs") and an unknown word ("glorp"). The 21 words
# give 204,205 sequences of length 0-4, few enough to check them all.
VOCABULARY = (
    "a", "two", "many", "are", "red", "light-brown", "sits", "ball", "balls",
    "people", "juice", "juices", "mom", "moms", "babys", "wugs", "flys",
    "Wugs", "glass", "xs", "glorp",
)


def outcome(parse_fn, tokens, lex):
    try:
        return parse_fn(tokens, lex)
    except ParseError as err:
        return (str(err), err.token, err.position)


def test_every_short_token_sequence_parses_as_before():
    lex = default_lexicon()
    checked = 0
    for length in range(5):
        for tokens in product(VOCABULARY, repeat=length):
            expected = outcome(parse_oracle.parse, tokens, lex)
            assert outcome(_parse, tokens, lex) == expected, tokens
            checked += 1
    assert checked == sum(len(VOCABULARY) ** k for k in range(5))


@pytest.mark.parametrize("name", sorted(BUILTIN_PHASES))
@pytest.mark.parametrize("seed", (0, 7))
def test_builtin_curricula_tokenize_and_parse_as_before(name, seed):
    lex = default_lexicon()
    for instance in builtin_curriculum(name, seed=seed).instances:
        tokens = tokenize(instance.utterance, lex)
        assert tokens == parse_oracle.tokenize(instance.utterance, lex)
        expected = outcome(parse_oracle.parse, tokens, lex)
        assert outcome(_parse, tokens, lex) == expected
        assert outcome(parse, instance.utterance, lex) == expected


# A lexicon whose hyphenated entries make "sky" and "sky-blue" join heads.
HYPHENATED = Lexicon.from_text(default_lexicon().to_text()
                               + "word sky-blue color-adjective lemma=sky-blue\n"
                               + "word sky-blue-ish color-adjective lemma=sky-blue-ish\n")
# ASCII letters in both cases, then every other kind of character a chunk
# may or may not hold: whitespace other than a space, punctuation, digits,
# and non-ASCII letters ("İ".lower() is two code points).
_LETTERS = string.ascii_letters
_OTHERS = " \t\n-.,!?0123456789éİßﬁ"
_WORDS = ("a", "ball", "light", "Brown", "DARK", "sky", "Sky-Blue", "blue", "ish", "cookies")
_PIECES = (st.sampled_from(_WORDS) | st.text(_LETTERS, min_size=1, max_size=5)
           | st.text(_LETTERS + _OTHERS, max_size=3))
# a single space twice over, so that many texts take the fast path
_SEPARATORS = st.sampled_from((" ", " ", "  ", "", "\t", "\n", "-", ". ", " İ ", "ß"))
texts = (st.lists(st.tuples(_PIECES, _SEPARATORS), max_size=6)
         .map(lambda parts: "".join(piece + sep for piece, sep in parts))
         | st.text(_LETTERS + _OTHERS, max_size=12))


@settings(max_examples=1000, deadline=None)
@given(texts, st.sampled_from((default_lexicon(), HYPHENATED)))
@example("", default_lexicon())
@example("   ", default_lexicon())
@example("Light Brown cookies", default_lexicon())
@example("sky blue ish", HYPHENATED)
@example("sky-blue ish", HYPHENATED)
@example("a İ", default_lexicon())
@example("a\tball", default_lexicon())
def test_tokenize_matches_the_chunk_tokenizer(text, lex):
    assert outcome(tokenize, text, lex) == outcome(parse_oracle.chunk_tokenize, text, lex)
