"""Mutated curriculum and lexicon files: each loads or fails with its line.

A text that loads re-saves to a text that loads equal to it, and a second
save of that reload gives the same text byte for byte.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from wugnet.curriculum import (
    BUILTIN_PHASES,
    CurriculumFormatError,
    builtin_curriculum,
    curriculum_from_text,
    curriculum_to_text,
)
from wugnet.lang import DEFAULT_LEXICON_TEXT, Lexicon, LexiconFormatError

CURRICULUM_TEXTS = tuple(curriculum_to_text(builtin_curriculum(name)).splitlines()
                         for name in sorted(BUILTIN_PHASES))
CURRICULUM_TOKENS = (
    "instance", "scene:", "say:", "entity", "action", "e0", "e1", "e9", "dog", "dogs",
    "wugs", "animals", "are", "a", "the", "sits", "red", "color=red", "color=", "size=big",
    "agent=e0", "agent=", "patient=e1", "agent=e0=e1", ";", "=", "#", "# name: other", "2", "")
CURRICULUM_LINES = ("instance", "  scene: entity e0 dog", "  scene:", "  say: a dog",
                    "  say: wugs are animals", "", "# name: other", "# note")

LEXICON_TEXTS = (tuple(DEFAULT_LEXICON_TEXT.splitlines()),)
LEXICON_TOKENS = (
    "word", "noun", "verb", "proper-noun", "gadget", "dog", "Dog", "dogs", "light-brown",
    "-x", "lemma=dog", "lemma=", "lemma=Zorb", "lemma=dog=x", "plural-of=dog", "plural-of=",
    "colour=red", "=", "#", "")
LEXICON_EXTRA_LINES = ("word zorb noun lemma=zorb", "word dog noun lemma=dog",
                       "word zorbs noun lemma=zorb plural-of=zorb", "", "# note", "word")


@st.composite
def mutated(draw, texts, tokens, extra_lines):
    """One of the texts' lines with 1-4 fields replaced or lines duplicated,
    deleted or inserted."""
    lines = list(draw(st.sampled_from(texts)))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["field", "field", "duplicate", "delete", "insert"]))
        if op == "insert" or not lines:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(extra_lines)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if op == "field":
            fields = lines[i].split(" ")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(tokens))
            lines[i] = " ".join(fields)
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            del lines[i]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def _check_round_trip(text, load, save, error, key=lambda value: value):
    try:
        value = load(text)
    except error as err:
        assert 1 <= err.line <= len(text.splitlines())
        return
    saved = save(value)
    again = load(saved)
    assert key(again) == key(value)
    assert save(again) == saved


@settings(max_examples=300, deadline=None)
@given(mutated(CURRICULUM_TEXTS, CURRICULUM_TOKENS, CURRICULUM_LINES))
def test_mutated_curriculum_files_load_or_fail_with_their_line(text):
    _check_round_trip(text, curriculum_from_text, curriculum_to_text, CurriculumFormatError)


@settings(max_examples=300, deadline=None)
@given(mutated(LEXICON_TEXTS, LEXICON_TOKENS, LEXICON_EXTRA_LINES))
def test_mutated_lexicon_files_load_or_fail_with_their_line(text):
    _check_round_trip(text, Lexicon.from_text, Lexicon.to_text, LexiconFormatError,
                      key=Lexicon.entries)
