import pytest
from hypothesis import given
from hypothesis import strategies as st

from wugnet.lang import (
    NOUN_LIKE,
    Lexicon,
    LexiconFormatError,
    ParseError,
    default_lexicon,
    _parse,
    parse,
    tokenize,
)


def test_tokenize_basic():
    assert tokenize("a red truck") == ["a", "red", "truck"]
    assert tokenize("Mom rolls a ball.") == ["mom", "rolls", "a", "ball"]
    assert tokenize("") == []


def test_tokenize_joins_multiword_colors():
    assert tokenize("cookies are light brown") == ["cookies", "are", "light-brown"]
    assert tokenize("a dark brown paper") == ["a", "dark-brown", "paper"]
    # a join may end at any hyphen of a longer surface, never inside a word
    lex = Lexicon.from_text(default_lexicon().to_text()
                            + "word sky-blue-ish color-adjective lemma=sky-blue-ish\n")
    assert tokenize("sky-blue ish", lex) == ["sky-blue-ish"]
    assert tokenize("sky blue ish", lex) == ["sky", "blue", "ish"]
    assert tokenize("sky bluei sh", lex) == ["sky", "bluei", "sh"]


def test_parse_bare_plural_verb_is_generic():
    p = parse("bears sit")
    assert p.is_generic
    assert p.verb == "sit"
    assert p.noun_phrases[0].lemma == "bear"
    assert p.noun_phrases[0].is_bare_plural


def test_parse_determiner_subject_is_not_generic():
    p = parse("a bear sits")
    assert not p.is_generic
    assert p.verb == "sit"
    assert not p.noun_phrases[0].is_bare_plural


def test_parse_novel_plural_subject():
    p = parse("wugs are animals")
    assert p.is_generic
    subject = p.noun_phrases[0]
    assert subject.lemma == "wug" and subject.novel
    assert p.complement == "animal"
    assert not p.complement_is_color


def test_parse_color_predicate():
    p = parse("cookies are light brown")
    assert p.is_generic
    assert p.complement == "light-brown"
    assert p.complement_is_color


def test_number_words_block_genericity():
    p = parse("two balls")
    assert not p.is_generic
    assert p.noun_phrases[0].lemma == "ball" and not p.noun_phrases[0].is_bare_plural
    p = parse("many cookies")
    assert not p.is_generic and not p.noun_phrases[0].is_bare_plural


def test_proper_noun_plural_is_generic():
    p = parse("Moms eat")
    assert p.is_generic
    assert p.noun_phrases[0].lemma == "mom"


def test_determiner_color_noun():
    p = parse("a red truck")
    np = p.noun_phrases[0]
    assert np.lemma == "truck" and np.modifier == "red"
    assert p.verb is None and p.complement is None


def test_transitive_frames():
    p = parse("Mom drinks juice")
    assert p.verb == "drink"
    assert p.noun_phrases[1].lemma == "juice" and not p.noun_phrases[1].is_bare_plural
    assert not p.is_generic  # the mass object is a recognized non-plural noun

    p2 = parse("a baby eats a cookie")
    assert len(p2.noun_phrases) == 2 and p2.noun_phrases[1].lemma == "cookie"

    p3 = parse("bears eat cookies")
    assert p3.is_generic  # both noun phrases are bare plurals


def test_bare_plural_alone_parses():
    p = parse("bears")
    assert p.is_generic and p.verb is None and p.complement is None


def test_people_is_its_own_bare_plural():
    p = parse("snarps are people")
    assert p.is_generic
    assert p.complement == "people"


@pytest.mark.parametrize("text,bad_token", [
    ("glorp sits", "glorp"),          # unknown word
    ("bear sits", "bear"),            # bare singular, no template
    ("a wug", "wug"),                 # novel nouns only in bare-plural slots
    ("a bear glorps", "glorps"),
    ("milk", "milk"),                 # bare mass noun is not an utterance
    ("two ball", "ball"),
    ("dogs are a", "a"),
    ("a 2 cookie", "2"),              # characters the tokenizer cannot read
    ("a béll", "béll"),
    ("a - cookie", "-"),              # punctuation only at a word's end
    ("bears.sit", "bears.sit"),
    ("a ball .", "."),
])
def test_parse_errors_name_the_offending_token(text, bad_token):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.token == bad_token


# One row per template in parse's docstring, with its generic verdict. The
# rule they pin: an utterance is generic exactly when every noun phrase in it
# is a bare plural, so a mass-noun object makes a bare-plural subject's
# utterance plain.
@pytest.mark.parametrize("text,generic", [
    ("a ball", False),                   # DET N
    ("a red ball", False),               # DET COLOR N
    ("two balls", False),                # NUM N-pl
    ("many balls", False),               # many N-pl
    ("balls", True),                     # N-pl
    ("cookies are light brown", True),   # N-pl are COLOR
    ("wugs are animals", True),          # N-pl are N-pl
    ("bears sit", True),                 # N-pl V
    ("bears drink milk", False),         # N-pl V N-mass
    ("cats eat cookies", True),          # N-pl V N-pl
    ("Mom sits", False),                 # PROPN V
    ("Mom takes a cup", False),          # PROPN V DET N
    ("Mom drinks juice", False),         # PROPN V N-mass
    ("a dog sits", False),               # DET N V
    ("a baby eats a cookie", False),     # DET N V DET N
    ("a baby drinks milk", False),       # DET N V N-mass
    ("Mom eats cookies", False),         # PROPN V N-pl
    ("a baby eats cookies", False),      # DET N V N-pl
])
def test_generic_verdict_per_template(text, generic):
    assert parse(text).is_generic is generic


def test_novel_plural_stem_is_a_whole_lexeme():
    # a stem ending in a newline is no lexeme, so no concept name
    with pytest.raises(ParseError):
        _parse(["wug\ns"], default_lexicon())


def test_empty_utterance_rejected():
    with pytest.raises(ParseError):
        parse("", default_lexicon())


def test_predicate_and_verb_frame_are_exclusive():
    for text in ("bears sit", "bears are animals", "a bear sits"):
        p = parse(text)
        assert p.verb is None or p.complement is None


@given(st.sampled_from(sorted({e.lemma for e in default_lexicon().entries()
                                if e.pos in NOUN_LIKE and not e.plural_of})))
def test_plural_round_trip_recovers_the_lemma(lemma):
    lex = default_lexicon()
    plural = lex.plural_surface(lemma)
    p = parse(plural, lex)
    assert p.noun_phrases[0].lemma == lemma
    assert p.noun_phrases[0].is_bare_plural
    assert not p.noun_phrases[0].novel


def test_genericity_ignores_the_verb_form():
    # third-person and base verb forms resolve to the same verb lemma
    assert parse("birds fly").verb == "fly"
    assert parse("a bird flies").verb == "fly"


def test_lexicon_round_trip():
    lex = default_lexicon()
    again = Lexicon.from_text(lex.to_text())
    assert [e for e in again.entries()] == [e for e in lex.entries()]


def test_lexicon_format_errors_carry_line_numbers():
    with pytest.raises(LexiconFormatError) as err:
        Lexicon.from_text("# nouns\nword ball noun lemma=ball\nword box gadget lemma=box\n")
    assert str(err.value) == "line 3: unknown part of speech 'gadget'"
    assert err.value.line == 3
    with pytest.raises(LexiconFormatError):
        Lexicon.from_text("word ball noun\n")
    for attribute in ("lemma=", "lemma=ball plural-of="):
        with pytest.raises(LexiconFormatError, match=attribute.split()[-1]) as err:
            Lexicon.from_text(f"word ball noun lemma=ball\nword balls noun {attribute}\n")
        assert err.value.line == 2
    with pytest.raises(LexiconFormatError, match="duplicate") as err:
        Lexicon.from_text("word a determiner lemma=a\n\nword a determiner lemma=a\n")
    assert err.value.line == 3
    for attributes, message in (
            ("lemma=ball lemma=box", "repeated lemma= attribute"),
            ("lemma=ball plural-of=ball plural-of=box", "repeated plural-of= attribute"),
            ("lemma=ball size=big", "bad attribute 'size=big'")):
        with pytest.raises(LexiconFormatError) as err:
            Lexicon.from_text(f"word ball noun lemma=ball\nword balls noun {attributes}\n")
        assert str(err.value) == f"line 2: {message}"
        assert err.value.line == 2


@pytest.mark.parametrize("entry", [
    "word zorb noun lemma=Zorb",
    "word Zorb noun lemma=zorb",
    "word zorbs noun lemma=zorb plural-of=zo_rb",
    "word zorb noun lemma=-zorb",
])
def test_lexicon_values_must_be_concept_names(entry):
    # a lemma that no concept may have would only fail later, in the learner
    with pytest.raises(LexiconFormatError, match="is not a lowercase lexeme") as err:
        Lexicon.from_text(f"word a determiner lemma=a\n{entry}\n")
    assert err.value.line == 2


def test_lexicon_display_and_plural_helpers():
    lex = default_lexicon()
    assert lex.display("mom") == "Mom"
    assert lex.display("light-brown") == "light brown"
    assert lex.plural_surface("baby") == "babies"
    assert lex.plural_surface("people") == "people"
    assert lex.plural_surface("wug") == "wugs"
