"""Toy-English front end: lexicon, tokenizer, and template parser.

The fragment is tiny by design: determiner phrases, bare plurals, number
phrases, copula predicates, and one- or two-argument verb frames. An
utterance counts as generic exactly when every recognized noun in it is a
bare plural (plural morphology, no determiner, no number word).
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .errors import FormatError
from .graph import NAME_RE

NOUN = "noun"
MASS_NOUN = "mass-noun"
PROPER_NOUN = "proper-noun"
VERB = "verb"
COLOR_ADJ = "color-adjective"
DETERMINER = "determiner"
NUMBER_WORD = "number-word"
COPULA = "copula"
POS_TAGS = (NOUN, MASS_NOUN, PROPER_NOUN, VERB, COLOR_ADJ, DETERMINER, NUMBER_WORD, COPULA)

NOUN_LIKE = (NOUN, MASS_NOUN, PROPER_NOUN)

# one whitespace-separated chunk: letters joined by single hyphens, then
# optional sentence punctuation
_CHUNK_RE = re.compile(r"([A-Za-z]+(?:-[A-Za-z]+)*)[.,!?]*")


class LexiconFormatError(FormatError):
    """Malformed lexicon file; carries the offending line number."""


class ParseError(ValueError):
    """No template matches; names the first offending token."""

    def __init__(self, message: str, token: str | None, position: int):
        self.token = token
        self.position = position
        super().__init__(f"{message} (token {token!r} at position {position})")


class LexEntry(NamedTuple):
    surface: str
    pos: str
    lemma: str
    plural_of: str | None = None  # set on plural noun forms


class Lexicon:
    """Surface-form table. Its entries are fixed once built; safe to share.

    Each lexicon also memoizes the front end: `parse` keeps each utterance
    text's ParsedUtterance, an immutable named tuple, so a distinct text is
    read once per lexicon and every later parse of it returns the same
    shared object. The memo grows with the number of distinct texts seen (it
    is never evicted) and holds no failures: a ParseError is raised afresh,
    with its token and position, each time.
    """

    def __init__(self, entries: list[LexEntry]):
        self._parses: dict[str, ParsedUtterance] = {}
        self._by_surface: dict[str, LexEntry] = {}
        for e in entries:
            if e.surface in self._by_surface:
                raise LexiconFormatError(f"duplicate surface form {e.surface!r}")
            self._by_surface[e.surface] = e
        self._plural_of: dict[str, str] = {
            e.plural_of: e.surface for e in entries if e.plural_of
        }
        # each part of a surface that ends at one of its hyphens: the only
        # words the tokenizer tries to join to the next word
        self._join_heads = frozenset(
            s[:k] for s in self._by_surface if "-" in s for k, c in enumerate(s) if c == "-")

    def get(self, surface: str) -> LexEntry | None:
        return self._by_surface.get(surface)

    def __contains__(self, surface: str) -> bool:
        return surface in self._by_surface

    def entries(self) -> list[LexEntry]:
        return sorted(self._by_surface.values(), key=lambda e: e.surface)

    def pos_of(self, surface: str) -> str | None:
        e = self._by_surface.get(surface)
        return e.pos if e else None

    def plural_surface(self, lemma: str) -> str:
        """Plural surface form of a noun lemma; regular +s when unlisted."""
        return self._plural_of.get(lemma, lemma + "s")

    def display(self, lemma: str) -> str:
        """Canonical rendering of a lemma (proper nouns are capitalized)."""
        e = self._by_surface.get(lemma)
        if e is not None and e.pos == PROPER_NOUN:
            return lemma.capitalize()
        return lemma.replace("-", " ")

    @classmethod
    def from_text(cls, text: str) -> "Lexicon":
        """Parse `word <surface> <pos> lemma=<lemma> [plural-of=<lemma>]` lines."""
        entries: dict[str, LexEntry] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if fields[0] != "word" or len(fields) < 4:
                raise LexiconFormatError("expected 'word <surface> <pos> lemma=<lemma>'", lineno)
            surface, pos = fields[1], fields[2]
            if pos not in POS_TAGS:
                raise LexiconFormatError(f"unknown part of speech {pos!r}", lineno)
            attrs = LexiconFormatError.attributes(fields[3:], ("lemma", "plural-of"), lineno)
            if "lemma" not in attrs:
                raise LexiconFormatError("missing lemma=", lineno)
            for value in (surface, *attrs.values()):
                if not NAME_RE.fullmatch(value):
                    raise LexiconFormatError(f"{value!r} is not a lowercase lexeme", lineno)
            if surface in entries:
                raise LexiconFormatError(f"duplicate surface form {surface!r}", lineno)
            entries[surface] = LexEntry(surface, pos, attrs["lemma"], attrs.get("plural-of"))
        return cls(list(entries.values()))

    def to_text(self) -> str:
        lines = []
        for e in self.entries():
            line = f"word {e.surface} {e.pos} lemma={e.lemma}"
            if e.plural_of:
                line += f" plural-of={e.plural_of}"
            lines.append(line)
        return "\n".join(lines) + "\n"


def load_lexicon(source: str | Path) -> Lexicon:
    return Lexicon.from_text(Path(source).read_text(encoding="utf-8"))


# Every word the built-in curricula can emit. Plural noun forms are listed
# explicitly; novel plurals (wugs, vonks, ...) are handled by the strip-s
# rule at parse time instead.
DEFAULT_LEXICON_TEXT = """\
# determiners / grammar words
word a determiner lemma=a
word the determiner lemma=the
word are copula lemma=are
word two number-word lemma=two
word three number-word lemma=three
word four number-word lemma=four
word many number-word lemma=many

# count nouns
word ball noun lemma=ball
word balls noun lemma=ball plural-of=ball
word box noun lemma=box
word boxes noun lemma=box plural-of=box
word book noun lemma=book
word books noun lemma=book plural-of=book
word table noun lemma=table
word tables noun lemma=table plural-of=table
word chair noun lemma=chair
word chairs noun lemma=chair plural-of=chair
word cup noun lemma=cup
word cups noun lemma=cup plural-of=cup
word truck noun lemma=truck
word trucks noun lemma=truck plural-of=truck
word car noun lemma=car
word cars noun lemma=car plural-of=car
word house noun lemma=house
word houses noun lemma=house plural-of=house
word cookie noun lemma=cookie
word cookies noun lemma=cookie plural-of=cookie
word paper noun lemma=paper
word papers noun lemma=paper plural-of=paper
word watermelon noun lemma=watermelon
word watermelons noun lemma=watermelon plural-of=watermelon
word chicken noun lemma=chicken
word chickens noun lemma=chicken plural-of=chicken
word bear noun lemma=bear
word bears noun lemma=bear plural-of=bear
word bird noun lemma=bird
word birds noun lemma=bird plural-of=bird
word cat noun lemma=cat
word cats noun lemma=cat plural-of=cat
word dog noun lemma=dog
word dogs noun lemma=dog plural-of=dog
word cow noun lemma=cow
word cows noun lemma=cow plural-of=cow
word baby noun lemma=baby
word babies noun lemma=baby plural-of=baby
word hand noun lemma=hand
word hands noun lemma=hand plural-of=hand
word head noun lemma=head
word heads noun lemma=head plural-of=head
word animal noun lemma=animal
word animals noun lemma=animal plural-of=animal
word food noun lemma=food
word foods noun lemma=food plural-of=food
word people noun lemma=people plural-of=people

# mass nouns
word water mass-noun lemma=water
word juice mass-noun lemma=juice
word milk mass-noun lemma=milk
word beef mass-noun lemma=beef

# proper nouns
word mom proper-noun lemma=mom
word dad proper-noun lemma=dad

# verbs, base and third-person-singular forms
word sit verb lemma=sit
word sits verb lemma=sit
word walk verb lemma=walk
word walks verb lemma=walk
word fly verb lemma=fly
word flies verb lemma=fly
word jump verb lemma=jump
word jumps verb lemma=jump
word eat verb lemma=eat
word eats verb lemma=eat
word drink verb lemma=drink
word drinks verb lemma=drink
word roll verb lemma=roll
word rolls verb lemma=roll
word take verb lemma=take
word takes verb lemma=take

# color adjectives
word red color-adjective lemma=red
word blue color-adjective lemma=blue
word green color-adjective lemma=green
word white color-adjective lemma=white
word black color-adjective lemma=black
word yellow color-adjective lemma=yellow
word light-brown color-adjective lemma=light-brown
word dark-brown color-adjective lemma=dark-brown
"""


@lru_cache(maxsize=1)
def default_lexicon() -> Lexicon:
    return Lexicon.from_text(DEFAULT_LEXICON_TEXT)


def tokenize(text: str, lexicon: Lexicon | None = None) -> list[str]:
    """Lowercased word tokens, sentence punctuation stripped.

    Every whitespace-separated chunk must be ASCII letters, optionally
    joined by single hyphens, followed by optional `.,!?`; any other chunk
    ("a2", "bears.sit", "-", ".") raises ParseError naming the chunk and
    its position. Adjacent words that spell a hyphenated lexicon entry
    ("light brown") are joined into the single lexeme. Not memoized:
    `parse` keeps the whole utterance's result instead.

    A text of ASCII letters and spaces alone, with at least one letter,
    takes a fast path: each of its chunks matches the chunk pattern whole,
    so its words are `text.lower().split()`. Every other text, the empty
    one included, is read chunk by chunk. The join loop runs only when a
    word is one of the lexicon's join heads; otherwise it would copy the
    words unchanged.
    """
    lex = lexicon or default_lexicon()
    if text.isascii() and text.replace(" ", "").isalpha():
        words = text.lower().split()
    else:
        words = []
        for position, chunk in enumerate(text.split()):
            m = _CHUNK_RE.fullmatch(chunk)
            if m is None:
                raise ParseError("malformed word", chunk, position)
            words.append(m[1].lower())
    if lex._join_heads.isdisjoint(words):
        return words
    out: list[str] = []
    i = 0
    while i < len(words):
        if (words[i] in lex._join_heads and i + 1 < len(words)
                and f"{words[i]}-{words[i + 1]}" in lex):
            out.append(f"{words[i]}-{words[i + 1]}")
            i += 2
        else:
            out.append(words[i])
            i += 1
    return out


class NounPhrase(NamedTuple):
    """What the learner reads off a noun phrase.

    novel marks a plural whose stem is not in the lexicon (a wug).
    """

    lemma: str
    is_bare_plural: bool = False
    modifier: str | None = None  # color lemma
    novel: bool = False


class ParsedUtterance(NamedTuple):
    """What the learner reads off an utterance; the parse memo's key holds its text.

    The subject is noun phrase 0, and a verb's object, if any, noun phrase 1.
    """

    noun_phrases: tuple[NounPhrase, ...] = ()
    verb: str | None = None  # verb lemma
    complement: str | None = None  # after `are`: a color lemma, or noun phrase 1's lemma
    complement_is_color: bool = False
    is_generic: bool = False


def _fail(tokens: list[str], i: int, message: str) -> ParseError:
    return ParseError(message, tokens[i] if i < len(tokens) else None, i)


def _plural_np(token: str, lex: Lexicon, bare: bool = True) -> NounPhrase | None:
    """The phrase a plural noun heads, else None; bare unless after a number word.

    A listed plural form reads as its singular lemma. An unlisted word of
    three or more letters ending in a single s reads as the plural of its
    stem when the stem is a noun, or as a novel plural when the stem is an
    unlisted lowercase lexeme.
    """
    get = lex._by_surface.get
    e = get(token)
    if e is None and len(token) > 2 and token.endswith("s") and not token.endswith("ss"):
        lemma = token[:-1]
        se = get(lemma)
        novel = se is None
        if not (NAME_RE.fullmatch(lemma) if novel else se.pos in NOUN_LIKE):
            return None
    elif e is not None and e.pos == NOUN and e.plural_of:
        lemma, novel = e.plural_of, False
    else:
        return None
    return NounPhrase(lemma, bare, None, novel)


def _det_np(tokens: list[str], i: int, lex: Lexicon,
            allow_color: bool) -> tuple[NounPhrase, int]:
    """The phrase the determiner at i heads, and the index after it."""
    get = lex._by_surface.get
    i += 1
    modifier = None
    if allow_color and i < len(tokens):
        e = get(tokens[i])
        if e is not None and e.pos == COLOR_ADJ:
            modifier = e.lemma
            i += 1
    if i >= len(tokens):
        raise _fail(tokens, i, "expected a noun after the determiner")
    e = get(tokens[i])
    if e is None or e.pos not in (NOUN, MASS_NOUN) or e.plural_of:
        raise _fail(tokens, i, "expected a singular noun after the determiner")
    return NounPhrase(e.lemma, False, modifier), i + 1


def parse(text: str, lexicon: Lexicon | None = None) -> ParsedUtterance:
    """Tokenize an utterance and match one of the supported templates.

    DET (COLOR) N | NUM N-pl | many N-pl | N-pl | N-pl are COLOR |
    N-pl are N-pl | N-pl V (N-mass | N-pl) |
    PROPN V (DET N | N-mass | N-pl) | DET (COLOR) N V (DET N | N-mass | N-pl)

    Parentheses mark an optional part. An utterance is generic exactly when
    every noun phrase in it is a bare plural, so "Mom eats cookies" and
    "a baby eats wugs" are not.

    Unknown nouns are admitted only in bare-plural positions (strip-s rule)
    and flagged novel. The result is an immutable named tuple, memoized per
    lexicon under the text as written: a second parse of the same text
    returns the same object.
    """
    lex = lexicon or default_lexicon()
    parsed = lex._parses.get(text)
    if parsed is None:
        parsed = lex._parses[text] = _parse(tokenize(text, lex), lex)
    return parsed


def _parse(tokens: list[str], lex: Lexicon) -> ParsedUtterance:
    """One walk over the tokens: the subject, then the tail its kind allows.

    A number phrase takes no tail, a determiner phrase an optional verb, a
    proper noun a verb, a bare plural a verb or `are`.
    """
    get = lex._by_surface.get
    n = len(tokens)
    if not n:
        raise ParseError("empty utterance", None, 0)
    first = get(tokens[0])
    kind = first.pos if first is not None else None
    verb, complement, is_color = None, None, False
    if kind == DETERMINER:
        subject, i = _det_np(tokens, 0, lex, allow_color=True)
        tail_error = "expected a verb"
    elif kind == PROPER_NOUN:
        subject, i = NounPhrase(first.lemma), 1
        tail_error = "expected a verb after the proper noun"
    elif kind == NUMBER_WORD:
        subject = _plural_np(tokens[1], lex, bare=False) if n > 1 else None
        if subject is None:
            raise _fail(tokens, 1, "expected a plural noun after the number word")
        i, tail_error = 2, None
    else:
        subject = _plural_np(tokens[0], lex)
        if subject is None:
            raise _fail(tokens, 0, "unknown word" if first is None
                        else "no utterance template starts here")
        i, tail_error = 1, "expected 'are' or a verb after the bare plural"
    bare = subject.is_bare_plural
    nps = [subject]

    if tail_error is not None and (i < n or kind == PROPER_NOUN):
        e = get(tokens[i]) if i < n else None
        pos = e.pos if e is not None else None
        if pos == COPULA and bare:
            i += 1
            if i == n:
                raise _fail(tokens, i, "expected a complement after 'are'")
            c = get(tokens[i])
            is_color = c is not None and c.pos == COLOR_ADJ
            if is_color:
                complement = c.lemma
            else:
                category = _plural_np(tokens[i], lex)
                if category is None:
                    raise _fail(tokens, i, "expected a color or plural noun complement")
                nps.append(category)
                complement = category.lemma
            i += 1
        elif pos == VERB:
            i += 1
            verb = e.lemma
            if i < n:
                o = get(tokens[i])
                if o is not None and o.pos == DETERMINER and not bare:
                    obj, i = _det_np(tokens, i, lex, allow_color=False)
                else:
                    obj = (NounPhrase(o.lemma) if o is not None and o.pos == MASS_NOUN
                           else _plural_np(tokens[i], lex))
                    if obj is None:
                        raise _fail(tokens, i, "expected a mass noun or plural noun object"
                                    if bare else "expected an object noun phrase")
                    i += 1
                nps.append(obj)
        else:
            raise _fail(tokens, i, tail_error)

    if i != n:
        raise _fail(tokens, i, "unexpected trailing token")
    # nps is the subject, whose is_bare_plural is bare, and at most one more phrase
    generic = bare and nps[-1].is_bare_plural
    return ParsedUtterance(tuple(nps), verb, complement, is_color, generic)
