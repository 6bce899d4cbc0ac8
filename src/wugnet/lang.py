"""Toy-English front end: lexicon, tokenizer, and template parser.

The fragment is tiny by design: determiner phrases, bare plurals, number
phrases, copula predicates, and one- or two-argument verb frames. An
utterance counts as generic exactly when every recognized noun in it is a
bare plural (plural morphology, no determiner, no number word).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .errors import FormatError

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

# surface -> count for number words; None marks vague quantity
NUMBER_VALUES: dict[str, int | None] = {"two": 2, "three": 3, "four": 4, "many": None}

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z-]*")
_STRAY_RE = re.compile(r"[^A-Za-z\s.,!?-]")
_LEXEME_RE = re.compile(r"^[a-z][a-z-]*$")


class LexiconFormatError(FormatError):
    """Malformed lexicon file; carries the offending line number."""


class ParseError(ValueError):
    """No template matches; names the first offending token."""

    def __init__(self, message: str, token: str | None, position: int):
        self.token = token
        self.position = position
        super().__init__(f"{message} (token {token!r} at position {position})")


@dataclass(frozen=True)
class LexEntry:
    surface: str
    pos: str
    lemma: str
    plural_of: str | None = None  # set on plural noun forms


class Lexicon:
    """Surface-form table. Immutable once built; safe to share."""

    def __init__(self, entries: list[LexEntry]):
        self._by_surface: dict[str, LexEntry] = {}
        for e in entries:
            if e.surface in self._by_surface:
                raise LexiconFormatError(f"duplicate surface form {e.surface!r}")
            self._by_surface[e.surface] = e
        self._plural_of: dict[str, str] = {
            e.plural_of: e.surface for e in entries if e.plural_of
        }

    def get(self, surface: str) -> LexEntry | None:
        return self._by_surface.get(surface)

    def __contains__(self, surface: str) -> bool:
        return surface in self._by_surface

    def entries(self) -> list[LexEntry]:
        return sorted(self._by_surface.values(), key=lambda e: e.surface)

    def pos_of(self, surface: str) -> str | None:
        e = self._by_surface.get(surface)
        return e.pos if e else None

    def noun_lemmas(self) -> list[str]:
        """Singular lemmas of all noun-like entries."""
        return sorted({e.lemma for e in self._by_surface.values()
                       if e.pos in NOUN_LIKE and not e.plural_of})

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
        entries: list[LexEntry] = []
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
            lemma = None
            plural_of = None
            for extra in fields[3:]:
                key, sep, value = extra.partition("=")
                if not sep:
                    raise LexiconFormatError(f"bad attribute {extra!r}", lineno)
                if key == "lemma":
                    lemma = value
                elif key == "plural-of":
                    plural_of = value
                else:
                    raise LexiconFormatError(f"unknown attribute {key!r}", lineno)
            if lemma is None:
                raise LexiconFormatError("missing lemma=", lineno)
            entries.append(LexEntry(surface, pos, lemma, plural_of))
        return cls(entries)

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
    """Lowercased word tokens, punctuation stripped.

    Text may hold only ASCII letters, hyphens, whitespace and `.,!?`; any
    other character raises ParseError naming its whitespace-separated chunk
    and that chunk's position. Adjacent words that spell a hyphenated
    lexicon entry ("light brown") are joined into the single lexeme.
    """
    lex = lexicon or default_lexicon()
    if _STRAY_RE.search(text):
        for position, chunk in enumerate(text.split()):
            stray = _STRAY_RE.search(chunk)
            if stray:
                raise ParseError(f"unsupported character {stray.group()!r}", chunk, position)
    words = [w.lower() for w in _WORD_RE.findall(text)]
    out: list[str] = []
    i = 0
    while i < len(words):
        if i + 1 < len(words) and f"{words[i]}-{words[i + 1]}" in lex:
            out.append(f"{words[i]}-{words[i + 1]}")
            i += 2
        else:
            out.append(words[i])
            i += 1
    return out


@dataclass
class NounPhrase:
    lemma: str
    is_bare_plural: bool = False
    has_determiner: bool = False
    modifier: str | None = None  # color lemma
    count: int | None = None
    novel: bool = False
    mass: bool = False


@dataclass
class VerbFrame:
    lemma: str
    subject: int
    object: int | None = None


@dataclass
class Predicate:
    subject: int
    complement: str  # color lemma or plural-noun lemma
    complement_is_color: bool
    complement_index: int | None = None


@dataclass
class ParsedUtterance:
    tokens: tuple[str, ...]
    noun_phrases: list[NounPhrase] = field(default_factory=list)
    verb: VerbFrame | None = None
    predicate: Predicate | None = None
    is_generic: bool = False


def _resolve_plural(token: str, lex: Lexicon) -> tuple[str, bool] | None:
    """(lemma, novel) when the token reads as a plural noun, else None."""
    e = lex.get(token)
    if e is not None:
        if e.pos == NOUN and e.plural_of:
            return e.plural_of, False
        return None
    if len(token) > 2 and token.endswith("s") and not token.endswith("ss"):
        stem = token[:-1]
        se = lex.get(stem)
        if se is not None and se.pos in NOUN_LIKE:
            return stem, False
        if se is None and _LEXEME_RE.match(stem):
            return stem, True
    return None


def parse(tokens: list[str], lexicon: Lexicon | None = None) -> ParsedUtterance:
    """Match one of the supported utterance templates.

    DET (COLOR) N | NUM N-pl | many N-pl | N-pl | N-pl are COLOR |
    N-pl are N-pl | N-pl V (N-mass | N-pl) | PROPN/DET N V (DET N | N-mass)

    Unknown nouns are admitted only in bare-plural positions (strip-s rule)
    and flagged novel.
    """
    lex = lexicon or default_lexicon()
    if not tokens:
        raise ParseError("empty utterance", None, 0)

    def fail(i: int, message: str) -> ParseError:
        token = tokens[i] if i < len(tokens) else None
        return ParseError(message, token, i)

    def end_or_die(i: int) -> None:
        if i != len(tokens):
            raise fail(i, "unexpected trailing token")

    def det_np(i: int, allow_color: bool) -> tuple[NounPhrase, int]:
        # cursor sits on the determiner
        i += 1
        modifier = None
        if i < len(tokens):
            e = lex.get(tokens[i])
            if allow_color and e is not None and e.pos == COLOR_ADJ:
                modifier = e.lemma
                i += 1
        if i >= len(tokens):
            raise fail(i, "expected a noun after the determiner")
        e = lex.get(tokens[i])
        if e is None or e.pos not in (NOUN, MASS_NOUN) or e.plural_of:
            raise fail(i, "expected a singular noun after the determiner")
        np = NounPhrase(e.lemma, has_determiner=True, modifier=modifier,
                        mass=e.pos == MASS_NOUN)
        return np, i + 1

    def object_np(i: int) -> tuple[NounPhrase, int]:
        e = lex.get(tokens[i])
        if e is not None and e.pos == DETERMINER:
            return det_np(i, allow_color=False)
        if e is not None and e.pos == MASS_NOUN:
            return NounPhrase(e.lemma, mass=True), i + 1
        pl = _resolve_plural(tokens[i], lex)
        if pl is not None:
            lemma, novel = pl
            return NounPhrase(lemma, is_bare_plural=True, novel=novel), i + 1
        raise fail(i, "expected an object noun phrase")

    nps: list[NounPhrase] = []
    verb: VerbFrame | None = None
    predicate: Predicate | None = None

    first = lex.get(tokens[0])

    if first is not None and first.pos == DETERMINER:
        subject, i = det_np(0, allow_color=True)
        nps.append(subject)
        if i < len(tokens):
            ev = lex.get(tokens[i])
            if ev is None or ev.pos != VERB:
                raise fail(i, "expected a verb")
            verb = VerbFrame(ev.lemma, subject=0)
            i += 1
            if i < len(tokens):
                obj, i = object_np(i)
                nps.append(obj)
                verb.object = 1
            end_or_die(i)

    elif first is not None and first.pos == PROPER_NOUN:
        nps.append(NounPhrase(first.lemma))
        if len(tokens) < 2:
            raise fail(1, "expected a verb after the proper noun")
        ev = lex.get(tokens[1])
        if ev is None or ev.pos != VERB:
            raise fail(1, "expected a verb after the proper noun")
        verb = VerbFrame(ev.lemma, subject=0)
        i = 2
        if i < len(tokens):
            obj, i = object_np(i)
            nps.append(obj)
            verb.object = 1
        end_or_die(i)

    elif first is not None and first.pos == NUMBER_WORD:
        if len(tokens) < 2:
            raise fail(1, "expected a plural noun after the number word")
        pl = _resolve_plural(tokens[1], lex)
        if pl is None:
            raise fail(1, "expected a plural noun after the number word")
        lemma, novel = pl
        nps.append(NounPhrase(lemma, has_determiner=True, novel=novel,
                              count=NUMBER_VALUES.get(tokens[0])))
        end_or_die(2)

    else:
        pl = _resolve_plural(tokens[0], lex)
        if pl is None:
            if first is None:
                raise fail(0, "unknown word")
            raise fail(0, "no utterance template starts here")
        lemma, novel = pl
        nps.append(NounPhrase(lemma, is_bare_plural=True, novel=novel))
        if len(tokens) > 1:
            e1 = lex.get(tokens[1])
            if e1 is not None and e1.pos == COPULA:
                if len(tokens) < 3:
                    raise fail(2, "expected a complement after 'are'")
                ec = lex.get(tokens[2])
                if ec is not None and ec.pos == COLOR_ADJ:
                    predicate = Predicate(0, ec.lemma, complement_is_color=True)
                    end_or_die(3)
                else:
                    cpl = _resolve_plural(tokens[2], lex)
                    if cpl is None:
                        raise fail(2, "expected a color or plural noun complement")
                    clemma, cnovel = cpl
                    nps.append(NounPhrase(clemma, is_bare_plural=True, novel=cnovel))
                    predicate = Predicate(0, clemma, complement_is_color=False,
                                          complement_index=1)
                    end_or_die(3)
            elif e1 is not None and e1.pos == VERB:
                verb = VerbFrame(e1.lemma, subject=0)
                i = 2
                if i < len(tokens):
                    e2 = lex.get(tokens[i])
                    if e2 is not None and e2.pos == MASS_NOUN:
                        nps.append(NounPhrase(e2.lemma, mass=True))
                    else:
                        opl = _resolve_plural(tokens[i], lex)
                        if opl is None:
                            raise fail(i, "expected a mass noun or plural noun object")
                        olemma, onovel = opl
                        nps.append(NounPhrase(olemma, is_bare_plural=True, novel=onovel))
                    verb.object = 1
                    i += 1
                end_or_die(i)
            else:
                raise fail(1, "expected 'are' or a verb after the bare plural")

    generic = bool(nps) and all(np.is_bare_plural for np in nps)
    return ParsedUtterance(tuple(tokens), nps, verb, predicate, generic)


def parse_text(text: str, lexicon: Lexicon | None = None) -> ParsedUtterance:
    return parse(tokenize(text, lexicon), lexicon)
