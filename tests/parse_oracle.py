"""Reference implementations of the tokenizer and the template parser.

These are the original lang.tokenize and the template walk of lang.parse
(with its _resolve_plural helper), kept verbatim but for the NounPhrase
and ParsedUtterance fields the learner never read (number counts, mass
and determiner flags, the token copy), which lang no longer builds, and
for the verb frame's and predicate's noun-phrase indexes, which were
constant: the subject is always noun phrase 0, and a verb's object or a
noun complement noun phrase 1. The verb is now its lemma, and the
predicate's two fields (complement and complement_is_color) sit on the
ParsedUtterance itself rather than in a separate Predicate object. Tests
compare lang._parse, the unmemoized walk, against this one on every short
token sequence and on every built-in curriculum, exactly: same
ParsedUtterance, or the same error message, token and position. The old
tokenizer also split words at `.,!?` and lone hyphens anywhere in a chunk;
it is kept to check that every curriculum utterance still tokenizes the
same. chunk_tokenize is the tokenizer lang used before its fast path for
texts of letters and spaces: every chunk through the chunk pattern, and
the join loop over every word list. Tests compare lang.tokenize against it
on generated texts, exactly: the same tokens, or the same error message,
token and position.
"""

from __future__ import annotations

import re

from wugnet.lang import (
    COLOR_ADJ,
    COPULA,
    DETERMINER,
    MASS_NOUN,
    NOUN,
    NOUN_LIKE,
    NUMBER_WORD,
    PROPER_NOUN,
    VERB,
    Lexicon,
    NounPhrase,
    ParsedUtterance,
    ParseError,
    default_lexicon,
)

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z-]*")
_STRAY_RE = re.compile(r"[^A-Za-z\s.,!?-]")
_LEXEME_RE = re.compile(r"^[a-z][a-z-]*$")


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


_CHUNK_RE = re.compile(r"([A-Za-z]+(?:-[A-Za-z]+)*)[.,!?]*")


def chunk_tokenize(text: str, lexicon: Lexicon | None = None) -> list[str]:
    """Lowercased word tokens, sentence punctuation stripped.

    Every whitespace-separated chunk must be ASCII letters, optionally
    joined by single hyphens, followed by optional `.,!?`; any other chunk
    ("a2", "bears.sit", "-", ".") raises ParseError naming the chunk and
    its position. Adjacent words that spell a hyphenated lexicon entry
    ("light brown") are joined into the single lexeme.
    """
    lex = lexicon or default_lexicon()
    words = []
    for position, chunk in enumerate(text.split()):
        m = _CHUNK_RE.fullmatch(chunk)
        if m is None:
            raise ParseError("malformed word", chunk, position)
        words.append(m[1].lower())
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
        return NounPhrase(e.lemma, modifier=modifier), i + 1

    def object_np(i: int) -> tuple[NounPhrase, int]:
        e = lex.get(tokens[i])
        if e is not None and e.pos == DETERMINER:
            return det_np(i, allow_color=False)
        if e is not None and e.pos == MASS_NOUN:
            return NounPhrase(e.lemma), i + 1
        pl = _resolve_plural(tokens[i], lex)
        if pl is not None:
            lemma, novel = pl
            return NounPhrase(lemma, is_bare_plural=True, novel=novel), i + 1
        raise fail(i, "expected an object noun phrase")

    nps: list[NounPhrase] = []
    verb: str | None = None
    complement: str | None = None
    complement_is_color = False

    first = lex.get(tokens[0])

    if first is not None and first.pos == DETERMINER:
        subject, i = det_np(0, allow_color=True)
        nps.append(subject)
        if i < len(tokens):
            ev = lex.get(tokens[i])
            if ev is None or ev.pos != VERB:
                raise fail(i, "expected a verb")
            verb = ev.lemma
            i += 1
            if i < len(tokens):
                obj, i = object_np(i)
                nps.append(obj)
            end_or_die(i)

    elif first is not None and first.pos == PROPER_NOUN:
        nps.append(NounPhrase(first.lemma))
        if len(tokens) < 2:
            raise fail(1, "expected a verb after the proper noun")
        ev = lex.get(tokens[1])
        if ev is None or ev.pos != VERB:
            raise fail(1, "expected a verb after the proper noun")
        verb = ev.lemma
        i = 2
        if i < len(tokens):
            obj, i = object_np(i)
            nps.append(obj)
        end_or_die(i)

    elif first is not None and first.pos == NUMBER_WORD:
        if len(tokens) < 2:
            raise fail(1, "expected a plural noun after the number word")
        pl = _resolve_plural(tokens[1], lex)
        if pl is None:
            raise fail(1, "expected a plural noun after the number word")
        lemma, novel = pl
        nps.append(NounPhrase(lemma, novel=novel))
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
                    complement, complement_is_color = ec.lemma, True
                    end_or_die(3)
                else:
                    cpl = _resolve_plural(tokens[2], lex)
                    if cpl is None:
                        raise fail(2, "expected a color or plural noun complement")
                    clemma, cnovel = cpl
                    nps.append(NounPhrase(clemma, is_bare_plural=True, novel=cnovel))
                    complement = clemma
                    end_or_die(3)
            elif e1 is not None and e1.pos == VERB:
                verb = e1.lemma
                i = 2
                if i < len(tokens):
                    e2 = lex.get(tokens[i])
                    if e2 is not None and e2.pos == MASS_NOUN:
                        nps.append(NounPhrase(e2.lemma))
                    else:
                        opl = _resolve_plural(tokens[i], lex)
                        if opl is None:
                            raise fail(i, "expected a mass noun or plural noun object")
                        olemma, onovel = opl
                        nps.append(NounPhrase(olemma, is_bare_plural=True, novel=onovel))
                    i += 1
                end_or_die(i)
            else:
                raise fail(1, "expected 'are' or a verb after the bare plural")

    generic = bool(nps) and all(np.is_bare_plural for np in nps)
    return ParsedUtterance(tuple(nps), verb, complement, complement_is_color, generic)
