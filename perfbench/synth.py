"""Seeded synthetic inputs for the scaled workloads.

Everything here is built in-process from public wugnet types: a Lexicon
made of LexEntry lists (the default entries plus generated nouns, each
with an explicit plural-of entry), a CurriculumSpec expanded by
curriculum.generate, and novel-member generics whose subjects the lexicon
does not know. The same seed always gives the same inputs.
"""

from __future__ import annotations

import random

from wugnet import curriculum, lang
from wugnet.learner import Entity, LearningInstance, Situation

CATEGORIES = ("animal", "food", "people")

# Generated lemmas are consonant-vowel syllables, so they always match
# ^[a-z][a-z-]*$ and never end in "s": the strip-s rule in the parser then
# reads "<lemma>s" as the plural of exactly that lemma.
_ONSETS = "bdfgklmnprtvz"
_VOWELS = "aeiou"


def words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """`count` distinct pseudo-nouns whose singular and +s forms avoid `taken`.

    Adds every returned singular and plural surface to `taken`.
    """
    out: list[str] = []
    while len(out) < count:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(rng.choice((2, 3, 3, 4))))
        if word in taken or word + "s" in taken:
            continue
        taken.update((word, word + "s"))
        out.append(word)
    return out


def lexicon_with(nouns: list[str]) -> lang.Lexicon:
    """The default lexicon plus one count noun and its plural per lemma."""
    entries = list(lang.default_lexicon().entries())
    for noun in nouns:
        entries.append(lang.LexEntry(noun, lang.NOUN, noun))
        entries.append(lang.LexEntry(noun + "s", lang.NOUN, noun, plural_of=noun))
    return lang.Lexicon(entries)


def default_surfaces() -> set[str]:
    return {e.surface for e in lang.default_lexicon().entries()}


def split_categories(nouns: list[str], base=curriculum.DEFAULT_CATEGORIES):
    """Deal the nouns round-robin into the three default categories."""
    extra = {name: [] for name in CATEGORIES}
    for i, noun in enumerate(nouns):
        extra[CATEGORIES[i % len(CATEGORIES)]].append(noun)
    return tuple((name, members + tuple(extra[name])) for name, members in base)


def random_actions(rng: random.Random, nouns: list[str], count: int):
    """`count` action rows over the lexicon's 8 verbs, half of them transitive."""
    verbs = sorted(curriculum._VERB_3SG)
    rows = []
    for i in range(count):
        obj = rng.choice(nouns) if i % 2 else None
        rows.append((rng.choice(nouns), rng.choice(verbs), obj, rng.choice((1, 2))))
    return tuple(rows)


def membership_generics(lexicon: lang.Lexicon, subjects: list[str]) -> list[LearningInstance]:
    """"<novel>s are <category plural>" instances, cycling through the categories."""
    out = []
    for i, subject in enumerate(subjects):
        if lexicon.get(subject) is not None or lexicon.get(subject + "s") is not None:
            raise ValueError(f"novel subject {subject!r} is in the lexicon")
        category = CATEGORIES[i % len(CATEGORIES)]
        out.append(LearningInstance(
            Situation(entities=(Entity("e0", subject),)),
            f"{subject}s are {lexicon.plural_surface(category)}"))
    return out


def novel_members_inputs(seed: int, nouns: int, novel: int):
    """Lexicon, all-phase curriculum over defaults + `nouns`, and `novel` generics."""
    rng = random.Random(seed)
    taken = default_surfaces()
    generated = words(rng, nouns, taken)
    subjects = words(rng, novel, taken)
    lexicon = lexicon_with(generated)
    spec = curriculum.CurriculumSpec(
        phases=curriculum.PHASES,
        name="novel-members",
        objects=curriculum.DEFAULT_OBJECTS + tuple(generated),
        categories=split_categories(generated),
        seed=seed,
    )
    return lexicon, curriculum.generate(spec, lexicon), membership_generics(lexicon, subjects)


def concept_space_inputs(seed: int, nouns: int, actions: int):
    """Lexicon and all-phase curriculum over `nouns` generated objects only.

    The objects get colors from the rotation, `actions` random verb frames,
    and membership in one of three categories.
    """
    rng = random.Random(seed)
    generated = words(rng, nouns, default_surfaces())
    lexicon = lexicon_with(generated)
    spec = curriculum.CurriculumSpec(
        phases=curriculum.PHASES,
        name="concept-space",
        objects=tuple(generated),
        categories=split_categories(generated, tuple((c, ()) for c in CATEGORIES)),
        actions=random_actions(rng, generated, actions),
        seed=seed,
    )
    return lexicon, curriculum.generate(spec, lexicon)
