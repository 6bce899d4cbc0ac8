"""Curriculum generation and the curriculum file format.

A curriculum is an ordered list of (scene, utterance) instances. The
built-in generator composes phases in a fixed order (objects, colors,
actions, plurals, category generics, action generics, color generics)
over a configurable object inventory, shuffling within each phase from a
seed. Membership generics are emitted with already-introduced subjects
first, and generate raises a ValueError for a spec in which a category's
first generic has a subject no earlier instance names, so every
curriculum it returns is learnable in order.
"""

from __future__ import annotations

import random
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .errors import FormatError
from .lang import (
    MASS_NOUN,
    NOUN,
    PROPER_NOUN,
    VERB,
    Lexicon,
    ParseError,
    default_lexicon,
    parse,
)
from .learner import ActionFrame, Entity, LearningInstance, Situation

PHASES = (
    "objects",
    "colors",
    "actions",
    "plurals",
    "category-generics",
    "action-generics",
    "color-generics",
)


class CurriculumFormatError(FormatError):
    """Malformed curriculum file; carries the offending line number."""


DEFAULT_OBJECTS = (
    "ball", "box", "book", "table", "chair", "cup", "truck", "car", "house",
    "cookie", "paper", "watermelon", "chicken", "beef", "cow", "bear", "bird",
    "cat", "dog", "baby", "mom", "dad", "hand", "head", "water", "juice", "milk",
)

DEFAULT_CATEGORIES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("animal", ("bear", "bird", "cat", "dog", "cow", "chicken")),
    ("food", ("cookie", "watermelon", "chicken", "beef", "milk", "juice", "water")),
    ("people", ("mom", "dad", "baby")),
)

# Per-pair exposure counts. The three objects below keep the counts that
# produce the 0.2 / 0.36 / 0.488 strength tiers; every other count noun is
# assigned three single-exposure colors from the rotation.
DEFAULT_COLOR_TABLE: tuple[tuple[str, tuple[tuple[str, int], ...]], ...] = (
    ("cookie", (("blue", 1), ("green", 3), ("light-brown", 1), ("red", 1))),
    ("paper", (("blue", 1), ("dark-brown", 2), ("red", 1), ("white", 1))),
    ("watermelon", (("dark-brown", 1), ("green", 1), ("light-brown", 1), ("red", 1))),
)
_COLOR_ROTATION = ("red", "blue", "green", "yellow", "white", "black")

# (subject, verb, object-or-None, repetitions); people handle the transitive
# frames, animals the intransitive ones, and only food gets eaten.
DEFAULT_ACTIONS: tuple[tuple[str, str, str | None, int], ...] = (
    ("mom", "drink", "juice", 1),
    ("dad", "drink", "water", 1),
    ("baby", "drink", "milk", 1),
    ("mom", "eat", "cookie", 1),
    ("dad", "eat", "watermelon", 1),
    ("baby", "eat", "cookie", 1),
    ("mom", "roll", "ball", 1),
    ("dad", "roll", "truck", 1),
    ("baby", "roll", "ball", 1),
    ("mom", "take", "cup", 1),
    ("dad", "take", "book", 1),
    ("baby", "take", "box", 1),
    ("dog", "sit", None, 1),
    ("cat", "sit", None, 1),
    ("bear", "sit", None, 1),
    ("bird", "fly", None, 1),
    ("cow", "walk", None, 1),
    ("chicken", "walk", None, 1),
)

DEFAULT_ACTION_GENERICS: tuple[tuple[str, str], ...] = (
    ("bear", "sit"),
    ("bird", "fly"),
    ("cat", "walk"),
    ("dog", "walk"),
    ("baby", "sit"),
    ("mom", "eat"),
    ("dad", "eat"),
)

DEFAULT_COLOR_GENERICS: tuple[tuple[str, str], ...] = (
    ("watermelon", "green"),
    ("paper", "white"),
    ("cookie", "light-brown"),
)


def _verb_3sg(lexicon: Lexicon) -> dict[str, str]:
    """lemma -> third-person-singular surface, read off a lexicon.

    Where a lemma has several such surfaces, the last in surface order wins.
    """
    forms = sorted((e.surface, e.lemma) for e in lexicon._by_surface.values()
                   if e.pos == VERB and e.surface != e.lemma)
    return {lemma: surface for surface, lemma in forms}


# the default lexicon's table; perfbench/synth.py draws its verbs from it
_VERB_3SG = _verb_3sg(default_lexicon())


class CurriculumSpec(NamedTuple):
    """What to generate: phases, inventory, categories, actions, shuffle seed.

    A named tuple: immutable, and equal to a plain tuple of its fields.
    """

    phases: tuple[str, ...]
    name: str = ""
    objects: tuple[str, ...] = DEFAULT_OBJECTS  # the object inventory, in order
    categories: tuple[tuple[str, tuple[str, ...]], ...] = DEFAULT_CATEGORIES
    actions: tuple[tuple[str, str, str | None, int], ...] = DEFAULT_ACTIONS
    seed: int = 0


class Curriculum(NamedTuple):
    name: str
    instances: tuple[LearningInstance, ...]


def _indefinite(lemma: str) -> str:
    return f"a {lemma.replace('-', ' ')}"


class _Generator:
    def __init__(self, spec: CurriculumSpec, lexicon: Lexicon):
        self.spec = spec
        self.lex = lexicon
        self.rng = random.Random(spec.seed)
        self.inventory = self._inventory()
        self.inv = set(self.inventory)
        self.common = [o for o in self.inventory if self.lex.pos_of(o) != PROPER_NOUN]
        self.count_nouns = [o for o in self.inventory if self.lex.pos_of(o) == NOUN]
        self.instances: list[LearningInstance] = []  # the curriculum so far, in order

    def _inventory(self) -> list[str]:
        for lemma in self.spec.objects:
            if self.lex.pos_of(lemma) not in (NOUN, MASS_NOUN, PROPER_NOUN):
                raise ValueError(f"inventory lexeme {lemma!r} is not a noun in the lexicon")
        return list(self.spec.objects)

    def plural(self, lemma: str) -> str:
        surface = self.lex.plural_surface(lemma)
        if self.lex.pos_of(lemma) == PROPER_NOUN:
            return surface.capitalize()
        return surface

    def subject_text(self, lemma: str) -> str:
        if self.lex.pos_of(lemma) == PROPER_NOUN:
            return self.lex.display(lemma)
        return _indefinite(lemma)

    def object_text(self, lemma: str) -> str:
        if self.lex.pos_of(lemma) == MASS_NOUN:
            return lemma
        return _indefinite(lemma)

    def _named(self, lemma: str, block: list[LearningInstance]) -> bool:
        """Whether an instance generated so far, or one in block, names lemma.

        A generated scene holds just the objects its utterance names.
        """
        return any(e.lemma == lemma for instance in chain(self.instances, block)
                   for e in instance.situation.entities)

    # -- phases ---------------------------------------------------------

    def objects_phase(self) -> list[LearningInstance]:
        out = []
        for lemma in self.common:
            out.append(LearningInstance(Situation((Entity("e0", lemma),)), _indefinite(lemma)))
        return out

    def color_table(self) -> list[tuple[str, str, int]]:
        rows = [(obj, color, n) for obj, pairs in DEFAULT_COLOR_TABLE for color, n in pairs]
        fixed = {obj for obj, _ in DEFAULT_COLOR_TABLE}
        rest = [o for o in self.count_nouns if o not in fixed]
        for i, obj in enumerate(rest):
            for step in (0, 2, 4):
                rows.append((obj, _COLOR_ROTATION[(i + step) % len(_COLOR_ROTATION)], 1))
        return [(obj, color, n) for obj, color, n in rows if obj in self.inv]

    def colors_phase(self) -> list[LearningInstance]:
        """Each color-table row's instance, n times over: one shared immutable value."""
        out = []
        for obj, color, n in self.color_table():
            instance = LearningInstance(Situation((Entity("e0", obj, color),)),
                                        f"a {self.lex.display(color)} {obj}")
            out += [instance] * n
        return out

    def actions_phase(self) -> list[LearningInstance]:
        verb_3sg = _verb_3sg(self.lex)
        out = []
        for subject, verb, obj, n in self.spec.actions:
            if subject not in self.inv or (obj is not None and obj not in self.inv):
                continue
            if verb not in verb_3sg:
                raise ValueError(f"action verb {verb!r} has no third-person form in the lexicon")
            text = f"{self.subject_text(subject)} {verb_3sg[verb]}"
            if obj is None:
                scene = Situation((Entity("e0", subject),), (ActionFrame(verb, "e0"),))
            else:
                scene = Situation((Entity("e0", subject), Entity("e1", obj)),
                                  (ActionFrame(verb, "e0", "e1"),))
                text += f" {self.object_text(obj)}"
            out += [LearningInstance(scene, text)] * n
        return out

    def plurals_phase(self) -> list[LearningInstance]:
        out = []
        for i, lemma in enumerate(self.count_nouns):
            if i % 2 == 0:
                word, entities = "two", (Entity("e0", lemma), Entity("e1", lemma))
            else:
                word, entities = "many", (Entity("e0", lemma), Entity("e1", lemma),
                                          Entity("e2", lemma))
            out.append(LearningInstance(Situation(entities), f"{word} {self.plural(lemma)}"))
        return out

    def category_generics_phase(self) -> list[LearningInstance]:
        """Each category's generics, the members the objects phase introduced first.

        A category's first generic creates the category, so its subject
        must already be a concept: a ValueError names the category when no
        earlier instance names that subject.
        """
        introduced = set(self.common) if "objects" in self.spec.phases else set()
        out = []
        for category, members in self.spec.categories:
            present = [m for m in members if m in self.inv]
            known = [m for m in present if m in introduced]
            unknown = [m for m in present if m not in introduced]
            self.rng.shuffle(known)
            self.rng.shuffle(unknown)
            order = known + unknown
            category_plural = self.plural(category)
            # the objects phase, which comes first, names every introduced lemma
            if order and order[0] not in introduced and not self._named(order[0], out):
                raise ValueError(
                    f"category {category!r} cannot be learned: no earlier instance names "
                    f"{order[0]!r}, the subject of its first generic "
                    f"'{self.plural(order[0])} are {category_plural}'")
            for member in order:
                out.append(LearningInstance(Situation((Entity("e0", member),)),
                                            f"{self.plural(member)} are {category_plural}"))
        return out

    def action_generics_phase(self) -> list[LearningInstance]:
        out = []
        for subject, verb in DEFAULT_ACTION_GENERICS:
            if subject not in self.inv:
                continue
            out.append(LearningInstance(
                Situation((Entity("e0", subject),), (ActionFrame(verb, "e0"),)),
                f"{self.plural(subject)} {verb}"))
        return out

    def color_generics_phase(self) -> list[LearningInstance]:
        out = []
        for obj, color in DEFAULT_COLOR_GENERICS:
            if obj not in self.inv:
                continue
            out.append(LearningInstance(Situation((Entity("e0", obj, color),)),
                                        f"{self.plural(obj)} are {self.lex.display(color)}"))
        return out

    def run(self) -> Curriculum:
        builders = {
            "objects": self.objects_phase,
            "colors": self.colors_phase,
            "actions": self.actions_phase,
            "plurals": self.plurals_phase,
            "category-generics": self.category_generics_phase,
            "action-generics": self.action_generics_phase,
            "color-generics": self.color_generics_phase,
        }
        for phase in self.spec.phases:
            if phase not in PHASES:
                raise ValueError(f"unknown curriculum phase {phase!r}")
        for phase in PHASES:
            if phase not in self.spec.phases:
                continue
            block = builders[phase]()
            if phase != "category-generics":
                self.rng.shuffle(block)
            self.instances.extend(block)
        name = self.spec.name or "+".join(p for p in PHASES if p in self.spec.phases)
        return Curriculum(name, tuple(self.instances))


def generate(spec: CurriculumSpec, lexicon: Lexicon | None = None) -> Curriculum:
    """Deterministically expand a spec; same spec and seed, same curriculum."""
    return _Generator(spec, lexicon or default_lexicon()).run()


BUILTIN_PHASES: dict[str, tuple[str, ...]] = {
    "objects-and-kinds": ("objects", "category-generics"),
    "objects-kinds-and-generics": ("objects", "category-generics", "action-generics"),
    "obj-actions-kinds-generics": PHASES,
    "objects-and-actions": ("objects", "actions"),
    "objects-and-colors": ("objects", "colors"),
}


def builtin_spec(name: str, seed: int = 0,
                 exclude_objects: tuple[str, ...] = ()) -> CurriculumSpec:
    """A built-in curriculum's spec over the default inventory minus exclude_objects."""
    if name not in BUILTIN_PHASES:
        known = ", ".join(sorted(BUILTIN_PHASES))
        raise ValueError(f"unknown builtin curriculum {name!r} (known: {known})")
    objects = tuple(o for o in DEFAULT_OBJECTS if o not in exclude_objects)
    return CurriculumSpec(phases=BUILTIN_PHASES[name], name=name, objects=objects, seed=seed)


def builtin_curriculum(name: str, seed: int = 0) -> Curriculum:
    return generate(builtin_spec(name, seed))


# -- file format ----------------------------------------------------------

def curriculum_to_text(curriculum: Curriculum) -> str:
    lines = [f"# name: {curriculum.name}", ""]
    for instance in curriculum.instances:
        lines.append("instance")
        items = []
        for e in instance.situation.entities:
            item = f"entity {e.id} {e.lemma}"
            if e.color is not None:
                item += f" color={e.color}"
            items.append(item)
        for a in instance.situation.actions:
            item = f"action {a.verb} agent={a.agent}"
            if a.patient is not None:
                item += f" patient={a.patient}"
            items.append(item)
        lines.append("  scene: " + " ; ".join(items))
        lines.append(f"  say: {instance.utterance}")
        lines.append("")
    return "\n".join(lines)


def _parse_scene(text: str, lineno: int) -> Situation:
    entities: list[Entity] = []
    actions: list[ActionFrame] = []
    for item in filter(None, (part.strip() for part in text.split(";"))):
        fields = item.split()
        if fields[0] == "entity":
            if len(fields) not in (3, 4):
                raise CurriculumFormatError(f"bad entity declaration {item!r}", lineno)
            attrs = CurriculumFormatError.attributes(fields[3:], ("color",), lineno)
            entities.append(Entity(fields[1], fields[2], attrs.get("color")))
        elif fields[0] == "action":
            if len(fields) not in (3, 4):
                raise CurriculumFormatError(f"bad action declaration {item!r}", lineno)
            roles = CurriculumFormatError.attributes(fields[2:], ("agent", "patient"), lineno)
            if "agent" not in roles:
                raise CurriculumFormatError("action needs an agent=", lineno)
            actions.append(ActionFrame(fields[1], roles["agent"], roles.get("patient")))
        else:
            raise CurriculumFormatError(f"expected 'entity' or 'action', got {fields[0]!r}", lineno)
    try:
        return Situation(tuple(entities), tuple(actions))
    except ValueError as err:
        raise CurriculumFormatError(str(err), lineno) from err


def curriculum_from_text(text: str, name: str = "unnamed",
                         lexicon: Lexicon | None = None) -> Curriculum:
    """Parse the block format; every utterance must parse under the lexicon."""
    lex = lexicon or default_lexicon()
    instances: list[LearningInstance] = []
    scene: Situation | None = None
    in_instance = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("name:") and not in_instance and not instances:
                name = body[len("name:"):].strip()
            continue
        if not line:
            continue
        if line == "instance":
            if in_instance:
                raise CurriculumFormatError("instance block missing its 'say:' line", lineno)
            in_instance = True
            scene = None
        elif line.startswith("scene:"):
            if not in_instance or scene is not None:
                raise CurriculumFormatError("unexpected 'scene:' line", lineno)
            scene = _parse_scene(line[len("scene:"):], lineno)
        elif line.startswith("say:"):
            if not in_instance:
                raise CurriculumFormatError("'say:' outside an instance block", lineno)
            utterance = line[len("say:"):].strip()
            try:
                parse(utterance, lex)
            except ParseError as err:
                raise CurriculumFormatError(
                    f"utterance does not parse: {err}", lineno) from err
            instances.append(LearningInstance(scene or Situation(), utterance))
            in_instance = False
            scene = None
        else:
            raise CurriculumFormatError(f"unexpected line {line.split()[0]!r}", lineno)
    if in_instance:
        raise CurriculumFormatError("file ends inside an instance block",
                                    len(text.splitlines()))
    return Curriculum(name, tuple(instances))


def save_curriculum(curriculum: Curriculum, destination: str | Path) -> None:
    Path(destination).write_text(curriculum_to_text(curriculum), encoding="utf-8")


def load_curriculum(source: str | Path, lexicon: Lexicon | None = None) -> Curriculum:
    path = Path(source)
    return curriculum_from_text(path.read_text(encoding="utf-8"), path.stem, lexicon)
