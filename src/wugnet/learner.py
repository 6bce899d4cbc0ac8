"""Routes (situation, utterance) pairs into concept-network updates.

Non-generic utterances strengthen associations with the plateauing update;
generic utterances (bare plurals throughout) maximize them, creating
category nodes and novel objects as needed. A novel object introduced as a
member of a known category also inherits the member-average features of
that category.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import NamedTuple

from .graph import (
    ACTION,
    ATTRIBUTE,
    CATEGORY,
    IS,
    OBJECT,
    SLOT1,
    SLOT2,
    Concept,
    ConceptNetwork,
)
from .lang import Lexicon, ParsedUtterance, ParseError, default_lexicon, parse


class UnlearnableGeneric(ValueError):
    """A membership generic whose subject and complement are both unknown."""


class Entity(NamedTuple):
    id: str
    lemma: str
    color: str | None = None


class ActionFrame(NamedTuple):
    verb: str
    agent: str
    patient: str | None = None


class _SituationFields(NamedTuple):
    entities: tuple[Entity, ...] = ()
    actions: tuple[ActionFrame, ...] = ()


class Situation(_SituationFields):
    """A scene: its entities, whose ids are distinct, and the actions among them.

    Every action's agent and patient name a declared entity; `__new__`
    raises ValueError otherwise. The checks are loops, so building a scene
    builds no function object on CPython 3.11, and they are skipped where
    they cannot fail (no duplicate among fewer than two entities, no
    undeclared role without actions).
    """

    __slots__ = ()

    def __new__(cls, entities: tuple[Entity, ...] = (), actions: tuple[ActionFrame, ...] = ()):
        if len(entities) > 1 or actions:
            known = set()
            for entity in entities:
                known.add(entity.id)
            if len(known) != len(entities):
                raise ValueError("duplicate entity ids in situation")
            for a in actions:
                if a.agent not in known or (a.patient is not None and a.patient not in known):
                    raise ValueError(f"action '{a.verb}' references an undeclared entity")
        return tuple.__new__(cls, (entities, actions))

    @classmethod
    def _make(cls, iterable) -> "Situation":
        """A scene from an iterable of its two fields, through `__new__`'s checks.

        The named tuple's own `_make`, which `_replace` calls, builds through
        `tuple.__new__` and would skip them.
        """
        return cls(*super()._make(iterable))


class LearningInstance(NamedTuple):
    situation: Situation
    utterance: str


class EdgeWrite(NamedTuple):
    source: str  # concept keys (kind/name)
    label: str
    target: str
    old: float
    new: float
    generic: bool = False


class ObservationReport:
    """What observe learned from one instance: its journal entry.

    The report is complete once observe returns; nothing read from it
    later depends on the network. While observe runs it records only raw
    facts: the concepts it created, one (src, label, dst, old, new,
    generic) tuple per edge write with what that write returned, and the
    instance's immutable parse and scene. created (concept keys),
    edges (EdgeWrite) and mismatches are cached properties built from
    those facts on first read, so a caller that reads none of them pays
    one append per created node and per write, and never runs the scene
    check. Its identity is its journal line: compare reports by
    `to_json_line`.
    """

    def __init__(self, utterance: str, is_generic: bool,
                 parsed: ParsedUtterance, situation: Situation):
        self.utterance = utterance
        self.is_generic = is_generic
        self._nodes: list[Concept] = []
        self._writes: list[tuple[Concept, str, Concept, float, float, bool]] = []
        self._scene = (parsed, situation)

    @cached_property
    def created(self) -> list[str]:
        return [node.key for node in self._nodes]

    @cached_property
    def edges(self) -> list[EdgeWrite]:
        return [EdgeWrite(src.key, label, dst.key, old, new, generic)
                for src, label, dst, old, new, generic in self._writes]

    @cached_property
    def mismatches(self) -> list[str]:
        return _scene_mismatches(*self._scene)

    def to_json_line(self, index: int) -> str:
        return json.dumps({
            "instance": index,
            "utterance": self.utterance,
            "generic": self.is_generic,
            "created": self.created,
            "edges": self.edges,
            "mismatches": self.mismatches,
        }, ensure_ascii=False)


def _ensure(net: ConceptNetwork, report: ObservationReport, name: str, kind: str) -> Concept:
    node = net.get(name, kind)
    if node is None:
        node = net.add_concept(name, kind)
        report._nodes.append(node)
    return node


def _link(net: ConceptNetwork, report: ObservationReport, src: Concept, dst: Concept,
          label: str, weight: float | None, generic: bool = False) -> None:
    """The learner's one edge write, journalled in the report with the edge's flag after it.

    weight None applies the plateauing update; otherwise the weight and
    generic flag are stored.
    """
    old, new, generic = net.write(src, dst, label, weight, generic)
    report._writes.append((src, label, dst, old, new, generic))


def _scene_mismatches(parsed: ParsedUtterance, situation: Situation) -> list[str]:
    """Lemmas the utterance names that the scene does not support.

    Category complements are exempt: they describe kinds, not scene
    content. Mismatches are reported, never fatal; the utterance stays
    authoritative for learning.
    """
    out: list[str] = []
    lemmas = {e.lemma for e in situation.entities}
    # after `are`, noun phrase 1, if any, is the category complement
    for np in parsed.noun_phrases[:1] if parsed.complement is not None else parsed.noun_phrases:
        if np.lemma not in lemmas:
            out.append(f"no entity '{np.lemma}' in scene")
        elif np.modifier is not None and not any(
                e.lemma == np.lemma and e.color == np.modifier for e in situation.entities):
            out.append(f"no {np.modifier} '{np.lemma}' in scene")
    if parsed.complement_is_color:
        subject = parsed.noun_phrases[0].lemma
        color = parsed.complement
        if not any(e.lemma == subject and e.color == color for e in situation.entities):
            out.append(f"no {color} '{subject}' in scene")
    if parsed.verb is not None and not any(a.verb == parsed.verb for a in situation.actions):
        out.append(f"no '{parsed.verb}' action in scene")
    return out


def observe(net: ConceptNetwork, instance: LearningInstance,
            lexicon: Lexicon | None = None) -> ObservationReport:
    """Learn from one (situation, utterance) pair.

    Every mentioned lemma ends up with a concept node. A plural-noun
    complement ("dogs are animals", "wugs are animals") goes to
    _membership_generic. Every other shape links the subject to its color
    (modifier or color complement), then the verb's subject and object to
    its argument slots: with the plateauing update when the utterance is
    plain, pinned at 1.0 and marked generic when it is generic.
    """
    situation, utterance = instance
    parsed = parse(utterance, lexicon)
    noun_phrases, verb, complement, complement_is_color, generic = parsed
    report = ObservationReport(utterance, generic, parsed, situation)
    if complement is not None and not complement_is_color:
        _membership_generic(net, report, noun_phrases[0].lemma, complement)
        return report

    # Straight-line code over noun phrase 0 (the subject) and 1 (a verb's object,
    # which the parser gives no colour): before CPython 3.12 (PEP 709) a
    # comprehension here is a function object built per call, with net and
    # report in closure cells. The parse and its subject are unpacked once:
    # on 3.11 each named-tuple field read is a descriptor call.
    subject_lemma, _, subject_modifier, _ = noun_phrases[0]
    subject = _ensure(net, report, subject_lemma, OBJECT)
    obj = (_ensure(net, report, noun_phrases[1].lemma, OBJECT)
           if len(noun_phrases) > 1 else None)
    modifier = (None if subject_modifier is None
                else _ensure(net, report, subject_modifier, ATTRIBUTE))
    color = None if complement is None else _ensure(net, report, complement, ATTRIBUTE)
    action = None if verb is None else _ensure(net, report, verb, ACTION)
    weight = 1.0 if generic else None
    if modifier is not None:
        _link(net, report, subject, modifier, IS, weight, generic)
    if color is not None:
        _link(net, report, subject, color, IS, weight, generic)
    if action is not None:
        _link(net, report, subject, action, SLOT1, weight, generic)
        if obj is not None:
            _link(net, report, obj, action, SLOT2, weight, generic)
    return report


def _membership_generic(net: ConceptNetwork, report: ObservationReport,
                        subject_lemma: str, complement_lemma: str) -> None:
    """Pin "subjects are categories" at 1.0; raise before any write if unlearnable.

    An unknown complement becomes a category. An unknown subject of a known
    category becomes an object that also inherits the member-average
    features. Both sides unknown, or a side whose name another kind already
    holds, is UnlearnableGeneric.
    """
    subject = net.get(subject_lemma, OBJECT)
    category = net.get(complement_lemma, CATEGORY)
    if category is None and net.named(complement_lemma):
        raise UnlearnableGeneric(f"'{complement_lemma}' already names a non-category concept")
    if subject is None and net.named(subject_lemma):
        raise UnlearnableGeneric(f"'{subject_lemma}' already names a non-object concept")
    if subject is None and category is None:
        raise UnlearnableGeneric(
            f"cannot learn '{subject_lemma} are {complement_lemma}': both concepts are unknown")

    # a novel subject inherits the average over the members before it joins them
    averages = net.member_average(category) if subject is None else ()
    subject = subject or _ensure(net, report, subject_lemma, OBJECT)
    category = category or _ensure(net, report, complement_lemma, CATEGORY)
    _link(net, report, subject, category, IS, 1.0, generic=True)
    for target, label, mean in averages:
        # the subject's only edge is its membership, which stays generic
        if mean > 0.0 and target != category:
            _link(net, report, subject, target, label, mean)


def learn_curriculum(net: ConceptNetwork, curriculum, lexicon: Lexicon | None = None,
                     on_report=None) -> None:
    """Feed every instance of a curriculum through observe(), in order.

    on_report(i, report) is called after instance i is learned. A
    ParseError or UnlearnableGeneric from instance i propagates with its
    message prefixed by `instance i:` and the quoted utterance; observe
    raises those before it writes, so the network then holds exactly
    instances 0..i-1.
    """
    lex = lexicon or default_lexicon()
    for i, instance in enumerate(curriculum.instances):
        try:
            report = observe(net, instance, lex)
        except (ParseError, UnlearnableGeneric) as err:
            err.args = (f"instance {i}: {instance.utterance!r}: {err.args[0]}",)
            raise
        if on_report is not None:
            on_report(i, report)
