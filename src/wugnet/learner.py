"""Routes (situation, utterance) pairs into concept-network updates.

Non-generic utterances strengthen associations with the plateauing update;
generic utterances (bare plurals throughout) maximize them, creating
category nodes and novel objects as needed. A novel object introduced as a
member of a known category also inherits the member-average features of
that category.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
from .lang import Lexicon, ParsedUtterance, ParseError, default_lexicon, parse, tokenize


class UnlearnableGeneric(ValueError):
    """A membership generic whose subject and complement are both unknown."""


@dataclass(frozen=True)
class Entity:
    id: str
    lemma: str
    color: str | None = None


@dataclass(frozen=True)
class ActionFrame:
    verb: str
    agent: str
    patient: str | None = None


@dataclass(frozen=True)
class Situation:
    entities: tuple[Entity, ...] = ()
    actions: tuple[ActionFrame, ...] = ()

    def __post_init__(self):
        ids = [e.id for e in self.entities]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate entity ids in situation")
        known = set(ids)
        for a in self.actions:
            if a.agent not in known or (a.patient is not None and a.patient not in known):
                raise ValueError(f"action '{a.verb}' references an undeclared entity")


@dataclass(frozen=True)
class LearningInstance:
    situation: Situation
    utterance: str


@dataclass
class EdgeWrite:
    source: str  # concept keys (kind/name)
    label: str
    target: str
    old: float
    new: float
    generic: bool = False


@dataclass
class ObservationReport:
    utterance: str
    is_generic: bool
    created: list[str] = field(default_factory=list)
    edges: list[EdgeWrite] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)

    def to_json_line(self, index: int) -> str:
        return json.dumps({
            "instance": index,
            "utterance": self.utterance,
            "generic": self.is_generic,
            "created": self.created,
            "edges": [[w.source, w.label, w.target, w.old, w.new, w.generic]
                      for w in self.edges],
            "mismatches": self.mismatches,
        }, ensure_ascii=False)


def _ensure(net: ConceptNetwork, report: ObservationReport, name: str, kind: str) -> Concept:
    node = net.get(name, kind)
    if node is None:
        node = net.add_concept(name, kind)
        report.created.append(node.key)
    return node


def _observe_edge(net: ConceptNetwork, report: ObservationReport,
                  src: Concept, dst: Concept, label: str) -> None:
    old = net.get_strength(src, dst, label)
    new = net.observe_association(src, dst, label)
    report.edges.append(EdgeWrite(src.key, label, dst.key, old, new))


def _assert_edge(net: ConceptNetwork, report: ObservationReport,
                 src: Concept, dst: Concept, label: str) -> None:
    old = net.get_strength(src, dst, label)
    new = net.assert_generic(src, dst, label)
    report.edges.append(EdgeWrite(src.key, label, dst.key, old, new, generic=True))


def _scene_mismatches(parsed: ParsedUtterance, situation: Situation) -> list[str]:
    """Lemmas the utterance names that the scene does not support.

    Category complements are exempt: they describe kinds, not scene
    content. Mismatches are reported, never fatal; the utterance stays
    authoritative for learning.
    """
    out: list[str] = []
    lemmas = {e.lemma for e in situation.entities}
    complement_idx = (parsed.predicate.complement_index
                      if parsed.predicate is not None else None)
    for i, np in enumerate(parsed.noun_phrases):
        if i == complement_idx:
            continue
        if np.lemma not in lemmas:
            out.append(f"no entity '{np.lemma}' in scene")
        elif np.modifier is not None and not any(
                e.lemma == np.lemma and e.color == np.modifier for e in situation.entities):
            out.append(f"no {np.modifier} '{np.lemma}' in scene")
    if parsed.predicate is not None and parsed.predicate.complement_is_color:
        subject = parsed.noun_phrases[parsed.predicate.subject].lemma
        color = parsed.predicate.complement
        if not any(e.lemma == subject and e.color == color for e in situation.entities):
            out.append(f"no {color} '{subject}' in scene")
    if parsed.verb is not None and not any(
            a.verb == parsed.verb.lemma for a in situation.actions):
        out.append(f"no '{parsed.verb.lemma}' action in scene")
    return out


def observe(net: ConceptNetwork, instance: LearningInstance,
            lexicon: Lexicon | None = None) -> ObservationReport:
    """Learn from one (situation, utterance) pair.

    Every mentioned lemma ends up with a concept node. Non-generic
    utterances apply the plateauing update to color bindings and verb
    argument slots; generic utterances are delegated to process_generic.
    """
    lex = lexicon or default_lexicon()
    parsed = parse(tokenize(instance.utterance, lex), lex)
    if parsed.is_generic:
        return process_generic(net, parsed, instance.situation)

    report = ObservationReport(instance.utterance, is_generic=False)
    report.mismatches = _scene_mismatches(parsed, instance.situation)
    nodes = [_ensure(net, report, np.lemma, OBJECT) for np in parsed.noun_phrases]
    for np, node in zip(parsed.noun_phrases, nodes):
        if np.modifier is not None:
            color = _ensure(net, report, np.modifier, ATTRIBUTE)
            _observe_edge(net, report, node, color, IS)
    if parsed.verb is not None:
        action = _ensure(net, report, parsed.verb.lemma, ACTION)
        _observe_edge(net, report, nodes[parsed.verb.subject], action, SLOT1)
        if parsed.verb.object is not None:
            _observe_edge(net, report, nodes[parsed.verb.object], action, SLOT2)
    return report


def process_generic(net: ConceptNetwork, parsed: ParsedUtterance,
                    situation: Situation) -> ObservationReport:
    """Apply a generic statement to the network.

    Three statement shapes are handled: verb generics ("bears sit"),
    color predicates ("watermelons are green"), and membership predicates
    ("dogs are animals" / "wugs are animals"). Membership with an unknown
    complement creates a category; membership with an unknown subject and
    a known category creates the object and inherits the member-average
    feature vector. Both sides unknown is unlearnable.
    """
    if not parsed.is_generic:
        raise ValueError("process_generic expects a generic utterance")
    report = ObservationReport(" ".join(parsed.tokens), is_generic=True)
    report.mismatches = _scene_mismatches(parsed, situation)

    if parsed.verb is not None:
        subject = _ensure(net, report, parsed.noun_phrases[parsed.verb.subject].lemma, OBJECT)
        action = _ensure(net, report, parsed.verb.lemma, ACTION)
        _assert_edge(net, report, subject, action, SLOT1)
        if parsed.verb.object is not None:
            obj = _ensure(net, report, parsed.noun_phrases[parsed.verb.object].lemma, OBJECT)
            _assert_edge(net, report, obj, action, SLOT2)
        return report

    if parsed.predicate is not None and parsed.predicate.complement_is_color:
        subject = _ensure(net, report, parsed.noun_phrases[parsed.predicate.subject].lemma, OBJECT)
        color = _ensure(net, report, parsed.predicate.complement, ATTRIBUTE)
        _assert_edge(net, report, subject, color, IS)
        return report

    if parsed.predicate is not None:
        _membership_generic(net, report, parsed)
        return report

    # bare plural with no predicate or verb: the mention alone creates the node
    for np in parsed.noun_phrases:
        _ensure(net, report, np.lemma, OBJECT)
    return report


def _membership_generic(net: ConceptNetwork, report: ObservationReport,
                        parsed: ParsedUtterance) -> None:
    subject_lemma = parsed.noun_phrases[parsed.predicate.subject].lemma
    complement_lemma = parsed.predicate.complement

    subject = net.get(subject_lemma, OBJECT)
    category = net.get(complement_lemma, CATEGORY)

    if category is None:
        clash = net.named(complement_lemma)
        if clash:
            raise UnlearnableGeneric(
                f"'{complement_lemma}' already names a non-category concept")
        if subject is None:
            if net.named(subject_lemma):
                raise UnlearnableGeneric(
                    f"'{subject_lemma}' already names a non-object concept")
            raise UnlearnableGeneric(
                f"cannot learn '{subject_lemma} are {complement_lemma}': "
                "both concepts are unknown")
        category = _ensure(net, report, complement_lemma, CATEGORY)
        _assert_edge(net, report, subject, category, IS)
        return

    if subject is not None:
        # both known: plain maximization of the membership edge
        _assert_edge(net, report, subject, category, IS)
        return

    if net.named(subject_lemma):
        raise UnlearnableGeneric(f"'{subject_lemma}' already names a non-object concept")

    # novel object into a known category: membership plus feature inheritance,
    # averaged over the members before the subject joins them
    averages = net.member_average(category)
    subject = _ensure(net, report, subject_lemma, OBJECT)
    _assert_edge(net, report, subject, category, IS)
    for target, label, mean in averages:
        if mean <= 0.0 or target == subject:
            continue
        existing = net.edge(subject, target, label)
        if existing is not None and existing.generic_origin:
            continue  # the membership edge itself stays generic
        net.set_strength(subject, target, label, mean)
        report.edges.append(EdgeWrite(subject.key, label, target.key, 0.0, mean))


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
