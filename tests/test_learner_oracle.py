"""learner.observe against the original observe / process_generic split.

Networks must be identical files after every instance, and reports equal
field by field; a failing instance must raise the same error type and
message. The walk changed the journal in two stated ways, asserted here
directly: a report's utterance is the instance's text as written, and a
transitive verb generic lists the nodes it creates in the plain path's
order (noun phrases, then the action). A fix both share is asserted here
too: a plain write on a generic edge journals the edge as generic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import learner_oracle
from wugnet.curriculum import (
    BUILTIN_PHASES,
    DEFAULT_COLOR_GENERICS,
    builtin_curriculum,
    builtin_spec,
    generate,
)
from wugnet.graph import ATTRIBUTE, IS, OBJECT, ConceptNetwork, network_to_text
from wugnet.lang import default_lexicon, parse
from wugnet.learner import ActionFrame, Entity, LearningInstance, Situation, observe
from wugnet.tasks import NOVEL_OBJECTS, TASK2_CURRICULA, TASK3_CONDITIONS, membership_instance


def _outcome(observe_fn, net, instance):
    try:
        return observe_fn(net, instance)
    except ValueError as err:  # ParseError, UnlearnableGeneric, EdgeRuleError
        return (type(err), str(err))


def _plain_order(created, instance):
    """The oracle's created list in the order the one walk creates nodes."""
    parsed = parse(instance.utterance)
    if not (parsed.is_generic and parsed.verb is not None and len(parsed.noun_phrases) > 1):
        return created
    order = [f"object/{np.lemma}" for np in parsed.noun_phrases] + [f"action/{parsed.verb}"]
    return sorted(created, key=order.index)


def _learn_both(net, oracle, instances):
    for instance in instances:
        new = _outcome(observe, net, instance)
        old = _outcome(learner_oracle.observe, oracle, instance)
        if isinstance(old, tuple):
            assert new == old, instance.utterance
        else:
            assert new.utterance == instance.utterance
            assert (new.is_generic, new.created, new.edges, new.mismatches) == (
                old.is_generic, _plain_order(old.created, instance), old.edges,
                old.mismatches), instance.utterance
        assert network_to_text(net) == network_to_text(oracle), instance.utterance


def _learn_curriculum_both(curriculum):
    net, oracle = ConceptNetwork(), ConceptNetwork()
    _learn_both(net, oracle, curriculum.instances)
    return net, oracle


@pytest.mark.parametrize("name", sorted(BUILTIN_PHASES))
@pytest.mark.parametrize("seed", (0, 7))
def test_builtin_curricula_learn_as_before(name, seed):
    _learn_curriculum_both(builtin_curriculum(name, seed=seed))


@pytest.mark.parametrize("seed", (0, 7))
def test_task_generics_learn_as_before(seed):
    lex = default_lexicon()
    net, oracle = _learn_curriculum_both(builtin_curriculum("objects-and-colors", seed=seed))
    _learn_both(net, oracle, [
        LearningInstance(Situation((Entity("e0", obj, color),)),
                         f"{lex.plural_surface(obj)} are {color.replace('-', ' ')}")
        for obj, color in DEFAULT_COLOR_GENERICS])
    for name in TASK2_CURRICULA:
        net, oracle = _learn_curriculum_both(builtin_curriculum(name, seed=seed))
        _learn_both(net, oracle, [membership_instance(n, c) for n, c in NOVEL_OBJECTS])
    for _, excluded in TASK3_CONDITIONS:
        spec = builtin_spec("objects-and-kinds", seed=seed, exclude_objects=excluded)
        net, oracle = _learn_curriculum_both(generate(spec))
        _learn_both(net, oracle, [membership_instance("wug", "animal")])


def test_transitive_verb_generic_creates_nodes_in_plain_order():
    scene = Situation((Entity("e0", "bear"), Entity("e1", "cookie")),
                      (ActionFrame("eat", "e0", "e1"),))
    report = observe(ConceptNetwork(), LearningInstance(scene, "Bears eat cookies"))
    oracle = learner_oracle.observe(ConceptNetwork(), LearningInstance(scene, "Bears eat cookies"))
    assert oracle.created == ["object/bear", "action/eat", "object/cookie"]
    assert report.created == ["object/bear", "object/cookie", "action/eat"]
    assert oracle.utterance == "bears eat cookies"
    assert report.utterance == "Bears eat cookies"


def test_a_plain_write_on_a_generic_edge_journals_generic():
    instances = [LearningInstance(Situation(), text)
                 for text in ("a red dog", "dogs are red", "a red dog")]
    _learn_both(ConceptNetwork(), ConceptNetwork(), instances)
    net = ConceptNetwork()
    last = [observe(net, instance) for instance in instances][-1]
    assert [(w.old, w.new, w.generic) for w in last.edges] == [(1.0, 1.0, True)]


# Known count nouns, categories, a proper noun and novel nouns. The primer
# gives the animal and food categories members with features, so novel
# members inherit; "chicken" ends up in both categories.
NOUNS = ("dog", "cat", "cookie", "bear", "chicken", "animal", "food", "people", "mom",
         "wug", "dax", "blick")
CATEGORIES = ("animal", "food", "people")
MASS = ("juice", "milk")
VERBS = {"sit": "sits", "eat": "eats", "roll": "rolls", "fly": "flies", "take": "takes"}
COLORS = ("red", "green", "light-brown")
PRIMER = ("a red dog sits", "a green cookie rolls", "dogs are animals", "cookies are foods",
          "chickens are animals", "chickens are foods")


def _plural(lemma):
    return default_lexicon().plural_surface(lemma)


def _object_text(draw, bare_subject):
    kind = draw(st.sampled_from(("mass", "plural", "det") if not bare_subject
                                else ("mass", "plural")))
    if kind == "mass":
        return draw(st.sampled_from(MASS))
    if kind == "plural":
        return _plural(draw(st.sampled_from(NOUNS)))
    return f"{draw(st.sampled_from(('a', 'the')))} {draw(st.sampled_from(NOUNS[:5]))}"


@st.composite
def utterances(draw):
    shape = draw(st.sampled_from(("det", "proper", "number", "bare", "verb", "verb", "color",
                                  "member")))
    verb = draw(st.sampled_from(sorted(VERBS)))
    if shape in ("det", "proper"):
        if shape == "det":
            color = draw(st.one_of(st.none(), st.sampled_from(COLORS)))
            noun = draw(st.sampled_from(NOUNS[:5]))
            subject = " ".join(w for w in ("a", color and color.replace("-", " "), noun) if w)
        else:
            subject = "Dad"
        if shape == "det" and not draw(st.booleans()):
            return subject
        text = f"{subject} {VERBS[verb]}"
        return f"{text} {_object_text(draw, False)}" if draw(st.booleans()) else text
    subject = _plural(draw(st.sampled_from(NOUNS)))
    if draw(st.booleans()):
        subject = subject.capitalize()
    if shape == "number":
        return f"{draw(st.sampled_from(('two', 'many')))} {subject.lower()}"
    if shape == "bare":
        return subject
    if shape == "verb":
        return f"{subject} {verb} {_object_text(draw, True)}" if draw(st.booleans()) \
            else f"{subject} {verb}"
    if shape == "color":
        return f"{subject} are {draw(st.sampled_from(COLORS)).replace('-', ' ')}"
    return f"{subject} are {_plural(draw(st.sampled_from(CATEGORIES * 2 + NOUNS)))}"


@st.composite
def instances(draw):
    lemmas = draw(st.lists(st.sampled_from(NOUNS + MASS), max_size=3))
    entities = tuple(Entity(f"e{i}", lemma, draw(st.one_of(st.none(), st.sampled_from(COLORS))))
                     for i, lemma in enumerate(lemmas))
    actions = ()
    if entities and draw(st.booleans()):
        agent, patient = draw(st.sampled_from(entities)), draw(st.sampled_from(entities))
        actions = (ActionFrame(draw(st.sampled_from(sorted(VERBS))), agent.id,
                               patient.id if draw(st.booleans()) else None),)
    return LearningInstance(Situation(entities, actions), draw(utterances()))


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.lists(instances(), max_size=25))
def test_generated_instances_learn_as_before(primed, batch):
    net, oracle = ConceptNetwork(), ConceptNetwork()
    if primed:
        _learn_both(net, oracle, [LearningInstance(Situation(), text) for text in PRIMER])
        # a zero-weight feature, as a loaded network may hold, is not inherited
        for n in (net, oracle):
            n.write(n.require("dog", OBJECT), n.add_concept("blue", ATTRIBUTE), IS, 0.0, False)
        _learn_both(net, oracle, [LearningInstance(Situation(), "vonks are animals")])
    _learn_both(net, oracle, batch)
