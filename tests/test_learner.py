import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wugnet.curriculum import Curriculum, builtin_curriculum
from wugnet.graph import ATTRIBUTE, CATEGORY, IS, OBJECT, SLOT1, SLOT2, ConceptNetwork
from wugnet.lang import ParseError
from wugnet.learner import (
    ActionFrame,
    Entity,
    LearningInstance,
    Situation,
    UnlearnableGeneric,
    learn_curriculum,
    observe,
)
from wugnet.tasks import NOVEL_OBJECTS, TASK2_CURRICULA, membership_instance


def scene(*entities, actions=()):
    return Situation(tuple(entities), tuple(actions))


def inst(utterance, *entities, actions=()):
    return LearningInstance(scene(*entities, actions=actions), utterance)


def test_situation_validates_ids_and_participants():
    with pytest.raises(ValueError):
        Situation((Entity("e0", "dog"), Entity("e0", "cat")))
    with pytest.raises(ValueError):
        Situation((Entity("e0", "dog"),), (ActionFrame("sit", "e9"),))


def _reference_situation_error(entities, actions):
    """The scene rule as the frozen dataclass's __post_init__ wrote it."""
    ids = [e.id for e in entities]
    if len(ids) != len(set(ids)):
        return "duplicate entity ids in situation"
    known = set(ids)
    for a in actions:
        if a.agent not in known or (a.patient is not None and a.patient not in known):
            return f"action '{a.verb}' references an undeclared entity"
    return None


@st.composite
def scenes(draw):
    ids = draw(st.lists(st.sampled_from(["e0", "e1", "e2", "e3"]), max_size=5))
    roles = st.sampled_from(ids + ["e7", "e8"])
    entities = tuple(Entity(i, draw(st.sampled_from(["dog", "cup"]))) for i in ids)
    actions = tuple(ActionFrame(draw(st.sampled_from(["sit", "take"])), draw(roles),
                                draw(st.none() | roles))
                    for _ in range(draw(st.integers(0, 3))))
    return entities, actions


@settings(max_examples=500, deadline=None)
@given(scenes())
def test_situation_raises_exactly_when_the_dataclass_rule_did(scene_parts):
    entities, actions = scene_parts
    expected = _reference_situation_error(entities, actions)
    if expected is None:
        situation = Situation(entities, actions)
        assert situation.entities is entities and situation.actions is actions
    else:
        with pytest.raises(ValueError) as info:
            Situation(entities, actions)
        assert str(info.value) == expected


def _built(build, *args, **kwargs):
    try:
        situation = build(*args, **kwargs)
    except ValueError as err:
        return str(err)
    return type(situation), situation


@settings(max_examples=300, deadline=None)
@given(scenes())
@example(((Entity("e0", "dog"), Entity("e0", "cat")), ()))
def test_make_and_replace_raise_exactly_when_the_constructor_does(scene_parts):
    entities, actions = scene_parts
    expected = _built(Situation, entities, actions)
    assert _built(Situation._make, scene_parts) == expected
    assert _built(Situation._make, iter(scene_parts)) == expected
    assert _built(Situation()._replace, entities=entities, actions=actions) == expected
    assert _built(Situation(entities[:1])._replace, entities=entities,
                  actions=actions) == expected
    if expected[0] is Situation:
        assert _built(expected[1]._replace, actions=()) == _built(Situation, entities)


def test_color_observation_updates_is_edge():
    net = ConceptNetwork()
    report = observe(net, inst("a blue cookie", Entity("e0", "cookie", "blue")))
    assert not report.is_generic
    assert report.mismatches == []
    cookie = net.require("cookie", OBJECT)
    blue = net.require("blue", ATTRIBUTE)
    assert net.get_strength(cookie, blue, IS) == pytest.approx(0.2)


def test_verb_frame_updates_both_slots():
    net = ConceptNetwork()
    observe(net, inst("Mom drinks juice",
                      Entity("e0", "mom"), Entity("e1", "juice"),
                      actions=(ActionFrame("drink", "e0", "e1"),)))
    drink = net.require("drink", "action")
    mom = net.require("mom", OBJECT)
    juice = net.require("juice", OBJECT)
    assert net.get_strength(mom, drink, SLOT1) == pytest.approx(0.2)
    assert net.get_strength(juice, drink, SLOT2) == pytest.approx(0.2)


def test_number_phrases_create_nodes_without_edges():
    net = ConceptNetwork()
    report = observe(net, inst("two balls", Entity("e0", "ball"), Entity("e1", "ball")))
    assert net.get("ball", OBJECT) is not None
    assert report.edges == []
    assert len(net.edges()) == 0


def test_generic_color_predicate_maximizes():
    net = ConceptNetwork()
    observe(net, inst("watermelons are green", Entity("e0", "watermelon", "green")))
    w = net.require("watermelon", OBJECT)
    g = net.require("green", ATTRIBUTE)
    assert net.get_strength(w, g, IS) == 1.0
    assert net.edge(w, g, IS).generic_origin


def test_membership_generic_creates_category():
    net = ConceptNetwork()
    observe(net, inst("a dog", Entity("e0", "dog")))
    report = observe(net, inst("dogs are animals", Entity("e0", "dog")))
    assert report.is_generic
    animal = net.require("animal", CATEGORY)
    assert [m.name for m in net.members_of(animal)] == ["dog"]


def test_verb_generic_covers_subject_and_object():
    net = ConceptNetwork()
    observe(net, inst("bears eat cookies",
                      Entity("e0", "bear"), Entity("e1", "cookie"),
                      actions=(ActionFrame("eat", "e0", "e1"),)))
    eat = net.require("eat", "action")
    assert net.get_strength(net.require("bear", OBJECT), eat, SLOT1) == 1.0
    assert net.get_strength(net.require("cookie", OBJECT), eat, SLOT2) == 1.0


def _teach_animals(net):
    for name in ("dog", "cat", "chicken"):
        observe(net, inst(f"a {name}", Entity("e0", name)))
    observe(net, inst("a cookie", Entity("e0", "cookie")))
    for text in ("dogs are animals", "cats are animals", "chickens are animals"):
        observe(net, inst(text, Entity("e0", text.split()[0][:-1])))
    observe(net, inst("chickens are foods", Entity("e0", "chicken")))
    observe(net, inst("cookies are foods", Entity("e0", "cookie")))


def test_novel_member_inherits_member_average():
    net = ConceptNetwork()
    _teach_animals(net)
    observe(net, inst("wugs are animals", Entity("e0", "wug")))
    wug = net.require("wug", OBJECT)
    animal = net.require("animal", CATEGORY)
    food = net.require("food", CATEGORY)
    assert net.get_strength(wug, animal, IS) == 1.0
    assert net.edge(wug, animal, IS).generic_origin
    # one of three animal members is also a food; the inherited edge is revisable
    assert net.get_strength(wug, food, IS) == pytest.approx(1.0 / 3.0)
    assert not net.edge(wug, food, IS).generic_origin


def test_inheritance_snapshot_is_not_retroactive():
    net = ConceptNetwork()
    _teach_animals(net)
    observe(net, inst("wugs are animals", Entity("e0", "wug")))
    wug = net.require("wug", OBJECT)
    food = net.require("food", CATEGORY)
    before = net.get_strength(wug, food, IS)
    # a later member with different features must not rewrite wug's edges
    observe(net, inst("a cow", Entity("e0", "cow")))
    observe(net, inst("cows are animals", Entity("e0", "cow")))
    assert net.get_strength(wug, food, IS) == before


def test_generic_assertions_commute():
    texts = ("dogs are animals", "cats are animals", "bears sit")
    nets = []
    for order in itertools.permutations(texts):
        net = ConceptNetwork()
        for name in ("dog", "cat", "bear"):
            observe(net, inst(f"a {name}", Entity("e0", name)))
        for text in order:
            observe(net, inst(text, Entity("e0", text.split()[0][:-1])))
        nets.append(net)
    assert all(net == nets[0] for net in nets)


def test_membership_with_both_sides_unknown_is_rejected():
    net = ConceptNetwork()
    with pytest.raises(UnlearnableGeneric):
        observe(net, inst("wugs are zorbs", Entity("e0", "wug")))
    assert net.get("wug", OBJECT) is None  # nothing half-created


@pytest.mark.parametrize("bad,error,message", [
    ("wugs are zorbs", UnlearnableGeneric,
     "cannot learn 'wug are zorb': both concepts are unknown"),
    ("a bear glorps", ParseError, "expected a verb (token 'glorps' at position 2)"),
])
def test_learn_curriculum_names_the_failing_instance(bad, error, message):
    before = (inst("a black dog", Entity("e0", "dog", "black")),
              inst("dogs are animals", Entity("e0", "dog")))
    after = (inst("bears sit", Entity("e0", "bear"), actions=(ActionFrame("sit", "e0"),)),)
    net = ConceptNetwork()
    with pytest.raises(error) as err:
        learn_curriculum(net, Curriculum("c", before + (inst(bad),) + after))
    assert str(err.value) == f"instance 2: {bad!r}: {message}"
    expected = ConceptNetwork()
    learn_curriculum(expected, Curriculum("c", before))
    assert net == expected


def test_known_subject_and_known_category_is_a_plain_assertion():
    net = ConceptNetwork()
    _teach_animals(net)
    report = observe(net, inst("dogs are animals", Entity("e0", "dog")))
    assert [w for w in report.edges] and report.edges[0].generic
    assert len([w for w in report.edges]) == 1  # no inheritance pass


def test_mismatch_is_reported_but_learning_proceeds():
    net = ConceptNetwork()
    report = observe(net, inst("a blue cookie", Entity("e0", "dog")))
    assert report.mismatches  # the scene has no cookie at all
    cookie = net.require("cookie", OBJECT)
    blue = net.require("blue", ATTRIBUTE)
    assert net.get_strength(cookie, blue, IS) == pytest.approx(0.2)


def test_every_mentioned_lemma_has_a_node():
    net = ConceptNetwork()
    observe(net, inst("a baby drinks milk",
                      Entity("e0", "baby"), Entity("e1", "milk"),
                      actions=(ActionFrame("drink", "e0", "e1"),)))
    for name, kind in (("baby", OBJECT), ("milk", OBJECT), ("drink", "action")):
        assert net.get(name, kind) is not None


def test_all_curriculum_mentions_become_nodes():
    from wugnet.curriculum import builtin_curriculum
    from wugnet.lang import parse
    from wugnet.learner import learn_curriculum

    net = ConceptNetwork()
    curriculum = builtin_curriculum("obj-actions-kinds-generics", seed=1)
    learn_curriculum(net, curriculum)
    for instance in curriculum.instances:
        parsed = parse(instance.utterance)
        for np in parsed.noun_phrases:
            assert net.named(np.lemma), np.lemma
            if np.modifier:
                assert net.get(np.modifier, ATTRIBUTE) is not None
        if parsed.verb is not None:
            assert net.get(parsed.verb, "action") is not None
        if parsed.complement_is_color:
            assert net.get(parsed.complement, ATTRIBUTE) is not None


def test_report_serializes_to_a_json_line():
    net = ConceptNetwork()
    report = observe(net, inst("a blue cookie", Entity("e0", "cookie", "blue")))
    record = json.loads(report.to_json_line(7))
    assert record["instance"] == 7
    assert record["generic"] is False
    assert record["edges"][0][:3] == ["object/cookie", "is", "attribute/blue"]
    assert record["edges"][0][3:5] == [0.0, 0.2]
    # a generic's journal line keeps the instance's text as written
    report = observe(net, inst("Cookies are light brown", Entity("e0", "cookie", "light-brown")))
    record = json.loads(report.to_json_line(8))
    assert record["utterance"] == "Cookies are light brown"
    assert record["generic"] is True
    assert record["edges"] == [["object/cookie", "is", "attribute/light-brown", 0.0, 1.0, True]]


@pytest.mark.parametrize("name", TASK2_CURRICULA)
def test_a_report_read_late_equals_one_read_at_once(name):
    # a report's lists are built on first read; by then later instances have
    # rewritten many of its edges, so a view of the live network would differ
    novel = [membership_instance(n, c) for n, c in NOVEL_OBJECTS]

    def learn(on_report):
        net = ConceptNetwork()
        learn_curriculum(net, builtin_curriculum(name, seed=0), on_report=on_report)
        for instance in novel:
            on_report(None, observe(net, instance))

    at_once, kept = [], []
    learn(lambda i, report: at_once.append(report.to_json_line(0)))
    learn(lambda i, report: kept.append(report))
    assert [report.to_json_line(0) for report in kept] == at_once
