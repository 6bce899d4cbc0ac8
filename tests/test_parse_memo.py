"""The per-lexicon parse memo, keyed by the utterance text as written.

Learning through a warm lexicon (every utterance already memoized) must give
the same networks and reports as a fresh lexicon per instance; shared parse
results, like lexicon entries and scenes, are immutable; failures are never
memoized; a curriculum file is walked once per distinct utterance, when it is
loaded. Spellings of the same tokens
are memoized apart and learn the same.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_learner_oracle import PRIMER, instances
from wugnet import lang
from wugnet.curriculum import (
    BUILTIN_PHASES,
    builtin_curriculum,
    curriculum_from_text,
    curriculum_to_text,
)
from wugnet.graph import ConceptNetwork, network_to_text
from wugnet.lang import DEFAULT_LEXICON_TEXT, Lexicon, ParseError, parse
from wugnet.learner import (
    ActionFrame,
    Entity,
    LearningInstance,
    Situation,
    learn_curriculum,
    observe,
)

# one lexicon shared by every test here, so its memo only grows
WARM = Lexicon.from_text(DEFAULT_LEXICON_TEXT)


def _fresh():
    return Lexicon.from_text(DEFAULT_LEXICON_TEXT)


def _outcome(net, instance, lex):
    """observe's journal line for the instance, or the error it raised."""
    try:
        return observe(net, instance, lex).to_json_line(0)
    except ValueError as err:  # ParseError, UnlearnableGeneric, EdgeRuleError
        return (type(err), str(err))


def _warm_up(utterances):
    for text in utterances:
        try:
            parse(text, WARM)
        except ParseError:
            pass


def _learn_warm_and_fresh(instances_):
    _warm_up(i.utterance for i in instances_)
    memo_size = len(WARM._parses)
    warm, fresh = ConceptNetwork(), ConceptNetwork()
    for instance in instances_:
        assert _outcome(warm, instance, WARM) == _outcome(fresh, instance, _fresh()), \
            instance.utterance
        assert network_to_text(warm) == network_to_text(fresh), instance.utterance
    # every warm observe was a memo hit
    assert len(WARM._parses) == memo_size


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(BUILTIN_PHASES))
def test_builtin_curricula_learn_the_same_through_a_warm_lexicon(name, seed):
    _learn_warm_and_fresh(builtin_curriculum(name, seed=seed).instances)


@settings(max_examples=100, deadline=None)
@given(st.lists(instances(), max_size=20))
def test_generated_instances_learn_the_same_through_a_warm_lexicon(batch):
    primer = [LearningInstance(Situation(), text) for text in PRIMER]
    _learn_warm_and_fresh(primer + batch)


def test_a_second_parse_returns_the_same_object():
    lex = _fresh()
    first = parse("a red dog eats the cookie", lex)
    assert parse("a red dog eats the cookie", lex) is first
    assert list(lex._parses) == ["a red dog eats the cookie"]
    # another spelling of the same tokens is its own entry, with an equal parse
    other = parse("A red  dog eats the cookie.", lex)
    assert other == first and other is not first
    assert list(lex._parses) == ["a red dog eats the cookie", "A red  dog eats the cookie."]


@pytest.mark.parametrize("text", [
    "a2 dog", "bears.sit", "the dogs", "dogs are", "dogs sit a", "", "Mom", "two"])
def test_a_failure_is_raised_again_and_not_memoized(text):
    lex = _fresh()
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            parse(text, lex)
        errors.append((str(info.value), info.value.token, info.value.position))
    assert errors[0] == errors[1]
    assert not lex._parses


def test_scene_lexicon_and_parse_values_are_immutable():
    p = parse("dogs are animals", _fresh())
    q = parse("dad takes the cup", _fresh())
    assert isinstance(p.noun_phrases, tuple)
    entity = Entity("e0", "dad")
    frame = ActionFrame("take", "e0", "e1")
    situation = Situation((entity, Entity("e1", "cup")), (frame,))
    values = (p, q, p.noun_phrases[0], q.noun_phrases[1], _fresh().get("dogs"),
              entity, frame, situation, LearningInstance(situation, "dad takes the cup"))
    assert sorted({type(v).__name__ for v in values}) == [
        "ActionFrame", "Entity", "LearningInstance", "LexEntry", "NounPhrase",
        "ParsedUtterance", "Situation"]
    for value in values:
        for field in type(value)._fields:
            old = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            assert getattr(value, field) is old
        # no instance dict takes a new attribute either
        with pytest.raises(AttributeError):
            value.extra = None


@pytest.mark.parametrize("default_first", [True, False])
def test_novelty_is_read_per_lexicon_whichever_parses_first(default_first):
    default, with_wug = _fresh(), Lexicon.from_text(DEFAULT_LEXICON_TEXT
                                                    + "word wug noun lemma=wug\n")
    order = [default, with_wug] if default_first else [with_wug, default]
    novel = {id(lex): parse("wugs are animals", lex).noun_phrases[0].novel for lex in order}
    assert novel == {id(default): True, id(with_wug): False}


def test_a_loaded_curriculum_is_not_walked_again_when_learned(monkeypatch):
    lex = _fresh()
    text = curriculum_to_text(builtin_curriculum("obj-actions-kinds-generics"))
    reads, walks = [], []
    read, walk = lang.tokenize, lang._parse
    monkeypatch.setattr(lang, "tokenize", lambda text, lx: reads.append(text) or read(text, lx))
    monkeypatch.setattr(lang, "_parse",
                        lambda tokens, lx: walks.append(tokens) or walk(tokens, lx))
    curriculum = curriculum_from_text(text, lexicon=lex)
    distinct = {i.utterance for i in curriculum.instances}
    # each distinct text is tokenized and walked once: only a memo miss tokenizes
    assert len(walks) == len(distinct) < len(curriculum.instances)
    assert sorted(reads) == sorted(distinct) == sorted(lex._parses)
    reads.clear()
    walks.clear()
    learn_curriculum(ConceptNetwork(), curriculum, lexicon=lex)
    assert reads == walks == []


def _respelled(text, i):
    """The same tokens spelled otherwise: capitalized, spaces doubled, `.` or `!` added."""
    return (text[0].upper() + text[1:]).replace(" ", "  ") + ".!"[i % 2]


def _learn(instances, lex):
    net, reports = ConceptNetwork(), []
    for instance in instances:
        reports.append(observe(net, instance, lex))
    return network_to_text(net), reports


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(BUILTIN_PHASES))
def test_a_respelled_curriculum_learns_the_same_through_one_lexicon(name, seed):
    lex = _fresh()
    canonical = builtin_curriculum(name, seed=seed).instances
    respelled = [LearningInstance(instance.situation, _respelled(instance.utterance, i))
                 for i, instance in enumerate(canonical)]
    text, reports = _learn(canonical, lex)
    text_again, reports_again = _learn(respelled, lex)
    assert text_again == text
    for report, again, instance in zip(reports, reports_again, respelled):
        assert again.utterance == instance.utterance
        assert (again.is_generic, again.created, again.edges, again.mismatches) == (
            report.is_generic, report.created, report.edges, report.mismatches), \
            instance.utterance
    # every spelling has its own memo entry
    texts = {i.utterance for i in canonical}
    texts_again = {i.utterance for i in respelled}
    assert texts.isdisjoint(texts_again)
    assert set(lex._parses) == texts | texts_again
