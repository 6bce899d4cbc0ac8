"""The per-lexicon tokenize and parse memos.

Learning through a warm lexicon (every utterance already memoized) must give
the same networks and reports as a fresh lexicon per instance; shared parse
results are frozen; failures are never memoized; a curriculum file is walked
once, when it is loaded.
"""

from dataclasses import FrozenInstanceError

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
from wugnet.lang import DEFAULT_LEXICON_TEXT, Lexicon, ParseError, parse, parse_text, tokenize
from wugnet.learner import LearningInstance, Situation, learn_curriculum, observe

# one lexicon shared by every test here, so its memos only grow
WARM = Lexicon.from_text(DEFAULT_LEXICON_TEXT)


def _fresh():
    return Lexicon.from_text(DEFAULT_LEXICON_TEXT)


def _outcome(net, instance, lex):
    try:
        return observe(net, instance, lex)
    except ValueError as err:  # ParseError, UnlearnableGeneric, EdgeRuleError
        return (type(err), str(err))


def _warm_up(utterances):
    for text in utterances:
        try:
            parse_text(text, WARM)
        except ParseError:
            pass


def _learn_warm_and_fresh(instances_):
    _warm_up(i.utterance for i in instances_)
    memo_size = len(WARM._tokens), len(WARM._parses)
    warm, fresh = ConceptNetwork(), ConceptNetwork()
    for instance in instances_:
        assert _outcome(warm, instance, WARM) == _outcome(fresh, instance, _fresh()), \
            instance.utterance
        assert network_to_text(warm) == network_to_text(fresh), instance.utterance
    # every warm observe was a memo hit
    assert (len(WARM._tokens), len(WARM._parses)) == memo_size


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
    tokens = tokenize("a red dog eats the cookie", lex)
    first = parse(tokens, lex)
    assert parse(list(tokens), lex) is first
    assert parse(tuple(tokens), lex) is first
    assert parse_text("A red dog eats the cookie.", lex) is first
    assert len(lex._parses) == 1


@pytest.mark.parametrize("text, tokenizes", [
    ("a2 dog", False), ("bears.sit", False), ("the dogs", True), ("dogs are", True),
    ("dogs sit a", True), ("", True), ("Mom", True), ("two", True)])
def test_a_failure_is_raised_again_and_not_memoized(text, tokenizes):
    lex = _fresh()
    errors = []
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            parse_text(text, lex)
        errors.append((str(info.value), info.value.token, info.value.position))
    assert errors[0] == errors[1]
    assert list(lex._tokens) == ([text] if tokenizes else [])
    assert not lex._parses


def test_mutating_a_token_list_leaves_the_memo_alone():
    lex = _fresh()
    tokens = tokenize("Two light brown dogs", lex)
    assert tokens == ["two", "light-brown", "dogs"]
    tokens[0] = "three"
    tokens.append("sit")
    again = tokenize("Two light brown dogs", lex)
    assert again == ["two", "light-brown", "dogs"] and again is not tokens


def test_parse_results_are_frozen():
    p = parse_text("dogs are animals", _fresh())
    q = parse_text("dad takes the cup", _fresh())
    assert isinstance(p.noun_phrases, tuple)
    for obj, field in ((p, "is_generic"), (p, "noun_phrases"), (p.noun_phrases[0], "lemma"),
                       (p.predicate, "complement"), (q, "verb")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, None)


@pytest.mark.parametrize("default_first", [True, False])
def test_novelty_is_read_per_lexicon_whichever_parses_first(default_first):
    default, with_wug = _fresh(), Lexicon.from_text(DEFAULT_LEXICON_TEXT
                                                    + "word wug noun lemma=wug\n")
    order = [default, with_wug] if default_first else [with_wug, default]
    novel = {id(lex): parse_text("wugs are animals", lex).noun_phrases[0].novel for lex in order}
    assert novel == {id(default): True, id(with_wug): False}


def test_a_loaded_curriculum_is_not_walked_again_when_learned(monkeypatch):
    lex = _fresh()
    text = curriculum_to_text(builtin_curriculum("obj-actions-kinds-generics"))
    walks = []
    walk = lang._parse
    monkeypatch.setattr(lang, "_parse",
                        lambda tokens, lx: walks.append(tokens) or walk(tokens, lx))
    curriculum = curriculum_from_text(text, lexicon=lex)
    distinct = {tuple(tokenize(i.utterance, lex)) for i in curriculum.instances}
    assert len(walks) == len(distinct) < len(curriculum.instances)
    walks.clear()
    learn_curriculum(ConceptNetwork(), curriculum, lexicon=lex)
    assert walks == []
