from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import synth
from wugnet.curriculum import (
    BUILTIN_PHASES,
    DEFAULT_OBJECTS,
    PHASES,
    Curriculum,
    CurriculumFormatError,
    CurriculumSpec,
    builtin_curriculum,
    builtin_spec,
    curriculum_from_text,
    curriculum_to_text,
    generate,
    _Generator,
)
from wugnet.errors import FormatError
from wugnet.graph import ConceptNetwork, network_to_text
from wugnet.lang import LexEntry, Lexicon, default_lexicon, parse
from wugnet.learner import ActionFrame, Entity, LearningInstance, Situation, learn_curriculum


def test_objects_phase_with_tiny_inventory():
    cur = generate(CurriculumSpec(phases=("objects",), objects=("house", "dog"), seed=3))
    texts = sorted(i.utterance for i in cur.instances)
    assert texts == ["a dog", "a house"]
    for inst in cur.instances:
        assert inst.situation.entities[0].lemma == inst.utterance.split()[-1]


def test_same_spec_and_seed_is_byte_identical():
    spec = builtin_spec("obj-actions-kinds-generics", seed=11)
    a = curriculum_to_text(generate(spec))
    b = curriculum_to_text(generate(spec))
    assert a == b


def test_different_seeds_shuffle_but_keep_the_multiset():
    a = generate(builtin_spec("objects-and-colors", seed=0))
    b = generate(builtin_spec("objects-and-colors", seed=1))
    assert [i.utterance for i in a.instances] != [i.utterance for i in b.instances]
    assert sorted(i.utterance for i in a.instances) == sorted(i.utterance for i in b.instances)


def test_phase_monotonicity():
    small = generate(CurriculumSpec(phases=("objects",), seed=5))
    big = generate(CurriculumSpec(phases=("objects", "plurals"), seed=5))
    small_texts = sorted(i.utterance for i in small.instances)
    big_texts = sorted(i.utterance for i in big.instances)
    for text in small_texts:
        assert text in big_texts


def test_membership_generics_follow_their_subjects():
    # within each category, subjects already introduced by the objects
    # phase come before subjects that only the generic introduces
    for seed in range(6):
        cur = builtin_curriculum("objects-and-kinds", seed=seed)
        texts = [i.utterance for i in cur.instances]
        people = [t for t in texts if t.endswith("are people")]
        assert people[0] == "babies are people"
        assert set(people[1:]) == {"Moms are people", "Dads are people"}


@cache
def _phase_blocks(name):
    """The built-in's instances as the generator builds them, one block per phase.

    Each category-generics instance is tagged with its category and
    whether the objects phase introduced its subject; any other is tagged None.
    """
    spec = builtin_spec(name)
    gen = _Generator(spec, default_lexicon())
    introduced = set(gen.common) if "objects" in spec.phases else set()
    category_of = {gen.plural(category): category for category, _ in spec.categories}
    blocks = []
    for phase in (p for p in PHASES if p in spec.phases):
        block = getattr(gen, f"{phase.replace('-', '_')}_phase")()
        if phase == "category-generics":
            blocks.append([(i, (category_of[i.utterance.split()[-1]],
                                i.situation.entities[0].lemma in introduced)) for i in block])
        else:
            blocks.append([(i, None) for i in block])
    return blocks


@cache
def _seed0_network_text(name):
    net = ConceptNetwork()
    learn_curriculum(net, builtin_curriculum(name, seed=0))
    return network_to_text(net)


def _introduced_first(permuted):
    """The instances of a shuffled block, each category's introduced subjects moved before its new ones.

    The slots a category's generics fill stay where the shuffle put them;
    only which of its generics fills each slot changes.
    """
    slots: dict[str, list[int]] = {}
    for slot, (_, tag) in enumerate(permuted):
        if tag is not None:
            slots.setdefault(tag[0], []).append(slot)
    out = list(permuted)
    for category_slots in slots.values():
        items = [permuted[slot] for slot in category_slots]
        items.sort(key=lambda item: not item[1][1])  # stable: introduced first
        for slot, item in zip(category_slots, items):
            out[slot] = item
    return [instance for instance, _ in out]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(BUILTIN_PHASES)), st.randoms(use_true_random=False))
def test_builtins_learn_one_network_under_any_order_the_generator_could_emit(name, rng):
    # Within a phase the generator's shuffle is free, except that a
    # category's introduced members come before the ones its generics
    # introduce; across phases the order is fixed. Every such order
    # learns the seed-0 network, byte for byte.
    instances = []
    for block in _phase_blocks(name):
        permuted = list(block)
        rng.shuffle(permuted)
        instances.extend(_introduced_first(permuted))
    net = ConceptNetwork()
    learn_curriculum(net, Curriculum(name, tuple(instances)))
    assert network_to_text(net) == _seed0_network_text(name)


def test_exclusions_remove_every_mention():
    cur = generate(builtin_spec("objects-and-kinds", exclude_objects=("chicken",)))
    for inst in cur.instances:
        assert "chicken" not in inst.utterance
        assert all(e.lemma != "chicken" for e in inst.situation.entities)


@pytest.mark.parametrize("spec,category", [
    (builtin_spec("objects-and-kinds", exclude_objects=("baby",)), "people"),
    (CurriculumSpec(phases=("category-generics",)), "animal"),
    (CurriculumSpec(phases=("colors", "category-generics")), "people"),
])
def test_a_category_whose_first_subject_no_instance_names_is_rejected(spec, category):
    with pytest.raises(ValueError, match=f"category '{category}' cannot be learned"):
        generate(spec)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(PHASES)), st.sets(st.sampled_from(DEFAULT_OBJECTS)),
       st.integers(0, 2**32 - 1))
def test_every_curriculum_generate_returns_is_learnable(phases, excluded, seed):
    spec = CurriculumSpec(phases=tuple(sorted(phases)),
                          objects=tuple(o for o in DEFAULT_OBJECTS if o not in excluded),
                          seed=seed)
    try:
        curriculum = generate(spec)
    except ValueError:
        return
    learn_curriculum(ConceptNetwork(), curriculum)


def test_unknown_inventory_lexeme_rejected():
    with pytest.raises(ValueError):
        generate(CurriculumSpec(phases=("objects",), objects=("glorp",)))
    with pytest.raises(ValueError):
        generate(CurriculumSpec(phases=("wrong-phase",)))


def test_action_verb_without_third_person_form_rejected():
    with pytest.raises(ValueError, match="'glorp'"):
        generate(CurriculumSpec(phases=("actions",), actions=(("dog", "glorp", None, 1),)))


@pytest.mark.parametrize("name", ["objects-and-kinds", "objects-kinds-and-generics",
                                  "obj-actions-kinds-generics", "objects-and-actions",
                                  "objects-and-colors"])
def test_every_generated_utterance_parses(name):
    cur = builtin_curriculum(name, seed=2)
    assert cur.instances
    for inst in cur.instances:
        parse(inst.utterance)


@pytest.mark.parametrize("name", ["objects-and-kinds", "obj-actions-kinds-generics"])
def test_generated_scenes_never_mismatch(name):
    mismatches = []
    learn_curriculum(ConceptNetwork(), builtin_curriculum(name, seed=4),
                     on_report=lambda i, report: mismatches.extend(report.mismatches))
    assert mismatches == []


def test_generator_inflects_verbs_with_its_own_lexicon():
    lex = Lexicon(default_lexicon().entries()
                  + [LexEntry("hop", "verb", "hop"), LexEntry("hops", "verb", "hop")])
    spec = CurriculumSpec(phases=("actions",), actions=(("dog", "hop", None, 1),))
    assert [i.utterance for i in generate(spec, lex).instances] == ["a dog hops"]


def test_fig_style_color_counts_are_realized():
    cur = builtin_curriculum("objects-and-colors")
    texts = [i.utterance for i in cur.instances]
    assert texts.count("a green cookie") == 3
    assert texts.count("a dark brown paper") == 2
    assert texts.count("a light brown cookie") == 1
    # every count noun appears with at least three colors
    from wugnet.curriculum import DEFAULT_OBJECTS
    from wugnet.lang import NOUN, default_lexicon
    lex = default_lexicon()
    for obj in DEFAULT_OBJECTS:
        if lex.pos_of(obj) == NOUN:
            colored = {t.split()[1] for t in texts
                       if t.startswith("a ") and t.endswith(f" {obj}")
                       and len(t.split()) > 2}
            assert len(colored) >= 3, obj


@pytest.mark.parametrize("name,seed", [(name, seed) for name in sorted(BUILTIN_PHASES)
                                       for seed in (0, 7)] + [("concept-space", 0)])
def test_round_trip_preserves_structure(name, seed):
    if name == "concept-space":
        lexicon, cur = synth().concept_space_inputs(seed, 250, 250)
    else:
        lexicon, cur = None, builtin_curriculum(name, seed=seed)
    again = curriculum_from_text(curriculum_to_text(cur), lexicon=lexicon)
    assert again.name == cur.name
    assert again.instances == cur.instances
    # tuple equality alone would pass a loader that builds plain tuples
    for instance in again.instances + cur.instances:
        situation = instance.situation
        assert type(instance) is LearningInstance and type(situation) is Situation
        assert all(type(e) is Entity for e in situation.entities)
        assert all(type(a) is ActionFrame for a in situation.actions)


def test_hand_written_file_loads_and_learns():
    text = """\
# name: tiny
instance
  scene: entity e0 cookie color=blue
  say: a blue cookie

instance
  scene: entity e0 bear ; action sit agent=e0
  say: bears sit
"""
    cur = curriculum_from_text(text)
    assert cur.name == "tiny"
    assert len(cur.instances) == 2
    net = ConceptNetwork()
    learn_curriculum(net, cur)
    assert net.get("bear", "object") is not None


def test_unknown_verb_names_token_and_line():
    text = "instance\n  scene: entity e0 bear\n  say: a bear glorps\n"
    with pytest.raises(CurriculumFormatError) as err:
        curriculum_from_text(text)
    assert err.value.line == 3
    assert "glorps" in str(err.value)


@pytest.mark.parametrize("text,line", [
    ("say: a dog\n", 1),
    ("instance\ninstance\n", 2),
    ("instance\n  scene: widget e0 dog\n  say: a dog\n", 2),
    ("instance\n  scene: entity e0 dog ; action sit agent=e9\n  say: a dog\n", 2),
    ("instance\n  scene: entity e0 dog\n", 2),
    ("instance\n  scene: entity e0 cookie\n  say: a 2 cookie\n", 3),
    ("instance\n  say: a dog\n\ninstance\n  scene: entity e0 dog color=\n  say: a dog\n", 5),
    ("instance\n  scene: entity e0 dog ; entity e1 cat ; action eat agent=e0 agent=e1\n"
     "  say: a dog\n", 2),
])
def test_malformed_curriculum_files(text, line):
    with pytest.raises(CurriculumFormatError) as err:
        curriculum_from_text(text)
    assert isinstance(err.value, FormatError)
    assert err.value.line == line


@pytest.mark.parametrize("scene,message", [
    ("entity e0 dog color=", "empty color= value"),
    ("entity e0 dog ; action sit agent=", "empty agent= value"),
    ("entity e0 dog ; entity e1 cat ; action eat agent=e0 agent=e1", "repeated agent= attribute"),
    ("entity e0 dog ; entity e1 cat ; action eat patient=e0 patient=e1",
     "repeated patient= attribute"),
    ("entity e0 dog size=big", "bad attribute 'size=big'"),
    ("entity e0 dog red", "bad attribute 'red'"),
    ("entity e0 dog ; action sit agent=e0 target=e0", "bad attribute 'target=e0'"),
])
def test_scene_attribute_errors_name_the_attribute(scene, message):
    with pytest.raises(CurriculumFormatError, match=message) as err:
        curriculum_from_text(f"instance\n  scene: {scene}\n  say: a dog\n")
    assert err.value.line == 2


def test_empty_file_is_an_empty_curriculum():
    cur = curriculum_from_text("")
    assert cur.instances == ()


def test_builtin_names_are_validated():
    with pytest.raises(ValueError):
        builtin_spec("objects-and-nonsense")
    assert builtin_spec("objects-and-kinds").phases == ("objects", "category-generics")
    assert set(builtin_spec("obj-actions-kinds-generics").phases) == set(PHASES)
