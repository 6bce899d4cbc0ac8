import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inheritance_oracle import member_average_reaveraged, members_scan
from wugnet.graph import (
    ACTION,
    ATTRIBUTE,
    CATEGORY,
    FOLD_MIN_MEMBERS,
    IS,
    OBJECT,
    SLOT1,
    SLOT2,
    ConceptNetwork,
    EdgeRuleError,
    NetworkFormatError,
    diff_networks,
    network_from_text,
    network_to_text,
)
from wugnet.learner import LearningInstance, Situation, observe


@pytest.fixture
def net():
    return ConceptNetwork()


def test_add_concept_is_idempotent(net):
    a = net.add_concept("bird", OBJECT)
    b = net.add_concept("bird", OBJECT)
    assert a is b
    assert len(net) == 1


def test_same_name_different_kind_is_a_new_node(net):
    obj = net.add_concept("chicken", OBJECT)
    cat = net.add_concept("chicken", CATEGORY)
    assert obj != cat
    assert len(net) == 2


def test_category_node_starts_with_no_members(net):
    animal = net.add_concept("animal", CATEGORY)
    assert net.members_of(animal) == []


@pytest.mark.parametrize("bad", ["", "Bird", "b!rd", "3dogs", "two words", "dog\n"])
def test_malformed_names_rejected(net, bad):
    with pytest.raises(ValueError):
        net.add_concept(bad, OBJECT)


def test_unknown_kind_rejected(net):
    with pytest.raises(ValueError):
        net.add_concept("bird", "thing")


def test_observation_strengths_plateau(net):
    cookie = net.add_concept("cookie", OBJECT)
    green = net.add_concept("green", ATTRIBUTE)
    assert net.write(cookie, green, IS, None, False)[1] == pytest.approx(0.2)
    assert net.write(cookie, green, IS, None, False)[1] == pytest.approx(0.36)
    assert net.write(cookie, green, IS, None, False)[1] == pytest.approx(0.488)


def test_closed_form_matches_iterated_update(net):
    a = net.add_concept("a", OBJECT)
    b = net.add_concept("b", ATTRIBUTE)
    expected = 0.0
    for k in range(1, 51):
        got = net.write(a, b, IS, None, False)[1]
        expected = expected + 0.2 * (1.0 - expected)  # independent replay
        assert got == expected
        assert abs(got - (1.0 - 0.8 ** k)) < 1e-12


def test_observation_is_a_fixed_point_at_one(net):
    a = net.add_concept("a", OBJECT)
    b = net.add_concept("b", ATTRIBUTE)
    net.write(a, b, IS, 1.0, False)
    assert net.write(a, b, IS, None, False)[1] == 1.0


def test_assert_generic_maximizes_and_sticks(net):
    # write returns (old, new, the edge's generic flag after the write)
    a = net.add_concept("watermelon", OBJECT)
    g = net.add_concept("green", ATTRIBUTE)
    assert net.write(a, g, IS, None, False) == (0.0, 0.2, False)
    assert net.get_strength(a, g, IS) == pytest.approx(0.2)
    assert net.write(a, g, IS, 1.0, True) == (0.2, 1.0, True)
    assert net.write(a, g, IS, 1.0, True) == (1.0, 1.0, True)
    assert net.write(a, g, IS, None, False) == (1.0, 1.0, True)
    assert net.edge(a, g, IS).generic_origin
    assert net.write(a, g, IS, 0.5, False) == (1.0, 0.5, False)


def test_generic_from_zero(net):
    a = net.add_concept("a", OBJECT)
    b = net.add_concept("b", CATEGORY)
    assert net.write(a, b, IS, 1.0, True)[1] == 1.0


def test_label_kind_validation(net):
    obj = net.add_concept("ball", OBJECT)
    color = net.add_concept("red", ATTRIBUTE)
    verb = net.add_concept("roll", ACTION)
    with pytest.raises(EdgeRuleError):
        net.write(obj, color, SLOT1, None, False)
    with pytest.raises(EdgeRuleError):
        net.write(obj, obj, IS, None, False)
    with pytest.raises(EdgeRuleError):
        net.write(obj, verb, IS, 1.0, True)
    # the valid pairings
    net.write(obj, verb, SLOT2, None, False)
    net.write(obj, color, IS, None, False)


@pytest.mark.parametrize("label", [SLOT1, SLOT2, IS, "has"])
@pytest.mark.parametrize("kind", [OBJECT, ATTRIBUTE, ACTION, CATEGORY])
def test_each_label_and_target_kind_pair_is_checked(net, label, kind):
    src = net.add_concept("ball", OBJECT)
    dst = net.add_concept("zed", kind)
    valid = {SLOT1: {ACTION}, SLOT2: {ACTION}, IS: {ATTRIBUTE, CATEGORY}}.get(label, set())
    if kind in valid:
        assert net.write(src, dst, label, 0.5, False) == (0.0, 0.5, False)
    else:
        with pytest.raises(EdgeRuleError):
            net.write(src, dst, label, 0.5, False)
        assert net.edge(src, dst, label) is None


def test_writes_name_a_node_from_another_network(net):
    ball = net.add_concept("ball", OBJECT)
    red = net.add_concept("red", ATTRIBUTE)
    ghost = ConceptNetwork().add_concept("ghost", OBJECT)
    ghost_red = ConceptNetwork().add_concept("pink", ATTRIBUTE)
    with pytest.raises(KeyError, match="concept object/ghost is not in this network"):
        net.write(ghost, red, IS, 0.5, False)
    with pytest.raises(KeyError, match="concept attribute/pink is not in this network"):
        net.write(ball, ghost_red, IS, None, False)
    assert net.edges() == []


def test_get_strength_missing_edge_is_zero(net):
    a = net.add_concept("a", OBJECT)
    b = net.add_concept("b", ATTRIBUTE)
    assert net.get_strength(a, b, IS) == 0.0


def test_neighbors_sorted_and_empty_for_fresh_node(net):
    bird = net.add_concept("bird", OBJECT)
    assert net.neighbors(bird) == []
    fly = net.add_concept("fly", ACTION)
    animal = net.add_concept("animal", CATEGORY)
    net.write(bird, animal, IS, 1.0, True)
    net.write(bird, fly, SLOT1, None, False)
    targets = [(t.name, label) for t, label, _ in net.neighbors(bird)]
    assert targets == [("animal", IS), ("fly", SLOT1)]


def test_members_of_collects_is_edges(net):
    animal = net.add_concept("animal", CATEGORY)
    for name in ("dog", "cat"):
        net.write(net.add_concept(name, OBJECT), animal, IS, 1.0, True)
    assert [m.name for m in net.members_of(animal)] == ["cat", "dog"]


def test_members_of_rejects_non_category(net):
    dog = net.add_concept("dog", OBJECT)
    with pytest.raises(ValueError):
        net.members_of(dog)


def test_shared_node_appears_in_both_categories(net):
    chicken = net.add_concept("chicken", OBJECT)
    animal = net.add_concept("animal", CATEGORY)
    food = net.add_concept("food", CATEGORY)
    net.write(chicken, animal, IS, 1.0, True)
    net.write(chicken, food, IS, 1.0, True)
    assert chicken in net.members_of(animal)
    assert chicken in net.members_of(food)


def test_set_strength_validates(net):
    a = net.add_concept("a", OBJECT)
    b = net.add_concept("b", ATTRIBUTE)
    c = net.add_concept("c", OBJECT)
    d = net.add_concept("d", OBJECT)
    animal = net.add_concept("animal", CATEGORY)
    net.write(a, b, IS, None, False)
    net.write(c, animal, IS, 1.0, True)
    rejected = [
        (ValueError, (a, b, IS, 1.5, False)),
        (ValueError, (a, b, IS, float("nan"), False)),
        (ValueError, (a, b, IS, 0.5, True)),
        (ValueError, (a, b, IS, None, True)),  # a plateauing write cannot set the flag
        (ValueError, (d, animal, IS, None, True)),
        (ValueError, (d, animal, IS, 1.5, False)),
        (ValueError, (c, animal, IS, 1.5, False)),
        (EdgeRuleError, (a, b, SLOT1, 0.5, False)),
        (EdgeRuleError, (a, b, "has", 0.5, False)),
    ]
    for error, args in rejected:
        before = (network_to_text(net), net.edge_count(), net.members_of(animal))
        with pytest.raises(error):
            net.write(*args)
        assert (network_to_text(net), net.edge_count(), net.members_of(animal)) == before
    assert net.members_of(animal) == [c]


# write's errors, each raised before any change. write skips the target and
# label checks for a (target, label) key the network already holds, so each
# case runs with its key new to the network and with the key held by another
# source, in the network and in a copy of it. A key that breaks the label rule
# or names a foreign node can never be held, so those cases' held variants
# hold the target under its valid label.
WRITE_ERRORS = [
    ("label wrong for the target", ("a", "red", SLOT1, 0.5, False),
     EdgeRuleError, "slot-1 edge must point at an action, not attribute/red"),
    ("unknown label", ("a", "red", "has", 0.5, False),
     EdgeRuleError, "unknown edge label 'has'"),
    ("label wrong, weight too", ("a", "red", SLOT1, 1.5, True),
     EdgeRuleError, "slot-1 edge must point at an action, not attribute/red"),
    ("target not a node", ("a", "ghost", IS, 0.5, False),
     KeyError, "concept attribute/ghost is not in this network"),
    ("target not a node, weight too", ("a", "ghost", IS, 1.5, False),
     KeyError, "concept attribute/ghost is not in this network"),
    ("source not a node", ("stray", "red", IS, 0.5, False),
     KeyError, "concept object/stray is not in this network"),
    ("weight above 1", ("a", "red", IS, 1.5, False),
     ValueError, "edge weight 1.5 outside [0, 1]"),
    ("weight below 0", ("a", "red", IS, -0.5, False),
     ValueError, "edge weight -0.5 outside [0, 1]"),
    ("weight nan", ("a", "animal", IS, float("nan"), False),
     ValueError, "edge weight nan outside [0, 1]"),
    ("weight out of range and generic", ("a", "animal", IS, 1.5, True),
     ValueError, "edge weight 1.5 outside [0, 1]"),
    ("generic below 1.0", ("a", "animal", IS, 0.5, True),
     ValueError, "generic edges must have weight 1.0"),
    ("plateau marked generic", ("a", "animal", IS, None, True),
     ValueError, "a plateauing write cannot mark an edge generic"),
]


def _write_error_network(keys):
    net = ConceptNetwork()
    a, c = net.add_concept("a", OBJECT), net.add_concept("c", OBJECT)
    red, animal = net.add_concept("red", ATTRIBUTE), net.add_concept("animal", CATEGORY)
    net.add_concept("roll", ACTION)
    if keys != "new":
        net.write(c, red, IS, None, False)
        net.write(c, animal, IS, 1.0, True)
    nodes = {"a": a, "red": red, "animal": animal,
             "ghost": ConceptNetwork().add_concept("ghost", ATTRIBUTE),
             "stray": ConceptNetwork().add_concept("stray", OBJECT)}
    return (net.copy() if keys == "held in a copy" else net), nodes


@pytest.mark.parametrize("keys", ["new", "held", "held in a copy"])
@pytest.mark.parametrize("case,args,error,message", WRITE_ERRORS, ids=[c[0] for c in WRITE_ERRORS])
def test_write_errors_are_the_same_for_new_and_held_keys(keys, case, args, error, message):
    net, nodes = _write_error_network(keys)
    src, dst, label, weight, generic = args
    src, dst = nodes[src], nodes[dst]
    animal = nodes["animal"]
    held = (dst, label) in net._keys
    assert held == (keys != "new" and dst.name in ("red", "animal") and label == IS)
    before = (network_to_text(net), net.edge_count(), dict(net._keys), net.members_of(animal))
    with pytest.raises(error) as err:
        net.write(src, dst, label, weight, generic)
    assert err.value.args[0] == message
    assert (network_to_text(net), net.edge_count(), dict(net._keys),
            net.members_of(animal)) == before
    # the same write with a valid label, nodes and weight then succeeds
    if not isinstance(err.value, KeyError):
        assert net.write(src, dst, IS, 1.0, True) == (0.0, 1.0, True)


def test_a_held_key_is_written_through_a_copy_alone():
    net, nodes = _write_error_network("held")
    a, red, animal = nodes["a"], nodes["red"], nodes["animal"]
    text = network_to_text(net)
    other = net.copy()
    assert other.write(a, red, IS, None, False) == (0.0, 0.2, False)
    assert other.write(a, animal, IS, 1.0, True) == (0.0, 1.0, True)
    # the copy files both edges under the keys it copied, and the original has neither
    assert {id(k) for k in other._out[a]} == {id(net._keys[(red, IS)]), id(net._keys[(animal, IS)])}
    c = net.get("c", OBJECT)
    assert other.members_of(animal) == [a, c]
    assert network_to_text(net) == text and net.members_of(animal) == [c]
    assert net.get_strength(a, red, IS) == 0.0


# -- persistence ---------------------------------------------------------

def test_empty_network_round_trips():
    net = ConceptNetwork()
    assert network_from_text(network_to_text(net)) == net


def test_small_network_round_trips_losslessly(net):
    cookie = net.add_concept("cookie", OBJECT)
    green = net.add_concept("green", ATTRIBUTE)
    animal = net.add_concept("animal", CATEGORY)
    net.write(cookie, green, IS, None, False)
    net.write(cookie, green, IS, None, False)
    net.write(cookie, animal, IS, 1.0, True)
    loaded = network_from_text(network_to_text(net))
    assert loaded == net
    c2 = loaded.require("cookie", OBJECT)
    g2 = loaded.require("green", ATTRIBUTE)
    assert loaded.get_strength(c2, g2, IS) == net.get_strength(cookie, green, IS)


def test_truncated_edge_line_reports_position():
    text = "conceptnet v1\nnode object cookie\nedge object/cookie is\n"
    with pytest.raises(NetworkFormatError) as err:
        network_from_text(text)
    assert err.value.line == 3


# a header and three nodes, so an edge line below it is line 5
_NODES = "conceptnet v1\nnode object a\nnode attribute b\nnode action c\n"


@pytest.mark.parametrize("text,line", [
    ("node object cookie\n", 1),                      # missing header
    ("conceptnet v1\nnode widget cookie\n", 2),       # unknown kind
    ("conceptnet v1\nnoise\n", 2),                    # unknown line type
    ("conceptnet v1\nnode object a\nnode object a\n", 3),
    ("conceptnet v1\nedge object/a is attribute/b 0.5 generic:0\n", 2),
    (_NODES + "edge object/a has attribute/b 0.5 generic:0\n", 5),     # unknown label
    (_NODES + "edge object/a slot-1 attribute/b 0.5 generic:0\n", 5),  # slot into an attribute
    (_NODES + "edge object/a is attribute/b 1.5 generic:0\n", 5),      # weight out of range
    (_NODES + "edge object/a is attribute/b -0.5 generic:0\n", 5),
    (_NODES + "edge object/a is attribute/b nan generic:0\n", 5),
    (_NODES + "edge object/a is attribute/b inf generic:0\n", 5),
    (_NODES + "edge object/a is attribute/b abc generic:0\n", 5),      # no float
    (_NODES + "edge object/a is attribute/b 1.0 generic:2\n", 5),      # bad flag
    (_NODES + "edge object/a is attribute/b 0.5 generic:1\n", 5),      # generic below 1.0
    (_NODES + "edge objecta is attribute/b 0.5 generic:0\n", 5),       # key without '/'
])
def test_malformed_files_name_the_line(text, line):
    with pytest.raises(NetworkFormatError) as err:
        network_from_text(text)
    assert err.value.line == line


def test_networks_differing_in_one_detail_are_unequal():
    def build(weight=0.5, generic=False, label=SLOT1, extra_node=False):
        net = ConceptNetwork()
        a = net.add_concept("a", OBJECT)
        animal = net.add_concept("animal", CATEGORY)
        net.write(a, net.add_concept("b", ATTRIBUTE), IS, weight, False)
        net.write(a, animal, IS, 1.0, generic)
        net.write(a, net.add_concept("c", ACTION), label, 0.25, False)
        if extra_node:
            net.add_concept("d", OBJECT)
        return net

    base = build()
    assert build() == base
    for other in (build(weight=0.25), build(generic=True), build(label=SLOT2),
                  build(extra_node=True)):
        assert other != base and base != other
    assert build(weight=-0.0) == build(weight=0.0)
    assert base.copy() == base
    assert network_from_text(network_to_text(base)) == base


def test_comments_and_blank_lines_ignored():
    text = "# saved network\nconceptnet v1\n\nnode object dog\n# trailing\n"
    net = network_from_text(text)
    assert net.get("dog", OBJECT) is not None


def test_a_member_listed_before_one_it_sorts_after_loads_in_name_order():
    # a file sorts sources by kind first, so action/zed comes before object/ant
    text = ("conceptnet v1\nnode action zed\nnode category kind\nnode object ant\n"
            "node object zed\n"
            "edge action/zed is category/kind 1 generic:0\n"
            "edge object/ant is category/kind 1 generic:0\n"
            "edge object/zed is category/kind 1 generic:0\n")
    net = network_from_text(text)
    category = net.require("kind", CATEGORY)
    ant, zed_act, zed = (net.require(name, kind)
                         for name, kind in (("ant", OBJECT), ("zed", ACTION), ("zed", OBJECT)))
    assert net.members_of(category) == [ant, zed_act, zed]
    assert network_to_text(net) == text
    # a member sharing the last member's name, but of a kind that sorts before it
    zed_attr = net.add_concept("zed", ATTRIBUTE)
    net.write(zed_attr, category, IS, 1.0, False)
    assert net.members_of(category) == [ant, zed_act, zed_attr, zed] == members_scan(net, category)


def test_a_loaded_category_learns_a_novel_member_as_the_original_does():
    net = ConceptNetwork()
    animal = net.add_concept("animal", CATEGORY)
    red, sit = net.add_concept("red", ATTRIBUTE), net.add_concept("sit", ACTION)
    rng = random.Random(0)
    names = [f"k{a}{b}" for a in "aeiou" for b in "bdgklmnpt"][:FOLD_MIN_MEMBERS + 4]
    for i, name in enumerate(names):
        # every ninth member an action, listed in the file before every object
        member = net.add_concept(name, ACTION if i % 9 == 4 else OBJECT)
        net.write(member, animal, IS, 1.0, True)
        net.write(member, red, IS, rng.choice([0.0, -0.0, 0.2, 0.36, 1.0]), False)
        net.write(member, sit, SLOT1, rng.random(), False)
    loaded = network_from_text(network_to_text(net))
    assert loaded.members_of(animal) == net.members_of(animal) == members_scan(net, animal)
    for network in (net, loaded):
        observe(network, LearningInstance(Situation(), "kibes are animals"))
    assert len(loaded.members_of(animal)) == FOLD_MIN_MEMBERS + 5
    assert network_to_text(loaded) == network_to_text(net)


def test_copy_is_equal_and_independent(net):
    herd, pair = net.add_concept("herd", CATEGORY), net.add_concept("pair", CATEGORY)
    red, hop = net.add_concept("red", ATTRIBUTE), net.add_concept("hop", ACTION)
    members = [net.add_concept(f"m-{chr(97 + i // 26)}{chr(97 + i % 26)}", OBJECT) for i in range(FOLD_MIN_MEMBERS + 1)]
    for i, member in enumerate(members):
        net.write(member, herd, IS, 1.0, True)
        net.write(member, red, IS, (i % 7) / 7, False)
    net.write(members[0], pair, IS, 1.0, True)
    net.write(members[0], hop, SLOT1, None, False)
    net.member_average(herd)  # the original keeps a fold; the copy starts without one
    text = network_to_text(net)

    other = net.copy()
    assert other == net and network_to_text(other) == text
    assert other.members_of(herd) == members
    other.write(members[1], red, IS, None, False)
    other.write(other.add_concept("newt", OBJECT), pair, IS, 1.0, True)
    assert network_to_text(net) == text
    assert net.members_of(pair) == [members[0]]

    net.write(members[2], hop, SLOT2, 0.5, False)
    assert other.get_strength(members[2], hop, SLOT2) == 0.0
    assert other != net
    for network in (net, other):
        for category in (herd, pair):
            assert network.member_average(category) == member_average_reaveraged(network, category)


def test_copy_keeps_generic_flags_independent_both_ways(net):
    a, b = net.add_concept("a", OBJECT), net.add_concept("b", OBJECT)
    red, green = net.add_concept("red", ATTRIBUTE), net.add_concept("green", ATTRIBUTE)
    net.write(a, red, IS, 1.0, True)
    net.write(b, green, IS, None, False)
    other = net.copy()
    # a flag set on the copy does not reach the original
    other.write(b, green, IS, 1.0, True)
    assert other.edge(b, green, IS).generic_origin
    assert not net.edge(b, green, IS).generic_origin
    # a flag cleared on the original does not leave the copy
    net.write(a, red, IS, 0.5, False)
    assert not net.edge(a, red, IS).generic_origin
    assert other.edge(a, red, IS) == (a, red, IS, 1.0, True)
    # so a plateauing write still stops at the copy's generic edge only
    assert other.write(a, red, IS, None, False) == (1.0, 1.0, True)
    assert net.write(a, red, IS, None, False) == (0.5, 0.6, False)


def test_a_cleared_generic_flag_leaves_no_trace():
    def build(generic_first):
        net = ConceptNetwork()
        a, red = net.add_concept("a", OBJECT), net.add_concept("red", ATTRIBUTE)
        if generic_first:
            net.write(a, red, IS, 1.0, True)
        net.write(a, red, IS, 0.5, False)
        return net

    cleared, plain = build(True), build(False)
    assert cleared == plain and plain == cleared
    assert network_to_text(cleared) == network_to_text(plain)
    assert network_from_text(network_to_text(cleared)) == plain
    assert cleared.copy() == plain
    assert diff_networks(cleared, plain) == []


def test_edges_are_read_only_snapshots(net):
    a, red = net.add_concept("a", OBJECT), net.add_concept("red", ATTRIBUTE)
    net.write(a, red, IS, None, False)
    snapshot = net.edge(a, red, IS)
    with pytest.raises(AttributeError):
        snapshot.weight = 1.0
    with pytest.raises(AttributeError):
        net.edges()[0].generic_origin = True
    net.write(a, red, IS, None, False)
    assert snapshot.weight == pytest.approx(0.2)
    assert net.edge(a, red, IS).weight == pytest.approx(0.36)
    weights = dict(net.adjacency())[a]
    with pytest.raises(TypeError):
        weights[(red, IS)] = 1.0
    assert weights == {(red, IS): net.get_strength(a, red, IS)}


def test_diff_networks_reports_weight_changes(net):
    a = net.add_concept("a", OBJECT)
    b = net.add_concept("b", ATTRIBUTE)
    net.write(a, b, IS, None, False)
    other = net.copy()
    assert diff_networks(net, other) == []
    other.write(a, b, IS, 1.0, True)
    changes = diff_networks(net, other)
    assert len(changes) == 1 and changes[0].startswith("~edge object/a is attribute/b")


# -- properties ----------------------------------------------------------

@given(st.integers(min_value=1, max_value=60))
def test_monotone_convergence(k):
    net = ConceptNetwork()
    a = net.add_concept("a", OBJECT)
    b = net.add_concept("b", ATTRIBUTE)
    prev = 0.0
    for _ in range(k):
        w = net.write(a, b, IS, None, False)[1]
        assert prev < w <= 1.0
        prev = w
    assert abs(prev - (1.0 - 0.8 ** k)) < 1e-12


@settings(max_examples=50)
@given(st.lists(
    st.tuples(st.sampled_from(["observe", "generic", "set"]),
              st.sampled_from([("a", OBJECT), ("c", OBJECT), ("b", ATTRIBUTE)]),
              st.sampled_from([("b", ATTRIBUTE), ("animal", CATEGORY), ("food", CATEGORY)]),
              st.sampled_from([0.0, 0.5, 1.0])),
    min_size=1, max_size=40))
def test_weights_stay_in_bounds_under_any_interleaving(ops):
    net = ConceptNetwork()
    generic = set()
    for op, (src_name, src_kind), (dst_name, dst_kind), weight in ops:
        src = net.add_concept(src_name, src_kind)
        dst = net.add_concept(dst_name, dst_kind)
        if op == "observe":
            w = net.write(src, dst, IS, None, False)[1]
        elif op == "generic":
            w = net.write(src, dst, IS, 1.0, True)[1]
            generic.add((src, dst))
        else:
            net.write(src, dst, IS, weight, False)
            w = weight
            generic.discard((src, dst))
        assert 0.0 <= w <= 1.0
        for s, d in generic:
            assert net.get_strength(s, d, IS) == 1.0
    # the member index agrees with a full edge scan, also after copy and reload
    copied = net.copy()
    loaded = network_from_text(network_to_text(net))
    for category in (c for c in net.concepts() if c.kind == CATEGORY):
        members = net.members_of(category)
        assert len(set(members)) == len(members)
        assert members == members_scan(net, category)
        assert copied.members_of(category) == members
        assert loaded.members_of(category) == members


@settings(max_examples=30)
@given(st.lists(
    st.tuples(st.sampled_from(["observe", "generic"]),
              st.sampled_from(["a", "b", "c"]),
              st.sampled_from(["x", "y"])),
    max_size=30))
def test_identical_op_sequences_build_identical_networks(ops):
    nets = []
    for _ in range(2):
        net = ConceptNetwork()
        srcs = {n: net.add_concept(n, OBJECT) for n in ("a", "b", "c")}
        dsts = {n: net.add_concept(n, ATTRIBUTE) for n in ("x", "y")}
        for op, s, d in ops:
            if op == "observe":
                net.write(srcs[s], dsts[d], IS, None, False)
            else:
                net.write(srcs[s], dsts[d], IS, 1.0, True)
        nets.append(net)
    assert nets[0] == nets[1]
