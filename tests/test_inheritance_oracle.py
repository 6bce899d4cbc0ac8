"""members_of, member_average and novel-member inheritance against the slow oracles.

Comparisons are exact: float ==, and identical network files.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from inheritance_oracle import inherit_novel_member, member_average_reaveraged, members_scan
from wugnet.graph import (
    ACTION,
    ATTRIBUTE,
    CATEGORY,
    IS,
    OBJECT,
    SLOT1,
    SLOT2,
    ConceptNetwork,
    network_to_text,
)
from wugnet.learner import LearningInstance, Situation, observe

MEMBERS = ("bim", "dax", "fep", "gorp", "hen", "kiv", "lum", "nork", "tog", "zub")
TARGETS = (("red", ATTRIBUTE, IS), ("green", ATTRIBUTE, IS),
           ("sit", ACTION, SLOT1), ("roll", ACTION, SLOT2), ("roll", ACTION, SLOT1),
           ("animal", CATEGORY, IS), ("food", CATEGORY, IS), ("tool", CATEGORY, IS))
CATEGORIES = ("animal", "food", "tool")  # tool starts with no members

weights = st.one_of(st.just(0.0), st.sampled_from([0.2, 0.36, 1.0]),
                    st.floats(min_value=0.0, max_value=1.0))
writes = st.lists(st.tuples(st.sampled_from(["observe", "generic", "set"]),
                            st.sampled_from(MEMBERS), st.sampled_from(TARGETS), weights),
                  max_size=60)
# a vowel after an existing member's name sorts it between that member and the next
novels = st.lists(st.tuples(st.sampled_from(MEMBERS), st.sampled_from("aeiou"),
                            st.sampled_from(CATEGORIES)),
                  max_size=6, unique_by=lambda t: t[0] + t[1])


def _network(ops) -> ConceptNetwork:
    net = ConceptNetwork()
    for name in MEMBERS:
        net.add_concept(name, OBJECT)
    nodes = {(name, kind): net.add_concept(name, kind) for name, kind, _ in TARGETS}
    animal, food = nodes[("animal", CATEGORY)], nodes[("food", CATEGORY)]
    # a member of two categories, and a zero-weight membership
    net.assert_generic(net.get("hen", OBJECT), animal, IS)
    net.assert_generic(net.get("hen", OBJECT), food, IS)
    net.set_strength(net.get("gorp", OBJECT), animal, IS, 0.0)
    net.observe_association(net.get("dax", OBJECT), nodes[("red", ATTRIBUTE)], IS)
    for op, src_name, (name, kind, label), weight in ops:
        src, dst = net.get(src_name, OBJECT), nodes[(name, kind)]
        if op == "observe":
            net.observe_association(src, dst, label)
        elif op == "generic":
            net.assert_generic(src, dst, label)
        else:
            net.set_strength(src, dst, label, weight)
    return net


def _assert_index_matches_oracles(net: ConceptNetwork) -> None:
    for name in CATEGORIES:
        category = net.require(name, CATEGORY)
        assert net.members_of(category) == members_scan(net, category)
        assert net.member_average(category) == member_average_reaveraged(net, category)


@settings(max_examples=150, deadline=None)
@given(writes, novels)
def test_inheritance_is_bit_identical_to_the_oracles(ops, novel_generics):
    net = _network(ops)
    _assert_index_matches_oracles(net)
    oracle = net.copy()
    for stem, vowel, category_name in novel_generics:
        novel = stem + vowel
        observe(net, LearningInstance(Situation(), f"{novel}s are {category_name}s"))
        inherit_novel_member(oracle, novel, oracle.require(category_name, CATEGORY))
        assert network_to_text(net) == network_to_text(oracle)
        _assert_index_matches_oracles(net)

