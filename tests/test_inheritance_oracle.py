"""members_of, member_average and novel-member inheritance against the slow oracles.

Comparisons are exact: float ==, repr (the sign of zero), and identical
network files.
"""

import importlib.util
import random
from functools import reduce
from itertools import product
from operator import add
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inheritance_oracle import inherit_novel_member, member_average_reaveraged, members_scan
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
    _refold,
    network_from_text,
    network_to_text,
)
from wugnet.learner import LearningInstance, Situation, learn_curriculum, observe

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


# Categories on both sides of FOLD_MIN_MEMBERS: "herd" starts above it,
# "flock" two below (joins carry it across), "pair" and "none" stay small.
# Every starting member of flock is also a member of herd.
FOLD_NAMES = ["".join(t) for t in product("bdgkpt", "aeiou", "lmn")][:FOLD_MIN_MEMBERS + 8]
FOLD_START = {"herd": FOLD_NAMES[:FOLD_MIN_MEMBERS + 2],
              "flock": FOLD_NAMES[4:FOLD_MIN_MEMBERS + 2],
              "pair": FOLD_NAMES[-3:-1],
              "none": []}
# red and hop/slot-1 carry the starting weights; the rest are new keys
FOLD_TARGETS = (("red", ATTRIBUTE, IS), ("blue", ATTRIBUTE, IS), ("tan", ATTRIBUTE, IS),
                ("hop", ACTION, SLOT1), ("hop", ACTION, SLOT2), ("eat", ACTION, SLOT1),
                *((name, CATEGORY, IS) for name in FOLD_START))

fold_weights = st.one_of(st.sampled_from([0.0, -0.0, 0.2, 1.0]),
                         st.floats(min_value=0.0, max_value=1.0))
fold_member = st.integers(0, len(FOLD_NAMES) - 1)
fold_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["observe", "generic"]), fold_member,
              st.sampled_from(FOLD_TARGETS)),
    st.tuples(st.just("set"), fold_member, st.sampled_from(FOLD_TARGETS), fold_weights),
    st.sampled_from([("average",), ("copy",), ("text",)]),
), max_size=80)


def _fold_network() -> ConceptNetwork:
    rng = random.Random(0)  # weights whose sums round differently in another order
    net = ConceptNetwork()
    for name in FOLD_NAMES:
        net.add_concept(name, OBJECT)
    for name, kind, _ in FOLD_TARGETS:
        net.add_concept(name, kind)
    red, hop = net.require("red", ATTRIBUTE), net.require("hop", ACTION)
    for category_name, names in FOLD_START.items():
        category = net.require(category_name, CATEGORY)
        for name in names:
            member = net.require(name, OBJECT)
            net.assert_generic(member, category, IS)
            net.set_strength(member, red, IS, rng.random())
            net.set_strength(member, hop, SLOT1, rng.random())
    return net


def _assert_averages_match(net: ConceptNetwork) -> None:
    for name in FOLD_START:
        category = net.require(name, CATEGORY)
        fast, slow = net.member_average(category), member_average_reaveraged(net, category)
        assert fast == slow
        assert repr(fast) == repr(slow)


@settings(max_examples=200, deadline=None)
@given(fold_ops)
def test_member_average_folds_track_interleaved_writes(ops):
    net, earlier = _fold_network(), []
    _assert_averages_match(net)
    for op, *args in ops:
        if op == "average":
            _assert_averages_match(net)
        elif op == "copy":
            earlier.append(net)
            net = net.copy()
        elif op == "text":
            earlier.append(net)
            net = network_from_text(network_to_text(net))
        else:
            src = net.require(FOLD_NAMES[args[0]], OBJECT)
            name, kind, label = args[1]
            dst = net.require(name, kind)
            if op == "observe":
                net.observe_association(src, dst, label)
            elif op == "generic":
                net.assert_generic(src, dst, label)
            else:
                net.set_strength(src, dst, label, args[2])
    for net in earlier + [net]:
        _assert_averages_match(net)


class _OracleNetwork(ConceptNetwork):
    """A network whose member averages come from the slow oracle."""

    def member_average(self, category):
        return member_average_reaveraged(self, category)


def _synth():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"
    spec = importlib.util.spec_from_file_location("synth", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scaled_novel_members_match_the_oracle_network():
    # the benchmark's novel-members inputs, cut to 200 nouns and 150 generics
    lexicon, curriculum, generics = _synth().novel_members_inputs(0, 200, 150)
    net, oracle = ConceptNetwork(), _OracleNetwork()
    learn_curriculum(net, curriculum, lexicon)
    learn_curriculum(oracle, curriculum, lexicon)
    assert network_to_text(net) == network_to_text(oracle)
    categories = [c for c in net.concepts() if c.kind == CATEGORY]
    assert min(len(net.members_of(c)) for c in categories) >= FOLD_MIN_MEMBERS
    for instance in generics:
        observe(net, instance, lexicon)
        observe(oracle, instance, lexicon)
        assert network_to_text(net) == network_to_text(oracle)


def test_member_averages_match_the_oracle_at_benchmark_scale():
    # 3000 nouns put more than 1000 members in each category
    lexicon, curriculum, generics = _synth().novel_members_inputs(0, 3000, 60)
    net = ConceptNetwork()
    learn_curriculum(net, curriculum, lexicon)
    categories = [c for c in net.concepts() if c.kind == CATEGORY]
    assert min(len(net.members_of(c)) for c in categories) > 1000
    for instance in generics:
        observe(net, instance, lexicon)
        for category in categories:
            fast, slow = net.member_average(category), member_average_reaveraged(net, category)
            assert fast == slow
            assert repr(fast) == repr(slow)


# Weights whose sums round differently when added in another order or
# from another start: the sign of zero, the smallest and largest
# subnormals, a value with no exact binary form, the float just below 1,
# and 1.
EDGE_WEIGHTS = (-0.0, 5e-324, 2.225073858507201e-308, 0.1, 1.0 - 2.0 ** -53, 1.0)


# A block of weights: a +0.0 start row over rows x cols draws from [0, 1),
# with EDGE_WEIGHTS put in single cells and in whole columns.
BLOCKS = dict(rows=st.integers(1, 3000), cols=st.integers(1, 20),
              seed=st.integers(0, 2 ** 32 - 1),
              cells=st.lists(st.tuples(st.integers(0, 2 ** 31), st.integers(0, 2 ** 31),
                                       st.sampled_from(EDGE_WEIGHTS)), max_size=200),
              filled=st.lists(st.tuples(st.integers(0, 2 ** 31), st.sampled_from(EDGE_WEIGHTS)),
                              max_size=3))


def _edge_block(rows, cols, seed, cells, filled) -> np.ndarray:
    weights = np.random.default_rng(seed).random((rows, cols))
    for row, col, weight in cells:
        weights[row % rows, col % cols] = weight
    for col, weight in filled:
        weights[:, col % cols] = weight
    return np.vstack((np.zeros((1, cols)), weights))


def _assert_left_folds(totals: list[float], block: np.ndarray) -> None:
    assert len(totals) == block.shape[1]
    for total, column in zip(totals, block[1:].T.tolist()):
        assert type(total) is float
        assert total.hex() == reduce(add, column, 0.0).hex()


@settings(max_examples=60, deadline=None)
@given(**BLOCKS)
@example(rows=3000, cols=1, seed=0, cells=[], filled=[(0, 0.1)])
@example(rows=1, cols=1, seed=0, cells=[], filled=[(0, -0.0)])
def test_fold_totals_are_the_left_fold_of_each_column(rows, cols, seed, cells, filled):
    # The numpy contract member_average rests on: np.add.accumulate adds
    # down the rows in order. A numpy whose accumulate adds in another
    # order (pairwise, say, as np.sum does) fails here.
    block = _edge_block(rows, cols, seed, cells, filled)
    prefix = np.zeros_like(block)
    _refold(block, prefix, 1, len(block))
    _assert_left_folds(prefix[-1].tolist(), block)


@settings(max_examples=60, deadline=None)
@given(**BLOCKS, split=st.integers(0, 2 ** 31))
@example(rows=3000, cols=1, seed=0, cells=[], filled=[(0, 0.1)], split=1499)
@example(rows=2, cols=1, seed=0, cells=[(0, 0, -0.0)], filled=[(0, -0.0)], split=1)
def test_refolding_from_any_row_continues_the_left_fold(rows, cols, seed, cells, filled, split):
    # member_average re-folds only the rows from the first one written,
    # starting from the kept total of the row above it. Rows from there on
    # change first (reversed here, as a join moves them), and the totals
    # past them are garbage until the re-fold.
    block = _edge_block(rows, cols, seed, cells, filled)
    prefix = np.zeros_like(block)
    _refold(block, prefix, 1, len(block))
    start = 1 + split % rows
    block[start:] = block[start:][::-1].copy()
    prefix[start:] = np.nan
    _refold(block, prefix, start, len(block))
    _assert_left_folds(prefix[-1].tolist(), block)


def test_fold_rows_follow_joins_new_columns_and_later_writes():
    rng = random.Random(1)
    net = _fold_network()
    herd = net.require("herd", CATEGORY)
    red, hop = net.require("red", ATTRIBUTE), net.require("hop", ACTION)

    def join(*names):
        for name in names:
            member = net.add_concept(name, OBJECT)
            net.assert_generic(member, herd, IS)
            net.set_strength(member, red, IS, rng.random())
            net.set_strength(member, hop, SLOT1, rng.random())

    assert len(net.members_of(herd)) >= FOLD_MIN_MEMBERS
    _assert_averages_match(net)
    # one join at a time: the first, a middle and the last name position
    for name in ("aa", FOLD_NAMES[16] + "a", "zz"):
        join(name)
        _assert_averages_match(net)
    # several joins before one read, two of them into the same gap
    join("ab", FOLD_NAMES[5] + "e", FOLD_NAMES[20] + "a", FOLD_NAMES[20] + "b", "zy")
    _assert_averages_match(net)
    # a key that adds a new column, written to a member and a joining member
    teal = net.add_concept("teal", ATTRIBUTE)
    net.set_strength(net.require(FOLD_NAMES[3], OBJECT), teal, IS, rng.random())
    join("ac")
    net.set_strength(net.require("ac", OBJECT), teal, IS, rng.random())
    _assert_averages_match(net)
    # enough joins, one average each, to outgrow the rows the first
    # average gave the block: twice its start row and members
    for name in FOLD_NAMES:
        join(name + "x")
        _assert_averages_match(net)
    assert 1 + len(net.members_of(herd)) > 2 * (1 + len(FOLD_START["herd"]))
    # an observe on an existing member's color edge, after an average
    before = net.member_average(herd)
    net.observe_association(net.require(FOLD_NAMES[7], OBJECT), red, IS)
    assert net.member_average(herd) != before
    _assert_averages_match(net)
