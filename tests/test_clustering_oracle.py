"""agglomerative_order and both of its merge loops against the dict-of-pairs oracle.

Comparisons are exact: identical clusters_to_text and float == on every
merge height. agglomerative_order picks one loop by row count, so every
check also runs each loop directly, whatever the row count.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import clustering_oracle
from wugnet.curriculum import BUILTIN_PHASES, builtin_curriculum
from wugnet.graph import ACTION, ATTRIBUTE, CATEGORY, IS, OBJECT, Concept, ConceptNetwork
from wugnet.learner import learn_curriculum
from wugnet.matrix import (
    ConceptMatrix,
    ExpandedColumn,
    _array_merges,
    _cosine_distances,
    _list_merges,
    _merge_start,
    agglomerative_order,
    build_matrix,
    clusters_to_text,
    cosine_similarity,
)

KINDS = (OBJECT, ACTION, ATTRIBUTE, CATEGORY)
NAMES = tuple("abcdefgh")
# 1.5e-136 squared times itself underflows: cosine's sqrt(uu) * sqrt(vv) fallback
VALUES = (0.0, 0.2, 0.36, 0.488, 1.0, 1.5e-136, 3e-170)


def merge_heights(tree):
    """Heights of the internal nodes in pre-order."""
    heights, stack = [], [tree] if tree is not None else []
    while stack:
        node = stack.pop()
        if node.children is not None:
            heights.append(node.height)
            stack.extend(reversed(node.children))
    return heights


def assert_same_as_oracle(m, oracle=clustering_oracle.agglomerative_order):
    want_leaves, want_tree = oracle(m)
    want = clusters_to_text(want_leaves, want_tree), merge_heights(want_tree)
    results = [agglomerative_order(m)]
    if len(m.concepts) > 1:  # the loops start at two rows
        for merges in (_array_merges, _list_merges):
            root = merges(m.concepts, *_merge_start(m))
            results.append((root.leaves(), root))
    for leaves, tree in results:
        assert (clusters_to_text(leaves, tree), merge_heights(tree)) == want


def concept_matrix(concepts, rows, cols=None):
    cols = cols if cols is not None else (len(rows[0]) if rows else 1)
    columns = tuple(ExpandedColumn(Concept(ATTRIBUTE, f"x{j}"), IS) for j in range(cols))
    weights = np.array(rows, dtype=np.float64).reshape(len(rows), cols)
    return ConceptMatrix(tuple(Concept(kind, name) for kind, name in concepts), columns, weights)


@st.composite
def matrices(draw):
    cols = draw(st.integers(1, 5))
    templates = draw(st.lists(st.lists(st.sampled_from(VALUES), min_size=cols, max_size=cols),
                              min_size=1, max_size=6))
    # few names over four kinds: concepts of different kinds often share a name
    names = NAMES[:draw(st.integers(1, len(NAMES)))]
    concepts = draw(st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from(names)),
                             max_size=30, unique=True))
    # rows repeat a few templates, as duplicates, all-zero rows or scaled copies,
    # so that many pairs tie on distance
    picks = draw(st.lists(st.tuples(st.sampled_from(templates),
                                    st.sampled_from((1.0, 0.0, 0.5, 3.0))),
                          min_size=len(concepts), max_size=len(concepts)))
    rows = [[factor * x for x in template] for template, factor in picks]
    return concept_matrix(concepts, rows, cols)


# long rows of arbitrary floats: a Gram product W @ W.T would sum them in another order
@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 40)),
              elements=st.one_of(st.sampled_from(VALUES), st.floats(0.0, 1.0))))
def test_initial_distances_are_cosine_bit_for_bit(weights):
    dist = _cosine_distances(weights)
    n = len(weights)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert dist[i, j] == 1.0 - cosine_similarity(weights[i], weights[j])


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_matches_oracle_on_generated_matrices(m):
    assert_same_as_oracle(m)


ALL_TIED = [[0.5, 0.2]] * 7
FORCED = {
    "duplicate rows": ([(OBJECT, n) for n in "dbca"], [[1, 0], [0.2, 0.36], [1, 0], [0.2, 0.36]]),
    "all-zero rows": ([(OBJECT, n) for n in "cbadfe"],
                      [[0, 0], [0.2, 0], [0, 0], [0, 0], [0, 1], [0, 0]]),
    "scaled copies": ([(OBJECT, n) for n in "abcde"],
                      [[0.2, 0.36, 1], [0.1, 0.18, 0.5], [0.6, 1.08, 3], [1, 0, 0], [0.5, 0, 0]]),
    "tiny rows": ([(OBJECT, n) for n in "abcd"],
                  [[0, 1.5e-136], [1.5e-136, 1.5e-136], [1.5e-136, 0], [0, 1.5e-136]]),
    # every pair ties on distance, and pairs tie on names too, also once merged
    "object and action share a name": (
        [(OBJECT, "b"), (ACTION, "a"), (OBJECT, "a"), (CATEGORY, "a"), (ACTION, "b"),
         (ATTRIBUTE, "a"), (ATTRIBUTE, "c")], ALL_TIED),
    "shared names, other rows": (
        [(ACTION, "x"), (OBJECT, "y"), (OBJECT, "x"), (ACTION, "y")],
        [[1, 0.2], [0.2, 1], [1, 0.2], [0.2, 1]]),
    # two merged-cluster pairs tie on distance and names: the newer cluster's id decides
    "shared names, merged clusters": (
        [(OBJECT, "a"), (ATTRIBUTE, "c"), (ATTRIBUTE, "b"), (CATEGORY, "c"), (ACTION, "b"),
         (ATTRIBUTE, "a"), (CATEGORY, "b")],
        [[0, 0.36, 0], [1, 1, 1], [1, 1, 1], [0, 0.36, 0], [1, 1, 1], [1, 1, 1], [0, 0.36, 0]]),
}


@pytest.mark.parametrize("name", FORCED)
def test_matches_oracle_on_forced_ties(name):
    concepts, rows = FORCED[name]
    assert_same_as_oracle(concept_matrix(concepts, rows))


@pytest.mark.parametrize("name", BUILTIN_PHASES)
def test_matches_oracle_on_builtin_curricula(name):
    net = ConceptNetwork()
    learn_curriculum(net, builtin_curriculum(name, seed=0))
    assert_same_as_oracle(build_matrix(net))
