import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wugnet.graph import ATTRIBUTE, CATEGORY, IS, OBJECT, SLOT1, SLOT2, Concept, ConceptNetwork
from wugnet.matrix import (
    ClusterNode,
    ConceptMatrix,
    ExpandedColumn,
    agglomerative_order,
    build_matrix,
    category_vector,
    clusters_to_text,
    concept_vector,
    cosine_similarity,
    matrix_to_csv,
)


def weight_at(m, concept, target, label):
    """m.weights at (concept, target⊕label); 0.0 when m has no such column."""
    cols = [j for j, col in enumerate(m.columns) if (col.target, col.label) == (target, label)]
    return float(m.weights[m.row_of(concept), cols[0]]) if cols else 0.0


def single_edge_network():
    net = ConceptNetwork()
    mom = net.add_concept("mom", OBJECT)
    drink = net.add_concept("drink", "action")
    net.observe_association(mom, drink, SLOT1)
    return net, mom, drink


def test_single_edge_matrix():
    net, mom, drink = single_edge_network()
    m = build_matrix(net)
    assert [c.key for c in m.columns] == ["drink⊕slot-1"]
    assert weight_at(m, mom, drink, SLOT1) == net.get_strength(mom, drink, SLOT1)


def test_slots_expand_to_distinct_columns():
    net, mom, drink = single_edge_network()
    juice = net.add_concept("juice", OBJECT)
    net.observe_association(juice, drink, SLOT2)
    m = build_matrix(net)
    keys = [c.key for c in m.columns]
    assert "drink⊕slot-1" in keys and "drink⊕slot-2" in keys


def test_empty_network_builds_empty_matrix():
    m = build_matrix(ConceptNetwork())
    assert m.shape == (0, 0)
    assert matrix_to_csv(m) == "concept\n"


def test_isolated_node_has_zero_vector():
    net = ConceptNetwork()
    rock = net.add_concept("rock", OBJECT)
    other = net.add_concept("ball", OBJECT)
    red = net.add_concept("red", ATTRIBUTE)
    net.observe_association(other, red, IS)
    m = build_matrix(net)
    assert not concept_vector(m, rock).any()


def test_unknown_concept_rejected():
    net, mom, drink = single_edge_network()
    m = build_matrix(net)
    from wugnet.graph import Concept
    with pytest.raises(ValueError):
        concept_vector(m, Concept(OBJECT, "ghost"))


def test_matrix_entries_match_get_strength_on_random_probes():
    net = ConceptNetwork()
    rng = random.Random(1)
    objs = [net.add_concept(f"obj-{chr(97 + i)}", OBJECT) for i in range(6)]
    attrs = [net.add_concept(f"attr-{chr(97 + i)}", ATTRIBUTE) for i in range(4)]
    for _ in range(40):
        net.observe_association(rng.choice(objs), rng.choice(attrs), IS)
    m = build_matrix(net)
    for _ in range(200):
        src = rng.choice(objs)
        dst = rng.choice(attrs)
        assert weight_at(m, src, dst, IS) == net.get_strength(src, dst, IS)


def test_rebuild_after_update_restores_consistency():
    net, mom, drink = single_edge_network()
    stale = build_matrix(net)
    net.observe_association(mom, drink, SLOT1)
    assert weight_at(stale, mom, drink, SLOT1) != net.get_strength(mom, drink, SLOT1)
    fresh = build_matrix(net)
    assert weight_at(fresh, mom, drink, SLOT1) == net.get_strength(mom, drink, SLOT1)


def test_category_vector_is_the_member_mean():
    net = ConceptNetwork()
    a = net.add_concept("a", OBJECT)
    b = net.add_concept("b", OBJECT)
    x = net.add_concept("x", ATTRIBUTE)
    y = net.add_concept("y", ATTRIBUTE)
    cat = net.add_concept("things", CATEGORY)
    net.set_strength(a, x, IS, 0.8)
    net.set_strength(b, y, IS, 0.4)
    net.assert_generic(a, cat, IS)
    net.assert_generic(b, cat, IS)
    m = build_matrix(net)
    vec = category_vector(m, cat, net.members_of(cat))
    brute = (concept_vector(m, a) + concept_vector(m, b)) / 2.0
    assert np.array_equal(vec, brute)
    # disjoint features are halved
    assert vec[m.columns.index(next(c for c in m.columns if c.target == x))] == 0.4


def test_single_member_category_vector_is_that_row():
    net = ConceptNetwork()
    a = net.add_concept("a", OBJECT)
    cat = net.add_concept("c", CATEGORY)
    net.assert_generic(a, cat, IS)
    m = build_matrix(net)
    assert np.array_equal(category_vector(m, cat, [a]), concept_vector(m, a))


def test_people_category_averages_its_three_members():
    from wugnet.curriculum import builtin_curriculum
    from wugnet.learner import learn_curriculum

    net = ConceptNetwork()
    learn_curriculum(net, builtin_curriculum("obj-actions-kinds-generics"))
    m = build_matrix(net)
    people = net.require("people", CATEGORY)
    members = net.members_of(people)
    assert [c.name for c in members] == ["baby", "dad", "mom"]
    vec = category_vector(m, people, members)
    brute = sum(concept_vector(m, member) for member in members) / 3.0
    assert np.allclose(vec, brute, atol=1e-15)


def test_empty_category_vector_is_an_error():
    net = ConceptNetwork()
    cat = net.add_concept("c", CATEGORY)
    m = build_matrix(net)
    with pytest.raises(ValueError):
        category_vector(m, cat, [])


def test_cosine_similarity_basics():
    assert cosine_similarity([1, 1], [1, 1]) == 1.0
    assert cosine_similarity([1, 0], [0, 1]) == 0.0
    assert cosine_similarity([0, 0], [1, 1]) == 0.0  # zero-norm convention
    assert cosine_similarity([1, 1, 0], [1, 0, 0]) == pytest.approx(
        0.7071067811865475, abs=1e-15)
    with pytest.raises(ValueError):
        cosine_similarity([1, 0], [1, 0, 0])


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=8),
       st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=8))
@example([0.0, 1.5e-136], [0.0, 1.5e-136])  # |u|^2 * |v|^2 underflows to 0.0
def test_cosine_symmetry_and_range(u, v):
    n = min(len(u), len(v))
    u, v = u[:n], v[:n]
    s = cosine_similarity(u, v)
    assert s == cosine_similarity(v, u)
    assert 0.0 <= s <= 1.0


@settings(max_examples=100)
@given(st.lists(st.floats(min_value=0.01, max_value=1), min_size=3, max_size=6),
       st.floats(min_value=0.01, max_value=100.0))
def test_cosine_scale_invariance(u, alpha):
    v = [0.5] * len(u)
    assert cosine_similarity([alpha * x for x in u], v) == pytest.approx(
        cosine_similarity(u, v), abs=1e-12)


def test_cosine_reads_strided_rows_as_their_contiguous_copies():
    # BLAS sums a strided dot product in another order than a contiguous one
    rng = np.random.default_rng(40)
    w = rng.random((40, 30))
    w[rng.random((40, 30)) < 0.6] = 0.0
    for strided in (np.asfortranarray(w), w[:, ::2]):
        contiguous = np.ascontiguousarray(strided)
        for i in range(len(w)):
            for j in range(len(w)):
                if i != j:
                    assert (cosine_similarity(strided[i], strided[j])
                            == cosine_similarity(contiguous[i], contiguous[j]))


def test_category_vector_linearity():
    # adding a member equal to the category vector leaves the vector unchanged
    net = ConceptNetwork()
    cat = net.add_concept("c", CATEGORY)
    x = net.add_concept("x", ATTRIBUTE)
    y = net.add_concept("y", ATTRIBUTE)
    a = net.add_concept("a", OBJECT)
    b = net.add_concept("b", OBJECT)
    net.set_strength(a, x, IS, 0.8)
    net.set_strength(b, x, IS, 0.4)
    net.set_strength(b, y, IS, 0.2)
    net.assert_generic(a, cat, IS)
    net.assert_generic(b, cat, IS)
    m = build_matrix(net)
    mean = category_vector(m, cat, [a, b])
    clone = net.add_concept("clone", OBJECT)
    net.set_strength(clone, x, IS, float(mean[[c.target for c in m.columns].index(x)]))
    net.set_strength(clone, y, IS, float(mean[[c.target for c in m.columns].index(y)]))
    net.assert_generic(clone, cat, IS)
    m2 = build_matrix(net)
    mean2 = category_vector(m2, cat, net.members_of(cat))
    for col, value in zip(m.columns, mean):
        j = [(c.target, c.label) for c in m2.columns].index((col.target, col.label))
        assert mean2[j] == pytest.approx(value, abs=1e-12)


# -- clustering -----------------------------------------------------------

def test_identical_rows_merge_first_at_distance_zero():
    net = ConceptNetwork()
    red = net.add_concept("red", ATTRIBUTE)
    for name in ("ball", "cup"):
        net.set_strength(net.add_concept(name, OBJECT), red, IS, 0.5)
    blue = net.add_concept("blue", ATTRIBUTE)
    net.set_strength(net.add_concept("box", OBJECT), blue, IS, 0.9)
    m = build_matrix(net)
    leaves, tree = agglomerative_order(m)
    names = [c.name for c in leaves]
    assert abs(names.index("ball") - names.index("cup")) == 1

    def merges(node):
        if node.children is None:
            return []
        left, right = node.children
        return merges(left) + merges(right) + [(node.height, {c.name for c in node.leaves()})]

    first = min(merges(tree), key=lambda m: m[0])
    assert first == (0.0, {"ball", "cup"})
    assert tree.height > 0.0


def test_cosine_argmax_survives_coordinate_reordering():
    rng = random.Random(3)
    u = [rng.random() for _ in range(6)]
    candidates = [[rng.random() for _ in range(6)] for _ in range(4)]
    order = list(range(6))
    rng.shuffle(order)
    permuted_u = [u[i] for i in order]
    sims = [cosine_similarity(u, c) for c in candidates]
    permuted = [cosine_similarity(permuted_u, [c[i] for i in order]) for c in candidates]
    assert [round(s, 12) for s in sims] == [round(s, 12) for s in permuted]
    assert sims.index(max(sims)) == permuted.index(max(permuted))


def test_singleton_matrix_is_a_trivial_tree():
    net = ConceptNetwork()
    net.add_concept("dog", OBJECT)
    m = build_matrix(net)
    leaves, tree = agglomerative_order(m)
    assert [c.name for c in leaves] == ["dog"]
    assert tree.concept is not None and tree.height == 0.0


def test_empty_matrix_clusters_to_nothing():
    leaves, tree = agglomerative_order(build_matrix(ConceptNetwork()))
    assert leaves == [] and tree is None


def test_cluster_order_is_deterministic():
    def build():
        net = ConceptNetwork()
        rng = random.Random(7)
        attrs = [net.add_concept(n, ATTRIBUTE) for n in ("x", "y", "z")]
        for i in range(8):
            src = net.add_concept(f"n-{chr(97 + i)}", OBJECT)
            for a in attrs:
                if rng.random() < 0.6:
                    net.set_strength(src, a, IS, round(rng.random(), 3))
        return agglomerative_order(build_matrix(net))

    (leaves1, tree1), (leaves2, tree2) = build(), build()
    assert [c.name for c in leaves1] == [c.name for c in leaves2]
    assert tree1.to_text() == tree2.to_text()


def test_merge_tree_text_is_nested_parentheses():
    net = ConceptNetwork()
    red = net.add_concept("red", ATTRIBUTE)
    for name in ("a", "b"):
        net.set_strength(net.add_concept(name, OBJECT), red, IS, 1.0)
    m = build_matrix(net)
    leaves, tree = agglomerative_order(m)
    text = clusters_to_text(leaves, tree)
    assert text.splitlines()[0].startswith("leaf ")
    assert "(" in text.splitlines()[-1] and "):" in text.splitlines()[-1]


def _chain(names, nest):
    leaves = [ClusterNode(0.0, concept=Concept(OBJECT, name)) for name in names]
    if nest == "left":
        tree = leaves[0]
        for leaf in leaves[1:]:
            tree = ClusterNode(0.25, children=(tree, leaf))
        return tree
    tree = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        tree = ClusterNode(0.25, children=(leaf, tree))
    return tree


@pytest.mark.parametrize("nest", ["left", "right"])
def test_deep_chain_walks_without_recursion(nest):
    # an all-tied matrix merges into a chain n-1 levels deep
    names = [f"n{i:04d}" for i in range(5000)]
    tree = _chain(names, nest)
    if nest == "left":
        text = "(" * 4999 + names[0] + "".join(f" {name}):0.250000" for name in names[1:])
    else:
        text = "".join(f"({name} " for name in names[:-1]) + names[-1] + "):0.250000" * 4999
    assert [c.name for c in tree.leaves()] == names
    assert tree.to_text() == text
    assert clusters_to_text(tree.leaves(), tree).splitlines()[-1] == f"tree {text}"


def test_matrix_csv_layout():
    net, mom, drink = single_edge_network()
    csv = matrix_to_csv(build_matrix(net))
    lines = csv.splitlines()
    assert lines[0] == "concept,drink⊕slot-1"
    assert "mom,0.2" in lines


CSV_CELLS = (0.0, -0.0, 5e-324, 2.225073858507201e-308, 1.0 - 2.0 ** -53, 1.0,
             math.nan, math.inf, -math.inf, 1e-7, 123456789.0)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(0, 6), cols=st.integers(0, 6),
       cells=st.lists(st.one_of(st.sampled_from(CSV_CELLS), st.floats()), max_size=36))
def test_matrix_csv_formats_each_cell_as_the_numpy_scalar_did(rows, cols, cells):
    # matrix_to_csv formats Python floats from tolist(); the format of each
    # np.float64 it used to read cell by cell is the reference.
    weights = np.zeros((rows, cols))
    for k, cell in enumerate(cells[:rows * cols]):
        weights.flat[k] = cell
    concepts = tuple(Concept(OBJECT, f"c{'a' * i}") for i in range(rows))
    actions = tuple(ExpandedColumn(Concept("action", f"v{'a' * j}"), SLOT1) for j in range(cols))
    m = ConceptMatrix(concepts, actions, weights)
    lines = [",".join(["concept"] + [col.key for col in actions])]
    lines += [",".join([c.name] + [f"{v:.6g}" for v in weights[i]]) for i, c in enumerate(concepts)]
    assert matrix_to_csv(m) == "\n".join(lines) + "\n"
