import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wugnet.graph import (
    ATTRIBUTE,
    CATEGORY,
    IS,
    OBJECT,
    SLOT1,
    SLOT2,
    Concept,
    ConceptNetwork,
    network_from_text,
)
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
    net.write(mom, drink, SLOT1, None, False)
    return net, mom, drink


def test_single_edge_matrix():
    net, mom, drink = single_edge_network()
    m = build_matrix(net)
    assert [c.key for c in m.columns] == ["drink⊕slot-1"]
    assert weight_at(m, mom, drink, SLOT1) == net.get_strength(mom, drink, SLOT1)


def test_slots_expand_to_distinct_columns():
    net, mom, drink = single_edge_network()
    juice = net.add_concept("juice", OBJECT)
    net.write(juice, drink, SLOT2, None, False)
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
    net.write(other, red, IS, None, False)
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
        net.write(rng.choice(objs), rng.choice(attrs), IS, None, False)
    m = build_matrix(net)
    for _ in range(200):
        src = rng.choice(objs)
        dst = rng.choice(attrs)
        assert weight_at(m, src, dst, IS) == net.get_strength(src, dst, IS)


def test_rebuild_after_update_restores_consistency():
    net, mom, drink = single_edge_network()
    stale = build_matrix(net)
    net.write(mom, drink, SLOT1, None, False)
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
    net.write(a, x, IS, 0.8, False)
    net.write(b, y, IS, 0.4, False)
    net.write(a, cat, IS, 1.0, True)
    net.write(b, cat, IS, 1.0, True)
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
    net.write(a, cat, IS, 1.0, True)
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


def strided_weights():
    """A sparse 40 x 30 matrix as a Fortran-ordered copy and as every other column."""
    rng = np.random.default_rng(40)
    w = rng.random((40, 30))
    w[rng.random((40, 30)) < 0.6] = 0.0
    return np.asfortranarray(w), w[:, ::2]


def test_cosine_reads_strided_rows_as_their_contiguous_copies():
    # BLAS sums a strided dot product in another order than a contiguous one
    for strided in strided_weights():
        contiguous = np.ascontiguousarray(strided)
        for i in range(len(strided)):
            for j in range(len(strided)):
                if i != j:
                    assert (cosine_similarity(strided[i], strided[j])
                            == cosine_similarity(contiguous[i], contiguous[j]))


def reference_cosine(u, v):
    """cosine_similarity's arithmetic, each dot product as float(np.dot(...))."""
    u = np.ascontiguousarray(u, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
    uu, vv = float(np.dot(u, u)), float(np.dot(v, v))
    if uu == 0.0 or vv == 0.0:
        return 0.0
    denom = math.sqrt(uu * vv)
    if denom == 0.0:
        denom = math.sqrt(uu) * math.sqrt(vv)
    return min(1.0, max(0.0, float(np.dot(u, v)) / denom))


def test_cosine_is_the_np_dot_reference_on_random_vectors():
    rng = np.random.default_rng(41)
    for _ in range(600):
        n = int(rng.integers(1, 201))
        u, v = rng.random(n), rng.random(n)
        u[rng.random(n) < rng.random()] = 0.0
        v[rng.random(n) < rng.random()] = 0.0
        u *= 10.0 ** rng.integers(-160, 1)  # tiny norms reach the underflow fallback
        if rng.random() < 0.2:
            v = u.copy()
        assert cosine_similarity(u, v) == reference_cosine(u, v)
    for strided in strided_weights():
        for i in range(len(strided)):
            for j in range(len(strided)):
                assert cosine_similarity(strided[i], strided[j]) == reference_cosine(
                    strided[i], strided[j])


def test_category_vector_linearity():
    # adding a member equal to the category vector leaves the vector unchanged
    net = ConceptNetwork()
    cat = net.add_concept("c", CATEGORY)
    x = net.add_concept("x", ATTRIBUTE)
    y = net.add_concept("y", ATTRIBUTE)
    a = net.add_concept("a", OBJECT)
    b = net.add_concept("b", OBJECT)
    net.write(a, x, IS, 0.8, False)
    net.write(b, x, IS, 0.4, False)
    net.write(b, y, IS, 0.2, False)
    net.write(a, cat, IS, 1.0, True)
    net.write(b, cat, IS, 1.0, True)
    m = build_matrix(net)
    mean = category_vector(m, cat, [a, b])
    clone = net.add_concept("clone", OBJECT)
    net.write(clone, x, IS, float(mean[[c.target for c in m.columns].index(x)]), False)
    net.write(clone, y, IS, float(mean[[c.target for c in m.columns].index(y)]), False)
    net.write(clone, cat, IS, 1.0, True)
    m2 = build_matrix(net)
    mean2 = category_vector(m2, cat, net.members_of(cat))
    for col, value in zip(m.columns, mean):
        j = [(c.target, c.label) for c in m2.columns].index((col.target, col.label))
        assert mean2[j] == pytest.approx(value, abs=1e-12)


# -- kept category vectors -------------------------------------------------

def uncached_mean(m, members):
    return m.weights[[m.row_of(c) for c in members]].mean(axis=0)


def three_member_matrix():
    a, b, c = (Concept(OBJECT, name) for name in "abc")
    cat = Concept(CATEGORY, "things")
    columns = tuple(ExpandedColumn(Concept(ATTRIBUTE, name), IS) for name in "xy")
    # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 round differently
    weights = np.array([[0.1, 1.0], [0.2, 0.7], [0.3, 0.4]])
    return ConceptMatrix((a, b, c), columns, weights), cat, a, b, c


def learned_networks():
    """(label, network): every built-in, task 2's three networks after their
    novel generics, and a concept-space-sized synthetic network (250 objects,
    83-84 per category), built as tests/golden.py builds its synthetic inputs."""
    from golden import synth
    from wugnet.curriculum import BUILTIN_PHASES, builtin_curriculum
    from wugnet.learner import learn_curriculum, observe
    from wugnet.tasks import NOVEL_OBJECTS, TASK2_CURRICULA, membership_instance

    for name in sorted(BUILTIN_PHASES):
        net = ConceptNetwork()
        learn_curriculum(net, builtin_curriculum(name))
        yield name, net
    for name in TASK2_CURRICULA:
        net = ConceptNetwork()
        learn_curriculum(net, builtin_curriculum(name))
        for novel, category in NOVEL_OBJECTS:
            observe(net, membership_instance(novel, category))
        yield f"task 2 {name}", net
    lexicon, curriculum = synth().concept_space_inputs(0, 250, 250)
    net = ConceptNetwork()
    learn_curriculum(net, curriculum, lexicon)
    yield "concept-space", net


def test_repeated_category_vectors_are_the_uncached_mean():
    sizes = []
    for label, net in learned_networks():
        m = build_matrix(net)
        for cat in (c for c in net.concepts() if c.kind == CATEGORY):
            members = net.members_of(cat)
            sizes.append(len(members))
            expected = uncached_mean(m, members).tobytes()
            vectors = [category_vector(m, cat, net.members_of(cat)) for _ in range(3)]
            assert [v.tobytes() for v in vectors] == [expected] * 3, (label, cat)
            assert not np.shares_memory(vectors[0], vectors[1])
    assert len(sizes) >= 20 and min(sizes) <= 3 and max(sizes) >= 80


cells = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0, width=64))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_category_vectors_of_any_member_sequence_are_the_uncached_mean(data):
    rows = data.draw(st.integers(1, 12), label="rows")
    cols = data.draw(st.integers(1, 6), label="cols")
    weights = np.array(data.draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols)),
                       dtype=np.float64).reshape(rows, cols)
    concepts = tuple(Concept(OBJECT, f"m-{chr(97 + i)}") for i in range(rows))
    columns = tuple(ExpandedColumn(Concept(ATTRIBUTE, f"a-{chr(97 + j)}"), IS)
                    for j in range(cols))
    m = ConceptMatrix(concepts, columns, weights)
    cat = Concept(CATEGORY, "things")
    members = data.draw(st.lists(st.sampled_from(concepts), min_size=1, max_size=40),
                        label="members")
    for _ in range(data.draw(st.integers(1, 6), label="calls")):
        step = data.draw(st.sampled_from(("repeat", "reorder", "new")), label="step")
        if step == "reorder":
            members = data.draw(st.permutations(members), label="members")
        elif step == "new":
            members = data.draw(st.lists(st.sampled_from(concepts), min_size=1, max_size=40),
                                label="members")
        assert category_vector(m, cat, members).tobytes() == uncached_mean(m, members).tobytes()


def test_each_member_sequence_gets_its_own_mean():
    m, cat, a, b, c = three_member_matrix()
    assert uncached_mean(m, [a, b, c]).tobytes() != uncached_mean(m, [c, b, a]).tobytes()
    for members in ([a], [a, b], [b, a], [a, b], [a], [a, b, c], [c, b, a], [a, b, c],
                    [a, b, c], (Concept(OBJECT, "a"), b, c)):
        assert category_vector(m, cat, members).tobytes() == uncached_mean(m, members).tobytes()


def test_editing_a_returned_category_vector_leaves_the_next_unchanged():
    m, cat, a, b, c = three_member_matrix()
    expected = uncached_mean(m, [a, b, c]).tobytes()
    first = category_vector(m, cat, [a, b, c])
    first[:] = 9.0
    second = category_vector(m, cat, [a, b, c])
    assert second.tobytes() == expected
    second += 1.0
    assert category_vector(m, cat, [a, b, c]).tobytes() == expected


def test_matrix_weights_are_read_only():
    net, mom, drink = single_edge_network()
    m = build_matrix(net)
    with pytest.raises(ValueError):
        m.weights[0, 0] = 0.5
    with pytest.raises(ValueError):
        m.weights += 1.0
    own = np.zeros((1, 1))
    ConceptMatrix((mom,), (ExpandedColumn(drink, SLOT1),), own)
    own[0, 0] = 0.5  # the caller's array stays writable
    assert own[0, 0] == 0.5


def test_category_vector_errors_keep_nothing():
    m, cat, a, b, c = three_member_matrix()
    expected = category_vector(m, cat, [a, b]).tobytes()
    with pytest.raises(ValueError, match="category category/things has no members"):
        category_vector(m, cat, [])
    with pytest.raises(ValueError, match="unknown concept object/ghost"):
        category_vector(m, cat, [a, Concept(OBJECT, "ghost")])
    with pytest.raises(ValueError, match="unknown concept object/ghost"):
        category_vector(m, Concept(CATEGORY, "other"), [Concept(OBJECT, "ghost")])
    assert m._category_vectors.keys() == {cat}
    assert category_vector(m, cat, [a, b]).tobytes() == expected


# -- clustering -----------------------------------------------------------

def test_identical_rows_merge_first_at_distance_zero():
    net = ConceptNetwork()
    red = net.add_concept("red", ATTRIBUTE)
    for name in ("ball", "cup"):
        net.write(net.add_concept(name, OBJECT), red, IS, 0.5, False)
    blue = net.add_concept("blue", ATTRIBUTE)
    net.write(net.add_concept("box", OBJECT), blue, IS, 0.9, False)
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
                    net.write(src, a, IS, round(rng.random(), 3), False)
        return agglomerative_order(build_matrix(net))

    (leaves1, tree1), (leaves2, tree2) = build(), build()
    assert [c.name for c in leaves1] == [c.name for c in leaves2]
    assert tree1.to_text() == tree2.to_text()


def test_merge_tree_text_is_nested_parentheses():
    net = ConceptNetwork()
    red = net.add_concept("red", ATTRIBUTE)
    for name in ("a", "b"):
        net.write(net.add_concept(name, OBJECT), red, IS, 1.0, False)
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


def test_zero_weight_edges_fill_their_column_with_their_sign():
    # red⊕is is a column through cup's positive edge; mom's -0 and dad's 0
    # edges to it are written too, and drink⊕slot-1 (a 0 edge only) is no column
    net = network_from_text(
        "conceptnet v1\n"
        "node attribute red\nnode action drink\nnode object cup\nnode object dad\nnode object mom\n"
        "edge object/cup is attribute/red 0.5 generic:0\n"
        "edge object/mom is attribute/red -0 generic:0\n"
        "edge object/dad is attribute/red 0 generic:0\n"
        "edge object/dad slot-1 action/drink 0 generic:0\n")
    m = build_matrix(net)
    assert [c.key for c in m.columns] == ["red⊕is"]
    mom, dad = net.get("mom", OBJECT), net.get("dad", OBJECT)
    assert math.copysign(1.0, m.weights[m.row_of(mom), 0]) == -1.0
    assert math.copysign(1.0, m.weights[m.row_of(dad), 0]) == 1.0
    lines = matrix_to_csv(m).splitlines()
    assert lines == ["concept,red⊕is", "drink,0", "red,0", "cup,0.5", "dad,0", "mom,-0"]
    assert lines[1:] == [f"{c.name},{m.weights[i, 0]:.6g}" for i, c in enumerate(m.concepts)]


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
