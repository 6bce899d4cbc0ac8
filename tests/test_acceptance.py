"""Acceptance suite: one test per shipping criterion.

Each test prints a `[criterion NN] PASS/FAIL` line (visible with -s).
Tolerances are pinned in the assertions themselves.
"""

import functools
import random
import time

import numpy as np
import pytest

from wugnet.curriculum import builtin_curriculum
from wugnet.graph import (
    ATTRIBUTE,
    CATEGORY,
    IS,
    OBJECT,
    ConceptNetwork,
    diff_networks,
    network_from_text,
    network_to_text,
)
from wugnet.learner import (
    Entity,
    LearningInstance,
    Situation,
    learn_curriculum,
    observe,
)
from wugnet.lang import parse
from wugnet.matrix import (
    agglomerative_order,
    build_matrix,
    concept_vector,
    cosine_similarity,
)
from wugnet.tasks import (
    NOVEL_OBJECTS,
    TASK2_CURRICULA,
    membership_instance,
    run_task1,
    run_task2,
    run_task3,
)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[criterion {number:02d}] FAIL - {description}")
                raise
            print(f"[criterion {number:02d}] PASS - {description}")
        return run
    return wrap


def _trained(name, seed=0, with_novels=False):
    net = ConceptNetwork()
    learn_curriculum(net, builtin_curriculum(name, seed=seed))
    if with_novels:
        for novel, category in NOVEL_OBJECTS:
            observe(net, membership_instance(novel, category))
    return net


@criterion(1, "plateauing update matches 1 - 0.8^k for k in [1, 50]")
def test_criterion_01_update_rule_closed_form():
    net = ConceptNetwork()
    a = net.add_concept("a", OBJECT)
    b = net.add_concept("b", ATTRIBUTE)
    observed = [net.write(a, b, IS, None, False)[1] for _ in range(50)]
    for k, w in enumerate(observed, start=1):
        assert abs(w - (1.0 - 0.8 ** k)) < 1e-12, (k, w)
    assert abs(observed[0] - 0.2) < 1e-12
    assert abs(observed[1] - 0.36) < 1e-12
    assert abs(observed[2] - 0.488) < 1e-12


EXPECTED_BEFORE = {
    ("cookie", "blue"): 0.2, ("cookie", "green"): 0.488,
    ("cookie", "light-brown"): 0.2, ("cookie", "red"): 0.2,
    ("paper", "blue"): 0.2, ("paper", "dark-brown"): 0.36,
    ("paper", "red"): 0.2, ("paper", "white"): 0.2,
    ("watermelon", "dark-brown"): 0.2, ("watermelon", "green"): 0.2,
    ("watermelon", "light-brown"): 0.2, ("watermelon", "red"): 0.2,
}
RAISED_PAIRS = {("cookie", "light-brown"), ("paper", "white"), ("watermelon", "green")}


@criterion(2, "color-generics task reproduces the exact before/after table")
def test_criterion_02_task1_exact_values():
    start = time.monotonic()
    result = run_task1()
    rows = {(obj, color): (before, after) for obj, color, before, after in result.rows}
    assert set(rows) == set(EXPECTED_BEFORE)
    for pair, expected in EXPECTED_BEFORE.items():
        before, after = rows[pair]
        assert abs(before - expected) < 1e-9, pair
        if pair in RAISED_PAIRS:
            assert abs(after - 1.0) < 1e-9, pair
        else:
            assert abs(after - before) < 1e-9, pair
    assert time.monotonic() - start < 1.0


@criterion(3, "category inference: argmax, exact snarp row, growing off-mass (10 seeds)")
def test_criterion_03_task2_qualitative():
    start = time.monotonic()
    taught = dict(NOVEL_OBJECTS)
    first, last = TASK2_CURRICULA[0], TASK2_CURRICULA[-1]
    for seed in range(10):
        result = run_task2(seed=seed)
        values = {(r[0], r[1]): {"animal": r[2], "food": r[3], "people": r[4]}
                  for r in result.rows}
        for (curriculum, novel), sims in values.items():
            assert max(sims, key=sims.get) == taught[novel], (seed, curriculum, novel)
        snarp = values[(first, "snarp")]
        assert abs(snarp["people"] - 1.0) <= 1e-6
        assert snarp["animal"] == 0.0 and snarp["food"] == 0.0
        for novel in taught:
            off_first = sum(v for c, v in values[(first, novel)].items()
                            if c != taught[novel])
            off_last = sum(v for c, v in values[(last, novel)].items()
                           if c != taught[novel])
            assert off_first <= off_last + 1e-12, (seed, novel)
    assert time.monotonic() - start < 10.0


@criterion(4, "joint category: chicken alone explains the food-animal bleed")
def test_criterion_04_task3_qualitative():
    start = time.monotonic()
    result = run_task3()
    food = {r[0]: r[2] for r in result.rows}
    animal = {r[0]: r[1] for r in result.rows}
    assert food["none"] == 0.0
    assert food["beef-and-cow"] == 0.0
    assert food["chicken"] > food["chicken-beef-and-cow"] > 0.0
    for condition in food:
        assert animal[condition] > food[condition], condition
    assert time.monotonic() - start < 10.0


@criterion(5, "generic edges survive observation; task-1 diff is exactly 3 edges")
def test_criterion_05_generic_dominance_and_conservation():
    net = ConceptNetwork()
    rng = random.Random(42)
    objs = [net.add_concept(n, OBJECT) for n in ("ball", "cup", "dog")]
    attrs = [net.add_concept(n, ATTRIBUTE) for n in ("red", "blue")]
    net.write(objs[0], attrs[0], IS, 1.0, True)
    for _ in range(100):
        net.write(rng.choice(objs), rng.choice(attrs), IS, None, False)
    assert net.get_strength(objs[0], attrs[0], IS) == 1.0

    # independent replay of the task-1 phases, diffed edge by edge
    trained = ConceptNetwork()
    learn_curriculum(trained, builtin_curriculum("objects-and-colors"))
    after = trained.copy()
    for text, obj, color in (("watermelons are green", "watermelon", "green"),
                             ("papers are white", "paper", "white"),
                             ("cookies are light brown", "cookie", "light-brown")):
        observe(after, LearningInstance(
            Situation(entities=(Entity("e0", obj, color),)), text))
    changes = diff_networks(trained, after)
    assert len(changes) == 3
    assert all(change.startswith("~edge") and change.endswith("-> 1") for change in changes)
    touched = {change.split()[1] for change in changes}
    assert touched == {"object/watermelon", "object/paper", "object/cookie"}


@criterion(6, "matrix mirrors the graph; cosine is symmetric and scale-stable")
def test_criterion_06_matrix_graph_oracle():
    net = _trained("obj-actions-kinds-generics", with_novels=True)
    m = build_matrix(net)
    rng = random.Random(7)
    concepts = net.concepts()
    pairs = [(col.target, col.label) for col in m.columns]
    column_of = {pair: j for j, pair in enumerate(pairs)}
    for k in range(1000):
        src = rng.choice(concepts)
        if k % 5 == 0:  # absent (target, label) combos must read as 0 on both sides
            target = rng.choice(concepts)
            label = rng.choice(("slot-1", "slot-2", IS))
        else:
            target, label = rng.choice(pairs)
        j = column_of.get((target, label))
        stored = 0.0 if j is None else float(m.weights[m.row_of(src), j])
        assert stored == net.get_strength(src, target, label)

    for _ in range(100):
        dim = rng.randint(2, 12)
        u = np.array([rng.random() for _ in range(dim)])
        v = np.array([rng.random() for _ in range(dim)])
        assert cosine_similarity(u, v) == cosine_similarity(v, u)
        candidates = [np.array([rng.random() for _ in range(dim)]) for _ in range(5)]
        sims = [cosine_similarity(u, c) for c in candidates]
        alpha = rng.uniform(0.01, 50.0)
        scaled = [cosine_similarity(alpha * u, c) for c in candidates]
        assert int(np.argmax(sims)) == int(np.argmax(scaled))


@criterion(7, "inherited features equal the pre-insertion member average")
def test_criterion_07_feature_inheritance_oracle():
    for curriculum in TASK2_CURRICULA:
        net = _trained(curriculum)
        animal = net.require("animal", CATEGORY)
        members = net.members_of(animal)
        before = build_matrix(net)
        member_rows = [concept_vector(before, member) for member in members]
        expected = {
            (col.target, col.label): float(np.mean([row[j] for row in member_rows]))
            for j, col in enumerate(before.columns)
        }

        observe(net, membership_instance("wug", "animal"))
        after = build_matrix(net)
        wug = net.require("wug", OBJECT)
        row = concept_vector(after, wug)
        for j, col in enumerate(after.columns):
            want = expected.get((col.target, col.label), 0.0)
            if (col.target, col.label) == (animal, IS):
                want = 1.0  # the asserted membership edge itself
            assert abs(row[j] - want) < 1e-12, (curriculum, col.key)


@criterion(8, "bare-plural genericity verdicts and total parse coverage")
def test_criterion_08_parser_suite():
    assert parse("bears sit").is_generic
    assert not parse("a bear sits").is_generic
    assert not parse("two balls").is_generic
    wugs = parse("wugs are animals")
    assert wugs.is_generic and wugs.noun_phrases[0].novel
    cookies = parse("cookies are light brown")
    assert cookies.is_generic and cookies.complement_is_color
    parsed = 0
    for name in ("objects-and-kinds", "objects-kinds-and-generics",
                 "obj-actions-kinds-generics", "objects-and-actions",
                 "objects-and-colors"):
        for seed in (0, 1):
            for instance in builtin_curriculum(name, seed=seed).instances:
                parse(instance.utterance)  # raises on any failure
                parsed += 1
    assert parsed > 0


@criterion(9, "trained network round-trips through the file format bit-exactly")
def test_criterion_09_persistence_round_trip():
    net = _trained("obj-actions-kinds-generics", with_novels=True)
    loaded = network_from_text(network_to_text(net))
    assert loaded == net  # node set, edge set, weights, generic flags
    for e in net.edges():
        src = loaded.require(e.source.name, e.source.kind)
        dst = loaded.require(e.target.name, e.target.kind)
        assert loaded.get_strength(src, dst, e.label) == e.weight


@criterion(10, "liquids and people cluster contiguously on objects+actions")
def test_criterion_10_clustering_sanity():
    net = _trained("objects-and-actions")
    leaves, _ = agglomerative_order(build_matrix(net))
    names = [c.name for c in leaves]
    for group in ({"water", "juice", "milk"}, {"mom", "dad", "baby"}):
        positions = sorted(names.index(n) for n in group)
        assert positions[-1] - positions[0] == len(group) - 1, (group, names)
