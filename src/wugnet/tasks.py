"""The three built-in experiments.

1. Color generics: train arbitrary object-color pairings, then assert the
   typical color of three objects generically and compare strengths
   before and after.
2. Category inference: train curricula of increasing complexity, introduce
   novel objects ("wugs are animals"), and measure their similarity to
   each category.
3. Joint category: vary which of chicken / beef / cow the curriculum
   contains and measure how much the animal and food categories bleed
   into each other through the shared chicken concept.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .charts import grouped_bar_svg
from .curriculum import (
    DEFAULT_COLOR_GENERICS,
    DEFAULT_COLOR_TABLE,
    CurriculumSpec,
    builtin_spec,
    generate,
)
from .graph import ATTRIBUTE, CATEGORY, IS, LEARNING_RATE, OBJECT, ConceptNetwork, diff_networks
from .learner import Entity, LearningInstance, Situation, learn_curriculum, observe
from .lang import default_lexicon
from .matrix import build_matrix, category_vector, concept_vector, cosine_similarity

TASK2_CURRICULA = (
    "objects-and-kinds",
    "objects-kinds-and-generics",
    "obj-actions-kinds-generics",
)

NOVEL_OBJECTS = (("wug", "animal"), ("vonk", "food"), ("snarp", "people"))

TASK3_CONDITIONS = (
    ("none", ("chicken", "beef", "cow")),
    ("beef-and-cow", ("chicken",)),
    ("chicken", ("beef", "cow")),
    ("chicken-beef-and-cow", ()),
)


@dataclass
class TaskResult:
    """A task's table and checks, plus how its chart presents the table.

    The chart draws one bar series per value (float) column, named by the
    column header, over one group per row labelled by `groups`.
    """

    task_id: int
    columns: tuple[str, ...]
    rows: list[tuple]
    checks: list[tuple[str, bool]]
    title: str
    ylabel: str
    groups: list[str]

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _train(spec: CurriculumSpec) -> ConceptNetwork:
    net = ConceptNetwork()
    learn_curriculum(net, generate(spec))
    return net


def membership_instance(novel: str, category: str) -> LearningInstance:
    """A "wugs are animals" style test instance with a matching scene."""
    lex = default_lexicon()
    plural = lex.plural_surface(novel)
    return LearningInstance(
        Situation(entities=(Entity("e0", novel),)),
        f"{plural} are {lex.plural_surface(category)}")


def run_task1(seed: int = 0) -> TaskResult:
    """Associate objects with arbitrary colors, then assert typical colors."""
    spec = builtin_spec("objects-and-colors", seed=seed)
    net = _train(spec)
    lex = default_lexicon()

    pairs = [(obj, color) for obj, table in DEFAULT_COLOR_TABLE for color, _ in table]
    counts = {(obj, color): n for obj, table in DEFAULT_COLOR_TABLE for color, n in table}

    def strength(obj: str, color: str) -> float:
        obj_node = net.get(obj, OBJECT)
        color_node = net.get(color, ATTRIBUTE)
        if obj_node is None or color_node is None:
            return 0.0
        return net.get_strength(obj_node, color_node, IS)

    before = {pair: strength(*pair) for pair in pairs}
    trained = net.copy()

    for obj, color in DEFAULT_COLOR_GENERICS:
        observe(net, LearningInstance(
            Situation(entities=(Entity("e0", obj, color),)),
            f"{lex.plural_surface(obj)} are {lex.display(color)}"))
    after = {pair: strength(*pair) for pair in pairs}

    rows = [(obj, color, before[(obj, color)], after[(obj, color)]) for obj, color in pairs]

    changes = diff_networks(trained, net)
    generic_pairs = set(DEFAULT_COLOR_GENERICS)
    expected_changes = {
        f"~edge object/{obj} is attribute/{color} "
        f"{before[(obj, color)]:.17g} -> 1"
        for obj, color in generic_pairs
    }
    plateau = {pair: 1.0 - (1.0 - LEARNING_RATE) ** counts[pair] for pair in pairs}
    checks = [
        ("before strengths follow the plateau closed form",
         all(abs(before[p] - plateau[p]) < 1e-9 for p in pairs)),
        ("generics raise exactly their three edges to 1.0",
         all(after[p] == 1.0 for p in generic_pairs)
         and all(after[p] == before[p] for p in pairs if p not in generic_pairs)),
        ("network diff shows exactly three modified edges",
         len(changes) == 3 and set(changes) == expected_changes),
    ]
    return TaskResult(1, ("object", "color", "before", "after"), rows, checks,
                      "Object-color association strengths around the generic phase",
                      "strength", [f"{obj} {color}" for obj, color in pairs])


def _category_similarities(net: ConceptNetwork, novel_names: list[str]) -> dict[tuple[str, str], float]:
    """Cosine similarity of each novel object row to each category vector."""
    m = build_matrix(net)
    sims: dict[tuple[str, str], float] = {}
    for novel in novel_names:
        row = concept_vector(m, net.require(novel, OBJECT))
        for cat_name in ("animal", "food", "people"):
            cat = net.get(cat_name, CATEGORY)
            if cat is None:
                sims[(novel, cat_name)] = 0.0
                continue
            vec = category_vector(m, cat, net.members_of(cat))
            sims[(novel, cat_name)] = cosine_similarity(row, vec)
    return sims


def run_task2(seed: int = 0) -> TaskResult:
    """Novel-object category inference across three curricula."""
    rows = []
    for name in TASK2_CURRICULA:
        spec = builtin_spec(name, seed=seed)
        net = _train(spec)
        for novel, category in NOVEL_OBJECTS:
            observe(net, membership_instance(novel, category))
        sims = _category_similarities(net, [n for n, _ in NOVEL_OBJECTS])
        for novel, _ in NOVEL_OBJECTS:
            rows.append((name, novel,
                         sims[(novel, "animal")], sims[(novel, "food")],
                         sims[(novel, "people")]))

    taught = dict(NOVEL_OBJECTS)
    by_row = {(r[0], r[1]): {"animal": r[2], "food": r[3], "people": r[4]} for r in rows}

    argmax_ok = all(
        max(values, key=values.get) == taught[novel]
        for (_, novel), values in by_row.items()
    )
    first = TASK2_CURRICULA[0]
    snarp = by_row[(first, "snarp")]
    snarp_ok = (abs(snarp["people"] - 1.0) <= 1e-6
                and snarp["animal"] <= 1e-12 and snarp["food"] <= 1e-12)

    def off_mass(curriculum: str, novel: str) -> float:
        values = by_row[(curriculum, novel)]
        return sum(v for cat, v in values.items() if cat != taught[novel])

    last = TASK2_CURRICULA[-1]
    growth_ok = all(
        off_mass(first, novel) <= off_mass(last, novel) + 1e-12
        for novel, _ in NOVEL_OBJECTS
    )
    checks = [
        ("every novel object is most similar to its taught category", argmax_ok),
        ("plain objects-and-kinds curriculum pins snarp to people exactly", snarp_ok),
        ("off-category similarity mass grows with curriculum complexity", growth_ok),
    ]
    return TaskResult(2, ("curriculum", "object", "animal", "food", "people"), rows, checks,
                      "Novel-object similarity to each category", "similarity",
                      [f"{novel} ({name})" for name, novel, *_ in rows])


def run_task3(seed: int = 0) -> TaskResult:
    """Food-animal bleed-through as a function of the shared chicken concept."""
    rows = []
    for condition, excluded in TASK3_CONDITIONS:
        spec = builtin_spec("objects-and-kinds", seed=seed, exclude_objects=excluded)
        net = _train(spec)
        observe(net, membership_instance("wug", "animal"))
        sims = _category_similarities(net, ["wug"])
        rows.append((condition, sims[("wug", "animal")], sims[("wug", "food")]))

    food = {r[0]: r[2] for r in rows}
    animal = {r[0]: r[1] for r in rows}
    checks = [
        ("no food similarity without chicken in the curriculum",
         food["none"] <= 1e-12 and food["beef-and-cow"] <= 1e-12),
        ("chicken alone produces the strongest food similarity",
         food["chicken"] > food["chicken-beef-and-cow"] > 0.0),
        ("animal similarity dominates food similarity in every condition",
         all(animal[c] > food[c] for c, _ in TASK3_CONDITIONS)),
    ]
    return TaskResult(3, ("condition", "animal", "food"), rows, checks,
                      "Wug similarity to animal and food per curriculum condition",
                      "similarity", [c for c, _ in TASK3_CONDITIONS])


def run_task(task_id: int, seed: int = 0) -> TaskResult:
    runners = {1: run_task1, 2: run_task2, 3: run_task3}
    if task_id not in runners:
        raise ValueError(f"unknown task id {task_id}; expected 1, 2, or 3")
    return runners[task_id](seed=seed)


def write_task_outputs(result: TaskResult, out_dir: str | Path) -> list[Path]:
    """Write task<k>.csv and task<k>.svg into out_dir; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"task{result.task_id}.csv"
    csv_path.write_text(result.to_csv(), encoding="utf-8")

    series = [(name, [row[i] for row in result.rows])
              for i, name in enumerate(result.columns)
              if isinstance(result.rows[0][i], float)]
    svg_path = out / f"task{result.task_id}.svg"
    svg_path.write_text(
        grouped_bar_svg(result.title, result.ylabel, result.groups, series),
        encoding="utf-8")
    return [csv_path, svg_path]
