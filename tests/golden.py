"""The golden manifest: sha256 digests of the outputs that must stay byte-identical.

Each entry names one output, computed in-process the way the CLI or the
benchmark makes it:

- `run-task/task<k>.csv` and `.svg`: `wugnet run-task k` at seed 0;
- `export-matrix/<builtin>.csv` and `export-clusters/<builtin>.txt`:
  `wugnet export` on each built-in curriculum's network learned at seed 0,
  read back from its saved text as `export` reads it;
- `task2-journal/<builtin>.jsonl`: the `--trace` journal of each task 2
  curriculum learned at seed 0, then of task 2's three novel-member generics;
- `utterance-shapes/curriculum.txt` and `utterance-shapes/journal.jsonl`:
  SHAPES, a fixed curriculum of the utterance shapes no built-in holds (a
  coloured subject with a verb object, a mass-noun object, a proper-noun
  subject), saved, and its `learn --trace` journal, which pins the order
  observe creates nodes in on those shapes;
- `novel-members/network.txt` and `novel-members/clusters.txt`: the
  4045-row network that perfbench's novel-members inputs (seed 0, 1000
  nouns, 3000 generics) learn, and its cluster text;
- `generation/<builtin>.txt`, `generation/novel-members.txt` and
  `generation/concept-space.txt`: each built-in curriculum generated at seed
  0, and perfbench's novel-members (seed 0, 1000 nouns, 1000 generics) and
  concept-space (seed 0, 250 nouns, 250 actions) curricula, as
  `curriculum_to_text` saves them, scenes included;
- `learn/<builtin>/network.txt`, `learn/<builtin>/journal-seed0.jsonl` and
  `learn/<builtin>/journal-seed7.jsonl`: the network file that
  `wugnet learn --curriculum builtin:<builtin> --seed 0 --trace` writes, and
  the journal it writes at seeds 0 and 7, run through `cli.main` in a
  temporary directory. A seed reorders a built-in's instances, so it moves
  the journal, not the network (tests/test_cli.py checks seed 7's network).

tests/test_golden.py checks each entry against tests/golden.json, the one
record of output bytes in tests/ and CI. That file changes only through this
script:

    PYTHONPATH=src python tests/golden.py --record
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
from functools import cache
from pathlib import Path

from wugnet import cli
from wugnet.curriculum import (
    BUILTIN_PHASES,
    builtin_curriculum,
    curriculum_from_text,
    curriculum_to_text,
)
from wugnet.graph import ConceptNetwork, network_from_text, network_to_text
from wugnet.learner import learn_curriculum, observe
from wugnet.matrix import agglomerative_order, build_matrix, clusters_to_text, matrix_to_csv
from wugnet.tasks import (
    NOVEL_OBJECTS,
    TASK2_CURRICULA,
    membership_instance,
    run_task,
    write_task_outputs,
)

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).resolve().parent / "golden.json"

# The shapes of tests/test_learner_oracle.py's generated utterances that no
# built-in curriculum holds, each said in a matching scene, then bare plurals
# said without one, and membership generics so a novel member inherits.
SHAPES = """\
# name: utterance-shapes

instance
  scene: entity e0 dog color=red ; entity e1 cookie ; action eat agent=e0 patient=e1
  say: a red dog eats a cookie
instance
  scene: entity e0 cat color=light-brown ; entity e1 ball ; action take agent=e0 patient=e1
  say: the light brown cat takes the ball
instance
  scene: entity e0 bear color=black ; entity e1 juice ; action drink agent=e0 patient=e1
  say: a black bear drinks juice
instance
  scene: entity e0 dad ; entity e1 milk ; action drink agent=e0 patient=e1
  say: Dad drinks milk
instance
  scene: entity e0 mom ; entity e1 cookie ; action eat agent=e0 patient=e1
  say: Mom eats a cookie
instance
  scene: entity e0 dad ; action sit agent=e0
  say: Dad sits
instance
  scene: entity e0 dog color=red ; entity e1 juice ; action drink agent=e0 patient=e1
  say: a red dog drinks juice
instance
  say: bears drink milk
instance
  say: Cats eat cookies
instance
  say: dogs are animals
instance
  say: bears are animals
instance
  say: wugs are animals
instance
  say: wugs drink juice
"""


@cache
def _task_files(task_id: int) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as out:
        paths = write_task_outputs(run_task(task_id, seed=0), out)
        return {path.name: path.read_bytes() for path in paths}


@cache
def _builtin_matrix(name: str):
    net = ConceptNetwork()
    learn_curriculum(net, builtin_curriculum(name, seed=0))
    return build_matrix(network_from_text(network_to_text(net)))


def _clusters(matrix) -> bytes:
    return clusters_to_text(*agglomerative_order(matrix)).encode("utf-8")


def _task2_journal(name: str) -> bytes:
    net = ConceptNetwork()
    lines: list[str] = []
    learn_curriculum(net, builtin_curriculum(name, seed=0),
                     on_report=lambda i, report: lines.append(report.to_json_line(i)))
    for novel, category in NOVEL_OBJECTS:
        lines.append(observe(net, membership_instance(novel, category)).to_json_line(len(lines)))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _shapes_journal() -> bytes:
    net = ConceptNetwork()
    lines: list[str] = []
    learn_curriculum(net, curriculum_from_text(SHAPES),
                     on_report=lambda i, report: lines.append(report.to_json_line(i)))
    return "".join(line + "\n" for line in lines).encode("utf-8")


@cache
def synth():
    """perfbench/synth.py, which builds the benchmark's synthetic inputs, as a module."""
    spec = importlib.util.spec_from_file_location("synth", ROOT / "perfbench" / "synth.py")
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth


@cache
def _novel_members() -> ConceptNetwork:
    lexicon, curriculum, generics = synth().novel_members_inputs(0, 1000, 3000)
    net = ConceptNetwork()
    learn_curriculum(net, curriculum, lexicon)
    for instance in generics:
        observe(net, instance, lexicon)
    return net


@cache
def _traced_learn(name: str, seed: int) -> tuple[bytes, bytes]:
    """The network file and journal `wugnet learn --seed <seed> --trace` writes for a built-in."""
    with tempfile.TemporaryDirectory() as out:
        network = Path(out) / "net.txt"
        code = cli.main(["learn", "--curriculum", f"builtin:{name}", "--seed", str(seed),
                         "--network", str(network), "--trace"])
        if code != 0:
            raise RuntimeError(f"learn builtin:{name} --seed {seed} exited {code}")
        return network.read_bytes(), Path(f"{network}.trace.jsonl").read_bytes()


def outputs() -> dict:
    """Entry name -> a function computing that output's bytes."""
    entries = {}
    for k in (1, 2, 3):
        for suffix in ("csv", "svg"):
            entries[f"run-task/task{k}.{suffix}"] = \
                lambda k=k, suffix=suffix: _task_files(k)[f"task{k}.{suffix}"]
    for name in sorted(BUILTIN_PHASES):
        entries[f"export-matrix/{name}.csv"] = \
            lambda name=name: matrix_to_csv(_builtin_matrix(name)).encode("utf-8")
        entries[f"export-clusters/{name}.txt"] = lambda name=name: _clusters(_builtin_matrix(name))
    for name in TASK2_CURRICULA:
        entries[f"task2-journal/{name}.jsonl"] = lambda name=name: _task2_journal(name)
    entries["utterance-shapes/curriculum.txt"] = \
        lambda: curriculum_to_text(curriculum_from_text(SHAPES)).encode("utf-8")
    entries["utterance-shapes/journal.jsonl"] = _shapes_journal
    entries["novel-members/network.txt"] = \
        lambda: network_to_text(_novel_members()).encode("utf-8")
    entries["novel-members/clusters.txt"] = lambda: _clusters(build_matrix(_novel_members()))
    for name in sorted(BUILTIN_PHASES):
        entries[f"generation/{name}.txt"] = \
            lambda name=name: curriculum_to_text(builtin_curriculum(name, seed=0)).encode("utf-8")
    entries["generation/novel-members.txt"] = lambda: curriculum_to_text(
        synth().novel_members_inputs(0, 1000, 1000)[1]).encode("utf-8")
    entries["generation/concept-space.txt"] = lambda: curriculum_to_text(
        synth().concept_space_inputs(0, 250, 250)[1]).encode("utf-8")
    for name in sorted(BUILTIN_PHASES):
        entries[f"learn/{name}/network.txt"] = lambda name=name: _traced_learn(name, 0)[0]
        for seed in (0, 7):
            entries[f"learn/{name}/journal-seed{seed}.jsonl"] = \
                lambda name=name, seed=seed: _traced_learn(name, seed)[1]
    return entries


def digest(name: str) -> str:
    return hashlib.sha256(outputs()[name]()).hexdigest()


def load_manifest() -> dict[str, str]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    if argv != ["--record"]:
        print("usage: PYTHONPATH=src python tests/golden.py --record", file=sys.stderr)
        return 2
    digests = {name: digest(name) for name in outputs()}
    MANIFEST.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
