"""The benchmark's sections: the work one round of a workload does.

Every workload is one client in a closed loop: the next call starts when
the previous one returns. A section's round is a generator that yields
between steps so the scheduler in worker.py can interleave sections. Each
call into wugnet is timed from outside and recorded as (start, end, count)
under the key of the end-to-end metric it feeds:

  paper_pass       one pass of the paper suite through wugnet.cli.main
  learn            one learn_curriculum call; count = instances
  novel            one novel-member generic ("wugs are animals")
  save_load        one network_to_text -> network_from_text round trip
  similar          one `wugnet similar`-style category query
  cluster_export   build_matrix + agglomerative_order + both exports

PaperSection runs in every workload. On `paper` it is the whole workload;
on the other two it is a control share that supplies the metrics their
own section does not produce (BENCHMARK.json needs every metric on every
workload). Reference runs a fixed pure-Python loop that touches no wugnet
code; its timings track the machine's speed through the run.
"""

from __future__ import annotations

import contextlib
import io
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import synth
from wugnet import cli, curriculum, graph, learner, matrix, tasks

BUILTINS = tuple(curriculum.BUILTIN_PHASES)
EXPORTED = "obj-actions-kinds-generics"


class Section:
    share = 1.0
    trace_rounds = 1

    def __init__(self, run, seed: int):
        self.run = run
        self.seed = seed
        self.samples: dict[str, list[tuple[float, float, int]]] = defaultdict(list)

    def sample(self, key: str, start: float, count: int = 1) -> None:
        self.samples[key].append((start, perf_counter(), count))

    def setup(self) -> None:
        """Build this section's inputs; timed into setup_s."""

    def warm(self) -> None:
        """Fill lazy caches and imports before timing; samples are dropped."""
        for _ in self.round():
            pass

    def round(self):
        raise NotImplementedError


def reference_loop() -> int:
    """Dict, tuple, sort and format work of the kind wugnet does, on no wugnet code."""
    table: dict[tuple[int, str], float] = {}
    for i in range(1500):
        key = (i % 211, "slot")
        table[key] = table.get(key, 0.0) + i * 0.5
    return len(",".join(f"{v:.6g}" for _, v in sorted(table.items())))


class Reference(Section):
    """The speed probe; interleaved with the other sections for the whole run."""

    share = 0.1

    def round(self):
        start = perf_counter()
        reference_loop()
        self.sample("reference", start)
        yield


def similarity(net, m, concept, category) -> float:
    """What `wugnet similar <concept> <category>` computes on a loaded network."""
    members = net.members_of(category)
    return matrix.cosine_similarity(matrix.concept_vector(m, concept),
                                    matrix.category_vector(m, category, members))


def cluster_export(net) -> tuple[str, str]:
    """What `wugnet export clusters` and `export matrix` compute."""
    m = matrix.build_matrix(net)
    leaves, tree = matrix.agglomerative_order(m)
    return matrix.clusters_to_text(leaves, tree), matrix.matrix_to_csv(m)


def round_trip(net) -> tuple[str, object]:
    text = graph.network_to_text(net)
    return text, graph.network_from_text(text)


class PaperSection(Section):
    """The paper's own suite at tens of concepts, plus task 2 redone step by step.

    A pass calls the CLI in-process: `learn` on the 5 built-in curricula,
    `run-task 1..3`, `export matrix` and `export clusters`. The probe after
    it learns the same curricula directly, teaches the task-2 novel objects,
    queries their category similarity, round-trips and cluster-exports the
    largest network, timing each step.
    """

    trace_rounds = 10

    def __init__(self, run, seed: int, tmp: Path, share: float):
        super().__init__(run, seed)
        self.tmp = tmp
        self.share = share

    def setup(self) -> None:
        self.curricula = {name: curriculum.generate(curriculum.builtin_spec(name, seed=self.seed))
                          for name in BUILTINS}

    def round(self):
        self._pass()
        self._probe()
        yield

    def _pass(self) -> None:
        tmp, seed = self.tmp, str(self.seed)
        network = str(tmp / f"{EXPORTED}.txt")
        learns = [["learn", "--curriculum", f"builtin:{name}", "--network",
                   str(tmp / f"{name}.txt"), "--seed", seed] for name in BUILTINS]
        runs = [["run-task", str(k), "--out", str(tmp), "--seed", seed] for k in (1, 2, 3)]
        exports = [["export", "matrix", "--network", network, "--out", str(tmp / "matrix.csv")],
                   ["export", "clusters", "--network", network, "--out", str(tmp / "clusters.txt")]]
        out = io.StringIO()
        codes = []
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            for argv in learns + runs + exports:
                codes.append(cli.main(argv))
            self.sample("paper_pass", start)

        printed = out.getvalue()
        files = [[f"{name}.txt"] for name in BUILTINS]
        files += [[f"task{k}.csv", f"task{k}.svg"] for k in (1, 2, 3)]
        files += [["matrix.csv"], ["clusters.txt"]]
        for argv, code, names in zip(learns + runs + exports, codes, files):
            ok = code == 0
            if argv[0] == "run-task":
                ok = ok and f"task {argv[1]}: PASS" in printed and f"task {argv[1]} check: FAIL" not in printed
            for name in names:
                ok = self.run.digest_ok(f"paper/{name}", (tmp / name).read_bytes()) and ok
            self.run.op(ok, " ".join(argv[:2]))

    def _probe(self):
        nets = {}
        for name, cur in self.curricula.items():
            net = graph.ConceptNetwork()
            start = perf_counter()
            learner.learn_curriculum(net, cur)
            self.sample("learn", start, len(cur.instances))
            self.run.op(True, "learn")
            nets[name] = net

        for name in tasks.TASK2_CURRICULA:
            net = nets[name]
            for novel, category in tasks.NOVEL_OBJECTS:
                instance = tasks.membership_instance(novel, category)
                start = perf_counter()
                learner.observe(net, instance)
                self.sample("novel", start)
                self.run.op(True, "novel member")
            m = matrix.build_matrix(net)
            for novel, _ in tasks.NOVEL_OBJECTS:
                concept = net.require(novel, graph.OBJECT)
                for category_name in synth.CATEGORIES:
                    category = net.require(category_name, graph.CATEGORY)
                    start = perf_counter()
                    value = similarity(net, m, concept, category)
                    self.sample("similar", start)
                    self.run.op(0.0 <= value <= 1.0, "similar")

        net = nets[EXPORTED]
        start = perf_counter()
        text, back = round_trip(net)
        self.sample("save_load", start)
        self.run.op(back == net and self.run.digest_ok("paper/probe-network", text), "save/load")

        start = perf_counter()
        clusters, csv = cluster_export(net)
        self.sample("cluster_export", start)
        self.run.op(self.run.digest_ok("paper/probe-clusters", clusters)
                    and self.run.digest_ok("paper/probe-matrix", csv), "cluster export")


class NovelMembersSection(Section):
    """A synthetic lexicon of 1000 generated nouns in three categories.

    One round learns the ~6150-instance all-phase curriculum into a fresh
    network, teaches it NOVEL novel-member generics (categories grow, so
    each generic costs more than the one before), and round-trips the
    final network ROUND_TRIPS times. LEARNS - 1 more learns into
    throwaway networks are spread among the generics, so the learn samples
    cover the round rather than its first second.
    """

    share = 0.6
    NOUNS = 1000
    NOVEL = 1000
    LEARNS = 16
    ROUND_TRIPS = 12
    STEP = 5  # generics per scheduler step

    def setup(self) -> None:
        self.lexicon, self.curriculum, self.generics = synth.novel_members_inputs(
            self.seed, self.NOUNS, self.NOVEL)

    def warm(self) -> None:
        round_trip(self._learn())

    def _learn(self):
        net = graph.ConceptNetwork()
        start = perf_counter()
        learner.learn_curriculum(net, self.curriculum, self.lexicon)
        self.sample("learn", start, len(self.curriculum.instances))
        self.run.op(True, "learn")
        return net

    def round(self):
        net = self._learn()
        self.run.op(self.run.digest_ok("novel-members/learned-network", graph.network_to_text(net)),
                    "learned network")
        yield
        every = len(self.generics) // self.LEARNS
        for i, instance in enumerate(self.generics, start=1):
            start = perf_counter()
            learner.observe(net, instance, self.lexicon)
            self.sample("novel", start)
            self.run.op(True, "novel member")
            if i % self.STEP == 0:
                yield
            if i % every == 0 and i // every < self.LEARNS:
                self._learn()
                yield

        for _ in range(self.ROUND_TRIPS):
            start = perf_counter()
            text, back = round_trip(net)
            self.sample("save_load", start)
            self.run.op(back == net and self.run.digest_ok("novel-members/final-network", text),
                        "save/load")
            yield


class ConceptSpaceSection(Section):
    """Read-only use of a 267-concept network trained in setup.

    One round round-trips the network, asks one similarity query per
    object x category on the loaded copy, and cluster-exports it.
    """

    share = 0.6
    NOUNS = 250
    ACTIONS = 250
    STEP = 25  # objects (x 3 queries) per scheduler step

    def setup(self) -> None:
        lexicon, cur = synth.concept_space_inputs(self.seed, self.NOUNS, self.ACTIONS)
        net = graph.ConceptNetwork()
        learner.learn_curriculum(net, cur, lexicon)
        self.net = net
        self.objects = [c for c in net.concepts() if c.kind == graph.OBJECT]
        self.categories = [c for c in net.concepts() if c.kind == graph.CATEGORY]

    def warm(self) -> None:
        _, net = round_trip(self.net)
        m = matrix.build_matrix(net)
        for category in self.categories:
            similarity(net, m, self.objects[0], category)

    def round(self):
        start = perf_counter()
        text, net = round_trip(self.net)
        self.sample("save_load", start)
        self.run.op(net == self.net and self.run.digest_ok("concept-space/network", text),
                    "save/load")
        yield

        m = matrix.build_matrix(net)
        for i, concept in enumerate(self.objects, start=1):
            for category in self.categories:
                start = perf_counter()
                value = similarity(net, m, concept, category)
                self.sample("similar", start)
                self.run.op(0.0 <= value <= 1.0, "similar")
            if i % self.STEP == 0:
                yield
        yield

        start = perf_counter()
        clusters, csv = cluster_export(net)
        self.sample("cluster_export", start)
        self.run.op(self.run.digest_ok("concept-space/clusters", clusters)
                    and self.run.digest_ok("concept-space/matrix", csv), "cluster export")
