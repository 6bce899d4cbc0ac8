import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wugnet
from wugnet import cli
from wugnet.cli import main
from wugnet.curriculum import BUILTIN_PHASES
from wugnet.graph import CATEGORY, OBJECT, load_network
from wugnet.matrix import build_matrix, category_vector, concept_vector, cosine_similarity
from wugnet.tasks import TaskResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_learn_builtin_writes_a_network(tmp_path, capsys):
    out = tmp_path / "net.txt"
    code, _, err = run(capsys, "learn", "--curriculum", "builtin:objects-and-kinds",
                       "--network", str(out))
    assert code == 0
    net = load_network(out)
    for category in ("animal", "food", "people"):
        node = net.get(category, CATEGORY)
        assert node is not None and net.members_of(node)
    assert "learned" in err


def test_learn_summary_line_counts_concepts_and_edges(tmp_path, capsys):
    out = tmp_path / "net.txt"
    code, _, err = run(capsys, "learn", "--curriculum", "builtin:objects-and-colors",
                       "--network", str(out))
    assert code == 0
    assert err == "learned 94 instances -> 33 concepts, 66 edges\n"
    net = load_network(out)
    assert (len(net), len(net.edges())) == (33, 66)


def test_learn_empty_curriculum_writes_empty_network(tmp_path, capsys):
    src = tmp_path / "empty.cur"
    src.write_text("# nothing here\n")
    out = tmp_path / "net.txt"
    code, _, _ = run(capsys, "learn", "--curriculum", str(src), "--network", str(out))
    assert code == 0
    assert len(load_network(out)) == 0


def test_learn_malformed_curriculum_exits_1(tmp_path, capsys):
    src = tmp_path / "bad.cur"
    src.write_text("instance\n  scene: entity e0 bear\n  say: a bear glorps\n")
    out = tmp_path / "net.txt"
    code, _, err = run(capsys, "learn", "--curriculum", str(src), "--network", str(out))
    assert code == 1
    assert "line 3" in err


def test_learn_names_the_instance_it_cannot_learn(tmp_path, capsys):
    src = tmp_path / "unlearnable.cur"
    src.write_text("instance\n  scene: entity e0 dog\n  say: a dog\n\n"
                   "instance\n  say: wugs are zorbs\n")
    out = tmp_path / "net.txt"
    code, _, err = run(capsys, "learn", "--curriculum", str(src), "--network", str(out))
    assert code == 1
    assert err.startswith("wugnet: error: instance 1: 'wugs are zorbs': cannot learn")
    assert not out.exists()


def test_learn_rejects_a_seed_for_a_curriculum_file(tmp_path, capsys):
    src = tmp_path / "one.cur"
    src.write_text("instance\n  scene: entity e0 dog\n  say: a dog\n")
    out = tmp_path / "net.txt"
    code, _, err = run(capsys, "learn", "--curriculum", str(src), "--network", str(out),
                       "--seed", "0")
    assert code == 1
    assert err == "wugnet: error: --seed applies only to builtin: curricula\n"
    assert not out.exists()
    code, _, _ = run(capsys, "learn", "--curriculum", str(src), "--network", str(out))
    assert code == 0


def test_learn_missing_curriculum_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "learn", "--curriculum", str(tmp_path / "nope.cur"),
                     "--network", str(tmp_path / "net.txt"))
    assert code == 2


def test_trace_writes_a_journal(tmp_path, capsys):
    out = tmp_path / "net.txt"
    code, _, _ = run(capsys, "learn", "--curriculum", "builtin:objects-and-colors",
                     "--network", str(out), "--trace")
    assert code == 0
    journal = (tmp_path / "net.txt.trace.jsonl").read_text().splitlines()
    assert journal and all(line.startswith("{") for line in journal)


def test_learn_warns_of_a_scene_mismatch_and_exits_0(tmp_path, capsys):
    src = tmp_path / "mismatch.cur"
    src.write_text("instance\n  scene: entity e0 dog\n  say: a dog\n\n"
                   "instance\n  scene: entity e0 dog\n  say: a cookie\n")
    code, _, err = run(capsys, "learn", "--curriculum", str(src),
                       "--network", str(tmp_path / "net.txt"))
    assert code == 0
    assert err.splitlines() == ["instance 1: scene mismatch: no entity 'cookie' in scene",
                                "learned 2 instances -> 2 concepts, 0 edges"]


# tests/golden.py pins the network file each built-in learns at seed 0 and
# its --trace journals at seeds 0 and 7. A seed reorders a built-in's
# instances, so it moves only the journal.
@pytest.mark.parametrize("name", sorted(BUILTIN_PHASES))
def test_learn_writes_the_same_network_at_seeds_0_and_7(tmp_path, capsys, name):
    networks = []
    for seed in (0, 7):
        out = tmp_path / f"seed{seed}.txt"
        code, _, _ = run(capsys, "learn", "--curriculum", f"builtin:{name}", "--seed", str(seed),
                         "--network", str(out))
        assert code == 0
        networks.append(out.read_bytes())
    assert networks[0] == networks[1]


def test_learn_builtin_without_seed_uses_seed_0(tmp_path, capsys):
    journals = []
    for seed_args in ((), ("--seed", "0"), ("--seed", "7")):
        out = tmp_path / f"net{len(journals)}.txt"
        code, _, _ = run(capsys, "learn", "--curriculum", "builtin:objects-and-colors",
                         *seed_args, "--network", str(out), "--trace")
        assert code == 0
        journals.append((tmp_path / f"{out.name}.trace.jsonl").read_bytes())
    assert journals[0] == journals[1] != journals[2]


@pytest.fixture
def trained(tmp_path, capsys):
    out = tmp_path / "net.txt"
    code, _, _ = run(capsys, "learn", "--curriculum",
                     "builtin:obj-actions-kinds-generics", "--network", str(out))
    assert code == 0
    return out


def test_query_lists_neighbors(trained, capsys):
    code, out, _ = run(capsys, "query", "--network", str(trained), "bird")
    assert code == 0
    assert "animal is 1.000000" in out
    assert "fly slot-1" in out


def test_query_unknown_concept_exits_1(trained, capsys):
    code, _, err = run(capsys, "query", "--network", str(trained), "ghost")
    assert code == 1 and "ghost" in err


def test_similar_self_is_one(trained, capsys):
    code, out, _ = run(capsys, "similar", "--network", str(trained), "bird", "bird")
    assert code == 0
    assert out.strip() == "1.000000"


@pytest.mark.parametrize("a, b, printed", [("chicken", "food", "0.753644"),
                                           ("food", "animal", "0.294626")])
def test_similar_reads_a_category_as_its_member_mean(trained, capsys, a, b, printed):
    net = load_network(trained)
    m = build_matrix(net)

    def vector(name):
        category = net.get(name, CATEGORY)
        if category is not None:
            return category_vector(m, category, net.members_of(category))
        return concept_vector(m, net.require(name, OBJECT))

    code, out, _ = run(capsys, "similar", "--network", str(trained), a, b)
    assert code == 0
    assert out == f"{cosine_similarity(vector(a), vector(b)):.6f}\n" == printed + "\n"


def test_similar_isolated_pair_is_zero(tmp_path, capsys):
    net_file = tmp_path / "tiny.txt"
    net_file.write_text("conceptnet v1\nnode object ball\nnode object cup\n")
    code, out, _ = run(capsys, "similar", "--network", str(net_file), "ball", "cup")
    assert code == 0
    assert out.strip() == "0.000000"


def test_run_task1_outputs(tmp_path, capsys):
    code, out, _ = run(capsys, "run-task", "1", "--out", str(tmp_path))
    assert code == 0
    assert "task 1: PASS" in out
    lines = (tmp_path / "task1.csv").read_text().splitlines()
    assert lines[0] == "object,color,before,after"
    assert len(lines) == 13
    assert (tmp_path / "task1.svg").exists()


def test_run_task_exits_1_when_a_check_fails(tmp_path, capsys, monkeypatch):
    failing = TaskResult(3, ("condition", "animal", "food"), [("none", 0.5, 0.25)],
                         [("holds", True), ("breaks", False)], "title", "similarity", ["none"])
    monkeypatch.setattr("wugnet.tasks.run_task", lambda task_id, seed: failing)
    code, out, _ = run(capsys, "run-task", "3", "--out", str(tmp_path))
    assert code == 1
    assert "task 3 check: FAIL - breaks" in out
    assert "task 3: FAIL" in out


def test_run_task3_outputs(tmp_path, capsys):
    code, out, _ = run(capsys, "run-task", "3", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "task3.csv").read_text().splitlines()
    assert len(lines) == 5


def test_run_task2_is_bytewise_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(capsys, "run-task", "2", "--out", str(a), "--seed", "7")[0] == 0
    assert run(capsys, "run-task", "2", "--out", str(b), "--seed", "7")[0] == 0
    assert (a / "task2.csv").read_bytes() == (b / "task2.csv").read_bytes()
    assert (a / "task2.svg").read_bytes() == (b / "task2.svg").read_bytes()


def test_export_matrix_has_slot_columns(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    assert run(capsys, "learn", "--curriculum", "builtin:objects-and-actions",
               "--network", str(net_file))[0] == 0
    out = tmp_path / "matrix.csv"
    code, _, _ = run(capsys, "export", "matrix", "--network", str(net_file),
                     "--out", str(out))
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert "drink⊕slot-1" in header and "drink⊕slot-2" in header


def test_export_clusters_groups_liquids(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    assert run(capsys, "learn", "--curriculum", "builtin:objects-and-actions",
               "--network", str(net_file))[0] == 0
    out = tmp_path / "clusters.txt"
    assert run(capsys, "export", "clusters", "--network", str(net_file),
               "--out", str(out))[0] == 0
    leaves = [line.split()[1] for line in out.read_text().splitlines()
              if line.startswith("leaf ")]
    liquid_span = sorted(leaves.index(n) for n in ("water", "juice", "milk"))
    assert liquid_span[-1] - liquid_span[0] == 2


def test_export_of_empty_network_is_headers_only(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    net_file.write_text("conceptnet v1\n")
    out = tmp_path / "matrix.csv"
    assert run(capsys, "export", "matrix", "--network", str(net_file),
               "--out", str(out))[0] == 0
    assert out.read_text() == "concept\n"


def test_usage_errors_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["learn"]) == 1


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    code, out, err = run(capsys, "learn")
    assert (code, out) == (1, "")
    assert err == ("wugnet learn: error: the following arguments are required: "
                   "--curriculum, --network\n")
    code, _, err = run(capsys, "learn", "--curriculum", "builtin:objects-and-kinds",
                       "--network", str(tmp_path / "net.txt"))
    assert code == 0 and err.startswith("learned ")
    helps = [run(capsys, "--help"), run(capsys, "--help")]
    assert helps[0] == helps[1]
    assert helps[0][0] == 0 and helps[0][1].startswith("usage: wugnet")
    assert run(capsys, "learn", "--help") == run(capsys, "learn", "--help")
    assert run(capsys, "learn")[0] == 1
    assert cli._build_parser.cache_info().misses == 1


# Runs `wugnet <argv>` through cli.main, then names on stderr every numpy
# and every wugnet module the run loaded, and exits 4 if numpy is among them.
NUMPY_CHECK = """
import sys
from wugnet import cli
code = cli.main(sys.argv[1:])
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
print("numpy modules:", loaded, file=sys.stderr)
print("wugnet modules:", sorted(name for name in sys.modules if name.split(".")[0] == "wugnet"),
      file=sys.stderr)
sys.exit(code or (4 if loaded else 0))
"""


def python(*args):
    """`python <args>` in a fresh interpreter that imports this checkout's wugnet."""
    src = str(Path(wugnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def run_fresh(*argv):
    """`wugnet <argv>` through NUMPY_CHECK in a fresh interpreter."""
    return python("-c", NUMPY_CHECK, *argv)


def wugnet_modules(run) -> set[str]:
    """The wugnet modules a run_fresh run reports it loaded."""
    line = next(line for line in run.stderr.splitlines() if line.startswith("wugnet modules: "))
    return set(ast.literal_eval(line[len("wugnet modules: "):]))


# The console script calls cli.main itself, so only `python -m wugnet.cli`
# runs cli.py's __main__ guard.
def test_python_m_wugnet_cli_runs_main():
    helped = python("-m", "wugnet.cli", "--help")
    assert helped.returncode == 0, helped.stderr
    assert helped.stdout.startswith("usage: wugnet")


def test_python_m_wugnet_cli_exits_with_mains_code():
    bare = python("-m", "wugnet.cli", "learn")
    assert bare.returncode == 1
    assert "the following arguments are required" in bare.stderr


def test_learn_and_query_do_not_import_numpy(tmp_path, capsys):
    net_file = tmp_path / "net.txt"
    learned = run_fresh("learn", "--curriculum", "builtin:obj-actions-kinds-generics",
                        "--network", str(net_file))
    assert learned.returncode == 0, learned.stderr
    assert "numpy modules: []" in learned.stderr
    assert not wugnet_modules(learned) & {"wugnet.matrix", "wugnet.tasks", "wugnet.charts"}
    in_process = tmp_path / "in-process.txt"
    assert run(capsys, "learn", "--curriculum", "builtin:obj-actions-kinds-generics",
               "--network", str(in_process))[0] == 0
    assert net_file.read_bytes() == in_process.read_bytes()
    for concept in ("animal", "chicken"):
        queried = run_fresh("query", "--network", str(net_file), concept)
        assert queried.returncode == 0, queried.stderr
        assert "numpy modules: []" in queried.stderr
        assert wugnet_modules(queried) == {"wugnet", "wugnet.cli", "wugnet.errors", "wugnet.graph"}
        assert queried.stdout == run(capsys, "query", "--network", str(net_file), concept)[1]
        assert queried.stdout.strip()


def test_the_check_sees_numpy_when_a_command_loads_it(tmp_path):
    net_file = tmp_path / "net.txt"
    net_file.write_text("conceptnet v1\nnode object ball\n")
    similar = run_fresh("similar", "--network", str(net_file), "ball", "ball")
    assert similar.returncode == 4
    assert "'numpy'" in similar.stderr
