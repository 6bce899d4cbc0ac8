import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journal_replay import replay
from test_learner_oracle import PRIMER, instances
from wugnet.cli import main
from wugnet.curriculum import BUILTIN_PHASES, Curriculum, builtin_curriculum
from wugnet.graph import ConceptNetwork, load_network, network_to_text
from wugnet.lang import ParseError
from wugnet.learner import (
    LearningInstance,
    Situation,
    UnlearnableGeneric,
    learn_curriculum,
    observe,
)
from wugnet.tasks import NOVEL_OBJECTS, TASK2_CURRICULA, membership_instance

# A plain utterance after the generic that pinned its edge: the third
# write leaves ball -is-> red generic at 1.0, and its journal line must
# say so for replay to keep the flag.
PLAIN_AFTER_GENERIC = """\
instance
  scene: entity e0 ball color=red
  say: a red ball

instance
  scene: entity e0 ball color=red
  say: balls are red

instance
  scene: entity e0 ball color=red
  say: a red ball
"""


def _assert_replays(lines, net):
    replayed = replay(lines)
    assert replayed == net
    assert network_to_text(replayed) == network_to_text(net)


@pytest.mark.parametrize("name", sorted(BUILTIN_PHASES))
@pytest.mark.parametrize("seed", (0, 7))
def test_trace_journal_replays_to_the_learned_network(name, seed):
    net = ConceptNetwork()
    lines = []
    learn_curriculum(net, builtin_curriculum(name, seed=seed),
                     on_report=lambda i, report: lines.append(report.to_json_line(i)))
    _assert_replays(lines, net)
    if name in TASK2_CURRICULA:
        # task 2's novel-member generics, journalled the same way
        for novel, category in NOVEL_OBJECTS:
            lines.append(observe(net, membership_instance(novel, category)).to_json_line(len(lines)))
        _assert_replays(lines, net)


def test_a_plain_write_on_a_generic_edge_replays_generic(tmp_path, capsys):
    curriculum = tmp_path / "plain-after-generic.curriculum"
    curriculum.write_text(PLAIN_AFTER_GENERIC, encoding="utf-8")
    network = tmp_path / "net.txt"
    assert main(["learn", "--curriculum", str(curriculum), "--network", str(network),
                 "--trace"]) == 0
    capsys.readouterr()
    net = load_network(network)
    assert "generic:1" in network.read_text(encoding="utf-8")
    _assert_replays((tmp_path / "net.txt.trace.jsonl").read_text().splitlines(), net)


@pytest.mark.parametrize("field", ("old", "new"))
def test_an_edited_intermediate_weight_fails_replay(field):
    # The edited write is one a later write of the same edge overwrites, so
    # the replayed network still equals the learned one: only the check of
    # each write catches the edit.
    net = ConceptNetwork()
    lines = []
    learn_curriculum(net, builtin_curriculum("objects-and-colors", seed=0),
                     on_report=lambda i, report: lines.append(report.to_json_line(i)))
    reports = [json.loads(line) for line in lines]
    writes = [(report, write) for report in reports for write in report["edges"]]
    write = next(write for k, (report, write) in enumerate(writes)
                 if not report["generic"] and any(later[:3] == write[:3] for _, later in writes[k + 1:]))
    write[3 if field == "old" else 4] += 0.125
    with pytest.raises(ValueError, match=f"journalled {field} weight"):
        replay(json.dumps(report) for report in reports)


def _learn_journalled(net, batch, lines):
    """learn_curriculum with on_report journal lines, skipping each instance it cannot learn.

    Such an instance raises before it writes, so the network holds exactly
    the journalled instances.
    """
    def journal(i, report):
        lines.append(report.to_json_line(len(lines)))

    pending = list(batch)
    while pending:
        learned = len(lines)
        try:
            learn_curriculum(net, Curriculum("generated", tuple(pending)), on_report=journal)
            return
        except (ParseError, UnlearnableGeneric):
            pending = pending[len(lines) - learned + 1:]


# Shapes no built-in curriculum has, such as a coloured subject with a verb
# object, and novel members joining primed categories.
@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.lists(instances(), max_size=25))
def test_generated_instances_replay_to_the_learned_network(primed, batch):
    net = ConceptNetwork()
    lines = []
    if primed:
        _learn_journalled(net, [LearningInstance(Situation(), text) for text in PRIMER], lines)
    _learn_journalled(net, batch, lines)
    _assert_replays(lines, net)
