import json

import pytest

from journal_replay import replay
from wugnet.curriculum import BUILTIN_PHASES, builtin_curriculum
from wugnet.graph import ConceptNetwork, network_to_text
from wugnet.learner import learn_curriculum, observe
from wugnet.tasks import NOVEL_OBJECTS, TASK2_CURRICULA, membership_instance


def _plain_writes_at_one(lines) -> int:
    """Journalled writes whose generic flag replay cannot restore (see journal_replay)."""
    return sum(not generic and old == new == 1.0
               for line in lines for *_, old, new, generic in json.loads(line)["edges"])


def _assert_replays(lines, net):
    assert _plain_writes_at_one(lines) == 0
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
