"""The network codec on the 4045-row novel-members network and the built-ins.

tests/golden.py's cached `_novel_members()` network (perfbench's
novel-members inputs at seed 0, 1000 nouns, 3000 generics, about 46k
edges) and each built-in curriculum's network learned at seed 0 are saved
and loaded once. Each reloaded network must save back to the same text,
and each category's `members_of`, which network equality does not compare,
must load as it was learned: the loader joins members in file order,
learning in the order its generics name them.
"""

import pytest

from golden import _novel_members
from wugnet.curriculum import BUILTIN_PHASES, builtin_curriculum
from wugnet.graph import CATEGORY, ConceptNetwork, network_from_text, network_to_text
from wugnet.learner import learn_curriculum


@pytest.fixture(scope="module")
def round_trips():
    """Each network's name -> (the network, its saved text, that text loaded)."""
    networks = {"novel-members": _novel_members()}
    for name in sorted(BUILTIN_PHASES):
        networks[name] = ConceptNetwork()
        learn_curriculum(networks[name], builtin_curriculum(name, seed=0))
    trips = {}
    for name, net in networks.items():
        text = network_to_text(net)
        trips[name] = net, text, network_from_text(text)
    return trips


def test_the_network_loads_and_resaves_byte_for_byte(round_trips):
    assert [name for name, (_, text, loaded) in round_trips.items()
            if network_to_text(loaded) != text] == []


def test_each_category_loads_its_members_of_as_learned(round_trips):
    categories = [(name, c) for name, (net, _, _) in round_trips.items()
                  for c in net.concepts() if c.kind == CATEGORY]
    assert categories
    assert [(name, c) for name, c in categories
            if round_trips[name][2].members_of(c) != round_trips[name][0].members_of(c)] == []
