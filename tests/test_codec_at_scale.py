"""The network codec on the 4045-row novel-members network.

tests/golden.py's cached `_novel_members()` network (perfbench's
novel-members inputs at seed 0, 1000 nouns, 3000 generics, about 46k
edges) is saved and loaded once. The reloaded network must save back to
the same text, and each category's `members_of`, which network equality
does not compare, must load as it was learned: the loader joins members
in file order, learning in the order its generics name them.
"""

import pytest

from golden import _novel_members
from wugnet.graph import CATEGORY, network_from_text, network_to_text


@pytest.fixture(scope="module")
def round_trip():
    net = _novel_members()
    text = network_to_text(net)
    return net, text, network_from_text(text)


def test_the_network_loads_and_resaves_byte_for_byte(round_trip):
    _, text, loaded = round_trip
    assert network_to_text(loaded) == text


def test_each_category_loads_its_members_of_as_learned(round_trip):
    net, _, loaded = round_trip
    categories = [c for c in net.concepts() if c.kind == CATEGORY]
    assert categories
    assert [c for c in categories if loaded.members_of(c) != net.members_of(c)] == []
