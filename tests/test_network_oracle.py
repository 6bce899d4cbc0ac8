"""The one-pass network codec against the codec it replaced (tests/network_oracle.py).

Saving must give byte-identical text for any network. Loading must give an
equal network for any file, with each category's members in name order, or
the same NetworkFormatError, with the same message and line, for any file
either loader rejects. The one exception is a second line for an edge an
earlier line already gave: the old loader let it overwrite the first, and
the new one rejects it at that line.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import network_oracle as old
from inheritance_oracle import members_scan
from wugnet.graph import (
    ACTION,
    ATTRIBUTE,
    CATEGORY,
    FOLD_MIN_MEMBERS,
    IS,
    KINDS,
    LABELS,
    OBJECT,
    SLOT1,
    SLOT2,
    ConceptNetwork,
    NetworkFormatError,
    network_from_text,
    network_to_text,
)

# Members of the big category are m-aa, m-ab, ...; the other names sort
# between them, before them and after them, and "m" is a prefix of all.
MEMBERS = tuple(f"m-{a}{b}" for a in "abc" for b in "abcdefghijklmnop")
NAMES = ("m", "m-", "m-a", "m-ab-a", "m-abc", "m-b", "m-cz", "dog", "red", "eat", "food", "zz")
TARGET_KINDS = {SLOT1: (ACTION,), SLOT2: (ACTION,), IS: (ATTRIBUTE, CATEGORY)}

# the saver formats each distinct nonzero weight once, so a network holds
# each of these on any number of edges; 0.1's repr is shorter than its
# %.17g text, 0.10000000000000001
weights = st.one_of(st.sampled_from([0.0, -0.0, 0.2, 0.36, 1.0, 0.1 + 0.2, 0.1]),
                    st.floats(min_value=0.0, max_value=1.0), st.none())


@st.composite
def networks(draw, max_nodes=25, max_writes=40, sizes=(0, 1, 3, FOLD_MIN_MEMBERS - 1,
                                                     FOLD_MIN_MEMBERS, FOLD_MIN_MEMBERS + 5)):
    net = ConceptNetwork()
    for name, kind in draw(st.lists(st.tuples(st.sampled_from(NAMES), st.sampled_from(KINDS)),
                                    max_size=max_nodes)):
        net.add_concept(name, kind)
    # one category below, at or above the fold threshold
    size = draw(st.sampled_from(sizes))
    if size:
        kind_node = net.add_concept("kind", CATEGORY)
        for name in draw(st.permutations(MEMBERS))[:size]:
            net.write(net.add_concept(name, OBJECT), kind_node, IS,
                      draw(st.sampled_from([1.0, 0.2, 0.0, -0.0, 0.1 + 0.2])), False)
    nodes = net.concepts()
    for _ in range(draw(st.integers(0, max_writes)) if nodes else 0):
        src = draw(st.sampled_from(nodes))
        label = draw(st.sampled_from(LABELS))
        targets = [n for n in nodes if n.kind in TARGET_KINDS[label]]
        if not targets:
            continue
        dst = draw(st.sampled_from(targets))
        weight = draw(weights)
        net.write(src, dst, label, weight, weight == 1.0 and draw(st.booleans()))
        if draw(st.integers(0, 9)) == 0:
            for category in nodes:
                if category.kind == CATEGORY:
                    net.member_average(category)
    return net


@settings(max_examples=200, deadline=None)
@given(networks())
def test_new_codec_saves_the_same_text_as_the_old(net):
    text = network_to_text(net)
    assert text == old.network_to_text(net)
    assert network_from_text(text) == net
    assert network_to_text(network_from_text(text)) == text


def test_empty_network_text_is_the_old_text():
    assert network_to_text(ConceptNetwork()) == old.network_to_text(ConceptNetwork()) \
        == "conceptnet v1\n"


def test_signed_zero_weights_keep_their_text():
    net = ConceptNetwork()
    dog, red = net.add_concept("dog", OBJECT), net.add_concept("red", ATTRIBUTE)
    green = net.add_concept("green", ATTRIBUTE)
    net.write(dog, red, IS, -0.0, False)
    net.write(dog, green, IS, 0.0, False)
    # each zero on several edges, in both orders, and nonzero weights the
    # saver formats once: one on many edges, and 0.1 + 0.2 and 0.1, whose
    # %.17g texts are 0.30000000000000004 and 0.10000000000000001
    hens = [net.add_concept(f"hen-{c}", OBJECT) for c in "abcdefgh"]
    for i, hen in enumerate(hens):
        net.write(hen, red, IS, (0.0, -0.0)[i % 2], False)
        net.write(hen, green, IS, (-0.0, 0.0)[i % 2], False)
        net.write(hen, net.add_concept("animal", CATEGORY), IS, 1.0, i % 3 == 0)
        net.write(hen, net.add_concept("eat", ACTION), SLOT1, (0.1 + 0.2, 0.1, 0.36)[i % 3], False)
    text = network_to_text(net)
    assert text == old.network_to_text(net)
    assert "edge object/dog is attribute/red -0 generic:0" in text
    assert "edge object/dog is attribute/green 0 generic:0" in text
    assert text.count(" -0 generic:0") == text.count(" 0 generic:0") == 9
    assert text.count(" 1 generic:") == 8
    assert "edge object/hen-a slot-1 action/eat 0.30000000000000004 generic:0" in text
    assert "edge object/hen-b slot-1 action/eat 0.10000000000000001 generic:0" in text
    # one parse per weight text: -0 and 0 load as the floats they spell
    assert network_to_text(network_from_text(text)) == text


TOKENS = ("object/", "/dog", "objectdog", "object/ghost", "widget/dog", "object/Dog",
          "nan", "inf", "-0.5", "1.5", "1e-3", "-0", "abc", "generic:2", "generic:1",
          "generic:0", "generic:", "is", "slot-1", "slot-2", "has", "node", "edge",
          "object", "category", "dog", "category/kind", "object/m-aa", "action/eat", "#")


@st.composite
def mutated_files(draw):
    lines = network_to_text(draw(networks(max_nodes=8, max_writes=10, sizes=(2, 3)))).splitlines()
    if draw(st.integers(0, 9)) == 0:
        del lines[0]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["field", "field", "duplicate", "move", "respell", "delete",
                                   "comment", "blank", "tab", "drop-field", "add-field"]))
        if not lines:
            lines.append(draw(st.sampled_from(["conceptnet v1", "", "node object dog"])))
            continue
        edge_lines = [k for k, line in enumerate(lines) if line.startswith("edge")]
        if edge_lines and (op in ("move", "respell") or draw(st.booleans())):
            i = draw(st.sampled_from(edge_lines))
        else:
            i = draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))
        fields = lines[i].split(" ")
        j = draw(st.integers(0, len(fields) - 1))
        if op == "field":
            fields[j] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(fields)
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "move":
            # among the edge lines, so one source's lines can split around another's
            line = lines.pop(i)
            lines.insert(draw(st.integers(edge_lines[0] if edge_lines else 0, len(lines))), line)
        elif op == "respell":
            respelled = _respellings(fields[4]) if len(fields) == 6 else []
            if respelled:
                fields[4] = draw(st.sampled_from(respelled))
                lines[i] = " ".join(fields)
        elif op == "delete":
            del lines[i]
        elif op == "comment":
            lines.insert(i, draw(st.sampled_from(["# note", "  # indented", "#"])))
        elif op == "blank":
            lines.insert(i, draw(st.sampled_from(["", "   ", "\t"])))
        elif op == "tab":
            lines[i] = "\t" + lines[i].replace(" ", draw(st.sampled_from(["\t", " \t", "  "])), 1)
        elif op == "drop-field":
            del fields[j]
            lines[i] = " ".join(fields)
        else:
            fields.insert(j, draw(st.sampled_from(TOKENS)))
            lines[i] = " ".join(fields)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def _respellings(text):
    """Other texts float() reads as text's float: 1 as 1.0, 0.5 as 5e-01, -0 as -0.0."""
    try:
        weight = float(text)
    except ValueError:
        return []
    spellings = {repr(weight), f"{weight:.0e}", f"{weight:.17e}", f"{weight:.17E}"}
    return sorted(s for s in spellings - {text} if repr(float(s)) == repr(weight))


def _load(loader, text):
    try:
        return "loaded", loader(text)
    except NetworkFormatError as err:
        return "rejected", (str(err), err.line)


def _first_repeated_edge(text):
    """(line, edge) of the first edge line naming the source, label and target of an earlier one."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if len(fields) == 6 and fields[0] == "edge":
            edge = " ".join(fields[1:4])
            if edge in seen:
                return lineno, edge
            seen.add(edge)
    return None


@settings(max_examples=400, deadline=None)
@given(mutated_files())
def test_mutated_files_load_or_fail_the_same_under_both_loaders(text):
    new_kind, new = _load(network_from_text, text)
    old_kind, was = _load(old.network_from_text, text)
    repeat = _first_repeated_edge(text)
    if repeat is not None and (old_kind == "loaded" or was[1] > repeat[0]):
        # every line before the repeat loads, so the repeat's edge exists
        lineno, edge = repeat
        assert (new_kind, new) == ("rejected", (f"line {lineno}: duplicate edge {edge}", lineno))
        return
    assert new_kind == old_kind
    if new_kind == "loaded":
        assert new == was
        assert network_to_text(new) == old.network_to_text(was)
        # equality compares edges only, so the member lists are checked on their own
        for category in new.concepts():
            if category.kind == CATEGORY:
                assert new.members_of(category) == members_scan(new, category)
    else:
        assert new == was
        assert new[1] is not None


BASE = """conceptnet v1
node attribute red
node category animal
node object dog
node object hen
edge object/dog is attribute/red 0.35999999999999999 generic:0
edge object/dog is category/animal 1 generic:1
edge object/hen is category/animal -0 generic:0
"""


@pytest.mark.parametrize("old_line,new_line", [
    ("edge object/dog is attribute/red", "edge object/ is attribute/red"),
    ("edge object/dog is attribute/red", "edge /dog is attribute/red"),
    ("edge object/dog is attribute/red", "edge objectdog is attribute/red"),
    ("edge object/dog is attribute/red", "edge object/cat is attribute/red"),
    ("is attribute/red", "is object/hen"),
    ("is attribute/red", "slot-1 attribute/red"),
    ("is attribute/red", "has attribute/red"),
    ("object/dog is category/animal", "object/dog slot-2 category/animal"),
    ("0.35999999999999999", "nan"),
    ("0.35999999999999999", "1.5"),
    ("0.35999999999999999", "-0.5"),
    ("0.35999999999999999", "abc"),
    ("0.35999999999999999 generic:0", "0.35999999999999999 generic:1"),
    ("1 generic:1", "1 generic:2"),
    # other spellings of the same weights
    ("1 generic:1", "1.0 generic:1"),
    ("-0 generic:0", "-0.0 generic:0"),
    ("0.35999999999999999", "0.36"),
    ("0.35999999999999999", "3.59999999999999987e-01"),
    # dog's edge lines split around hen's
    ("edge object/dog is category/animal 1 generic:1\n"
     "edge object/hen is category/animal -0 generic:0",
     "edge object/hen is category/animal -0 generic:0\n"
     "edge object/dog is category/animal 1 generic:1"),
    ("1 generic:1", "1"),
    ("node object hen", "node object hen\nnode object hen"),
    ("node object hen", "node widget hen"),
    ("node object hen", "node object Hen"),
    ("node object hen", "node object"),
    ("node object hen", "object hen"),
    ("node object hen", "# node object hen\n\n  \n\tnode\tobject   hen"),
    ("node object hen", "node object hen\n# edge object/hen is attribute/red 1 generic:0"),
    # a repeated edge line that breaks an edge rule fails on that rule, as before
    ("-0 generic:0", "-0 generic:0\nedge object/hen is category/animal 0.5 generic:1"),
    ("-0 generic:0", "-0 generic:0\nedge object/hen is category/animal 1.5 generic:0"),
    ("conceptnet v1\n", ""),
    ("conceptnet v1", "conceptnet v2"),
    ("conceptnet v1", "# header below\n\nconceptnet v1"),
])
def test_each_listed_mutation_loads_or_fails_the_same(old_line, new_line):
    text = BASE.replace(old_line, new_line, 1)
    assert text != BASE
    assert _load(network_from_text, text) == _load(old.network_from_text, text)


def test_a_repeated_edge_is_rejected_at_its_second_line():
    text = BASE + "edge object/dog is attribute/red 1 generic:1\n"
    kind, was = _load(old.network_from_text, text)
    assert kind == "loaded"  # the old loader kept the second line's weight
    assert "edge object/dog is attribute/red 1 generic:1" in old.network_to_text(was)
    with pytest.raises(NetworkFormatError) as err:
        network_from_text(text)
    assert err.value.line == 9
    assert str(err.value) == "line 9: duplicate edge object/dog is attribute/red"
