"""Weighted, slot-labeled concept network.

Concepts are (kind, name) pairs. Directed edges carry an association
strength in [0, 1] that plateaus toward 1.0 under repeated observation
and jumps straight to 1.0 when asserted by a generic statement.

Each edge is stored once, in its source's out-edge dict. Every edge write
goes through one path, ConceptNetwork.write, and every node comes from
add_concept; the two make every node and edge check, and the file loader
adds only the checks of its own syntax. write also keeps a category ->
members index, so members_of costs O(members) rather than a scan of
every edge. member_average owns the float summation order of feature
inheritance: each mean is a left fold from +0.0 over the members' weights
in members_of order, divided by the member count. Keeping that order
fixed is what keeps saved network files byte-identical.

So the fold is a Python loop, or, for a large category, np.add.accumulate
down the rows of its weight block: accumulate is defined as
r[i] = r[i-1] + a[i], the same adds in the same order. A large category
also keeps every row's running totals, so after a write only the rows
from the first one written down are added again, onto the kept total of
the row above: the same adds once more. Never the builtin sum()
(compensated for floats since CPython 3.12), math.fsum, or np.sum /
np.add.reduce, which add a contiguous axis pairwise and so round
differently.
"""

from __future__ import annotations

import re
from bisect import bisect_left, insort
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import FormatError

OBJECT = "object"
ATTRIBUTE = "attribute"
ACTION = "action"
CATEGORY = "category"
KINDS = (OBJECT, ATTRIBUTE, ACTION, CATEGORY)

SLOT1 = "slot-1"
SLOT2 = "slot-2"
IS = "is"
LABELS = (SLOT1, SLOT2, IS)

LEARNING_RATE = 0.2

# member_average keeps a category's member weights in a block (a _Fold)
# once it has this many members, and loops over the members' out-edges
# below it. Measured per call with one new member (5 edges, 12 columns)
# joining at a random name position since the last call, median of 150
# calls, loop and fold interleaved, on a shared 2-core Xeon, Python
# 3.11.7, numpy 2.4.6 (members: plain loop vs fold): 8: 28.4 vs 42.4 us;
# 16: 43.1 vs 44.9 us; 24: 56.6 vs 46.8 us; 32: 71.5 vs 46.5 us; 128:
# 247 vs 57 us; 1000: 2469 vs 119 us. The host was shared and absolute
# times moved by up to 1.6x from run to run; the crossover did not. The
# fold's fixed cost (about 40 us a call here) dominates below a few
# hundred members, so the crossover sits near 16-20 members. The paper's
# categories have 3-7 members and are averaged a few times each; the
# scaled novel-members categories have 336-673 members.
FOLD_MIN_MEMBERS = 32

_NAME_RE = re.compile(r"[a-z][a-z-]*")


class EdgeRuleError(ValueError):
    """An edge label that is not valid for the target concept's kind."""


class NetworkFormatError(FormatError):
    """Malformed network file; carries the offending line number."""


class Concept(NamedTuple):
    """A (kind, name) pair; sorts by kind, then name.

    A named tuple, so hashing and equality run in C on every dict probe.
    """

    kind: str
    name: str

    @property
    def key(self) -> str:
        return f"{self.kind}/{self.name}"

    def __str__(self) -> str:
        return self.key


@dataclass(slots=True)
class Edge:
    source: Concept
    target: Concept
    label: str
    weight: float = 0.0
    generic_origin: bool = False


# The (label, target kind) pairs an edge may have; _check_label names the
# rule a pair outside this set breaks.
_EDGE_RULES = frozenset({(SLOT1, ACTION), (SLOT2, ACTION), (IS, ATTRIBUTE), (IS, CATEGORY)})


def _check_label(target: Concept, label: str) -> None:
    if label not in LABELS:
        raise EdgeRuleError(f"unknown edge label {label!r}")
    if label in (SLOT1, SLOT2) and target.kind != ACTION:
        raise EdgeRuleError(f"{label} edge must point at an action, not {target.key}")
    if label == IS and target.kind not in (ATTRIBUTE, CATEGORY):
        raise EdgeRuleError(f"is edge must point at an attribute or category, not {target.key}")


def _member_order(node: Concept) -> tuple[str, str]:
    return (node.name, node.kind)


class _Fold:
    """One category's member weights as a float64 block, with each column's running totals.

    keys lists the members as (name, kind), in members_of order; columns
    maps each (target, label) to its column index. block[1 + i, j] is
    member i's weight on column j's edge, 0.0 without one. Row 0 is all
    +0.0: it is the fold's start value, so a column of members' -0.0 still
    totals +0.0, as the Python fold from 0.0 does. prefix has block's shape,
    and prefix[k] holds the left fold of block rows 0..k for every k below
    stale, the first row written since the totals were last folded. Both
    blocks keep spare rows past row len(keys), so a joining member's row is
    made by moving the rows after it down in place. dirty holds the members
    written since their rows were last read from the graph, new members
    included.
    """

    __slots__ = ("keys", "columns", "block", "prefix", "stale", "dirty")

    def __init__(self, members: list[Concept]):
        self.keys: list[tuple[str, str]] = []
        self.columns: dict[tuple[Concept, str], int] = {}
        self.block = np.zeros((1, 0))
        self.prefix = np.zeros((1, 0))
        self.stale = 1
        self.dirty: set[Concept] = set(members)

    def resize(self, rows: int, cols: int) -> None:
        """Make room for at least rows rows and exactly cols columns; new cells hold 0.0.

        A block that runs out of rows grows to twice the rows it needs, so
        members joining one at a time copy each row O(1) times on average.
        """
        height, width = self.block.shape
        if rows <= height and cols == width:
            return
        if rows > height:
            height = 2 * rows
        for name in ("block", "prefix"):
            old = getattr(self, name)
            new = np.zeros((height, cols))
            new[:len(old), :width] = old
            setattr(self, name, new)


def _refold(block: np.ndarray, prefix: np.ndarray, start: int, end: int) -> None:
    """Fold rows start..end-1 onto the kept totals: prefix[k] = prefix[k - 1] + block[k].

    Each column's prefix[end - 1] is then ((b[0] + b[1]) + b[2]) + ... up
    to b[end - 1], the same sequence of IEEE adds as
    functools.reduce(add, column), whatever start is. np.add.accumulate is
    defined as r[i] = r[i-1] + a[i]; run in place over prefix[start - 1:end]
    once the rows are copied in, it starts from the kept total of row
    start - 1. np.sum and np.add.reduce would add the rows pairwise and
    round differently.
    """
    prefix[start:end] = block[start:end]
    np.add.accumulate(prefix[start - 1:end], axis=0, out=prefix[start - 1:end])


class ConceptNetwork:
    """Mutable store of concepts and slot-labeled association edges.

    Single writer during learning; read-only (by convention) afterwards.
    _out maps each node to its out-edges keyed by (target, label), the
    only edge store. add_concept validates every node and write every
    edge; observe_association, assert_generic, set_strength and the file
    loader all go through them. copy() alone does not: it copies edges
    and member lists that have already passed them.
    When it creates an `is` edge into a category it inserts the source
    into that category's member list, kept sorted by (name, kind), so
    members_of is a copy of that list: O(members), not O(edges).
    member_average sums over that list in its order; that fixed order is
    what keeps network files holding inherited features byte-identical.
    A category that has been averaged at FOLD_MIN_MEMBERS or more members
    keeps a _Fold, and write marks the fold row of every member it writes.
    """

    def __init__(self):
        self._nodes: dict[tuple[str, str], Concept] = {}
        self._out: dict[Concept, dict[tuple[Concept, str], Edge]] = {}
        self._members: dict[Concept, list[Concept]] = {}
        self._folds: dict[Concept, _Fold] = {}

    # -- nodes ---------------------------------------------------------

    def add_concept(self, name: str, kind: str) -> Concept:
        """Create (or return the existing) concept for (name, kind)."""
        if kind not in KINDS:
            raise ValueError(f"unknown concept kind {kind!r}")
        if not _NAME_RE.fullmatch(name or ""):
            raise ValueError(f"malformed concept name {name!r}")
        node = self._nodes.get((kind, name))
        if node is None:
            node = Concept(kind, name)
            self._nodes[(kind, name)] = node
            self._out[node] = {}
        return node

    def get(self, name: str, kind: str) -> Concept | None:
        return self._nodes.get((kind, name))

    def require(self, name: str, kind: str) -> Concept:
        node = self.get(name, kind)
        if node is None:
            raise KeyError(f"no concept {kind}/{name}")
        return node

    def named(self, name: str) -> list[Concept]:
        """All concepts with this name, across kinds, sorted by kind."""
        return sorted(node for kind in KINDS if (node := self._nodes.get((kind, name))))

    def concepts(self) -> list[Concept]:
        return sorted(self._nodes.values())

    def _require_member(self, node: Concept) -> None:
        if node not in self._nodes:
            raise KeyError(f"concept {node.key} is not in this network")

    # -- edges ---------------------------------------------------------

    def edges(self) -> list[Edge]:
        """All edges, sorted by source, target (each by kind, then name) and label."""
        edges: list[Edge] = []
        for src in sorted(self._out):
            out = self._out[src]
            edges.extend(out[key] for key in sorted(out))
        return edges

    def edge_count(self) -> int:
        """Number of edges, counted without building or sorting them."""
        return sum(map(len, self._out.values()))

    def edge(self, src: Concept, dst: Concept, label: str) -> Edge | None:
        return self._out.get(src, {}).get((dst, label))

    def write(self, src: Concept, dst: Concept, label: str, weight: float | None,
              generic: bool) -> tuple[float, float]:
        """The one edge write path; returns the edge's (old, new) weight.

        weight None applies the plateauing update, which leaves a generic
        edge at 1.0; otherwise the weight and generic flag are stored.
        old is 0.0 for an edge this write creates. Nothing changes unless
        every check passes. Each check is one probe; only a failed probe
        calls the helper that raises the error naming it.
        """
        out = self._out.get(src)
        if out is None:
            self._require_member(src)
        if dst not in self._out:
            self._require_member(dst)
        if (label, dst.kind) not in _EDGE_RULES:
            _check_label(dst, label)
        if weight is not None:
            if not 0.0 <= weight <= 1.0:
                raise ValueError(f"edge weight {weight} outside [0, 1]")
            if generic and weight != 1.0:
                raise ValueError("generic edges must have weight 1.0")
        e = out.get((dst, label))
        if e is None:
            e = out[(dst, label)] = Edge(src, dst, label)
            if label == IS and dst.kind == CATEGORY:
                insort(self._members.setdefault(dst, []), src, key=_member_order)
        if self._folds:
            for category, fold in self._folds.items():
                if (category, IS) in out:
                    fold.dirty.add(src)
        old = e.weight
        if weight is None:
            if not e.generic_origin:
                e.weight = e.weight + LEARNING_RATE * (1.0 - e.weight)
        else:
            e.weight = weight
            e.generic_origin = generic
        return old, e.weight

    def observe_association(self, src: Concept, dst: Concept, label: str) -> float:
        """Strengthen src->dst by one co-occurrence: a <- a + r*(1-a).

        Generic-origin edges stay at 1.0 (the update has its fixed point
        there anyway). Returns the new weight.
        """
        return self.write(src, dst, label, None, False)[1]

    def assert_generic(self, src: Concept, dst: Concept, label: str) -> float:
        """Pin src->dst at the maximum strength 1.0 and mark it generic."""
        return self.write(src, dst, label, 1.0, True)[1]

    def set_strength(self, src: Concept, dst: Concept, label: str, weight: float,
                     generic: bool = False) -> None:
        """Write an edge weight and generic flag directly."""
        self.write(src, dst, label, weight, generic)

    def get_strength(self, src: Concept, dst: Concept, label: str) -> float:
        """Current weight of src->dst, 0.0 when no such edge exists."""
        e = self.edge(src, dst, label)
        return e.weight if e is not None else 0.0

    def neighbors(self, node: Concept) -> list[tuple[Concept, str, float]]:
        """Outgoing edges of a node, sorted by target name then label."""
        self._require_member(node)
        out = [(e.target, e.label, e.weight) for e in self._out[node].values()]
        out.sort(key=lambda t: (t[0].name, t[0].kind, t[1]))
        return out

    def _member_list(self, category: Concept) -> list[Concept]:
        self._require_member(category)
        if category.kind != CATEGORY:
            raise ValueError(f"{category.key} is not a category")
        return self._members.get(category, [])

    def members_of(self, category: Concept) -> list[Concept]:
        """Concepts holding an `is` edge into the category, of any weight, sorted by name."""
        return list(self._member_list(category))

    def member_average(self, category: Concept) -> list[tuple[Concept, str, float]]:
        """Per (target, label), the mean weight of the members' edges to it.

        A member without such an edge counts as 0.0. Sorted by target kind,
        target name, then label; empty when the category has no members.
        Each total is a left fold from 0.0 over the members' weights in
        members_of order. That summation order is a contract: it makes
        the means, and the network files holding inherited features,
        bit-identical from one version to the next. Never sum with the
        builtin sum(), math.fsum, np.sum or np.add.reduce, which add in
        another order.

        Below FOLD_MIN_MEMBERS members a loop over the members' out-edges
        adds them up. From then on the weights come from the category's
        _Fold block, and its prefix block keeps each column's running
        totals down the rows. _read_rows marks the lowest row it writes
        stale, and _refold adds the rows from there on to the kept total
        of the row above: the same left fold, so a member joining at name
        position i costs O((members - i) x keys). A member without the edge
        holds 0.0 there: the block's +0.0 start row keeps every total from
        being -0.0, and adding 0.0 to it leaves every bit as it was.
        """
        members = self._member_list(category)
        n = len(members)
        fold = self._folds.get(category)
        if fold is None and n >= FOLD_MIN_MEMBERS:
            fold = self._folds[category] = _Fold(members)
        if fold is not None:
            self._read_rows(fold)
            if fold.stale <= n:
                _refold(fold.block, fold.prefix, fold.stale, n + 1)
                fold.stale = n + 1
            totals = fold.prefix[n].tolist()
            return [(target, label, totals[j] / n)
                    for (target, label), j in sorted(fold.columns.items())]
        totals: dict[tuple[Concept, str], float] = {}
        for member in members:
            for key, e in self._out[member].items():
                totals[key] = totals.get(key, 0.0) + e.weight
        return [(target, label, totals[(target, label)] / n) for target, label in sorted(totals)]

    def _read_rows(self, fold: _Fold) -> None:
        """Bring the fold's dirty rows up to date from the members' out-edges.

        One bisect of fold.keys finds each dirty member's row. Members not
        yet in the fold get rows of 0.0 at their members_of positions: one
        pass from the end moves each run of rows between two joining
        positions down, inside the block's spare rows, by the number of
        members joining before it. (target, label) keys new to the fold get
        columns of 0.0 at the right. Edges are never removed, so writing a
        member's weights into its row sets it. fold.stale drops to the
        lowest row written.
        """
        if not fold.dirty:
            return
        keys, columns, out = fold.keys, fold.columns, self._out
        dirty = sorted(fold.dirty, key=_member_order)
        fold.dirty.clear()
        rows: list[int] = []
        joining: list[int] = []  # each joining member's position among the old keys
        for member in dirty:
            key = _member_order(member)
            i = bisect_left(keys, key)
            if i == len(keys) or keys[i] != key:
                keys.insert(i, key)
                joining.append(i - len(joining))
            rows.append(1 + i)
        for key in dict.fromkeys(key for member in dirty for key in out[member]):
            if key not in columns:
                columns[key] = len(columns)
        fold.resize(1 + len(keys), len(columns))
        block = fold.block
        end = len(keys) - len(joining)
        for t in range(len(joining) - 1, -1, -1):
            i = joining[t]
            if i < end:
                block[2 + i + t:2 + end + t] = block[1 + i:1 + end]
            block[1 + i + t] = 0.0
            end = i
        for member, k in zip(dirty, rows):
            row = block[k]
            for key, e in out[member].items():
                row[columns[key]] = e.weight
        fold.stale = min(fold.stale, rows[0])

    # -- whole-network helpers ------------------------------------------

    def copy(self) -> "ConceptNetwork":
        """An independent network: new Edge objects and member lists, no folds.

        Concepts are immutable and shared. A copy starts without folds;
        member_average builds them again when it needs them.
        """
        out = ConceptNetwork()
        out._nodes = dict(self._nodes)
        out._out = {src: {key: Edge(e.source, e.target, e.label, e.weight, e.generic_origin)
                          for key, e in edges.items()}
                    for src, edges in self._out.items()}
        out._members = {category: list(members) for category, members in self._members.items()}
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConceptNetwork):
            return NotImplemented
        return self._out == other._out

    def __len__(self) -> int:
        return len(self._nodes)


def diff_networks(before: ConceptNetwork, after: ConceptNetwork) -> list[str]:
    """Human-readable structural differences, one string per change."""
    out: list[str] = []
    b_nodes = {(n.kind, n.name) for n in before.concepts()}
    a_nodes = {(n.kind, n.name) for n in after.concepts()}
    for kind, name in sorted(a_nodes - b_nodes):
        out.append(f"+node {kind}/{name}")
    for kind, name in sorted(b_nodes - a_nodes):
        out.append(f"-node {kind}/{name}")
    b_edges = {(e.source.key, e.label, e.target.key): e for e in before.edges()}
    a_edges = {(e.source.key, e.label, e.target.key): e for e in after.edges()}
    for key in sorted(set(a_edges) - set(b_edges)):
        e = a_edges[key]
        out.append(f"+edge {key[0]} {key[1]} {key[2]} = {e.weight:.17g}")
    for key in sorted(set(b_edges) - set(a_edges)):
        out.append(f"-edge {key[0]} {key[1]} {key[2]}")
    for key in sorted(set(b_edges) & set(a_edges)):
        b, a = b_edges[key], a_edges[key]
        if b.weight != a.weight or b.generic_origin != a.generic_origin:
            out.append(f"~edge {key[0]} {key[1]} {key[2]} {b.weight:.17g} -> {a.weight:.17g}")
    return out


# -- persistence --------------------------------------------------------

def network_to_text(net: ConceptNetwork) -> str:
    """Header, node lines sorted by kind and name, then edge lines in edges() order.

    Each node's key is formatted once; edges are walked per source in the
    node order, each source's out-edges sorted by (target, label).
    """
    nodes = net.concepts()
    keys = {node: f"{node.kind}/{node.name}" for node in nodes}
    lines = ["conceptnet v1"]
    lines.extend(f"node {node.kind} {node.name}" for node in nodes)
    for src in nodes:
        out = net._out[src]
        if out:
            head = f"edge {keys[src]} "
            lines.extend(f"{head}{label} {keys[dst]} {e.weight:.17g} generic:{int(e.generic_origin)}"
                         for (dst, label), e in sorted(out.items()))
    return "\n".join(lines) + "\n"


def network_from_text(text: str) -> ConceptNetwork:
    """Parse network_to_text's format; a bad line raises NetworkFormatError with its number.

    Node lines map each `kind/name` key to its Concept, so an edge line
    looks both keys up in one probe each; _node_from_key is called only
    to raise the error for a key that misses. A second line for the same
    (source, label, target) is rejected, after the checks on the line's
    own fields, not left to overwrite the first.
    """
    net = ConceptNetwork()
    write, out = net.write, net._out
    nodes: dict[str, Concept] = {}
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not seen_header:
            if line != "conceptnet v1":
                raise NetworkFormatError(f"expected header 'conceptnet v1', got {line!r}", lineno)
            seen_header = True
            continue
        fields = line.split()
        if fields[0] == "node":
            if len(fields) != 3:
                raise NetworkFormatError("node line needs 'node <kind> <name>'", lineno)
            _, kind, name = fields
            key = f"{kind}/{name}"
            if key in nodes:
                raise NetworkFormatError(f"duplicate node {key}", lineno)
            try:
                nodes[key] = net.add_concept(name, kind)
            except ValueError as err:
                raise NetworkFormatError(str(err), lineno) from err
        elif fields[0] == "edge":
            if len(fields) != 6:
                raise NetworkFormatError("edge line needs 6 fields", lineno)
            _, src_key, label, dst_key, weight_s, flag_s = fields
            src = nodes.get(src_key) or _node_from_key(net, src_key, lineno)
            dst = nodes.get(dst_key) or _node_from_key(net, dst_key, lineno)
            try:
                weight = float(weight_s)
            except ValueError as err:
                raise NetworkFormatError(f"bad weight {weight_s!r}", lineno) from err
            if flag_s not in ("generic:0", "generic:1"):
                raise NetworkFormatError(f"bad generic flag {flag_s!r}", lineno)
            repeat = (dst, label) in out[src]
            try:
                write(src, dst, label, weight, flag_s == "generic:1")
            except ValueError as err:
                raise NetworkFormatError(str(err), lineno) from err
            if repeat:
                raise NetworkFormatError(f"duplicate edge {src_key} {label} {dst_key}", lineno)
        else:
            raise NetworkFormatError(f"unexpected line {fields[0]!r}", lineno)
    if not seen_header:
        raise NetworkFormatError("empty file: missing 'conceptnet v1' header", 1)
    return net


def _node_from_key(net: ConceptNetwork, key: str, lineno: int) -> Concept:
    kind, sep, name = key.partition("/")
    if not sep:
        raise NetworkFormatError(f"bad concept key {key!r} (want kind/name)", lineno)
    node = net.get(name, kind)
    if node is None:
        raise NetworkFormatError(f"edge references undeclared concept {key!r}", lineno)
    return node


def save_network(net: ConceptNetwork, destination: str | Path) -> None:
    Path(destination).write_text(network_to_text(net), encoding="utf-8")


def load_network(source: str | Path) -> ConceptNetwork:
    return network_from_text(Path(source).read_text(encoding="utf-8"))
