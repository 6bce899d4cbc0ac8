"""Weighted, slot-labeled concept network.

Concepts are (kind, name) pairs. Directed edges carry an association
strength in [0, 1] that plateaus toward 1.0 under repeated observation
and jumps straight to 1.0 when asserted by a generic statement.

Each edge is stored once, as its float weight in its source's out-edge
dict; a source's generic flags are a set of its (target, label) keys.
Every edge write goes through one path, ConceptNetwork.write, and every
node comes from add_concept; the two make every node and edge check, and
the file loader adds only the checks of its own syntax. write checks the
target node and the label rule once per distinct (target, label) key,
when the key first enters the network, and the weights on every write.
The saver formats each distinct nonzero weight once, and the loader
parses each distinct weight text once. write also keeps a category ->
members index, so members_of costs O(members) rather than a scan of
every edge. member_average owns the float summation order of
feature inheritance: each mean is a left fold from +0.0 over the members'
weights in members_of order, divided by the member count. Keeping that
order fixed is what keeps saved network files byte-identical.

So the fold is a Python loop, or, for a large category, np.add.accumulate
down the rows of its weight block: accumulate is defined as
r[i] = r[i-1] + a[i], the same adds in the same order. Never the builtin sum()
(compensated for floats since CPython 3.12), math.fsum, or np.sum /
np.add.reduce, which add a contiguous axis pairwise and so round
differently. The block keeps each row's running column totals, and a read
refolds only from the first row that changed since the last one, onto
the kept total of the row before it: the same adds again, so the same
bits. numpy is imported only by the fold's code, so a process whose
categories stay below FOLD_MIN_MEMBERS members never loads it.
"""

from __future__ import annotations

import re
from bisect import bisect_left, insort
from collections.abc import Iterator, Mapping
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .errors import FormatError

OBJECT = "object"
ATTRIBUTE = "attribute"
ACTION = "action"
CATEGORY = "category"
KINDS = (OBJECT, ATTRIBUTE, ACTION, CATEGORY)
_SORTED_KINDS = tuple(sorted(KINDS))  # the order named() lists one name's concepts in

SLOT1 = "slot-1"
SLOT2 = "slot-2"
IS = "is"
LABELS = (SLOT1, SLOT2, IS)

LEARNING_RATE = 0.2

# member_average keeps a category's member weights in a block (a _Fold)
# once it has this many members, and loops over the members' out-edges
# below it. Measured as one read after one join: fresh networks of n - 1
# members with 5 edges each over 12 columns, one read, one member joining
# at a random name position, then the timed read; median of 150 networks,
# loop and fold interleaved, on a shared 2-core Xeon, Python 3.11.7,
# numpy 2.4.6 (members: plain loop vs fold): 8: 13.3 vs 13.7 us; 16: 19.0
# vs 14.2 us; 24: 24.5 vs 14.6 us; 32: 42.2 vs 20.5 us; 64: 51.6 vs 16.3
# us; 128: 94.1 vs 19.3 us. A second run read 19.5 vs 18.6 us at 8 and
# 14.0 vs 27.7 us at 4. A read that refolds from one joining row costs
# the fold about 15-20 us at these sizes, so the crossover sits near 8
# members. The threshold stays above it: no workload has categories of
# 10-31 members, so any value from 10 to 32 runs the same code, and at 9
# or less the fold, and numpy with it, would run for the paper's own
# categories of 3-7 members. The scaled novel-members categories have
# 336-673 members.
FOLD_MIN_MEMBERS = 32

# a concept name, and so every lexicon word and lemma (lang reads it from here)
NAME_RE = re.compile(r"[a-z][a-z-]*")


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


class Edge(NamedTuple):
    """A snapshot of one edge, as edge() and edges() return it.

    The network stores only the weight and the generic flag, so a later
    write does not change a snapshot, and a snapshot cannot change the edge.
    """

    source: Concept
    target: Concept
    label: str
    weight: float
    generic_origin: bool


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


# a member's sort key, (name, kind): Concept is (kind, name)
_member_order = itemgetter(1, 0)


class _Fold:
    """One category's member weights as a float64 block, with running column totals.

    keys lists the members as (name, kind), in members_of order; columns
    maps each (target, label) to its column index, and order lists each
    column as (target, label, index), sorted by (target, label): it is
    rebuilt only when a column joins. block[1 + i, j] is member i's weight
    on column j's edge, 0.0 without one. Row 0 is all +0.0: it is the
    fold's start value, so a column of members' -0.0 still totals +0.0, as
    the Python fold from 0.0 does. The block keeps spare rows past row
    len(keys), so a joining member's row is made by moving the rows after
    it down in place. dirty holds the members written since their rows
    were last read from the graph, new members included.

    acc has the block's shape: acc[k] is the left fold of block rows
    0..k, so acc[len(keys)] holds the category's totals once a read has
    refolded them. A read's stale row is the first row whose total is out
    of date: the first dirty or joining member's row, as _read_rows finds
    it. The rows before it have not changed since their totals were folded.
    """

    __slots__ = ("keys", "columns", "order", "block", "acc", "dirty")

    def __init__(self, members: list[Concept]):
        import numpy as np

        self.keys: list[tuple[str, str]] = []
        self.columns: dict[tuple[Concept, str], int] = {}
        self.order: list[tuple[Concept, str, int]] = []
        self.block = np.zeros((1, 0))
        self.acc = np.zeros((1, 0))
        self.dirty: set[Concept] = set(members)


def _refold(block: np.ndarray, acc: np.ndarray, stale: int, end: int) -> None:
    """Set acc[k] = acc[k - 1] + block[k] for k in stale..end-1, from the kept acc[stale - 1].

    These are the adds a fold of block[:end] from its start row makes for
    those rows, in the same order, so acc[end - 1] is each column's left
    fold ((b[0] + b[1]) + b[2]) + ... + b[end - 1], bit for bit.
    accumulate writes its output over its own input: the kept total, then
    the rows.
    """
    import numpy as np

    run = acc[stale - 1:end]
    run[1:] = block[stale:end]
    np.add.accumulate(run, axis=0, out=run)


class ConceptNetwork:
    """Mutable store of concepts and slot-labeled association edges.

    Single writer during learning; read-only (by convention) afterwards.
    The edge store is two maps. _out maps each node to its out-edges: a
    dict from (target, label) to the edge's float weight. _generic maps a
    source with generic edges to the set of their (target, label) keys; a
    source gets its set with its first generic edge and loses it with its
    last, so no set is empty. An edge is a float, not an object: a loaded
    network holds tens of thousands, and none is tracked by the garbage
    collector. _keys holds one (target, label) tuple per distinct key, and
    write files a new edge under it, so the sources' dicts share a few
    hundred key tuples rather than holding one each. A key enters _keys
    only after write's target and label checks pass in this network, and
    none leaves it, so write skips those two checks for a key it holds.
    edge() and edges() return Edge snapshots built on the call.
    add_concept is the one node path and write the one edge path: each
    makes every check of its kind, and the file loader goes through both.
    copy() alone does not: it copies edges, keys and member lists that
    have already passed them, with the nodes they name.
    When it creates an `is` edge into a category it inserts the source
    into that category's member list, kept sorted by (name, kind), so
    members_of is a copy of that list: O(members), not O(edges). A member
    whose name sorts after the last member's is appended, as a saved
    file's members of one kind arrive; only the others are bisected in.
    member_average sums over that list in its order; that fixed order is
    what keeps network files holding inherited features byte-identical.
    A category that has been averaged at FOLD_MIN_MEMBERS or more members
    keeps a _Fold. _member_folds maps each of its members to the folds it
    has a row in, so write marks a written member's rows in one lookup.
    """

    def __init__(self):
        self._nodes: dict[tuple[str, str], Concept] = {}
        self._out: dict[Concept, dict[tuple[Concept, str], float]] = {}
        self._generic: dict[Concept, set[tuple[Concept, str]]] = {}
        self._members: dict[Concept, list[Concept]] = {}
        self._folds: dict[Concept, _Fold] = {}
        self._member_folds: dict[Concept, list[_Fold]] = {}
        self._keys: dict[tuple[Concept, str], tuple[Concept, str]] = {}

    # -- nodes ---------------------------------------------------------

    def add_concept(self, name: str, kind: str) -> Concept:
        """Create (or return the existing) concept for (name, kind)."""
        if kind not in KINDS:
            raise ValueError(f"unknown concept kind {kind!r}")
        if not NAME_RE.fullmatch(name or ""):
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
        nodes, out = self._nodes, []
        for kind in _SORTED_KINDS:
            node = nodes.get((kind, name))
            if node is not None:
                out.append(node)
        return out

    def concepts(self) -> list[Concept]:
        return sorted(self._nodes.values())

    def _require_member(self, node: Concept) -> None:
        if node not in self._nodes:
            raise KeyError(f"concept {node.key} is not in this network")

    # -- edges ---------------------------------------------------------

    def edges(self) -> list[Edge]:
        """Snapshots of all edges, unsorted: grouped by source, in the store's order."""
        generic = self._generic
        return [Edge(src, dst, label, weight, (dst, label) in generic.get(src, ()))
                for src, out in self._out.items() for (dst, label), weight in out.items()]

    def adjacency(self) -> Iterator[tuple[Concept, Mapping[tuple[Concept, str], float]]]:
        """Each node with a read-only view of its out-edge weights, keyed by (target, label).

        Nodes come in the order the store holds them. No object is built
        per edge, so a reader of every weight (build_matrix) pays only for
        its own work.
        """
        return ((src, MappingProxyType(out)) for src, out in self._out.items())

    def edge_count(self) -> int:
        """Number of edges, counted without building or sorting them."""
        return sum(map(len, self._out.values()))

    def edge(self, src: Concept, dst: Concept, label: str) -> Edge | None:
        """A snapshot of the edge, or None when there is none."""
        key = (dst, label)
        weight = self._out.get(src, {}).get(key)
        if weight is None:
            return None
        return Edge(src, dst, label, weight, key in self._generic.get(src, ()))

    def write(self, src: Concept, dst: Concept, label: str, weight: float | None,
              generic: bool) -> tuple[float, float, bool]:
        """The one edge write path; returns the edge's (old, new) weight and its generic flag.

        weight None applies the plateauing update a <- a + r * (1 - a),
        which leaves a generic edge at 1.0 and its flag as it was; it
        cannot set the flag. Otherwise the weight and generic flag are
        stored. old is 0.0 for an edge this write creates; the flag is the
        edge's after the write. Nothing changes unless every check passes.
        Each check is one probe; only a failed probe calls the helper that
        raises the error naming it. The target and label checks run only
        for a (target, label) key not yet in _keys: a held key passed them
        in this network, and its target is still a node. The weight checks
        run on every write, after them, so each error and its order are as
        without the skip. A new `is` edge into a category joins
        its source to the member list: an append when the source's name
        sorts after the last member's, an insort otherwise.
        """
        out = self._out.get(src)
        if out is None:
            self._require_member(src)
        key = (dst, label)
        held = self._keys.get(key)
        if held is None:
            if dst not in self._out:
                self._require_member(dst)
            if (label, dst.kind) not in _EDGE_RULES:
                _check_label(dst, label)
        if weight is not None:
            if not 0.0 <= weight <= 1.0:
                raise ValueError(f"edge weight {weight} outside [0, 1]")
            if generic and weight != 1.0:
                raise ValueError("generic edges must have weight 1.0")
        elif generic:
            raise ValueError("a plateauing write cannot mark an edge generic")
        if held is None:
            self._keys[key] = key
        else:
            key = held
        old = out.get(key)
        if old is None:
            old = 0.0
            if label == IS and dst.kind == CATEGORY:
                members = self._members.setdefault(dst, [])
                if not members or members[-1].name < src.name:
                    members.append(src)
                else:
                    insort(members, src, key=_member_order)
                fold = self._folds.get(dst)
                if fold is not None:
                    self._member_folds.setdefault(src, []).append(fold)
        folds = self._member_folds.get(src)
        if folds is not None:
            for fold in folds:
                fold.dirty.add(src)
        flags = self._generic.get(src)
        if weight is None:
            if flags is not None and key in flags:
                return old, old, True
            new = out[key] = old + LEARNING_RATE * (1.0 - old)
            return old, new, False
        out[key] = weight
        if generic:
            if flags is None:
                self._generic[src] = {key}
            else:
                flags.add(key)
        elif flags is not None:
            flags.discard(key)
            if not flags:
                del self._generic[src]
        return old, weight, generic

    def get_strength(self, src: Concept, dst: Concept, label: str) -> float:
        """Current weight of src->dst, 0.0 when no such edge exists."""
        return self._out.get(src, {}).get((dst, label), 0.0)

    def neighbors(self, node: Concept) -> list[tuple[Concept, str, float]]:
        """Outgoing edges of a node, sorted by target name then label."""
        self._require_member(node)
        out = [(target, label, weight) for (target, label), weight in self._out[node].items()]
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
        _Fold block, and the totals are the running totals of its last
        row: the same left fold, from the block's +0.0 start row. A read
        refolds only the rows from the stale row _read_rows returns on,
        onto the kept total of the row before it, so it costs
        O((members - stale) x keys) adds inside numpy; the first read
        folds every row. A member
        without the edge holds 0.0 there: the start row keeps every total
        from being -0.0, and adding 0.0 to it leaves every bit as it was.
        """
        members = self._member_list(category)
        n = len(members)
        fold = self._folds.get(category)
        if fold is None and n >= FOLD_MIN_MEMBERS:
            fold = self._folds[category] = _Fold(members)
            for member in members:
                self._member_folds.setdefault(member, []).append(fold)
        if fold is not None:
            stale = self._read_rows(fold)
            if stale <= n:
                _refold(fold.block, fold.acc, stale, n + 1)
            totals = fold.acc[n].tolist()
            return [(target, label, totals[j] / n) for target, label, j in fold.order]
        totals: dict[tuple[Concept, str], float] = {}
        for member in members:
            for key, weight in self._out[member].items():
                totals[key] = totals.get(key, 0.0) + weight
        return [(target, label, totals[(target, label)] / n) for target, label in sorted(totals)]

    def _read_rows(self, fold: _Fold) -> int:
        """Bring the fold's dirty rows up to date; return the first changed row.

        One bisect of fold.keys finds each dirty member's row; the first of
        them is the stale row returned, len(keys) + 1 when nothing was
        dirty. Every row before it, and its running total, is as the last
        read left it, since that read refolded every row. Members not yet in
        the fold get rows of 0.0 at their members_of positions: one pass
        from the end moves each run of rows between two joining positions
        down, inside the block's spare rows, by the number of members
        joining before it, in one overlapping slice assignment. Every
        moved row is at or past the stale row, whose totals member_average
        then refolds, so acc is not moved. (target, label) keys new to the fold
        get columns of 0.0 at the right, in both arrays, and the sorted
        column order is rebuilt. Only dirty rows hold a new key, so the
        kept totals of the rows before the stale row are 0.0 there, as a
        fold of those rows makes them. Edges are never removed, so writing
        a member's weights into its row sets it.
        """
        import numpy as np

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
        stale = rows[0] if rows else len(keys) + 1
        width = len(columns)
        for member in dirty:
            for key in out[member]:
                if key not in columns:
                    columns[key] = len(columns)
        if len(columns) != width:
            fold.order = sorted((target, label, j) for (target, label), j in columns.items())
        block = fold.block
        height = len(block)
        if len(keys) >= height:
            # twice the rows it needs, so members joining one at a time
            # copy each row O(1) times on average
            height = 2 * (1 + len(keys))
        if (height, len(columns)) != block.shape:
            fold.block = np.zeros((height, len(columns)))
            fold.block[:len(block), :width] = block
            block = fold.block
            acc = np.zeros((height, len(columns)))
            acc[:stale, :width] = fold.acc[:stale]
            fold.acc = acc
        end = len(keys) - len(joining)
        for t in range(len(joining) - 1, -1, -1):
            i = joining[t]
            block[2 + i + t:2 + end + t] = block[1 + i:1 + end]
            block[1 + i + t] = 0.0
            end = i
        for member, k in zip(dirty, rows):
            row = block[k]
            for key, weight in out[member].items():
                row[columns[key]] = weight
        return stale

    # -- whole-network helpers ------------------------------------------

    def copy(self) -> "ConceptNetwork":
        """An independent network: new edge dicts, generic-flag sets and member lists, no folds.

        Concepts, weights and key tuples are immutable and shared. A copy
        starts without folds; member_average builds them again when it needs
        them.
        """
        out = ConceptNetwork()
        out._nodes = dict(self._nodes)
        out._out = {src: dict(edges) for src, edges in self._out.items()}
        out._generic = {src: set(keys) for src, keys in self._generic.items()}
        out._keys = dict(self._keys)
        out._members = {category: list(members) for category, members in self._members.items()}
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConceptNetwork):
            return NotImplemented
        return self._out == other._out and self._generic == other._generic

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
    b_edges, a_edges = ({(src.key, label, dst.key): (weight, generic)
                         for src, dst, label, weight, generic in net.edges()}
                        for net in (before, after))
    for key in sorted(a_edges.keys() - b_edges.keys()):
        out.append(f"+edge {key[0]} {key[1]} {key[2]} = {a_edges[key][0]:.17g}")
    for key in sorted(b_edges.keys() - a_edges.keys()):
        out.append(f"-edge {key[0]} {key[1]} {key[2]}")
    for key in sorted(b_edges.keys() & a_edges.keys()):
        (b_weight, b_generic), (a_weight, a_generic) = b_edges[key], a_edges[key]
        if b_weight != a_weight or b_generic != a_generic:
            out.append(f"~edge {key[0]} {key[1]} {key[2]} {b_weight:.17g} -> {a_weight:.17g}")
    return out


# -- persistence --------------------------------------------------------

_HEADER = "conceptnet v1"
_FLAGS = {"generic:0": False, "generic:1": True}


def network_to_text(net: ConceptNetwork) -> str:
    """Header, nodes sorted by kind and name, then edges sorted by source, target and label.

    Each node's key is formatted once, and so is each (target, label)'s
    middle, ` <label> <kind/name> `. The (target, label) keys are sorted
    once, across the network; each source's out-edges are then walked in
    the node order, sorted by their keys' ranks, ints, rather than by
    comparing tuples. Each distinct nonzero weight is formatted once, as
    format(w, ".17g") does, through a dict local to this call and keyed by
    the float. Zeros are formatted on every edge: 0.0 == -0.0 would give
    them one key, and -0.0 prints -0. Each line's pieces go straight into
    one list, which is joined once.
    """
    nodes = net.concepts()
    names = {node: f"{node.kind}/{node.name}" for node in nodes}
    store, generic = net._out, net._generic
    keys = sorted({key for out in store.values() for key in out})
    rank = {key: i for i, key in enumerate(keys)}
    middles = [f" {label} {names[dst]} " for dst, label in keys]
    parts = [f"{_HEADER}\n"]
    parts.extend(f"node {node.kind} {node.name}\n" for node in nodes)
    append = parts.append
    texts: dict[float, str] = {}
    for src in nodes:
        out = store[src]
        if out:
            head = f"edge {names[src]}"
            flags = generic.get(src, ())
            for i in sorted(map(rank.__getitem__, out)):
                key = keys[i]
                weight = out[key]
                text = texts.get(weight)
                if text is None:
                    text = "%.17g" % weight
                    if weight:
                        texts[weight] = text
                append(head)
                append(middles[i])
                append(text)
                append(" generic:1\n" if key in flags else " generic:0\n")
    return "".join(parts)


def network_from_text(text: str) -> ConceptNetwork:
    """Parse network_to_text's format; a bad line raises NetworkFormatError with its number.

    Each line is split once, and edge lines, most of a file, are tested
    first; only the header line is stripped. Node lines map each
    `kind/name` key to its Concept, so an edge line looks both keys up in
    one probe each; _node_from_key is called only to raise the error for
    a key that misses. A file lists each source's edges together, so the
    source's Concept and out-edge dict are kept from the previous edge
    line and looked up again only when its key changes. Each distinct
    weight text is parsed once, into a dict local to this load and keyed
    by the text, so `-0` and `0` stay apart and a bad weight still fails
    at its own line. A second line for the same (source, label, target)
    is rejected, after write's checks on the line's own fields, not left
    to overwrite the first: it is the write that leaves the source's
    out-edge dict no larger.
    """
    net = ConceptNetwork()
    write, out = net.write, net._out
    nodes: dict[str, Concept] = {}
    weights: dict[str, float] = {}
    last_key = src = src_out = None
    lines = enumerate(text.splitlines(), start=1)
    for lineno, line in lines:
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            header = line.strip()
            if header != _HEADER:
                raise NetworkFormatError(f"expected header {_HEADER!r}, got {header!r}", lineno)
            break
    else:
        raise NetworkFormatError(f"empty file: missing {_HEADER!r} header", 1)
    for lineno, line in lines:
        fields = line.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "edge":
            if len(fields) != 6:
                raise NetworkFormatError("edge line needs 6 fields", lineno)
            _, src_key, label, dst_key, weight_s, flag_s = fields
            if src_key != last_key:
                src = nodes.get(src_key) or _node_from_key(net, src_key, lineno)
                last_key, src_out = src_key, out[src]
            dst = nodes.get(dst_key) or _node_from_key(net, dst_key, lineno)
            weight = weights.get(weight_s)
            if weight is None:
                try:
                    weight = weights[weight_s] = float(weight_s)
                except ValueError as err:
                    raise NetworkFormatError(f"bad weight {weight_s!r}", lineno) from err
            generic = _FLAGS.get(flag_s)
            if generic is None:
                raise NetworkFormatError(f"bad generic flag {flag_s!r}", lineno)
            size = len(src_out)
            try:
                write(src, dst, label, weight, generic)
            except ValueError as err:
                raise NetworkFormatError(str(err), lineno) from err
            if len(src_out) == size:
                raise NetworkFormatError(f"duplicate edge {src_key} {label} {dst_key}", lineno)
        elif tag == "node":
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
        elif not tag.startswith("#"):
            raise NetworkFormatError(f"unexpected line {tag!r}", lineno)
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
