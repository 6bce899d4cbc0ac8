"""Slot-expanded adjacency matrix over a concept network.

Each action concept is split into one column per argument slot
(drink⊕slot-1, drink⊕slot-2) so that concept vectors preserve argument
structure. Concept similarity is cosine over these rows; categories are
represented by the arithmetic mean of their member rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Concept, ConceptNetwork


@dataclass(frozen=True)
class ExpandedColumn:
    target: Concept
    label: str

    @property
    def key(self) -> str:
        return f"{self.target.name}⊕{self.label}"


class ConceptMatrix:
    """Immutable dense snapshot of the network's edge weights."""

    def __init__(self, concepts: tuple[Concept, ...], columns: tuple[ExpandedColumn, ...],
                 weights: np.ndarray):
        self.concepts = concepts
        self.columns = columns
        self.weights = weights
        self._row_index = {c: i for i, c in enumerate(concepts)}
        self._col_index = {(col.target, col.label): i for i, col in enumerate(columns)}

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    def row_of(self, concept: Concept) -> int:
        try:
            return self._row_index[concept]
        except KeyError:
            raise ValueError(f"unknown concept {concept.key}") from None

    def entry(self, concept: Concept, target: Concept, label: str) -> float:
        """Stored weight for (concept, target⊕label); 0.0 without a column."""
        col = self._col_index.get((target, label))
        if col is None:
            return 0.0
        return float(self.weights[self.row_of(concept), col])


def build_matrix(net: ConceptNetwork) -> ConceptMatrix:
    """Snapshot the network; rows and columns sorted by kind, name, label."""
    concepts = tuple(net.concepts())
    pairs = sorted(
        {(e.target, e.label) for e in net.edges() if e.weight > 0.0},
        key=lambda p: (p[0].kind, p[0].name, p[1]),
    )
    columns = tuple(ExpandedColumn(target, label) for target, label in pairs)
    weights = np.zeros((len(concepts), len(columns)), dtype=np.float64)
    col_index = {(col.target, col.label): j for j, col in enumerate(columns)}
    row_index = {c: i for i, c in enumerate(concepts)}
    for e in net.edges():
        j = col_index.get((e.target, e.label))
        if j is not None:
            weights[row_index[e.source], j] = e.weight
    return ConceptMatrix(concepts, columns, weights)


def concept_vector(matrix: ConceptMatrix, concept: Concept) -> np.ndarray:
    """The concept's adjacency row, copied."""
    return matrix.weights[matrix.row_of(concept)].copy()


def category_vector(matrix: ConceptMatrix, category: Concept,
                    members: list[Concept]) -> np.ndarray:
    """Mean of the member rows; a category with no members has no vector."""
    if not members:
        raise ValueError(f"category {category.key} has no members")
    rows = [matrix.row_of(m) for m in members]
    return matrix.weights[rows].mean(axis=0)


def cosine_similarity(u, v) -> float:
    """dot(u, v) / (|u| |v|); 0.0 when either vector has zero norm.

    The denominator is computed as sqrt(dot(u,u) * dot(v,v)) so identical
    vectors score exactly 1.0.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    uu = float(np.dot(u, u))
    vv = float(np.dot(v, v))
    if uu == 0.0 or vv == 0.0:
        return 0.0
    denom = math.sqrt(uu * vv)
    if denom == 0.0:  # uu * vv underflowed; both norms are tiny but nonzero
        denom = math.sqrt(uu) * math.sqrt(vv)
    return min(1.0, max(0.0, float(np.dot(u, v)) / denom))


@dataclass
class ClusterNode:
    """Binary merge tree; leaves carry concepts, internal nodes a height."""

    height: float
    concept: Concept | None = None
    children: tuple["ClusterNode", "ClusterNode"] | None = None

    def leaves(self) -> list[Concept]:
        if self.concept is not None:
            return [self.concept]
        return self.children[0].leaves() + self.children[1].leaves()

    def to_text(self) -> str:
        if self.concept is not None:
            return self.concept.name
        left, right = self.children
        return f"({left.to_text()} {right.to_text()}):{self.height:.6f}"


def agglomerative_order(matrix: ConceptMatrix) -> tuple[list[Concept], ClusterNode | None]:
    """Average-linkage clustering over cosine distance (1 - similarity).

    Returns the leaf order for heatmap rendering plus the merge tree.
    Distance ties break on the lexicographically smallest leaf names, so
    the ordering is fully deterministic.
    """
    n = len(matrix.concepts)
    if n == 0:
        return [], None
    if n == 1:
        leaf = ClusterNode(0.0, concept=matrix.concepts[0])
        return [matrix.concepts[0]], leaf

    dist: dict[tuple[int, int], float] = {}
    rows = matrix.weights
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = 1.0 - cosine_similarity(rows[i], rows[j])

    class _Cluster:
        __slots__ = ("node", "size", "min_name")

        def __init__(self, node, size, min_name):
            self.node = node
            self.size = size
            self.min_name = min_name

    active: dict[int, _Cluster] = {
        i: _Cluster(ClusterNode(0.0, concept=c), 1, c.name)
        for i, c in enumerate(matrix.concepts)
    }
    next_id = n

    def pair_key(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i < j else (j, i)

    def tie_rank(pair):
        p, q = pair
        return tuple(sorted((active[p].min_name, active[q].min_name)))

    while len(active) > 1:
        d = min(dist.values())
        i, j = min((pair for pair, dv in dist.items() if dv == d), key=tie_rank)
        a, b = active[i], active[j]
        left, right = (a, b) if a.min_name <= b.min_name else (b, a)
        merged = _Cluster(
            ClusterNode(d, children=(left.node, right.node)),
            a.size + b.size,
            min(a.min_name, b.min_name),
        )
        del active[i], active[j]
        new_dist: dict[tuple[int, int], float] = {}
        for (p, q), dv in dist.items():
            if i in (p, q) or j in (p, q):
                continue
            new_dist[(p, q)] = dv
        for k in active:
            # unweighted average linkage via the Lance-Williams update
            dik = dist[pair_key(i, k)]
            djk = dist[pair_key(j, k)]
            new_dist[pair_key(next_id, k)] = (a.size * dik + b.size * djk) / (a.size + b.size)
        dist = new_dist
        active[next_id] = merged
        next_id += 1

    root = next(iter(active.values())).node
    return root.leaves(), root


def matrix_to_csv(matrix: ConceptMatrix) -> str:
    """Comma-separated export: column keys in the header, 6 significant digits."""
    header = ",".join(["concept"] + [col.key for col in matrix.columns])
    lines = [header]
    for i, concept in enumerate(matrix.concepts):
        cells = [f"{v:.6g}" for v in matrix.weights[i]]
        lines.append(",".join([concept.name] + cells))
    return "\n".join(lines) + "\n"


def clusters_to_text(leaves: list[Concept], tree: ClusterNode | None) -> str:
    lines = [f"leaf {c.name}" for c in leaves]
    if tree is not None:
        lines.append(f"tree {tree.to_text()}")
    return "\n".join(lines) + "\n"
