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

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    def row_of(self, concept: Concept) -> int:
        try:
            return self._row_index[concept]
        except KeyError:
            raise ValueError(f"unknown concept {concept.key}") from None


def build_matrix(net: ConceptNetwork) -> ConceptMatrix:
    """Snapshot the network; rows and columns sorted by kind, name, label."""
    concepts = tuple(net.concepts())
    edges = net.edges()
    pairs = sorted({(e.target, e.label) for e in edges if e.weight > 0.0})
    columns = tuple(ExpandedColumn(target, label) for target, label in pairs)
    weights = np.zeros((len(concepts), len(columns)), dtype=np.float64)
    col_index = {(col.target, col.label): j for j, col in enumerate(columns)}
    row_index = {c: i for i, c in enumerate(concepts)}
    for e in edges:
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
    vectors score exactly 1.0. Both are read C-contiguous (a contiguous
    float64 input is not copied), so a strided or Fortran-ordered row goes
    through the same BLAS kernel, and gives the same bits, as its copy.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
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


@dataclass(eq=False, repr=False)
class ClusterNode:
    """Binary merge tree; leaves carry concepts, internal nodes a height.

    leaves() and to_text() walk the tree with an explicit stack, so an
    all-tied matrix (a chain n-1 levels deep) does not hit the recursion
    limit. Nodes compare by identity and keep object's repr; compare trees
    by to_text() and their merge heights.
    """

    height: float
    concept: Concept | None = None
    children: tuple["ClusterNode", "ClusterNode"] | None = None

    def leaves(self) -> list[Concept]:
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.concept is not None:
                out.append(node.concept)
            else:
                stack.extend(reversed(node.children))
        return out

    def to_text(self) -> str:
        parts, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif item.concept is not None:
                parts.append(item.concept.name)
            else:
                left, right = item.children
                parts.append("(")
                stack.extend((f"):{item.height:.6f}", right, " ", left))
        return "".join(parts)


def _cosine_distances(weights: np.ndarray) -> np.ndarray:
    """n x n array of 1 - cosine_similarity(row i, row j), bit for bit.

    All pair dot products come from one stacked matmul whose batch elements
    are (1 x k) @ (k x 1) products of C-contiguous float64 rows: numpy hands
    each of them to the same BLAS ddot that u.dot(v) calls in
    cosine_similarity, with no Python call per pair. A Gram product W @ W.T,
    a per-row gemv (w[i] @ w[i:].T), einsum, or this matmul on rows that are
    not C-contiguous float64 (numpy's own loop) sum in another order and can
    differ in the last bit. The rest of cosine_similarity's arithmetic (the
    zero-norm rule, the underflow fallback, the clamp) runs on whole arrays.
    """
    w = np.ascontiguousarray(weights, dtype=np.float64)
    n = len(w)
    dots = (w[:, None, None, :] @ w[:, :, None]).reshape(n, n)
    sq = dots.diagonal().copy()
    with np.errstate(all="ignore"):
        denom = np.sqrt(np.outer(sq, sq))
        underflow = denom == 0.0  # uu * vv underflowed, or a norm is zero
        denom[underflow] = np.outer(np.sqrt(sq), np.sqrt(sq))[underflow]
        sim = np.divide(dots, denom, out=dots)
    del denom, underflow
    # max(0.0, x) then min(1.0, x), as Python evaluates them (NaN and -0.0 give 0.0)
    sim[~(sim > 0.0)] = 0.0
    sim[~(sim < 1.0)] = 1.0
    zero = sq == 0.0
    sim[zero], sim[:, zero] = 0.0, 0.0
    return np.subtract(1.0, sim, out=sim)


def agglomerative_order(matrix: ConceptMatrix) -> tuple[list[Concept], ClusterNode | None]:
    """Average-linkage clustering over cosine distance (1 - similarity).

    Returns the leaf order for heatmap rendering plus the merge tree.

    Exact greedy algorithm on one dense n x n float64 distance array
    (O(n^2) memory): every merge joins the globally closest pair of active
    clusters, and the merged row is the Lance-Williams average
    (sa*d(a,k) + sb*d(b,k)) / (sa+sb). Initial distances are
    1 - cosine_similarity(row i, row j) bit for bit.

    Each row's minimum is cached, as in Müllner's generic linkage (arXiv
    1109.2378), so a merge finds the global minimum and its tied rows in
    O(n), writes one row and column, and rescans only the r rows whose
    minimum sat in a merged column, the merged pair included: O(n * r) per
    merge. r averages 22 of 267 rows on the concept-space benchmark; only
    a matrix that made every row rescan every time would cost O(n^3).

    Ties are broken in full, so the order is deterministic:
      1. among pairs at the minimum distance, take the smallest
         (min, max) pair of cluster names, where a cluster's name is the
         smallest leaf name in it;
      2. if concepts of different kinds share a name, several pairs can
         tie on names too; then pairs of two original leaves (i, j) come
         first in (i, j) row order, then pairs involving a merged cluster,
         ordered by the newer cluster's creation id (leaves are 0..n-1,
         merges n, n+1, ...) and then by the other cluster's id.
    The child with the smaller name goes left; on equal names the older
    cluster goes left.

    tests/clustering_oracle.py keeps the original dict-of-pairs version;
    this one reproduces its merge order, its heights and its tree bit for
    bit. A nearest-neighbour chain would merge in another order, so its
    Lance-Williams sums could differ in the last bit.
    """
    n = len(matrix.concepts)
    if n == 0:
        return [], None
    if n == 1:
        leaf = ClusterNode(0.0, concept=matrix.concepts[0])
        return [matrix.concepts[0]], leaf

    dist = _cosine_distances(matrix.weights)
    np.fill_diagonal(dist, np.inf)  # inf marks a pair that can no longer merge
    name_rank = {name: r for r, name in enumerate(sorted({c.name for c in matrix.concepts}))}
    # per slot: the rank of the cluster's smallest leaf name, its creation id, size, tree
    rank = np.array([name_rank[c.name] for c in matrix.concepts])
    cid = np.arange(n)
    size = [1] * n
    nodes = [ClusterNode(0.0, concept=c) for c in matrix.concepts]
    rowmin = dist.min(axis=1)  # each row's minimum; inf once the slot is merged away

    for next_id in range(n, 2 * n - 1):
        d = rowmin.min()
        slots = np.flatnonzero(rowmin == d)
        firsts = slots[rank[slots] == rank[slots].min()]
        partner_rank = np.where(dist[firsts] == d, rank, len(name_rank))
        rows, partners = np.nonzero(partner_rank == partner_rank.min())
        a, b, k = firsts[rows], partners, 0
        if len(a) > 1:  # equal names too: first pair in creation order
            lo, hi = np.minimum(cid[a], cid[b]), np.maximum(cid[a], cid[b])
            merged = hi >= n
            k = np.lexsort((np.where(merged, lo, hi), np.where(merged, hi, lo), merged))[0]
        a, b = a[k], b[k]
        if cid[a] > cid[b]:
            a, b = b, a
        left, right = (a, b) if rank[a] <= rank[b] else (b, a)
        nodes[a] = ClusterNode(float(d), children=(nodes[left], nodes[right]))
        sa, sb = size[a], size[b]
        # rescan the active rows whose minimum sat in column a or b, a and b
        # among them (dist[a, b] is both rows' minimum); b's row is all inf then
        stale = ((dist[:, a] == rowmin) | (dist[:, b] == rowmin)) & (rowmin < np.inf)
        # unweighted average linkage via the Lance-Williams update; the inf
        # diagonal and inactive slots stay inf
        row = (sa * dist[a] + sb * dist[b]) / (sa + sb)
        dist[a], dist[:, a] = row, row
        dist[b], dist[:, b] = np.inf, np.inf
        # an average can round below both distances it averages (sizes 1 and 9,
        # say), so every row's minimum takes the new column in
        rowmin = np.minimum(rowmin, row)
        rowmin[stale] = dist[stale].min(axis=1)
        size[a] = sa + sb
        rank[a] = min(rank[a], rank[b])
        cid[a] = next_id

    root = nodes[a]
    return root.leaves(), root


def matrix_to_csv(matrix: ConceptMatrix) -> str:
    """Comma-separated export: column keys in the header, 6 significant digits."""
    header = ",".join(["concept"] + [col.key for col in matrix.columns])
    lines = [header]
    for concept, row in zip(matrix.concepts, matrix.weights.tolist()):
        lines.append(",".join([concept.name] + [f"{v:.6g}" for v in row]))
    return "\n".join(lines) + "\n"


def clusters_to_text(leaves: list[Concept], tree: ClusterNode | None) -> str:
    lines = [f"leaf {c.name}" for c in leaves]
    if tree is not None:
        lines.append(f"tree {tree.to_text()}")
    return "\n".join(lines) + "\n"
