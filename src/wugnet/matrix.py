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
    """Immutable dense snapshot of the network's edge weights.

    `weights` is a read-only view of the array passed in, so no reader can
    change a row under the category vectors the snapshot keeps:
    `_category_vectors` maps a category to the member sequence its vector
    was last computed from and that vector (see category_vector). The
    caller's own array stays writable; build_matrix keeps no reference to
    it, and a caller that passes its own must not write to it afterwards.
    """

    def __init__(self, concepts: tuple[Concept, ...], columns: tuple[ExpandedColumn, ...],
                 weights: np.ndarray):
        self.concepts = concepts
        self.columns = columns
        self.weights = weights.view()
        self.weights.flags.writeable = False
        self._row_index = {c: i for i, c in enumerate(concepts)}
        self._category_vectors: dict[Concept, tuple[tuple[Concept, ...], np.ndarray]] = {}

    @property
    def shape(self) -> tuple[int, int]:
        return self.weights.shape

    def row_of(self, concept: Concept) -> int:
        try:
            return self._row_index[concept]
        except KeyError:
            raise ValueError(f"unknown concept {concept.key}") from None


def build_matrix(net: ConceptNetwork) -> ConceptMatrix:
    """Snapshot the network; rows and columns sorted by kind, name, label.

    A (target, label) is a column when some edge to it has a positive
    weight; then every edge to it fills its cell, zero and -0.0 weights
    included.
    """
    concepts = tuple(net.concepts())
    adjacency = list(net.adjacency())
    pairs = sorted({key for _, out in adjacency for key, weight in out.items() if weight > 0.0})
    columns = tuple(ExpandedColumn(target, label) for target, label in pairs)
    weights = np.zeros((len(concepts), len(columns)), dtype=np.float64)
    col_index = {pair: j for j, pair in enumerate(pairs)}
    row_index = {c: i for i, c in enumerate(concepts)}
    for src, out in adjacency:
        row = weights[row_index[src]]
        for key, weight in out.items():
            j = col_index.get(key)
            if j is not None:
                row[j] = weight
    return ConceptMatrix(concepts, columns, weights)


def concept_vector(matrix: ConceptMatrix, concept: Concept) -> np.ndarray:
    """The concept's adjacency row, copied."""
    return matrix.weights[matrix.row_of(concept)].copy()


def category_vector(matrix: ConceptMatrix, category: Concept,
                    members: list[Concept]) -> np.ndarray:
    """Mean of the member rows, as a new array; a category with no members has no vector.

    A miss takes the member rows in one copy and performs the reduction and
    division that ndarray.mean(axis=0) performs on them: np.add.reduce down
    the rows, then true division by the member count, without mean's
    wrapper calls. tests/test_matrix.py's uncached_mean, the mean itself,
    is its oracle.

    The matrix keeps the last vector it computed for each category, with
    the members it came from. A call whose members equal that sequence,
    the same concepts in the same order (the order fixes the summation
    order), gets a copy of the kept vector: the same rows of the same
    read-only weights give the same mean, bit for bit. Any other sequence
    is computed afresh and replaces the kept one; a call that raises keeps
    nothing.
    """
    members = tuple(members)
    if not members:
        raise ValueError(f"category {category.key} has no members")
    kept = matrix._category_vectors.get(category)
    if kept is not None and kept[0] == members:
        return kept[1].copy()
    rows = [matrix.row_of(m) for m in members]
    vec = np.add.reduce(matrix.weights.take(rows, axis=0), axis=0) / len(rows)
    matrix._category_vectors[category] = (members, vec)
    return vec.copy()


def cosine_similarity(u, v) -> float:
    """dot(u, v) / (|u| |v|); 0.0 when either vector has zero norm.

    The denominator is computed as sqrt(dot(u,u) * dot(v,v)) so identical
    vectors score exactly 1.0. Both are read C-contiguous (a contiguous
    float64 input is not copied), so a strided or Fortran-ordered row goes
    through the same BLAS kernel, and gives the same bits, as its copy.
    Each dot product is ndarray.dot, which reaches the same BLAS ddot as
    np.dot without np.dot's __array_function__ dispatch.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    uu = float(u.dot(u))
    vv = float(v.dot(v))
    if uu == 0.0 or vv == 0.0:
        return 0.0
    denom = math.sqrt(uu * vv)
    if denom == 0.0:  # uu * vv underflowed; both norms are tiny but nonzero
        denom = math.sqrt(uu) * math.sqrt(vv)
    return min(1.0, max(0.0, float(u.dot(v)) / denom))


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


# rows of the distance array computed, or compacted, at once: the
# temporaries hold _BLOCK_ROWS x n floats, not n x n
_BLOCK_ROWS = 64


def _cosine_distances(weights: np.ndarray) -> np.ndarray:
    """n x n array of 1 - cosine_similarity(row i, row j), bit for bit.

    All dot products come from stacked matmuls whose batch elements are
    (1 x k) @ (k x 1) products of C-contiguous float64 rows: numpy hands
    each of them to the same BLAS ddot that u.dot(v) calls in
    cosine_similarity, with no Python call per pair. A Gram product W @ W.T,
    a per-row gemv (w[i] @ w[i:].T), einsum, or this matmul on rows that are
    not C-contiguous float64 (numpy's own loop) sum in another order and can
    differ in the last bit.

    ddot(u, v) == ddot(v, u) bit for bit (the products are the same and
    are summed in the same order), so only one triangle is computed: each
    block of _BLOCK_ROWS rows against itself and the rows after it, and
    mirrored into the columns below. The rest of cosine_similarity's
    arithmetic (the zero-norm rule, the underflow fallback, the clamp) runs
    on each block in place, so the only n x n array is the result.
    """
    w = np.ascontiguousarray(weights, dtype=np.float64)
    n = len(w)
    sq = (w[:, None, :] @ w[:, :, None]).reshape(n)
    root, zero = np.sqrt(sq), sq == 0.0
    dist = np.empty((n, n))
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        sim = (w[s:e, None, None, :] @ w[s:, :, None]).reshape(e - s, n - s)
        with np.errstate(all="ignore"):
            denom = np.sqrt(np.outer(sq[s:e], sq[s:]))
            underflow = denom == 0.0  # uu * vv underflowed, or a norm is zero
            denom[underflow] = np.outer(root[s:e], root[s:])[underflow]
            np.divide(sim, denom, out=sim)
        # max(0.0, x) then min(1.0, x), as Python evaluates them (NaN and -0.0 give 0.0)
        sim[~(sim > 0.0)] = 0.0
        sim[~(sim < 1.0)] = 1.0
        sim[zero[s:e]], sim[:, zero[s:]] = 0.0, 0.0
        block = np.subtract(1.0, sim, out=dist[s:e, s:])
        dist[e:, s:e] = block[:, e - s:].T
    return dist


# agglomerative_order merges on the distance array (_array_merges) at this
# many rows or more, and on Python lists (_list_merges) below it. Measured
# on row subsets of perfbench's concept-space matrix (seed 0), each loop
# timed alone from the same start, median of 100 interleaved calls, on a
# shared 2-core Xeon, Python 3.11.7, numpy 2.4.6 (rows: array vs list):
# 48: 1.07 vs 0.62 ms; 64: 1.53 vs 1.14 ms; 80: 1.93 vs 1.65 ms; 96: 2.33
# vs 2.39 ms; 112: 2.67 vs 3.20 ms; 128: 3.01 vs 3.97 ms; 267: 7.09 vs
# 18.9 ms. The test suite's tied matrices cross at the same place (96
# rows: 2.36 vs 2.25 ms; 112: 2.67 vs 3.05 ms). The array loop pays some
# 30 numpy calls per merge on short vectors; the list loop pays Python
# bytecode per active row, so it loses past about 100 rows. The paper's
# matrices have 30-45 rows; perfbench's concept-space has 267.
ARRAY_MERGE_MIN_ROWS = 100


def agglomerative_order(matrix: ConceptMatrix) -> tuple[list[Concept], ClusterNode | None]:
    """Average-linkage clustering over cosine distance (1 - similarity).

    Returns the leaf order for heatmap rendering plus the merge tree.

    Exact greedy algorithm: every merge joins the globally closest pair of
    active clusters, and the merged row is the Lance-Williams average
    (d(a,k)*sa + d(b,k)*sb) / (sa+sb). _merge_start gives both merge loops
    their start: the initial distances, which come from _cosine_distances
    alone (1 - cosine_similarity(row i, row j) bit for bit), with an inf
    diagonal, and each row's name rank. Two loops then make the same
    merges from it, chosen by row count:
      - _array_merges, on the dense n x n float64 array (O(n^2) memory),
        at ARRAY_MERGE_MIN_ROWS rows or more;
      - _list_merges, on Python lists of Python floats, below it, where
        numpy's fixed cost per call outweighs the O(n) work of a merge
        (crossover measured beside the constant).
    Both follow Müllner's generic linkage (arXiv 1109.2378): each active
    row keeps its exact minimum and a nearest neighbour nn, a column that
    holds it, and after a merge only the rows whose nn was a merged column
    and whose value in the new column grew are rescanned. Python floats
    and numpy's elementwise ufuncs do the same IEEE operations, so the two
    loops give the same distances, heights and tree, bit for bit.

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
    cluster goes left. The rule reads the row minima and the distances,
    never nn, so which tied column nn names changes nothing.

    tests/clustering_oracle.py keeps the original dict-of-pairs version
    and the cached-minimum version the array loop replaced; both loops
    reproduce their merge order, their heights and their tree bit for
    bit. A nearest-neighbour chain would merge in another order, so its
    Lance-Williams sums could differ in the last bit.
    """
    n = len(matrix.concepts)
    if n == 0:
        return [], None
    if n == 1:
        leaf = ClusterNode(0.0, concept=matrix.concepts[0])
        return [matrix.concepts[0]], leaf
    merges = _array_merges if n >= ARRAY_MERGE_MIN_ROWS else _list_merges
    root = merges(matrix.concepts, *_merge_start(matrix))
    return root.leaves(), root


def _merge_start(matrix: ConceptMatrix) -> tuple[np.ndarray, list[int]]:
    """The n x n distances with an inf diagonal, and each row's name rank.

    inf marks a pair that can no longer merge. A name rank is the position
    of the concept's name among the sorted distinct names, so ranks compare
    as the names do.
    """
    dist = _cosine_distances(matrix.weights)
    np.fill_diagonal(dist, np.inf)
    name_rank = {name: r for r, name in enumerate(sorted({c.name for c in matrix.concepts}))}
    return dist, [name_rank[c.name] for c in matrix.concepts]


def _array_merges(concepts: tuple[Concept, ...], dist: np.ndarray,
                  rank: list[int]) -> ClusterNode:
    """agglomerative_order's merges on the distance array; returns the root.

    A merge of a and b finds the global minimum and its tied rows in O(n)
    and writes row and column a. A row whose nn was neither a nor b still
    holds its minimum there; any row whose new value in column a is no
    larger than its minimum takes that value with nn = a; only the rows
    whose nn was a or b and whose value in column a grew are rescanned.
    Rows that merely tie with a merged column are not. Column b is not
    cleared: the reads that could meet it mask the merged-away slots, and
    once half of the array's slots are merged away the active ones are
    copied to the front of the same buffer, so the per-merge work follows
    the number of active clusters.
    """
    n = len(concepts)
    buf = dist.reshape(-1)
    # per slot: the rank of the cluster's smallest leaf name, its creation id, size, tree
    rank = np.array(rank)
    cid = np.arange(n)
    size = [1.0] * n
    nodes = [ClusterNode(0.0, concept=c) for c in concepts]
    # each row's minimum and a column holding it; the minimum is inf once the slot is merged away
    nn = dist.argmin(axis=1)
    rowmin = dist[cid, nn]
    # a merged-away slot keeps stale distances in its column: reads mask it or skip it
    gone = np.zeros(n, dtype=bool)
    m = n  # active slots

    for next_id in range(n, 2 * n - 1):
        if 2 * m <= len(dist):
            # copy the active slots, in order, to an m x m array at the front of
            # the same buffer, a block of rows at a time: keep[r] >= r and the
            # new rows are shorter, so a block lands before every row still to
            # be read
            keep = (~gone).nonzero()[0]
            compact = buf[:m * m].reshape(m, m)
            for lo in range(0, m, _BLOCK_ROWS):
                compact[lo:lo + _BLOCK_ROWS] = dist[np.ix_(keep[lo:lo + _BLOCK_ROWS], keep)]
            dist = compact
            nn = (np.cumsum(~gone) - 1)[nn[keep]]
            rowmin, rank, cid, gone = rowmin[keep], rank[keep], cid[keep], gone[keep]
            size, nodes = [size[i] for i in keep], [nodes[i] for i in keep]
        d = rowmin[rowmin.argmin()]
        # the distance array is symmetric, so every pair at distance d joins two
        # of these slots, and two slots are each other's minimum
        slots = (rowmin == d).nonzero()[0]
        if len(slots) == 2:
            a, b = slots.tolist()
        else:
            ranks = rank[slots]
            firsts = slots[ranks == ranks.min()]
            pairs = dist[firsts[:, None], slots] == d
            pairs &= ranks == ranks[pairs.any(axis=0)].min()
            rows, cols = pairs.nonzero()
            a, b, k = firsts[rows], slots[cols], 0
            if len(a) > 1:  # equal names too: first pair in creation order
                lo, hi = np.minimum(cid[a], cid[b]), np.maximum(cid[a], cid[b])
                merged = hi >= n
                k = np.lexsort((np.where(merged, lo, hi), np.where(merged, hi, lo), merged))[0]
            a, b = int(a[k]), int(b[k])
        if cid[a] > cid[b]:
            a, b = b, a
        left, right = (a, b) if rank[a] <= rank[b] else (b, a)
        nodes[a] = ClusterNode(float(d), children=(nodes[left], nodes[right]))
        sa, sb = size[a], size[b]
        gone[b], m = True, m - 1
        # unweighted average linkage via the Lance-Williams update; the inf
        # diagonal stays inf
        row = dist[a] * sa + dist[b] * sb
        row /= sa + sb
        row[gone] = np.inf
        dist[a], dist[:, a] = row, row
        nn[a] = row.argmin()
        rowmin[a], rowmin[b] = row[nn[a]], np.inf
        # a row whose minimum sat in column a or b keeps it in column a if the
        # new value there is no larger, and is rescanned otherwise; an average
        # can round below both distances it averages (sizes 1 and 9, say), so
        # any row whose new value is no larger than its minimum takes column a
        stale = (((nn == a) | (nn == b)) & (row > rowmin)).nonzero()[0]
        nn[row <= rowmin] = a
        np.minimum(rowmin, row, out=rowmin)
        if len(stale):
            rescanned = dist[stale]
            rescanned[:, gone] = np.inf
            nn[stale] = rescanned.argmin(axis=1)
            rowmin[stale] = rescanned[np.arange(len(stale)), nn[stale]]
        size[a] = sa + sb
        rank[a] = min(rank[a], rank[b])
        cid[a] = next_id

    return nodes[a]


def _list_merges(concepts: tuple[Concept, ...], dist: np.ndarray,
                 rank: list[int]) -> ClusterNode:
    """The same merges as _array_merges on Python lists; returns the root.

    At tens of rows a merge's O(n) work costs less as one Python loop over
    the active rows, with min() over a row for a rescan, than as numpy
    calls on short vectors. Each merged distance is computed with the
    array loop's operations in the same order, and a merged-away slot's
    column is set to inf in every active row, so min() over a whole row
    reads only active clusters.
    """
    n = len(concepts)
    dist, rank = dist.tolist(), list(rank)
    cid, size = list(range(n)), [1.0] * n
    nodes = [ClusterNode(0.0, concept=c) for c in concepts]
    rowmin = [min(row) for row in dist]
    nn = [row.index(v) for row, v in zip(dist, rowmin)]
    active = list(range(n))

    def creation_order(pair):
        # leaf pairs in (i, j) order before pairs with a merged cluster, by
        # the newer and then the older id
        lo, hi = sorted((cid[pair[0]], cid[pair[1]]))
        return (True, hi, lo) if hi >= n else (False, lo, hi)

    for next_id in range(n, 2 * n - 1):
        d = min(rowmin)
        # every pair at distance d joins two slots whose minimum is d; with
        # only two such slots, they are each other's minimum
        if rowmin.count(d) == 2:
            a = rowmin.index(d)
            b = rowmin.index(d, a + 1)
        else:
            tied = [i for i, v in enumerate(rowmin) if v == d]
            # the pairs at d of the tied slots with the smallest name, then of
            # those the pairs whose other slot has the smallest name
            first = min([rank[i] for i in tied])
            pairs = [(i, j) for i in tied if rank[i] == first for j in tied if dist[i][j] == d]
            second = min([rank[j] for _, j in pairs])
            pairs = [(i, j) for i, j in pairs if rank[j] == second]
            a, b = pairs[0] if len(pairs) == 1 else min(pairs, key=creation_order)
        if cid[a] > cid[b]:
            a, b = b, a
        left, right = (a, b) if rank[a] <= rank[b] else (b, a)
        nodes[a] = ClusterNode(d, children=(nodes[left], nodes[right]))
        sa, sb = size[a], size[b]
        s = sa + sb
        row = dist[a]
        row[b] = rowmin[b] = math.inf
        active.remove(b)
        for k in active:
            if k == a:
                continue
            # the Lance-Williams update, written to row and column a; the
            # array is symmetric, so dk[a] and dk[b] are row a's and row b's
            dk = dist[k]
            value = row[k] = dk[a] = (dk[a] * sa + dk[b] * sb) / s
            dk[b] = math.inf
            if value <= rowmin[k]:
                rowmin[k], nn[k] = value, a
            elif nn[k] == a or nn[k] == b:
                rowmin[k] = min(dk)
                nn[k] = dk.index(rowmin[k])
        rowmin[a] = min(row)
        nn[a] = row.index(rowmin[a])
        size[a] = s
        rank[a] = min(rank[a], rank[b])
        cid[a] = next_id
    return nodes[a]


def matrix_to_csv(matrix: ConceptMatrix) -> str:
    """Comma-separated export: column keys in the header, 6 significant digits.

    Each distinct float64 bit pattern is formatted once, as the Python
    float it holds, so -0.0 prints -0 and 0.0 prints 0.
    """
    header = ",".join(["concept"] + [col.key for col in matrix.columns])
    weights = np.ascontiguousarray(matrix.weights, dtype=np.float64)
    bits, cells = np.unique(weights.view(np.int64).ravel(), return_inverse=True)
    text = np.array([f"{v:.6g}" for v in bits.view(np.float64).tolist()], dtype=object)
    lines = [header]
    for concept, row in zip(matrix.concepts, text[cells].reshape(weights.shape).tolist()):
        lines.append(",".join([concept.name, *row]))
    return "\n".join(lines) + "\n"


def clusters_to_text(leaves: list[Concept], tree: ClusterNode | None) -> str:
    lines = [f"leaf {c.name}" for c in leaves]
    if tree is not None:
        lines.append(f"tree {tree.to_text()}")
    return "\n".join(lines) + "\n"
