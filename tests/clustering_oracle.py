"""Reference implementations of average-linkage clustering.

agglomerative_order is the original dict-of-pairs version that
matrix.agglomerative_order replaces: every merge rebuilds the dict of all
pair distances and scans it for the minimum, O(n^3) in pure Python.

cached_minimum_order is the array-backed version that came next, with
the full-square _cosine_distances it read: it caches each row's minimum
and rescans every row whose minimum sat in a merged column, tied rows
included. It is fast enough to check matrices of hundreds of rows, where
the dict-of-pairs version is not.

Tests compare matrix.agglomerative_order against both bit for bit.
"""

import numpy as np

from wugnet.matrix import ClusterNode, cosine_similarity


def agglomerative_order(matrix):
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


def cached_minimum_order(matrix):
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
