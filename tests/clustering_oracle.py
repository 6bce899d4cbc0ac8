"""Slow reference implementation of average-linkage clustering.

This is the original dict-of-pairs agglomerative_order that
matrix.agglomerative_order replaces: every merge rebuilds the dict of all
pair distances and scans it for the minimum, O(n^3) in pure Python. Tests
compare the array-backed version against it bit for bit.
"""

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
