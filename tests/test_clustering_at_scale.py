"""The fast paths of agglomerative_order against their exact references.

_cosine_distances must give 1 - cosine_similarity of the C-contiguous
float64 rows bit for bit, whatever the layout and dtype of its input and
however its rows fall into blocks, and both merge loops, with their row
minima and nearest neighbours, must keep the oracles' merge order on
matrices large enough that many rows share their minimum (hypothesis
draws at most 30 rows) and on both sides of ARRAY_MERGE_MIN_ROWS.
"""

import numpy as np
import pytest

import clustering_oracle
from test_clustering_oracle import KINDS, VALUES, assert_same_as_oracle, concept_matrix
from wugnet import matrix
from wugnet.matrix import _BLOCK_ROWS, ARRAY_MERGE_MIN_ROWS, _cosine_distances, cosine_similarity


def _layouts():
    rng = np.random.default_rng(0)
    weights = rng.random((24, 30))
    weights[rng.random(weights.shape) < 0.6] = 0.0
    layouts = {
        "fortran-ordered": np.asfortranarray(weights),
        "strided view": weights[:, ::2],
        "integer": rng.integers(0, 4, size=(20, 30)),
        "no columns": np.zeros((5, 0)),
    }
    # row counts on both sides of the block edges, with all-zero rows and
    # rows whose squared norms underflow
    for n in (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1):
        rows = rng.choice(VALUES, size=(n, 6))
        rows[rng.random(n) < 0.1] = 0.0
        layouts[f"{n} rows"] = rows
    return layouts


LAYOUTS = _layouts()


@pytest.mark.parametrize("name", LAYOUTS)
def test_initial_distances_do_not_depend_on_the_input_layout(name):
    weights = LAYOUTS[name]
    # The reference rows are C-contiguous float64, as build_matrix stores them:
    # np.dot on strided row views runs BLAS's strided ddot, which sums in
    # another order than the contiguous one.
    rows = np.ascontiguousarray(weights, dtype=np.float64)
    dist = _cosine_distances(weights)
    n = len(rows)
    assert dist.shape == (n, n)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert dist[i, j] == 1.0 - cosine_similarity(rows[i], rows[j])


def _tied_matrix(seed, n=160, cols=22):
    """n rows over a pool of shared names: 60% zeros, duplicated, scaled and all-zero rows."""
    rng = np.random.default_rng(seed)
    templates = rng.choice((0.2, 0.36, 0.488, 1.0), size=(n // 4, cols))
    templates[rng.random(templates.shape) < 0.6] = 0.0
    templates[rng.random(len(templates)) < 0.1] = 0.0
    picks = templates[rng.integers(0, len(templates), size=n)]
    rows = picks * rng.choice((1.0, 0.5, 3.0), size=(n, 1))
    fresh = rng.random(n) < 0.3  # rows of arbitrary floats, also 60% zeros
    rows[fresh] = rng.random((fresh.sum(), cols)) * (rng.random((fresh.sum(), cols)) >= 0.6)
    names = [f"c{k}" for k in range(n // 2)]
    concepts = sorted({(KINDS[rng.integers(len(KINDS))], names[rng.integers(len(names))])
                       for _ in range(3 * n)})
    order = rng.permutation(len(concepts))[:n]
    return concept_matrix([concepts[k] for k in order], rows.tolist(), cols)


# the dict-of-pairs oracle at 160 rows; at 500, where it is too slow, the
# cached-minimum version with its full-square distances
TIED = [pytest.param(seed, 160, clustering_oracle.agglomerative_order, id=str(seed))
        for seed in range(4)]
TIED += [pytest.param(seed, 500, clustering_oracle.cached_minimum_order, id=f"500 rows-{seed}")
         for seed in range(3)]


@pytest.mark.parametrize("seed, n, oracle", TIED)
def test_cached_minima_match_oracle_at_160_rows(seed, n, oracle):
    assert_same_as_oracle(_tied_matrix(seed, n), oracle)


@pytest.mark.parametrize("n, other", [(ARRAY_MERGE_MIN_ROWS - 1, "_array_merges"),
                                      (ARRAY_MERGE_MIN_ROWS, "_list_merges")])
def test_both_loops_match_on_either_side_of_the_threshold(n, other, monkeypatch):
    # agglomerative_order must not call the other side's loop; assert_same_as_oracle
    # still runs both loops directly
    monkeypatch.setattr(matrix, other, None)
    assert_same_as_oracle(_tied_matrix(0, n), clustering_oracle.cached_minimum_order)
