"""The two fast paths of agglomerative_order against their exact references.

_cosine_distances must give 1 - cosine_similarity of the C-contiguous
float64 rows bit for bit, whatever the layout and dtype of its input, and
the cached row minima must keep the oracle's merge order on matrices large
enough that many rows share their minimum (hypothesis draws at most 30
rows).
"""

import numpy as np
import pytest

from test_clustering_oracle import KINDS, assert_same_as_oracle, concept_matrix
from wugnet.matrix import _cosine_distances, cosine_similarity


def _layouts():
    rng = np.random.default_rng(0)
    weights = rng.random((24, 30))
    weights[rng.random(weights.shape) < 0.6] = 0.0
    return {
        "fortran-ordered": np.asfortranarray(weights),
        "strided view": weights[:, ::2],
        "integer": rng.integers(0, 4, size=(20, 30)),
        "no columns": np.zeros((5, 0)),
    }


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


@pytest.mark.parametrize("seed", range(4))
def test_cached_minima_match_oracle_at_160_rows(seed):
    assert_same_as_oracle(_tied_matrix(seed))
