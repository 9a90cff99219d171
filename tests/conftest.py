import numpy as np
import pytest

from sparsenerve.model import TranslationFunction


ENTRY_POOL = np.array([0.0, 1.0, 2.0, 3.0, np.inf])

# The closed forms t, t + 1 and 2t, a cubic polynomial and a table.
EVERY_ALPHA_KIND = [
    TranslationFunction.identity(),
    TranslationFunction.additive(1.0),
    TranslationFunction.multiplicative(2.0),
    TranslationFunction.polynomial([0.3, 1.0, 0.0, 0.5]),
    TranslationFunction.tabulated([0.0, 1.0, 3.0], [0.5, 2.0, 3.5]),
]


def facet_lists(facets, dims):
    """Facet indices per simplex, as tuples in filtration order, from the
    per-dimension arrays of ``FilteredComplex.facet_indices``."""
    cols = [()] * len(dims)
    for p, rows in enumerate(facets):
        for i, row in zip(np.flatnonzero(np.asarray(dims) == p).tolist(), rows.tolist()):
            cols[i] = tuple(row)
    return cols


def random_dissimilarity(rng, max_side=7):
    """Small random extended-value matrix for oracle comparisons."""
    nl = int(rng.integers(2, max_side + 1))
    nw = int(rng.integers(2, max_side + 1))
    return rng.choice(ENTRY_POOL, size=(nl, nw), p=[0.15, 0.3, 0.25, 0.2, 0.1])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
