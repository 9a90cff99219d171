import numpy as np
import pytest

from sparsenerve.cover import cover_matrix
from sparsenerve.ingest import distance_matrix
from sparsenerve.model import (
    INF,
    DowkerDissimilarity,
    InputValidationError,
    ParentFunction,
    TranslationFunction,
)
from sparsenerve.sparsify import restriction_times
from sparsenerve.truncation import truncation_result

from conftest import ENTRY_POOL, random_dissimilarity

ALPHAS = [
    TranslationFunction.identity(),
    TranslationFunction.additive(1.0),
    TranslationFunction.multiplicative(3.0),
]


def _random_tree(rng, n):
    """Uniformly shuffled recursive tree: each node hangs off an earlier one."""
    order = rng.permutation(n)
    parent = np.empty(n, dtype=int)
    parent[order[0]] = order[0]
    for i in range(1, n):
        parent[order[i]] = order[rng.integers(i)]
    return ParentFunction(parent)


def _cases(rng, count):
    """(phi, Lambda, Gamma) triples: truncation trees and random trees, with
    rectangular Lambda, inf entries and, in every third case, all-inf rows."""
    for k in range(count):
        lam = random_dissimilarity(rng)
        if k % 3 == 2:
            lam[rng.integers(lam.shape[0])] = INF
        if k % 2:
            tr = truncation_result(DowkerDissimilarity(lam), ALPHAS[k % len(ALPHAS)])
            yield tr.tree, lam, tr.gamma.values
        else:
            gamma = np.maximum(lam, rng.choice(ENTRY_POOL, size=lam.shape))
            yield _random_tree(rng, lam.shape[0]), lam, gamma


class TestRestrictionTimes:
    def test_star_tree(self):
        # raw deadline of l: largest Lambda(1, w) with Gamma(l, w) < Lambda(1, w)
        phi = ParentFunction(parent=[1, 1, 1])
        lam = np.array([[0.0, 5.0], [1.0, 2.0], [0.0, 0.0]])
        R = restriction_times(phi, lam, lam)
        assert R.times.tolist() == [1.0, INF, 2.0]

    def test_chain_propagates_max(self):
        # chain 2 -> 1 -> 0 with R'(2)=5, R'(1)=3: the parent absorbs 5
        phi = ParentFunction(parent=[0, 0, 1])
        lam = np.array([[3.0, 0.0], [0.0, 5.0], [0.0, 0.0]])
        R = restriction_times(phi, lam, lam)
        assert R.times.tolist() == [INF, 5.0, 5.0]

    def test_single_point(self):
        phi = ParentFunction(parent=[0])
        R = restriction_times(phi, [[0.0]], [[0.0]])
        assert np.isinf(R.times[0])

    def test_infinite_rows(self):
        # an infinite parent row covers any finite child entry at inf; an
        # infinite child row is never strictly below it
        phi = ParentFunction(parent=[0, 0, 0])
        lam = np.array([[INF, INF], [1.0, INF], [INF, INF]])
        R = restriction_times(phi, lam, lam)
        assert R.times.tolist() == [INF, INF, 0.0]

    def test_shape_mismatch_rejected(self):
        phi = ParentFunction(parent=[0, 0])
        with pytest.raises(InputValidationError):
            restriction_times(phi, np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(InputValidationError):
            restriction_times(phi, np.zeros((3, 2)), np.zeros((3, 2)))

    def test_monotone_and_bounded_below(self, rng):
        for phi, lam, gamma in _cases(rng, 30):
            rho = cover_matrix(lam, gamma)
            R = restriction_times(phi, lam, gamma)
            for l, p in enumerate(phi.parent):
                if l == int(p):
                    assert np.isinf(R.times[l])
                else:
                    assert R.times[p] >= R.times[l]
                    assert R.times[l] >= rho[l, p]

    def test_subtree_max_oracle(self, rng):
        # raw deadlines from the full cover matrix, then explicit subtrees
        for phi, lam, gamma in _cases(rng, 60):
            rho = cover_matrix(lam, gamma)
            R = restriction_times(phi, lam, gamma)
            n = len(phi)
            rprime = np.array(
                [
                    INF if l == int(phi.parent[l]) else rho[l, phi.parent[l]]
                    for l in range(n)
                ]
            )
            for l in range(n):
                subtree = [
                    x
                    for x in range(n)
                    if l in _ancestors(phi, x) or x == l
                ]
                assert R.times[l] == max(rprime[x] for x in subtree)

    @pytest.mark.parametrize("spec", ["id", "mult:1.5", "add:0.5", "poly:0,1,1e300"])
    def test_doubling_is_exact(self, spec):
        # The ambient nerve doubles R; the times of (2 Lambda, 2 Gamma) are
        # the oracle, bit for bit, at every scale a cloud may have.
        rng = np.random.default_rng(3)
        alpha = TranslationFunction.parse(spec)
        for _ in range(40):
            X = rng.normal(size=(int(rng.integers(2, 15)), int(rng.integers(1, 5))))
            dd = distance_matrix(X * 10.0 ** int(rng.integers(-100, 101)))
            tr = truncation_result(dd, alpha)
            R = restriction_times(tr.tree, dd, tr.gamma)
            with np.errstate(over="ignore"):  # 2 Gamma may overflow to inf
                oracle = restriction_times(tr.tree, 2.0 * dd.values, 2.0 * tr.gamma.values)
            assert (2.0 * R.times).tobytes() == oracle.times.tobytes()


def _ancestors(phi, x):
    out = set()
    while int(phi.parent[x]) != x:
        x = int(phi.parent[x])
        out.add(x)
    return out
