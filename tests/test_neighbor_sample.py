"""Unit tests for NeighborSample sampling and its estimators."""
import numpy as np
import pytest

from repro.core import neighbor_sample as ns
from repro.graphs.csr import edge_indicator
from tests import _helpers as H


@pytest.fixture(scope="module")
def setup():
    g = H.small_random(80, 6, seed=5)
    csr = H.csr_of(g)
    ind = edge_indicator(g.edges, g.labels, 1, 2)
    return g, csr, ind, int(ind.sum())


class TestSampling:
    def test_shape_and_range(self, setup):
        g, csr, ind, F = setup
        eids = ns.sample_edges_batch(csr, 30, 50, 7, np.random.default_rng(0))
        assert eids.shape == (7, 30)
        assert eids.min() >= 0 and eids.max() < csr.n_edges

    def test_marginal_uniform_over_edges(self, setup):
        """Each traversed edge is uniform on E (paper §4.1.2)."""
        g, csr, ind, F = setup
        rng = np.random.default_rng(1)
        eids = ns.sample_edges_batch(csr, 80, 100, 500, rng)
        freq = np.bincount(eids.ravel(), minlength=csr.n_edges) / eids.size
        assert abs(freq.mean() - 1.0 / csr.n_edges) < 1e-12
        # no edge grossly over/under-sampled (tolerance ~5 sigma)
        p = 1.0 / csr.n_edges
        sigma = np.sqrt(p * (1 - p) / eids.size)
        assert np.abs(freq - p).max() < 6 * sigma + 2e-4

    def test_deterministic(self, setup):
        _, csr, _, _ = setup
        a = ns.sample_edges_batch(csr, 10, 10, 3, np.random.default_rng(42))
        b = ns.sample_edges_batch(csr, 10, 10, 3, np.random.default_rng(42))
        assert (a == b).all()


class TestHH:
    def test_formula_by_hand(self, setup):
        g, csr, ind, F = setup
        eids = np.array([[0, 1, 2, 3]])
        expected = csr.n_edges * ind[[0, 1, 2, 3]].mean()
        assert ns.hh_estimate(eids, ind, csr.n_edges)[0] == pytest.approx(expected)

    def test_nearly_unbiased(self, setup):
        g, csr, ind, F = setup
        rng = np.random.default_rng(2)
        eids = ns.sample_edges_batch(csr, 60, 100, 400, rng)
        est = ns.hh_estimate(eids, ind, csr.n_edges)
        assert est.mean() == pytest.approx(F, rel=0.1)

    def test_all_target(self, setup):
        g, csr, _, _ = setup
        ind1 = np.ones(csr.n_edges, dtype=np.int64)
        eids = np.array([[4, 5, 6]])
        assert ns.hh_estimate(eids, ind1, csr.n_edges)[0] == csr.n_edges


class TestHT:
    def test_formula_by_hand(self, setup):
        g, csr, ind, F = setup
        eids = np.array([[0, 0, 1]])  # duplicates count once
        k = 3
        p = 1 - (1 - 1 / csr.n_edges) ** k
        expected = (ind[0] + ind[1]) / p
        assert ns.ht_estimate(eids, ind, csr.n_edges)[0] == pytest.approx(expected)

    def test_exactly_unbiased_on_independent_draws(self, setup):
        """The HT inclusion probability assumes k independent uniform
        edge draws; feed it exactly that and the mean must hit F."""
        g, csr, ind, F = setup
        rng = np.random.default_rng(3)
        eids = rng.integers(0, csr.n_edges, size=(4000, 60))
        est = ns.ht_estimate(eids, ind, csr.n_edges)
        assert est.mean() == pytest.approx(F, rel=0.03)

    def test_walk_dependence_biases_low(self, setup):
        """On a single walk, consecutive edges are dependent, so fewer
        distinct edges are seen than k independent draws would give and
        the HT estimate dips below F — the paper's §4.1.3 caveat that
        motivates thinning. Document the direction of the effect."""
        g, csr, ind, F = setup
        rng = np.random.default_rng(3)
        eids = ns.sample_edges_batch(csr, 60, 100, 400, rng)
        est = ns.ht_estimate(eids, ind, csr.n_edges)
        assert 0.5 * F < est.mean() < 1.05 * F

