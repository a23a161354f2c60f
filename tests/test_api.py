"""Unit tests for the restricted-access OSN API + reference samplers."""
import numpy as np
import pytest

from repro.core import neighbor_exploration as ne
from repro.core import neighbor_sample as ns
from repro.graphs.csr import edge_indicator
from repro.osn import api as osn_api
from tests import _helpers as H


@pytest.fixture()
def api():
    g = H.small_random(50, 5, seed=20)
    csr = H.csr_of(g)
    return g, csr, osn_api.RestrictedGraphAPI(csr, g.labels)


class TestAPI:
    def test_neighbors_match_csr(self, api):
        g, csr, a = api
        for u in range(0, 50, 7):
            assert sorted(a.neighbors(u).tolist()) == sorted(csr.neighbors(u).tolist())

    def test_neighbor_call_counting(self, api):
        g, csr, a = api
        a.neighbors(0)
        a.neighbors(1)
        assert a.neighbor_calls == 2
        a.reset_counters()
        assert a.neighbor_calls == 0

    def test_profile_call_counting(self, api):
        g, csr, a = api
        assert a.label(3) == g.labels[3]
        assert a.profile_calls == 1

    def test_degree_free(self, api):
        g, csr, a = api
        before = a.neighbor_calls
        assert a.degree(0) == csr.degrees[0]
        assert a.neighbor_calls == before

    def test_prior_knowledge(self, api):
        g, csr, a = api
        assert a.n_nodes == g.n
        assert a.n_edges == g.n_edges


class TestReferenceSamplers:
    def test_srw_path_valid(self, api):
        g, csr, a = api
        path = osn_api.simple_random_walk(a, 0, 30, np.random.default_rng(0))
        assert len(path) == 31
        for u, v in zip(path, path[1:]):
            assert v in csr.neighbors(u)
        assert a.neighbor_calls == 30

    def test_neighbor_sample_ref(self, api):
        g, csr, a = api
        edges = osn_api.neighbor_sample_ref(a, 20, 10, np.random.default_rng(1))
        assert len(edges) == 20
        for u, v in edges:
            assert v in csr.neighbors(u)
        # one walk of burnin + k steps -> burnin + k API calls
        assert a.neighbor_calls == 30

    def test_neighbor_exploration_ref_t_values(self, api):
        """T(u) recorded by the API-driven reference must equal the
        precomputed t_counts used by the vectorized engine."""
        from repro.graphs.csr import t_counts

        g, csr, a = api
        sample, t_map = osn_api.neighbor_exploration_ref(
            a, 25, 10, 1, 2, np.random.default_rng(2))
        assert len(sample) == 25
        truth = t_counts(g.edges, g.labels, g.n, 1, 2)
        for u, t in t_map.items():
            assert t == truth[u], u

    def test_exploration_only_for_target_labels(self, api):
        g, csr, a = api
        sample, t_map = osn_api.neighbor_exploration_ref(
            a, 25, 10, 1, 2, np.random.default_rng(3))
        for u in t_map:
            assert g.labels[u] in (1, 2)

    def test_reference_hh_estimate_converges(self, api):
        """NS-HH built on the reference sampler lands near F (slow,
        sequential — small sizes only)."""
        g, csr, a = api
        ind = edge_indicator(g.edges, g.labels, 1, 2)
        F = ind.sum()
        rng = np.random.default_rng(4)
        ests = []
        edge_set = {tuple(e) for e in g.edges}
        for _ in range(60):
            edges = osn_api.neighbor_sample_ref(a, 40, 40, rng)
            hits = [
                1 if (min(u, v), max(u, v)) in edge_set
                and ind[np.flatnonzero(
                    (g.edges[:, 0] == min(u, v)) & (g.edges[:, 1] == max(u, v))
                )[0]] else 0
                for u, v in edges
            ]
            ests.append(g.n_edges * np.mean(hits))
        assert np.mean(ests) == pytest.approx(F, rel=0.15)


GRAPHS = {
    "path4": H.path4,
    "star": H.star,
    "random40": lambda: H.small_random(40, 4, seed=21),
    "random60": lambda: H.small_random(60, 6, seed=22),
    "random120": lambda: H.small_random(120, 8, seed=23),
}


class TestEngineMatchesReference:
    """With one walker and the same seed, the vectorized engines draw
    exactly what the sequential API samplers draw."""

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_neighbor_sample(self, graph):
        g = GRAPHS[graph]()
        csr = H.csr_of(g)
        for seed in range(10):
            a = osn_api.RestrictedGraphAPI(csr, g.labels)
            ref = osn_api.neighbor_sample_ref(
                a, 20, 10, np.random.default_rng(seed))
            ref_ids = [csr.edge_ids[csr.arc_of(u, v)] for u, v in ref]
            eids = ns.sample_edges_batch(
                csr, 20, 10, 1, np.random.default_rng(seed))
            assert eids[0].tolist() == ref_ids, seed

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_neighbor_exploration(self, graph):
        g = GRAPHS[graph]()
        csr = H.csr_of(g)
        for seed in range(10):
            a = osn_api.RestrictedGraphAPI(csr, g.labels)
            ref, _ = osn_api.neighbor_exploration_ref(
                a, 20, 10, 1, 2, np.random.default_rng(seed))
            nodes = ne.sample_nodes_batch(
                csr, 20, 10, 1, np.random.default_rng(seed))
            assert nodes[0].tolist() == ref, seed
