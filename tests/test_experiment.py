"""Tests for the Spark-parallel Monte-Carlo harness."""
import numpy as np
import pytest

from repro.baselines import ex_algorithms as exa
from repro.baselines.linegraph import line_degrees
from repro.core import neighbor_exploration as ne
from repro.core import neighbor_sample as ns
from repro.graphs.csr import edge_indicator, from_arcs, t_counts
from repro.graphs.generator import LabeledGraph
from repro.harness import experiment as ex
from repro.harness.nrmse import nrmse_agg
from tests import _helpers as H


@pytest.fixture(scope="module")
def ctx():
    g = H.small_random(200, 8, seed=60)
    return g, ex.build_context(g, (1, 2), burnin=80)


class TestContext:
    def test_truth_consistent(self, ctx):
        g, c = ctx
        assert c["F"] == H.brute_force_f(g, 1, 2)
        assert c["n_edges"] == g.n_edges
        assert (c["t_counts"] == H.brute_force_t(g, 1, 2)).all()

    def test_has_target(self, ctx):
        g, c = ctx
        expected = (g.labels == 1) | (g.labels == 2)
        assert (c["has_target"] == expected).all()

    def test_same_label_pair_target(self):
        g = H.small_random(50, 5, seed=61)
        c = ex.build_context(g, (2, 2), burnin=10)
        assert (c["has_target"] == (g.labels == 2)).all()

    def test_no_target_edge_raises(self):
        g = H.small_random(50, 5, seed=61)
        with pytest.raises(ValueError, match="F = 0"):
            ex.build_context(g, (1, 7), burnin=10)

    def test_degree_zero_node_raises(self):
        g = H.star(4)
        g = LabeledGraph(g.n + 1, g.edges, np.append(g.labels, 1), "star+1")
        with pytest.raises(ValueError, match="degree 0"):
            ex.build_context(g, (1, 2), burnin=10)

    def test_broadcast_arrays_narrowed(self, ctx):
        g, c = ctx
        for key in ("indices", "edge_ids", "rev", "line_deg", "t_counts",
                    "explore_cost"):
            assert c[key].dtype == np.int32, key
        assert c["edge_ind"].dtype == np.int8
        assert not {"tails", "pos", "edges"} & set(c)


class TestRunSampler:
    @pytest.mark.parametrize("sampler", ex.SAMPLERS)
    def test_outputs(self, ctx, sampler):
        g, c = ctx
        out = ex.run_sampler(c, sampler, k=30, n_sims=8,
                             rng=np.random.default_rng(0))
        for alg, est in out.items():
            assert est.shape == (8,)
            assert np.isfinite(est).all(), alg

    def test_all_ten_algorithms_covered(self, ctx):
        g, c = ctx
        algs = set()
        for s in ex.SAMPLERS:
            algs |= set(ex.run_sampler(c, s, 10, 2, np.random.default_rng(1)))
        assert algs == set(ex.ALGORITHM_ORDER)

    @pytest.mark.parametrize("sampler", ["NS", "NE", "EX-RW"])
    def test_deterministic(self, ctx, sampler):
        g, c = ctx
        a = ex.run_sampler(c, sampler, 15, 4, np.random.default_rng(3))
        b = ex.run_sampler(c, sampler, 15, 4, np.random.default_rng(3))
        for alg in a:
            assert (a[alg] == b[alg]).all()

    def test_estimates_near_truth(self, ctx):
        g, c = ctx
        out = {}
        for s in ex.SAMPLERS:
            out.update(ex.run_sampler(c, s, 150, 120, np.random.default_rng(4)))
        for alg, est in out.items():
            rel = 0.6 if alg in ("EX-MDRW", "EX-GMD") else 0.25
            assert est.mean() == pytest.approx(c["F"], rel=rel), alg


class TestRunBudgets:
    KS = [1, 4, 9, 16, 30]

    def _standalone(self, g, c, sampler, k, n, rng):
        """A budget-k run through the per-budget kernels, on int64
        arrays built from the graph rather than from the context."""
        csr = H.csr_of(g)
        ind = edge_indicator(g.edges, g.labels, 1, 2)
        if sampler == "NS":
            eids = ns.sample_edges_batch(csr, k, c["burnin"], n, rng)
            return {"NeighborSample-HH": ns.hh_estimate(eids, ind, g.n_edges),
                    "NeighborSample-HT": ns.ht_estimate(eids, ind, g.n_edges)}
        if sampler == "NE":
            tc = t_counts(g.edges, g.labels, g.n, 1, 2)
            nodes, n_steps = ne.sample_nodes_budgeted(
                csr, k, c["burnin"], n, np.isin(g.labels, (1, 2)),
                ne.explore_cost(csr.degrees), rng)
            d = csr.degrees
            return {
                "NeighborExploration-HH": ne.hh_estimate(
                    nodes, tc, d, g.n_edges, n_steps),
                "NeighborExploration-HT": ne.ht_estimate(
                    nodes, tc, d, g.n_edges, n_steps),
                "NeighborExploration-RW": ne.rw_estimate(
                    nodes, tc, d, g.n, n_steps),
            }
        fn = {"EX-RW": exa.ex_rw, "EX-MHRW": exa.ex_mhrw,
              "EX-MDRW": exa.ex_mdrw, "EX-RCMH": exa.ex_rcmh,
              "EX-GMD": exa.ex_gmd}[sampler]
        return {sampler: fn(csr, line_degrees(csr), ind, k, c["burnin"], n,
                            rng)}

    @pytest.mark.parametrize("sampler", ex.SAMPLERS)
    def test_prefix_matches_standalone(self, ctx, sampler):
        """Each budget read as a prefix of one longer walk is bit-identical
        to a standalone budget-k run from the same generator seed."""
        g, c = ctx
        n = 7
        shared = ex.run_budgets(c, sampler, self.KS, n,
                                ex.sampler_rng(5, sampler))
        assert len(shared) == len(self.KS)
        for k, cell in zip(self.KS, shared):
            alone = ex.run_sampler(c, sampler, k, n, ex.sampler_rng(5, sampler))
            kernels = self._standalone(g, c, sampler, k, n,
                                       ex.sampler_rng(5, sampler))
            assert set(cell) == set(alone) == set(kernels)
            for alg in cell:
                assert np.array_equal(cell[alg], alone[alg]), (alg, k)
                assert np.array_equal(cell[alg], kernels[alg]), (alg, k)


class TestNESpend:
    def test_spend_within_budget(self, ctx):
        """Recompute each run's API spend from its node row: one call per
        step, plus the exploration cost on the first visit of a target
        node. The in-budget steps fit the budget (or are the single first
        step), and one more step would not."""
        g, c = ctx
        csr = from_arcs(c["indptr"], c["indices"], c["edge_ids"], c["rev"])
        ks = [1, 2, 5, 12, 40]
        nodes = ne.sample_nodes_batch(csr, max(ks), c["burnin"], 30,
                                      np.random.default_rng(8))
        cum = ne.cumulative_cost(nodes, c["has_target"], c["explore_cost"])

        def spend(row, steps):
            seen, total = set(), 0
            for u in row[:steps].tolist():
                total += 1
                if c["has_target"][u] and u not in seen:
                    total += int(c["explore_cost"][u])
                seen.add(u)
            return total

        for k in ks:
            n_steps = ne.steps_within(cum[:, :k], k)
            for row, m in zip(nodes, n_steps.tolist()):
                assert 1 <= m <= k
                assert spend(row, m) <= k or m == 1
                if m < row.size:
                    assert spend(row, m + 1) > k


class TestSimulateAll:
    def test_row_counts(self, spark, ctx):
        g, c = ctx
        est = ex.simulate_all(
            spark, c, sample_fracs=(0.02, 0.05), n_sims=6, seed=0,
            samplers=["NS", "NE"],
        ).toPandas()
        # NS yields 2 algorithms, NE yields 3 -> 5 algs * 2 fracs * 6 sims
        assert len(est) == 5 * 2 * 6
        assert set(est["algorithm"]) == {
            a for a in ex.ALGORITHM_ORDER if not a.startswith("EX-")
        }
        assert est["est"].notna().all()

    def test_nrmse_agg_matches_numpy(self, spark, ctx):
        g, c = ctx
        est = ex.simulate_all(
            spark, c, sample_fracs=(0.05,), n_sims=8, seed=1,
            samplers=["NS"],
        )
        agg = nrmse_agg(est, float(c["F"]), ["algorithm"]).toPandas()
        pdf = est.toPandas()
        for r in agg.itertuples():
            vals = pdf[pdf["algorithm"] == r.algorithm]["est"].to_numpy()
            expected = np.sqrt(np.mean((vals - c["F"]) ** 2)) / c["F"]
            assert r.nrmse == pytest.approx(expected)
            assert r.n_sims == 8

    def test_rows_match_driver_reference(self, spark, ctx):
        """Every Spark row equals the in-driver standalone cell for the
        same (seed, n_sims), and a sampler's rows do not depend on which
        other samplers share the run."""
        g, c = ctx
        fracs, n, seed = (0.02, 0.05), 5, 2
        pdf = ex.simulate_all(spark, c, fracs, n_sims=n, seed=seed).toPandas()
        assert len(pdf) == len(ex.ALGORITHM_ORDER) * len(fracs) * n
        got = {(r.algorithm, r.frac, r.sim): r.est for r in pdf.itertuples()}
        for s in ex.SAMPLERS:
            for frac, k in zip(fracs, ex.budgets(fracs, c["n_nodes"])):
                ref = ex.run_sampler(c, s, k, n, ex.sampler_rng(seed, s))
                for alg, vec in ref.items():
                    for sim in range(n):
                        assert got[(alg, frac, sim)] == vec[sim], (alg, frac)
        alone = ex.simulate_all(spark, c, fracs, n_sims=n, seed=seed,
                                samplers=["EX-GMD"]).toPandas()
        for r in alone.itertuples():
            assert got[(r.algorithm, r.frac, r.sim)] == r.est


class TestNRMSETable:
    def test_shape_and_attrs(self, spark, ctx):
        g, c = ctx
        t = ex.nrmse_table(
            spark, g, (1, 2), burnin=40, sample_fracs=(0.02, 0.05),
            n_sims=6, seed=3,
        )
        assert list(t.columns) == [0.02, 0.05]
        assert list(t.index) == ex.ALGORITHM_ORDER
        assert t.attrs["F"] == c["F"]
        assert (t.to_numpy() >= 0).all()
