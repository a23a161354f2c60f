"""Oracle-checked tests for the Catalyst ground-truth statistics."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs import stats
from repro.harness.datasets import pair_counts_np
from repro.oracle import assert_equivalent
from tests import _helpers as H


@pytest.fixture(scope="module")
def g():
    return H.small_random(120, 6, seed=30)


@pytest.fixture(scope="module")
def dfs(spark, g):
    e = stats.edges_df(spark, g).localCheckpoint()
    l = stats.labels_df(spark, g).localCheckpoint()
    return e, l


class TestEdgesLabelsDF:
    def test_edges_roundtrip(self, spark, g, dfs):
        e, _ = dfs
        pdf = e.toPandas().sort_values(["src", "dst"]).reset_index(drop=True)
        exp = pd.DataFrame({"src": g.edges[:, 0], "dst": g.edges[:, 1]})
        exp = exp.sort_values(["src", "dst"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(pdf, exp, check_dtype=False)

    def test_labels_roundtrip(self, spark, g, dfs):
        _, l = dfs
        pdf = l.toPandas().sort_values("node").reset_index(drop=True)
        assert (pdf["label"].to_numpy() == g.labels).all()


class TestTargetCount:
    @pytest.mark.parametrize("t1,t2", [(1, 2), (2, 3), (1, 1), (1, 3)])
    def test_matches_brute_force(self, spark, g, dfs, t1, t2):
        e, l = dfs
        assert stats.exact_target_count(e, l, t1, t2) == H.brute_force_f(g, t1, t2)

    def test_oracle_cross_pair(self, spark, g, dfs):
        e, l = dfs
        ind = stats.target_edge_indicator(e, l, 1, 2)
        out = ind.agg(F.sum("is_target").alias("f"))
        assert_equivalent(
            out,
            """
            SELECT CAST(SUM(CASE WHEN (l1.label = 1 AND l2.label = 2)
                              OR (l1.label = 2 AND l2.label = 1)
                         THEN 1 ELSE 0 END) AS BIGINT) AS f
            FROM edges e
            JOIN labels l1 ON e.src = l1.node
            JOIN labels l2 ON e.dst = l2.node
            """,
            edges=e, labels=l,
        )

    def test_oracle_same_label_pair(self, spark, g, dfs):
        e, l = dfs
        ind = stats.target_edge_indicator(e, l, 2, 2)
        out = ind.agg(F.sum("is_target").alias("f"))
        assert_equivalent(
            out,
            """
            SELECT CAST(SUM(CASE WHEN l1.label = 2 AND l2.label = 2
                         THEN 1 ELSE 0 END) AS BIGINT) AS f
            FROM edges e
            JOIN labels l1 ON e.src = l1.node
            JOIN labels l2 ON e.dst = l2.node
            """,
            edges=e, labels=l,
        )


class TestDegrees:
    def test_matches_numpy(self, spark, g, dfs):
        e, _ = dfs
        pdf = stats.degrees_df(e).toPandas().set_index("node")["degree"]
        for u in range(g.n):
            assert pdf.get(u, 0) == g.degrees[u]

    def test_oracle(self, spark, g, dfs):
        e, _ = dfs
        assert_equivalent(
            stats.degrees_df(e),
            """
            SELECT node, COUNT(*) AS degree FROM (
                SELECT src AS node FROM edges
                UNION ALL
                SELECT dst AS node FROM edges
            ) GROUP BY node
            """,
            edges=e,
        )


class TestTCounts:
    def test_matches_brute_force(self, spark, g, dfs):
        e, l = dfs
        pdf = stats.t_counts_df(e, l, 1, 2).toPandas().set_index("node")["t_count"]
        truth = H.brute_force_t(g, 1, 2)
        for u in range(g.n):
            assert pdf.get(u, 0) == truth[u]

    def test_oracle(self, spark, g, dfs):
        e, l = dfs
        assert_equivalent(
            stats.t_counts_df(e, l, 1, 2),
            """
            WITH tgt AS (
                SELECT e.src, e.dst FROM edges e
                JOIN labels l1 ON e.src = l1.node
                JOIN labels l2 ON e.dst = l2.node
                WHERE (l1.label = 1 AND l2.label = 2)
                   OR (l1.label = 2 AND l2.label = 1)
            )
            SELECT node, COUNT(*) AS t_count FROM (
                SELECT src AS node FROM tgt
                UNION ALL
                SELECT dst AS node FROM tgt
            ) GROUP BY node
            """,
            edges=e, labels=l,
        )


class TestPairCounts:
    def test_oracle(self, spark, g, dfs):
        e, l = dfs
        assert_equivalent(
            stats.pair_counts(e, l),
            """
            SELECT LEAST(l1.label, l2.label) AS l1,
                   GREATEST(l1.label, l2.label) AS l2,
                   COUNT(*) AS n_edges
            FROM edges e
            JOIN labels l1 ON e.src = l1.node
            JOIN labels l2 ON e.dst = l2.node
            GROUP BY 1, 2
            """,
            edges=e, labels=l,
        )

    def test_matches_numpy_mirror(self, spark, g, dfs):
        """The NumPy pair counter used for target-pair selection must
        agree with the Catalyst aggregation."""
        e, l = dfs
        pdf = stats.pair_counts(e, l).toPandas()
        spark_counts = {
            (int(r.l1), int(r.l2)): int(r.n_edges) for r in pdf.itertuples()
        }
        pairs, counts = pair_counts_np(g)
        np_counts = {
            (int(a), int(b)): int(c) for (a, b), c in zip(pairs, counts)
        }
        assert spark_counts == np_counts

    def test_total_is_edge_count(self, spark, g, dfs):
        e, l = dfs
        total = stats.pair_counts(e, l).agg(F.sum("n_edges")).collect()[0][0]
        assert total == g.n_edges

