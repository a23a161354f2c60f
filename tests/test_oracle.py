"""The DuckDB oracle must reject a Spark result that differs from the
SQL reference."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs import stats
from repro.oracle import assert_equivalent

# Edges 0-1, 1-2 and 2-3 join labels (1, 2); edge 0-2 joins (1, 1).
EDGES = pd.DataFrame({"src": [0, 0, 1, 2], "dst": [1, 2, 2, 3]})
LABELS = pd.DataFrame({"node": [0, 1, 2, 3], "label": [1, 2, 1, 2]})
PAIR_COUNTS_SQL = """
    SELECT LEAST(l1.label, l2.label) AS l1,
           GREATEST(l1.label, l2.label) AS l2,
           COUNT(*) AS n_edges
    FROM edges e
    JOIN labels l1 ON e.src = l1.node
    JOIN labels l2 ON e.dst = l2.node
    GROUP BY 1, 2
"""


@pytest.fixture(scope="module")
def pair_counts(spark):
    return stats.pair_counts(
        spark.createDataFrame(EDGES), spark.createDataFrame(LABELS))


def _check(result):
    assert_equivalent(result, PAIR_COUNTS_SQL, edges=EDGES, labels=LABELS)


class TestRejectsWrongResult:
    def test_count_off_by_one_rejected(self, pair_counts):
        is_cross = (F.col("l1") == 1) & (F.col("l2") == 2)
        wrong = pair_counts.withColumn(
            "n_edges",
            F.when(is_cross, F.col("n_edges") + 1).otherwise(F.col("n_edges")),
        )
        with pytest.raises(AssertionError):
            _check(wrong)

    def test_missing_row_rejected(self, pair_counts):
        with pytest.raises(AssertionError):
            _check(pair_counts.where(F.col("l1") != F.col("l2")))

    def test_column_alias_mismatch_rejected(self, pair_counts):
        with pytest.raises(AssertionError, match="alias every output column"):
            _check(pair_counts.withColumnRenamed("n_edges", "count"))
