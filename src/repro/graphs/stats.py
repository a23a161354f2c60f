"""Ground-truth graph statistics as Catalyst dataflows.

Everything the estimators are measured against — the exact target-edge
count F, the per-node incident-target count T(u), degrees, and the
label-pair frequency table — is computed here with Spark SQL over the
(edges, labels) DataFrames, and each query is oracle-checked against
DuckDB in the tests.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.generator import LabeledGraph


def edges_df(spark: SparkSession, g: LabeledGraph) -> DataFrame:
    """(src, dst) DataFrame of the undirected edge list (src < dst)."""
    pdf = pd.DataFrame({"src": g.edges[:, 0], "dst": g.edges[:, 1]})
    return spark.createDataFrame(pdf)


def labels_df(spark: SparkSession, g: LabeledGraph) -> DataFrame:
    """(node, label) DataFrame."""
    pdf = pd.DataFrame({"node": np.arange(g.n), "label": g.labels})
    return spark.createDataFrame(pdf)


def labeled_edges(edges: DataFrame, labels: DataFrame) -> DataFrame:
    """(src, dst, src_label, dst_label) — edge list joined to both
    endpoint labels (two shuffle joins with broadcast disabled)."""
    lu = labels.select(
        F.col("node").alias("src"), F.col("label").alias("src_label")
    )
    lv = labels.select(
        F.col("node").alias("dst"), F.col("label").alias("dst_label")
    )
    return edges.join(lu, "src").join(lv, "dst").select(
        "src", "dst", "src_label", "dst_label"
    )


def target_edge_indicator(edges: DataFrame, labels: DataFrame, t1: int, t2: int) -> DataFrame:
    """(src, dst, is_target) with is_target ∈ {0,1} per paper's target-edge
    definition (unordered label pair match)."""
    le = labeled_edges(edges, labels)
    if t1 == t2:
        cond = (F.col("src_label") == t1) & (F.col("dst_label") == t1)
    else:
        cond = (
            ((F.col("src_label") == t1) & (F.col("dst_label") == t2))
            | ((F.col("src_label") == t2) & (F.col("dst_label") == t1))
        )
    return le.select(
        "src", "dst", F.when(cond, 1).otherwise(0).alias("is_target")
    )


def exact_target_count(edges: DataFrame, labels: DataFrame, t1: int, t2: int) -> int:
    """F = exact number of target edges (ground truth for NRMSE)."""
    ind = target_edge_indicator(edges, labels, t1, t2)
    return int(ind.agg(F.sum("is_target").alias("f")).collect()[0]["f"])


def degrees_df(edges: DataFrame) -> DataFrame:
    """(node, degree) over nodes incident to at least one edge."""
    ends = edges.select(F.col("src").alias("node")).union(
        edges.select(F.col("dst").alias("node"))
    )
    return ends.groupBy("node").agg(F.count("*").alias("degree"))


def t_counts_df(edges: DataFrame, labels: DataFrame, t1: int, t2: int) -> DataFrame:
    """(node, t_count): number of target edges incident to each node —
    the paper's T(u), for nodes with T(u) > 0."""
    ind = target_edge_indicator(edges, labels, t1, t2).where(
        F.col("is_target") == 1
    )
    ends = ind.select(F.col("src").alias("node")).union(
        ind.select(F.col("dst").alias("node"))
    )
    return ends.groupBy("node").agg(F.count("*").alias("t_count"))


def pair_counts(edges: DataFrame, labels: DataFrame) -> DataFrame:
    """(l1, l2, n_edges) for every unordered endpoint-label pair, l1<=l2.

    Used to pick target pairs whose relative frequency matches the
    paper's (Pokec/Orkut/LiveJournal quartile procedure).
    """
    le = labeled_edges(edges, labels)
    return (
        le.select(
            F.least("src_label", "dst_label").alias("l1"),
            F.greatest("src_label", "dst_label").alias("l2"),
        )
        .groupBy("l1", "l2")
        .agg(F.count("*").alias("n_edges"))
    )

