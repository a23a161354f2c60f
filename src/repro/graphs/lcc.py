"""Largest connected component via iterative DataFrame label propagation.

The paper evaluates every network on its largest connected component.
Our BA generator yields connected graphs by construction, but the LCC
pass is part of the paper's pipeline (and guards against any future
generator), so it is implemented — as a Catalyst dataflow — and tested
on deliberately disconnected graphs.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def connected_components(spark: SparkSession, edges: DataFrame, max_iter: int = 50) -> DataFrame:
    """(node, component) where component is the min node id reachable.

    ``edges`` has columns (src, dst). Iterates min-propagation over the
    symmetric edge relation until a fixpoint; localCheckpoint every
    round keeps the plan linear in size. The minimum id moves one hop
    per round, so a component of diameter D needs up to D + 1 rounds;
    raises ``RuntimeError`` if ``max_iter`` rounds do not reach the
    fixpoint.
    """
    sym = edges.select("src", "dst").union(
        edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )
    sym = sym.localCheckpoint()
    comp = (
        sym.select(F.col("src").alias("node"))
        .distinct()
        .withColumn("component", F.col("node"))
        .localCheckpoint()
    )
    for _ in range(max_iter):
        # Candidate: min of own component and neighbors' components.
        nbr_min = (
            sym.join(comp, sym.dst == comp.node)
            .groupBy(sym.src.alias("node"))
            .agg(F.min("component").alias("nbr_component"))
        )
        new_comp = (
            comp.join(nbr_min, "node", "left")
            .select(
                "node",
                F.least(
                    "component", F.coalesce("nbr_component", "component")
                ).alias("component"),
            )
            .localCheckpoint()
        )
        changed = (
            new_comp.alias("a")
            .join(comp.alias("b"), "node")
            .where(F.col("a.component") != F.col("b.component"))
            .limit(1)
            .count()
        )
        comp = new_comp
        if changed == 0:
            break
    else:
        raise RuntimeError(f"components not converged within {max_iter} rounds")
    return comp


def largest_component_nodes(spark: SparkSession, edges: DataFrame) -> DataFrame:
    """(node,) of the largest connected component among nodes with edges."""
    comp = connected_components(spark, edges)
    top = (
        comp.groupBy("component")
        .count()
        .orderBy(F.desc("count"), F.asc("component"))
        .limit(1)
        .select("component")
    )
    return comp.join(top, "component").select("node")


def restrict_to_lcc(edges_np: np.ndarray, keep_nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filter an (E,2) numpy edge array to ``keep_nodes`` and relabel to
    0..n'-1. Returns (new_edges, old_ids) where old_ids[i] is the
    original id of new node i.
    """
    keep = np.sort(np.asarray(keep_nodes, dtype=np.int64))
    lookup = -np.ones(int(edges_np.max()) + 2 if edges_np.size else 1, dtype=np.int64)
    lookup[keep] = np.arange(keep.size)
    mask = (lookup[edges_np[:, 0]] >= 0) & (lookup[edges_np[:, 1]] >= 0)
    new_edges = lookup[edges_np[mask]]
    return new_edges, keep
