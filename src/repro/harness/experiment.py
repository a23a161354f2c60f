"""Spark-parallel Monte-Carlo harness for the NRMSE tables.

The paper's Tables 4–17 report, per (dataset, target pair), the NRMSE
of 10 algorithms over sample sizes 0.5%|V| … 5%|V|, each cell averaged
over 200 independent simulations. This harness:

1. builds the CSR/label/T(u)/line-degree arrays once on the driver and
   broadcasts them (32-bit, without the arrays a task can rebuild),
2. fans out one ``mapInPandas`` task per sampler. The task runs all
   simulations as one lock-step NumPy batch: each walker burns in once
   and walks to the largest budget, and every smaller budget k reads the
   first k steps of that walk, which is how the paper draws a k-step
   sample (§4.1.2, §4.2.2). It emits one F-estimate row per (algorithm,
   budget, simulation),
3. aggregates NRMSE per (algorithm, sample size) with a Spark groupBy.

Sampler granularity: NeighborSample yields both NS-HH and NS-HT from
one sampled trajectory, NeighborExploration yields NE-HH/NE-HT/NE-RW,
and each EX-* chain yields its own estimate — so 7 chains produce the
paper's 10 table rows.

Seeding: a sampler's generator is seeded by (seed, its index in
``SAMPLERS``) alone, so the rows are a pure function of (context, seed,
n_sims), and each cell equals a standalone ``run_sampler`` call for its
budget with that generator (``sampler_rng``).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines import ex_algorithms as ex
from repro.baselines.linegraph import line_degrees
from repro.core import neighbor_exploration as ne
from repro.core import neighbor_sample as ns
from repro.graphs.csr import build_csr, edge_indicator, from_arcs, t_counts
from repro.graphs.generator import LabeledGraph
from repro.harness.nrmse import nrmse_agg

# Paper row order (Tables 4–17).
ALGORITHM_ORDER = [
    "NeighborSample-HH",
    "NeighborSample-HT",
    "NeighborExploration-HH",
    "NeighborExploration-HT",
    "NeighborExploration-RW",
    "EX-MDRW",
    "EX-MHRW",
    "EX-RW",
    "EX-RCMH",
    "EX-GMD",
]

SAMPLERS = ["NS", "NE", "EX-RW", "EX-MHRW", "EX-MDRW", "EX-RCMH", "EX-GMD"]

# Paper sample sizes: 0.5%|V| .. 5%|V|.
DEFAULT_FRACS = tuple(round(0.005 * i, 4) for i in range(1, 11))


def budgets(sample_fracs: tuple[float, ...], n_nodes: int) -> list[int]:
    """The API-call budget k of each sample-size fraction of |V|."""
    return [max(1, int(round(frac * n_nodes))) for frac in sample_fracs]


def sampler_rng(seed: int, sampler: str) -> np.random.Generator:
    """The generator ``simulate_all`` gives ``sampler``'s task."""
    return np.random.default_rng([seed, SAMPLERS.index(sampler)])


def build_context(g: LabeledGraph, pair: tuple[int, int], burnin: int) -> dict:
    """Precompute every array the samplers need (driver side, once).

    Raises ValueError when the pair has no target edge (Eq. 24 divides
    by F) or a node has degree 0 (a walk step there has no neighbor to
    draw). Arc and per-edge arrays are narrowed to 32 and 8 bits to
    shrink the broadcast.
    """
    csr = build_csr(g.edges, g.n)
    degrees = csr.degrees
    isolated = int((degrees == 0).sum())
    if isolated:
        raise ValueError(
            f"graph {g.name!r} has {isolated} node(s) of degree 0; a random "
            "walk cannot step from them (restrict it to nodes with edges)")
    ind = edge_indicator(g.edges, g.labels, pair[0], pair[1])
    f = int(ind.sum())
    if f == 0:
        raise ValueError(
            f"pair {pair} has no target edge in graph {g.name!r} (F = 0); "
            "NRMSE (Eq. 24) divides by F")
    if pair[0] == pair[1]:
        has_target = g.labels == pair[0]
    else:
        has_target = (g.labels == pair[0]) | (g.labels == pair[1])
    i32 = np.int32
    return {
        "has_target": has_target,
        "explore_cost": ne.explore_cost(degrees).astype(i32),
        "indptr": csr.indptr, "indices": csr.indices.astype(i32),
        "edge_ids": csr.edge_ids.astype(i32), "rev": csr.rev.astype(i32),
        "edge_ind": ind.astype(np.int8),
        "t_counts": t_counts(g.edges, g.labels, g.n, *pair).astype(i32),
        "degrees": degrees,
        "line_deg": line_degrees(csr).astype(i32),
        "n_nodes": g.n, "n_edges": g.n_edges,
        "burnin": int(burnin),
        "F": f,
    }


def run_budgets(ctx: dict, sampler: str, ks: list[int], n_sims: int,
                rng: np.random.Generator) -> list[dict[str, np.ndarray]]:
    """Walk ``sampler``'s chains once, burn-in plus max(ks) steps, and
    estimate every budget k in ``ks`` from the first k steps.

    Returns, in ``ks`` order, per-algorithm estimate vectors of length
    n_sims. Budget k's entry is bit-identical to ``run_sampler`` with
    budget k and a generator in the same state: the first k draws of the
    longer walk are the same draws.
    """
    csr = from_arcs(ctx["indptr"], ctx["indices"], ctx["edge_ids"], ctx["rev"])
    k_max, burnin, n_edges = max(ks), ctx["burnin"], ctx["n_edges"]
    if sampler == "NS":
        eids = ns.sample_edges_batch(csr, k_max, burnin, n_sims, rng)
        return [{
            "NeighborSample-HH": ns.hh_estimate(eids[:, :k], ctx["edge_ind"], n_edges),
            "NeighborSample-HT": ns.ht_estimate(eids[:, :k], ctx["edge_ind"], n_edges),
        } for k in ks]
    if sampler == "NE":
        # k is an API-call budget here: exploration calls are charged,
        # so NE runs fewer walk steps than NS at equal budget.
        nodes = ne.sample_nodes_batch(csr, k_max, burnin, n_sims, rng)
        cum = ne.cumulative_cost(nodes, ctx["has_target"], ctx["explore_cost"])
        out = []
        for k in ks:
            n_steps = ne.steps_within(cum[:, :k], k)
            walk = (nodes[:, :k], ctx["t_counts"], ctx["degrees"])
            out.append({
                "NeighborExploration-HH": ne.hh_estimate(*walk, n_edges, n_steps),
                "NeighborExploration-HT": ne.ht_estimate(*walk, n_edges, n_steps),
                "NeighborExploration-RW": ne.rw_estimate(
                    *walk, ctx["n_nodes"], n_steps),
            })
        return out
    line_deg = ctx["line_deg"]
    ids = ex.sample_edges(sampler, csr, line_deg, k_max, burnin, n_sims, rng)
    return [{sampler: ex.estimate(sampler, ids[:, :k], line_deg,
                                  ctx["edge_ind"], n_edges)} for k in ks]


def run_sampler(ctx: dict, sampler: str, k: int, n_sims: int,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """One budget-k cell of one chain: per-algorithm estimate vectors of
    length n_sims."""
    return run_budgets(ctx, sampler, [k], n_sims, rng)[0]


def simulate_all(spark: SparkSession, ctx: dict,
                 sample_fracs: tuple[float, ...] = DEFAULT_FRACS,
                 n_sims: int = 60, seed: int = 0,
                 samplers: list[str] | None = None) -> DataFrame:
    """Fan the Monte Carlo out over Spark, one task per sampler.

    Returns a DataFrame (algorithm, frac, k, sim, est) with one row per
    (algorithm, budget, simulation).
    """
    samplers = samplers or SAMPLERS
    fracs = [float(f) for f in sample_fracs]
    ks = budgets(fracs, ctx["n_nodes"])
    bc = spark.sparkContext.broadcast(ctx)

    def run_task(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        local_ctx = bc.value
        for pdf in batches:
            for i in pdf["id"]:
                sampler = samplers[i]
                cells = run_budgets(local_ctx, sampler, ks, n_sims,
                                    sampler_rng(seed, sampler))
                yield pd.concat([
                    pd.DataFrame({
                        "algorithm": alg, "frac": frac, "k": k,
                        "sim": np.arange(n_sims),
                        "est": vec.astype(np.float64),
                    })
                    for frac, k, ests in zip(fracs, ks, cells)
                    for alg, vec in ests.items()
                ], ignore_index=True)

    # One partition per sampler: each sampler is exactly one task.
    tasks = spark.range(len(samplers), numPartitions=len(samplers))
    schema = "algorithm string, frac double, k long, sim long, est double"
    return tasks.mapInPandas(run_task, schema=schema)


def nrmse_table(spark: SparkSession, g: LabeledGraph, pair: tuple[int, int],
                burnin: int, sample_fracs: tuple[float, ...] = DEFAULT_FRACS,
                n_sims: int = 60, seed: int = 0,
                samplers: list[str] | None = None) -> pd.DataFrame:
    """One paper-style NRMSE table: rows = algorithms (paper order),
    columns = sample-size fractions, values = NRMSE over n_sims."""
    ctx = build_context(g, pair, burnin)
    est = simulate_all(
        spark, ctx, sample_fracs, n_sims=n_sims, seed=seed, samplers=samplers,
    )
    agg = nrmse_agg(est, float(ctx["F"]), ["algorithm", "frac"]).toPandas()
    pivot = agg.pivot(index="algorithm", columns="frac", values="nrmse")
    order = [a for a in ALGORITHM_ORDER if a in pivot.index]
    pivot = pivot.loc[order, sorted(pivot.columns)]
    pivot.attrs["F"] = ctx["F"]
    pivot.attrs["n_edges"] = ctx["n_edges"]
    pivot.attrs["n_nodes"] = ctx["n_nodes"]
    return pivot
