"""The benchmark's units of work and the traced run's layer probes.

Everything here drives the repository through its public functions:

- NRMSE unit: ``experiment.build_context`` -> ``experiment.simulate_all``
  -> ``nrmse.nrmse_agg(...).toPandas()`` (one paper table).
- Ground-truth unit: ``stats.edges_df``/``labels_df`` ->
  ``lcc.largest_component_nodes`` -> ``bounds.all_bounds`` per pair.
- Kernel probe (traced run only): direct in-driver calls into the sampler
  kernels and estimators for one table's worth of cells.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.baselines import ex_algorithms as ex
from repro.baselines.linegraph import line_degrees
from repro.core import neighbor_exploration as ne
from repro.core import neighbor_sample as ns
from repro.core.bounds import all_bounds
from repro.graphs import lcc, stats
from repro.graphs.csr import build_csr, edge_indicator, t_counts
from repro.harness import experiment
from repro.harness.nrmse import nrmse_agg

# Simulations per NRMSE unit: one chunk per (sampler, budget) cell of
# the table, so a unit keeps the paper table's full fan-out shape.
SIMS = 15
GROUP_COLS = ["algorithm", "frac"]


@dataclass
class NrmseUnit:
    f: int           # F the harness computed (and used as NRMSE truth)
    agg: pd.DataFrame  # nrmse_agg output: algorithm, frac, nrmse, n_sims
    est: pd.DataFrame  # collected estimates: algorithm, frac, k, sim, est


def nrmse_unit(spark, tracer, g, pair, burnin: int, seed: int,
               fracs=experiment.DEFAULT_FRACS) -> tuple[NrmseUnit, object]:
    """One NRMSE table. Returns the unit's results and the context.

    The estimates DataFrame is persisted so the checks can collect it
    after the timed region without re-running the fan-out; the cache
    holds a few thousand rows."""
    with tracer.span("ctx.build"):
        ctx = experiment.build_context(g, pair, burnin)
    f = int(ctx["F"])
    with tracer.span("fanout.submit", spark=True):
        est = experiment.simulate_all(
            spark, ctx, sample_fracs=fracs, n_sims=SIMS, seed=seed).persist()
    with tracer.span("fanout.exec", spark=True):
        agg = nrmse_agg(est, float(f), GROUP_COLS).toPandas()
    return NrmseUnit(f, agg, est), ctx


def collect(unit: NrmseUnit) -> NrmseUnit:
    """Collect the persisted estimates (outside the timed region)."""
    df = unit.est
    unit.est = df.toPandas()
    df.unpersist()
    return unit


@dataclass
class GroundTruthUnit:
    lcc_nodes: np.ndarray
    bounds: list[dict]
    edges: object   # Spark DataFrames, kept for the oracle checks
    labels: object


def ground_truth_unit(spark, tracer, g, pairs) -> GroundTruthUnit:
    """One dataset's ground-truth pass: LCC, then the Theorem 4.1-4.5
    bounds for each target pair (as jobs/table01_stats.py and
    jobs/tables18_22_bounds.py run them)."""
    with tracer.span("gt.df", spark=True):
        e = stats.edges_df(spark, g).localCheckpoint()
        lab = stats.labels_df(spark, g).localCheckpoint()
    with tracer.span("lcc", spark=True):
        keep = lcc.largest_component_nodes(spark, e).toPandas()["node"]
    out = []
    for t1, t2 in pairs:
        with tracer.span("bounds", spark=True):
            out.append(all_bounds(e, lab, t1, t2))
    return GroundTruthUnit(keep.to_numpy(), out, e, lab)


def context_bytes(ctx) -> int:
    """Pickled size of the broadcast context."""
    return len(pickle.dumps(ctx, protocol=pickle.HIGHEST_PROTOCOL))


def nrmse_agg_probe(spark, tracer, est: pd.DataFrame, f: int) -> None:
    """Time ``nrmse_agg`` alone, three times, on estimates already
    materialized."""
    mat = spark.createDataFrame(est).localCheckpoint()
    for _ in range(3):
        with tracer.span("nrmse.agg", spark=True):
            nrmse_agg(mat, float(f), GROUP_COLS).toPandas()


def kernel_probe(tracer, g, pair, burnin: int, seed: int) -> None:
    """Run every (sampler, budget) cell of one table in the driver, with
    a span per kernel call and per estimator call. Kernel spans carry
    ``walker_steps`` (computed from the call's arguments); NE spans also
    carry the in-budget step count."""
    csr = build_csr(g.edges, g.n)
    ind = edge_indicator(g.edges, g.labels, *pair)
    tc = t_counts(g.edges, g.labels, g.n, *pair)
    has_target = np.isin(g.labels, pair)
    cost = ne.explore_cost(csr.degrees)
    line_deg = line_degrees(csr)
    deg = csr.degrees
    ex_fns = {"EX-RW": ex.ex_rw, "EX-MHRW": ex.ex_mhrw, "EX-MDRW": ex.ex_mdrw,
              "EX-RCMH": ex.ex_rcmh, "EX-GMD": ex.ex_gmd}
    for s_idx, sampler in enumerate(experiment.SAMPLERS):
        for f_idx, frac in enumerate(experiment.DEFAULT_FRACS):
            k = max(1, int(round(frac * g.n)))
            rng = np.random.default_rng([seed, s_idx, f_idx])
            steps = SIMS * (burnin + k)
            with tracer.span(f"kernel.{sampler}") as sp:
                if sampler == "NS":
                    eids = ns.sample_edges_batch(csr, k, burnin, SIMS, rng)
                elif sampler == "NE":
                    nodes, n_steps = ne.sample_nodes_budgeted(
                        csr, k, burnin, SIMS, has_target, cost, rng)
                else:
                    ex_fns[sampler](csr, line_deg, ind, k, burnin, SIMS, rng)
            sp["walker_steps"] = steps
            if sampler == "NS":
                with tracer.span("est.NS-HH"):
                    ns.hh_estimate(eids, ind, g.n_edges)
                with tracer.span("est.NS-HT"):
                    ns.ht_estimate(eids, ind, g.n_edges)
            elif sampler == "NE":
                sp["walked_steps"] = SIMS * k
                sp["useful_steps"] = int(n_steps.sum())
                with tracer.span("est.NE-HH"):
                    ne.hh_estimate(nodes, tc, deg, g.n_edges, n_steps)
                with tracer.span("est.NE-HT"):
                    ne.ht_estimate(nodes, tc, deg, g.n_edges, n_steps)
                with tracer.span("est.NE-RW"):
                    ne.rw_estimate(nodes, tc, deg, g.n, n_steps)
