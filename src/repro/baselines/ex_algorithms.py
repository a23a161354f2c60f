"""EX-* baselines: Li et al. (ICDE'15) node samplers on the line graph.

Each sampler runs k post-burn-in steps on G' (implicit line graph,
see ``repro.baselines.linegraph``) and estimates the count of target
nodes of G' — i.e. target edges of G — using the stationary
distribution of its chain:

- EX-RW    simple RW, pi' ∝ deg', re-weighted ratio estimator
- EX-MHRW  Metropolis–Hastings, pi' uniform, plain mean
- EX-MDRW  maximum-degree RW (cap = max deg'), pi' uniform, plain mean
- EX-RCMH  rejection-controlled MH (alpha), pi' ∝ deg'^(1-alpha),
           re-weighted with w = deg'^(alpha-1)
- EX-GMD   general maximum-degree (cap = delta * max deg'),
           pi' ∝ max(deg', cap), re-weighted with w = 1/max(deg', cap)

The exact RCMH/GMD pseudocode of ICDE'15 is not available offline; the
constructions above recover the named special cases (alpha→{0,1} ⇒
RW/MHRW; delta→1 ⇒ MDRW) and their design goal — see DESIGN.md §4.5.
The paper sets alpha ∈ [0, 0.3], delta ∈ [0.3, 0.7]; we use 0.3 / 0.5.
"""
from __future__ import annotations

import numpy as np

from repro.baselines import linegraph as lg
from repro.core.estimators import reweighted_ratio
from repro.graphs.csr import CSR

DEFAULT_ALPHA = 0.3
DEFAULT_DELTA = 0.5


def sample_edges(name: str, csr: CSR, line_deg: np.ndarray, k: int,
                 burnin: int, n_sims: int, rng: np.random.Generator,
                 alpha: float = DEFAULT_ALPHA, delta: float = DEFAULT_DELTA
                 ) -> np.ndarray:
    """Run one EX-* chain per simulation: burn in, then k steps.

    Returns (n_sims, k) sampled undirected edge ids. The first j columns
    are exactly what a j-step run from the same generator returns, so
    one walk serves every smaller budget.
    """
    if name == "EX-RW":
        def step(a):
            return lg.lg_srw_step(csr, a, rng)
    elif name in ("EX-MHRW", "EX-RCMH"):
        beta = 0.0 if name == "EX-MHRW" else 1.0 - alpha

        def step(a):
            return lg.lg_mh_step(csr, a, rng, line_deg, beta=beta)
    elif name in ("EX-MDRW", "EX-GMD"):
        cap = float(line_deg.max()) * (1.0 if name == "EX-MDRW" else delta)

        def step(a):
            return lg.lg_capped_step(csr, a, rng, line_deg, cap)
    else:
        raise ValueError(f"unknown EX sampler {name!r}")
    arcs = lg.uniform_start_arcs(csr, n_sims, rng)
    for _ in range(burnin):
        arcs = step(arcs)
    out = np.empty((n_sims, k), dtype=np.int64)
    for t in range(k):
        arcs = step(arcs)
        out[:, t] = csr.edge_ids[arcs]
    return out


def estimate(name: str, ids: np.ndarray, line_deg: np.ndarray,
             edge_ind: np.ndarray, n_edges: int,
             alpha: float = DEFAULT_ALPHA, delta: float = DEFAULT_DELTA
             ) -> np.ndarray:
    """Per-row estimate of F from (n_sims, k) edge ids of chain ``name``."""
    i = edge_ind[ids].astype(np.float64)
    if name in ("EX-MHRW", "EX-MDRW"):  # uniform pi': plain mean
        return n_edges * i.mean(axis=1)
    dp = line_deg[ids].astype(np.float64)
    if name == "EX-RW":
        w = 1.0 / np.maximum(dp, 1.0)
    elif name == "EX-RCMH":
        w = np.maximum(dp, 1.0) ** (alpha - 1.0)
    elif name == "EX-GMD":
        w = 1.0 / np.maximum(dp, delta * float(line_deg.max()))
    else:
        raise ValueError(f"unknown EX sampler {name!r}")
    return reweighted_ratio(i * w, w, float(n_edges))


def _walk_and_estimate(name: str, csr: CSR, line_deg: np.ndarray,
                       edge_ind: np.ndarray, k: int, burnin: int,
                       n_sims: int, rng: np.random.Generator,
                       **params: float) -> np.ndarray:
    ids = sample_edges(name, csr, line_deg, k, burnin, n_sims, rng, **params)
    return estimate(name, ids, line_deg, edge_ind, csr.n_edges, **params)


def ex_rw(csr: CSR, line_deg: np.ndarray, edge_ind: np.ndarray, k: int,
          burnin: int, n_sims: int, rng: np.random.Generator) -> np.ndarray:
    return _walk_and_estimate("EX-RW", csr, line_deg, edge_ind, k, burnin,
                              n_sims, rng)


def ex_mhrw(csr: CSR, line_deg: np.ndarray, edge_ind: np.ndarray, k: int,
            burnin: int, n_sims: int, rng: np.random.Generator) -> np.ndarray:
    return _walk_and_estimate("EX-MHRW", csr, line_deg, edge_ind, k, burnin,
                              n_sims, rng)


def ex_mdrw(csr: CSR, line_deg: np.ndarray, edge_ind: np.ndarray, k: int,
            burnin: int, n_sims: int, rng: np.random.Generator) -> np.ndarray:
    return _walk_and_estimate("EX-MDRW", csr, line_deg, edge_ind, k, burnin,
                              n_sims, rng)


def ex_rcmh(csr: CSR, line_deg: np.ndarray, edge_ind: np.ndarray, k: int,
            burnin: int, n_sims: int, rng: np.random.Generator,
            alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    return _walk_and_estimate("EX-RCMH", csr, line_deg, edge_ind, k, burnin,
                              n_sims, rng, alpha=alpha)


def ex_gmd(csr: CSR, line_deg: np.ndarray, edge_ind: np.ndarray, k: int,
           burnin: int, n_sims: int, rng: np.random.Generator,
           delta: float = DEFAULT_DELTA) -> np.ndarray:
    return _walk_and_estimate("EX-GMD", csr, line_deg, edge_ind, k, burnin,
                              n_sims, rng, delta=delta)
