"""NeighborExploration (paper §4.2): node sampling + neighbor exploration.

Sampling: burn in, then continue the walk under an *API-call budget* —
the paper's tables put "sample size = x% |V| API calls" on the x-axis
(Tables 23–26 say "using 5%|V| API calls"). Each walk step costs one
call (the friend-list fetch that the step itself requires); when the
visited node u carries a target label, all its neighbors are explored
to obtain T(u), which costs ``ceil(d(u)/explore_batch)`` extra
profile-batch calls, charged once per distinct node per run (profiles
are cached). This accounting is what makes the paper's crossover
happen: on gender-labeled graphs every node triggers exploration, so a
k-call budget buys NE only ~k/(1 + d/B) steps while NeighborSample
gets k — and NS wins; on rare labels exploration is almost free and
NE's T(u) information wins.

In the simulation T(u) is precomputed for every node from the full
graph (oracle-checked); the estimators only read T at sampled nodes —
exactly what API exploration would return.

Estimators (pi(u) = d(u)/2|E|), over each run's n_steps ≤ budget nodes:
- NE-HH (Eq. 11): F̂ = (1/n) Σ |E| T(u_i) / d(u_i)
- NE-HT (Eq. 13): F̂ = ½ Σ_{distinct u in S} T(u) / (1 - (1 - pi(u))^n)
- NE-RW (Eq. 19): F̂ = |V| (Σ T(u_i)/d(u_i)) / (2 Σ 1/d(u_i))
"""
from __future__ import annotations

import numpy as np

from repro.core import estimators, walks
from repro.graphs.csr import CSR

DEFAULT_EXPLORE_BATCH = 10


def explore_cost(degrees: np.ndarray, explore_batch: int = DEFAULT_EXPLORE_BATCH
                 ) -> np.ndarray:
    """Profile-batch API calls needed to label all neighbors of a node."""
    return np.ceil(degrees / explore_batch).astype(np.int64)


def sample_nodes_batch(csr: CSR, k: int, burnin: int, n_sims: int,
                       rng: np.random.Generator) -> np.ndarray:
    """(n_sims, k) node ids — plain k-step NE runs (no budget), used by
    tests and by callers that meter steps rather than API calls."""
    pos = walks.uniform_starts(csr, n_sims, rng)
    pos = walks.srw_walk(csr, pos, burnin, rng)
    nodes, _ = walks.srw_trajectory(csr, pos, k, rng)
    return nodes


def cumulative_cost(nodes: np.ndarray, has_target: np.ndarray,
                    cost_per_node: np.ndarray) -> np.ndarray:
    """(B, L) API calls spent through each step of each row of ``nodes``.

    Step t costs 1 plus, on the *first* visit of a target-labeled node
    in its row, that node's exploration cost. Column t depends only on
    the first t+1 steps, so the array for a long walk holds the spend of
    every shorter prefix.
    """
    order = np.argsort(nodes, axis=1, kind="stable")
    ranked = np.take_along_axis(nodes, order, axis=1)
    first_ranked = np.ones(nodes.shape, dtype=bool)
    first_ranked[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    first = np.empty_like(first_ranked)
    np.put_along_axis(first, order, first_ranked, axis=1)
    cost = np.where(has_target[nodes] & first, cost_per_node[nodes], 0)
    return np.cumsum(1 + cost, axis=1)


def steps_within(cum_cost: np.ndarray, budget: int) -> np.ndarray:
    """Per-row number of affordable steps: the largest n whose cumulative
    cost is ≤ budget, at least 1 (the walk always takes its first step,
    as a real crawler would)."""
    return np.maximum(1, (cum_cost <= budget).sum(axis=1))


def budget_cutoffs(nodes: np.ndarray, has_target: np.ndarray,
                   cost_per_node: np.ndarray, budget: int) -> np.ndarray:
    """Per-run number of affordable steps of each row of ``nodes`` (see
    ``cumulative_cost`` for the charges)."""
    return steps_within(cumulative_cost(nodes, has_target, cost_per_node),
                        budget)


def sample_nodes_budgeted(csr: CSR, budget: int, burnin: int, n_sims: int,
                          has_target: np.ndarray, cost_per_node: np.ndarray,
                          rng: np.random.Generator
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Budgeted NE runs: walk up to ``budget`` steps (cost ≥ 1 per step
    bounds the useful length), then cut each run where its API spend
    hits the budget. Returns (nodes (n_sims, budget), n_steps (n_sims,))."""
    nodes = sample_nodes_batch(csr, budget, burnin, n_sims, rng)
    n_steps = budget_cutoffs(nodes, has_target, cost_per_node, budget)
    return nodes, n_steps


def _mask(nodes: np.ndarray, n_steps: np.ndarray | None) -> np.ndarray:
    """(B, L) bool mask of in-budget steps (all True when unbudgeted)."""
    b, length = nodes.shape
    if n_steps is None:
        return np.ones((b, length), dtype=bool)
    return np.arange(length)[None, :] < n_steps[:, None]


def hh_estimate(nodes: np.ndarray, t_counts: np.ndarray, degrees: np.ndarray,
                n_edges: int, n_steps: np.ndarray | None = None) -> np.ndarray:
    """NE-HH per run (Eq. 11), averaged over each run's in-budget steps."""
    m = _mask(nodes, n_steps)
    # float: |E| * T(u) can overflow a 32-bit T(u) array.
    vals = float(n_edges) * t_counts[nodes] / degrees[nodes]
    return (vals * m).sum(axis=1) / m.sum(axis=1)


def ht_estimate(nodes: np.ndarray, t_counts: np.ndarray, degrees: np.ndarray,
                n_edges: int, n_steps: np.ndarray | None = None) -> np.ndarray:
    """NE-HT per run (Eq. 13); k in the inclusion probability is the
    run's own in-budget step count."""
    b, length = nodes.shape
    steps = np.full(b, length, dtype=np.int64) if n_steps is None else n_steps
    out = np.empty(b, dtype=np.float64)
    for i in range(b):
        ids = nodes[i, : steps[i]]
        uniq = np.unique(ids)
        pi = degrees[uniq] / (2.0 * n_edges)
        incl = estimators.ht_inclusion_prob(pi, ids.size)
        out[i] = 0.5 * float((t_counts[uniq] / incl).sum())
    return out


def rw_estimate(nodes: np.ndarray, t_counts: np.ndarray, degrees: np.ndarray,
                n_nodes: int, n_steps: np.ndarray | None = None) -> np.ndarray:
    """NE-RW per run (Eq. 19) over in-budget steps."""
    m = _mask(nodes, n_steps)
    t_over_d = t_counts[nodes] / degrees[nodes] * m
    inv_d = 1.0 / degrees[nodes] * m
    return estimators.reweighted_ratio(t_over_d, inv_d, n_nodes / 2.0)
