"""Restricted-access OSN API — the paper's access model.

The paper assumes the graph is reachable only through an API that
returns the friend list of a given user, plus profile lookups for
labels; |V| and |E| are prior knowledge. This module simulates that
interface over a generated graph and counts API calls, and provides
*sequential reference implementations* of the paper's samplers written
directly against the API (Algorithm 1 / Algorithm 2 verbatim). The
vectorized Spark-scale engines in ``repro.core`` are tested against
these references: with one walker and the same seed they draw the same
edges and nodes.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSR


class RestrictedGraphAPI:
    """Neighbor-list + profile access with call accounting."""

    def __init__(self, csr: CSR, labels: np.ndarray):
        self._csr = csr
        self._labels = np.asarray(labels, dtype=np.int64)
        self.neighbor_calls = 0
        self.profile_calls = 0

    # --- the only graph access the estimators are allowed ---
    def neighbors(self, u: int) -> np.ndarray:
        """Friend list of user u (one API call)."""
        self.neighbor_calls += 1
        return self._csr.neighbors(int(u)).copy()

    def degree(self, u: int) -> int:
        """Friend count of u; piggybacks on the friend-list response the
        walk already fetched, so no extra call is charged."""
        return int(self._csr.indptr[u + 1] - self._csr.indptr[u])

    def label(self, u: int) -> int:
        """Profile lookup (one profile call)."""
        self.profile_calls += 1
        return int(self._labels[u])

    # --- prior knowledge per the paper's problem statement ---
    @property
    def n_nodes(self) -> int:
        return self._csr.n

    @property
    def n_edges(self) -> int:
        return self._csr.n_edges

    def reset_counters(self) -> None:
        self.neighbor_calls = 0
        self.profile_calls = 0


def simple_random_walk(api: RestrictedGraphAPI, start: int, steps: int,
                       rng: np.random.Generator) -> list[int]:
    """SRW node trajectory of length steps+1 starting at ``start``."""
    path = [int(start)]
    u = int(start)
    for _ in range(steps):
        nbrs = api.neighbors(u)
        u = int(nbrs[rng.integers(0, nbrs.size)])
        path.append(u)
    return path


def neighbor_sample_ref(api: RestrictedGraphAPI, k: int, burnin: int,
                        rng: np.random.Generator, start: int | None = None
                        ) -> list[tuple[int, int]]:
    """Algorithm 1 (single-walk implementation, §4.1.2): burn in, then
    walk k further steps and return the k traversed edges (u, v)."""
    if start is None:
        start = int(rng.integers(0, api.n_nodes))
    path = simple_random_walk(api, start, burnin + k, rng)
    tail = path[burnin:]
    return [(tail[i], tail[i + 1]) for i in range(k)]


def neighbor_exploration_ref(api: RestrictedGraphAPI, k: int, burnin: int,
                             t1: int, t2: int, rng: np.random.Generator,
                             start: int | None = None
                             ) -> tuple[list[int], dict[int, int]]:
    """Algorithm 2 (single-walk implementation, §4.2.2): burn in, walk k
    steps; for each visited node carrying t1 or t2, explore neighbors
    and record T(u). Returns (sampled nodes, T mapping)."""
    if start is None:
        start = int(rng.integers(0, api.n_nodes))
    path = simple_random_walk(api, start, burnin + k, rng)
    sample = path[burnin + 1:]  # the k nodes reached by the last k steps
    t_map: dict[int, int] = {}
    for u in sample:
        if u in t_map:
            continue
        lu = api.label(u)
        if lu != t1 and lu != t2:
            continue
        count = 0
        for v in api.neighbors(u):
            lv = api.label(int(v))
            if t1 == t2:
                hit = lu == t1 and lv == t1
            else:
                hit = (lu == t1 and lv == t2) or (lu == t2 and lv == t1)
            if hit:
                count += 1
        t_map[u] = count
    return sample, t_map
