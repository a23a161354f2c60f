"""CSR adjacency with the arc-level indexes the walk kernels need.

An undirected edge {u, v} is stored as two *arcs* u→v and v→u. For each
arc ``a`` we keep:

- ``indices[a]``   the head node,
- ``tails[a]``     the tail node (redundant with indptr but O(1)),
- ``edge_ids[a]``  the undirected edge id (row index into the (E,2)
  edge array) — both arcs of an edge share it,
- ``rev[a]``       the index of the opposite arc,
- ``pos[a]``       the arc's position inside its tail's adjacency block
  (``indptr[tail] + pos[a] == a``).

``rev``/``pos`` exist for the implicit line-graph walk: sampling a
uniform neighbor of edge (u,v) in G' needs "a uniform incident edge of
u *excluding* (u,v)", done by rotating ``pos`` by 1+r mod d(u).

``tails``, ``pos`` and ``edges`` follow from the other arrays, so a
compact copy (such as the harness's broadcast) ships only ``indptr``,
``indices``, ``edge_ids`` and ``rev`` and rebuilds the rest with
``from_arcs``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CSR:
    n: int
    indptr: np.ndarray    # (n+1,) int64
    indices: np.ndarray   # (2E,) int64 — head of each arc
    tails: np.ndarray     # (2E,) int64 — tail of each arc
    edge_ids: np.ndarray  # (2E,) int64
    rev: np.ndarray       # (2E,) int64
    pos: np.ndarray       # (2E,) int64
    edges: np.ndarray     # (E, 2) int64, u < v

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def n_arcs(self) -> int:
        return int(self.indices.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]: self.indptr[u + 1]]

    def arc_of(self, u: int, v: int) -> int:
        """Arc index of u→v; raises if the edge is absent (test helper)."""
        block = self.neighbors(u)
        hits = np.flatnonzero(block == v)
        if hits.size == 0:
            raise KeyError(f"no edge {u}->{v}")
        return int(self.indptr[u] + hits[0])


def build_csr(edges: np.ndarray, n: int) -> CSR:
    """Build the CSR + arc indexes from an (E,2) undirected edge array."""
    edges = np.asarray(edges, dtype=np.int64)
    e = edges.shape[0]
    eid = np.arange(e, dtype=np.int64)
    tails_raw = np.concatenate([edges[:, 0], edges[:, 1]])
    heads_raw = np.concatenate([edges[:, 1], edges[:, 0]])
    eids_raw = np.concatenate([eid, eid])
    order = np.argsort(tails_raw, kind="stable")
    tails = tails_raw[order]
    indices = heads_raw[order]
    edge_ids = eids_raw[order]
    counts = np.bincount(tails, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    pos = np.arange(2 * e, dtype=np.int64) - indptr[tails]
    # Opposite arc: the two arcs of edge id k are the two entries with
    # edge_ids == k; a stable argsort by edge id puts them adjacent.
    by_eid = np.argsort(edge_ids, kind="stable")
    rev = np.empty(2 * e, dtype=np.int64)
    rev[by_eid[0::2]] = by_eid[1::2]
    rev[by_eid[1::2]] = by_eid[0::2]
    return CSR(
        n=n, indptr=indptr, indices=indices, tails=tails,
        edge_ids=edge_ids, rev=rev, pos=pos, edges=edges,
    )


def from_arcs(indptr: np.ndarray, indices: np.ndarray, edge_ids: np.ndarray,
              rev: np.ndarray) -> CSR:
    """Rebuild a CSR from its non-derivable arrays (any integer dtype).

    ``tails`` and ``pos`` follow from ``indptr``; row ``edge_ids[a]`` of
    ``edges`` is the arc's (min, max) endpoint pair, which equals
    ``build_csr``'s input when that listed every edge as u < v.
    """
    n = indptr.shape[0] - 1
    degrees = np.diff(indptr)
    tails = np.repeat(np.arange(n, dtype=indices.dtype), degrees)
    pos = (np.arange(indices.shape[0], dtype=indptr.dtype)
           - np.repeat(indptr[:-1], degrees))
    edges = np.empty((indices.shape[0] // 2, 2), dtype=indices.dtype)
    edges[edge_ids, 0] = np.minimum(tails, indices)
    edges[edge_ids, 1] = np.maximum(tails, indices)
    return CSR(
        n=n, indptr=indptr, indices=indices, tails=tails,
        edge_ids=edge_ids, rev=rev, pos=pos, edges=edges,
    )


def edge_indicator(edges: np.ndarray, labels: np.ndarray, t1: int, t2: int) -> np.ndarray:
    """I(e) per undirected edge: 1 iff endpoint labels match {t1, t2}.

    When t1 == t2 both endpoints must carry that label (the unordered
    pair (t, t) matches only (t, t)).
    """
    lu = labels[edges[:, 0]]
    lv = labels[edges[:, 1]]
    if t1 == t2:
        hit = (lu == t1) & (lv == t1)
    else:
        hit = ((lu == t1) & (lv == t2)) | ((lu == t2) & (lv == t1))
    return hit.astype(np.int64)


def t_counts(edges: np.ndarray, labels: np.ndarray, n: int, t1: int, t2: int) -> np.ndarray:
    """T(u) per node: number of target edges incident to u (paper §4.2)."""
    ind = edge_indicator(edges, labels, t1, t2)
    t = np.bincount(edges[:, 0], weights=ind, minlength=n)
    t += np.bincount(edges[:, 1], weights=ind, minlength=n)
    return t.astype(np.int64)
