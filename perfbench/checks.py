"""Correctness checks for one unit, run outside the timed region.

Each check returns a list of failure messages; an empty list passes.
The references are computed independently of the code under test:
exact F from ``datasets.exact_f``, Eq. 24 recomputed in NumPy from the
collected estimates, Theorems 4.1-4.5 in closed form from NumPy arrays,
the LCC size by NumPy label propagation, and F / T(u) from DuckDB.
"""
from __future__ import annotations

import math
from dataclasses import replace

import duckdb
import numpy as np
import pandas as pd

from benchmarks._bench_common import assert_error_decreases, assert_paper_shape
from repro import oracle
from repro.graphs import stats
from repro.harness.experiment import ALGORITHM_ORDER
from workloads import GROUP_COLS, SIMS, GroundTruthUnit, NrmseUnit

RTOL = 1e-9


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# --- NRMSE tables ---------------------------------------------------------

def check_nrmse(unit: NrmseUnit, exact_f: int, fracs, gate_alg: str
                ) -> list[str]:
    fails = []
    if unit.f != exact_f:
        fails.append(f"F={unit.f}, exact F={exact_f}")
    agg = unit.agg.assign(frac=unit.agg["frac"].round(6))
    want = {(a, round(float(f), 6)) for a in ALGORITHM_ORDER for f in fracs}
    got = set(zip(agg["algorithm"], agg["frac"]))
    if got != want or len(agg) != len(want):
        fails.append(f"cells: {len(got & want)} of {len(want)} present, "
                     f"{len(agg)} rows")
        return fails
    if (agg["n_sims"] != SIMS).any():
        fails.append(f"n_sims not all {SIMS}")
    if not np.isfinite(agg["nrmse"]).all():
        fails.append("non-finite NRMSE")
    est = unit.est.assign(frac=unit.est["frac"].round(6))
    sims = est.groupby(GROUP_COLS)["sim"].agg(["nunique", "size"])
    if not ((sims["nunique"] == SIMS) & (sims["size"] == SIMS)).all():
        fails.append("collected estimates: wrong simulation count")
    # Eq. 24 in NumPy against the exact F.
    ref = est.groupby(GROUP_COLS)["est"].agg(
        lambda v: math.sqrt(np.mean((v.to_numpy() - exact_f) ** 2)) / exact_f)
    got_nrmse = agg.set_index(GROUP_COLS)["nrmse"]
    ref = ref.reindex(got_nrmse.index)
    if not np.allclose(got_nrmse, ref, rtol=RTOL, atol=0.0):
        worst = float(np.nanmax(np.abs(got_nrmse - ref) / ref))
        fails.append(f"nrmse_agg differs from Eq. 24 (worst rel {worst:.3g})")
    table = agg.pivot(index="algorithm", columns="frac", values="nrmse")
    try:
        assert_paper_shape(table)
        assert_error_decreases(table, gate_alg)
    except AssertionError as e:
        fails.append(f"paper-shape gate: {e or 'assertion failed'}")
    return fails


def self_check_nrmse(unit: NrmseUnit, exact_f: int, fracs, gate_alg: str
                     ) -> list[str]:
    """Corrupted copies of a passing unit must fail its check."""
    bad_agg = unit.agg.copy()
    bad_agg.loc[bad_agg.index[0], "nrmse"] *= 1.001
    cases = {
        "F off by one": replace(unit, f=unit.f + 1),
        "one NRMSE cell off by 0.1%": replace(unit, agg=bad_agg),
    }
    return [f"self-check: '{name}' passed its check"
            for name, bad in cases.items()
            if not check_nrmse(bad, exact_f, fracs, gate_alg)]


# --- Ground truth ---------------------------------------------------------

def numpy_lcc_size(edges: np.ndarray, n: int) -> int:
    """Size of the largest connected component among nodes with edges
    (min-label propagation with pointer jumping)."""
    comp = np.arange(n)
    u, v = edges[:, 0], edges[:, 1]
    while True:
        new = comp.copy()
        m = np.minimum(comp[u], comp[v])
        np.minimum.at(new, u, m)
        np.minimum.at(new, v, m)
        new = new[new]
        if np.array_equal(new, comp):
            break
        comp = new
    has_edge = np.bincount(edges.ravel(), minlength=n) > 0
    return int(np.bincount(comp[has_edge]).max())


def numpy_bounds(edges: np.ndarray, labels: np.ndarray, t1: int, t2: int,
                 eps: float = 0.1, delta: float = 0.1) -> dict[str, float]:
    """Theorems 4.1-4.5 in closed form (see ``repro.core.bounds``)."""
    lu, lv = labels[edges[:, 0]], labels[edges[:, 1]]
    ind = (((lu == t1) & (lv == t2)) | ((lu == t2) & (lv == t1))).astype(float)
    n_edges = len(edges)
    n = len(labels)
    deg = np.bincount(edges.ravel(), minlength=n).astype(float)
    t = (np.bincount(edges[:, 0], weights=ind, minlength=n)
         + np.bincount(edges[:, 1], weights=ind, minlength=n))
    has = deg > 0
    deg, t = deg[has], t[has]
    n_nodes = float(has.sum())
    f = float(ind.sum())
    f2 = f * f
    e2d2 = eps * eps * delta
    b42 = delta * eps * eps * f2 / n_edges
    b44 = 4.0 * delta * eps * eps * f2 / n_nodes
    s43 = float(np.sum(2.0 * n_edges * t * t / deg))
    s_inv_pi = float(np.sum(2.0 * n_edges / deg))
    return {
        "NeighborSample-HH": (n_edges * f - f2) / (e2d2 * f2),
        "NeighborSample-HT": float(np.max(np.log((ind * ind + b42) / b42)))
        / math.log(1.0 / (1.0 - 1.0 / n_edges)),
        "NeighborExploration-HH": (s43 - 4.0 * f2) / (4.0 * e2d2 * f2),
        "NeighborExploration-HT": float(np.max(
            np.log((t * t + b44) / b44) / -np.log(1.0 - deg / (2.0 * n_edges)))),
        "NeighborExploration-RW": max(
            18.0 * (s43 - 4.0 * f2) / (4.0 * e2d2 * f2),
            18.0 * (s_inv_pi - n_nodes ** 2) / (e2d2 * n_nodes ** 2)),
        "F": f,
    }


_TARGET_SQL = """
WITH le AS (
  SELECT e.src, e.dst, a.label AS sl, b.label AS dl
  FROM edges e JOIN labels a ON e.src = a.node JOIN labels b ON e.dst = b.node
), t AS (
  SELECT src, dst FROM le
  WHERE (sl = {t1} AND dl = {t2}) OR (sl = {t2} AND dl = {t1})
)
"""
_T_SQL = _TARGET_SQL + """
SELECT node, count(*) AS t_count
FROM (SELECT src AS node FROM t UNION ALL SELECT dst AS node FROM t)
GROUP BY node
"""


def graph_tables(g) -> dict[str, pd.DataFrame]:
    return {
        "edges": pd.DataFrame({"src": g.edges[:, 0], "dst": g.edges[:, 1]}),
        "labels": pd.DataFrame({"node": np.arange(g.n), "label": g.labels}),
    }


def duckdb_f(tables: dict[str, pd.DataFrame], t1: int, t2: int) -> int:
    con = duckdb.connect()
    try:
        for name, pdf in tables.items():
            con.register(name, pdf)
        sql = _TARGET_SQL.format(t1=t1, t2=t2) + "SELECT count(*) FROM t"
        return int(con.execute(sql).fetchone()[0])
    finally:
        con.close()


def ground_truth_refs(g, pairs) -> dict:
    """Everything a ground-truth unit is compared with."""
    tables = graph_tables(g)
    return {
        "lcc_size": numpy_lcc_size(g.edges, g.n),
        "bounds": [numpy_bounds(g.edges, g.labels, *p) for p in pairs],
        "duckdb_f": [duckdb_f(tables, *p) for p in pairs],
        "tables": tables,
    }


def check_ground_truth(unit: GroundTruthUnit, refs: dict) -> list[str]:
    fails = []
    if len(unit.lcc_nodes) != refs["lcc_size"]:
        fails.append(f"LCC size {len(unit.lcc_nodes)}, "
                     f"expected {refs['lcc_size']}")
    for i, (got, want) in enumerate(zip(unit.bounds, refs["bounds"])):
        for key, w in want.items():
            if _rel_err(float(got[key]), w) > RTOL:
                fails.append(f"pair {i} {key}: {got[key]!r} vs NumPy {w!r}")
        if int(got["F"]) != refs["duckdb_f"][i]:
            fails.append(f"pair {i} F: {got['F']} vs DuckDB "
                         f"{refs['duckdb_f'][i]}")
    if len(unit.bounds) != len(refs["bounds"]):
        fails.append(f"{len(unit.bounds)} bound rows, "
                     f"expected {len(refs['bounds'])}")
    return fails


def check_t_counts_oracle(unit: GroundTruthUnit, refs: dict,
                          pairs: dict[int, tuple[int, int]]) -> list[str]:
    """T(u) from ``stats.t_counts_df`` equals DuckDB's, for each
    ``{pair index: pair}`` given."""
    fails = []
    for i, (t1, t2) in pairs.items():
        try:
            oracle.assert_equivalent(
                stats.t_counts_df(unit.edges, unit.labels, t1, t2),
                _T_SQL.format(t1=t1, t2=t2), **refs["tables"])
        except AssertionError as e:
            fails.append(f"pair {i} T(u) differs from DuckDB: "
                         f"{str(e).splitlines()[0] if str(e) else ''}")
    return fails


def self_check_ground_truth(unit: GroundTruthUnit, refs: dict) -> list[str]:
    bad_f = [dict(b) for b in unit.bounds]
    bad_f[0]["F"] += 1
    bad_lcc = unit.lcc_nodes[:-1]
    cases = {
        "F off by one": replace(unit, bounds=bad_f),
        "LCC missing a node": replace(unit, lcc_nodes=bad_lcc),
    }
    return [f"self-check: '{name}' passed its check"
            for name, bad in cases.items()
            if not check_ground_truth(bad, refs)]
