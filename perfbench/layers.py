"""What the benchmark measures: workloads, end-to-end metrics, per-layer
metrics, and which end-to-end metric each layer metric should move.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/run.py --write-manifest``); the layer map below has
no place in that file's fixed schema, so it lives here and is copied
into every result file the benchmark writes.
"""
from __future__ import annotations

NRMSE_ORKUT = "nrmse-orkut-t10"
GROUNDTRUTH_POKEC = "groundtruth-pokec"

WORKLOADS = {
    NRMSE_ORKUT: (
        "Table 10: rare pair (F=770) on a 1.14M-edge graph with a 129 MB "
        "broadcast context; NE walks most of its budget; shows context, kernel "
        "and fan-out costs"
    ),
    GROUNDTRUTH_POKEC: (
        "Table 1 LCC pass plus Table 20 bounds for 4 pairs: Spark SQL shuffle "
        "joins and aggregations, no walks; NRMSE-harness changes should not move it"
    ),
}

# (name, unit, better, bound as a share of the parent's median). On a
# shared 4-core machine run times drift by up to ~30% between sets of
# runs taken minutes apart (single-threaded dataset generation drifts
# alike), so the time bounds sit at the 0.25 ceiling.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("pass_frac", "fraction", "higher", 0.01),
]

SAMPLERS = ["NS", "NE", "EX-RW", "EX-MHRW", "EX-MDRW", "EX-RCMH", "EX-GMD"]
ESTIMATORS = ["NS-HH", "NS-HT", "NE-HH", "NE-HT", "NE-RW"]

_ALL = "all"

# name -> (unit, better, layer, end-to-end metric it moves, workload(s))
PER_LAYER: dict[str, tuple[str, str, str, str, str]] = {
    "gen.s": ("s", "lower", "graphs.generator via harness.datasets.load",
              "setup_s", _ALL),
    "ctx.build_s": ("s", "lower", "harness.experiment.build_context",
                    "wall_s", NRMSE_ORKUT),
    "ctx.bytes": ("bytes", "lower", "harness.experiment.build_context",
                  "wall_s,peak_rss_mb", NRMSE_ORKUT),
    "fanout.submit_s": ("s", "lower",
                        "harness.experiment.simulate_all (broadcast + plan)",
                        "wall_s", NRMSE_ORKUT),
    "fanout.exec_s": ("s", "lower", "Spark action over simulate_all",
                      "wall_s", NRMSE_ORKUT),
    "fanout.overhead_s": ("s", "lower",
                          "Spark scheduling/serialization around the kernels",
                          "wall_s", NRMSE_ORKUT),
    "fanout.spark_jobs": ("count", "lower", "harness.experiment.simulate_all",
                          "wall_s", NRMSE_ORKUT),
    "fanout.tasks": ("count", "lower", "harness.experiment.simulate_all",
                     "wall_s", NRMSE_ORKUT),
    "fanout.tasks_failed": ("count", "lower", "harness.experiment.simulate_all",
                            "pass_frac", NRMSE_ORKUT),
}
for _s in SAMPLERS:
    _layer = ("core.neighbor_sample" if _s == "NS" else
              "core.neighbor_exploration" if _s == "NE" else
              "baselines.ex_algorithms")
    PER_LAYER[f"kernel.{_s}.s"] = ("s", "lower", _layer, "wall_s", NRMSE_ORKUT)
    PER_LAYER[f"kernel.{_s}.walker_steps"] = ("count", "lower", _layer,
                                              "wall_s", NRMSE_ORKUT)
    PER_LAYER[f"kernel.{_s}.steps_per_s"] = ("1/s", "higher", _layer,
                                             "wall_s", NRMSE_ORKUT)
PER_LAYER["ne.useful_step_ratio"] = (
    "ratio", "higher", "core.neighbor_exploration budgeting", "wall_s",
    NRMSE_ORKUT)
for _e in ESTIMATORS:
    PER_LAYER[f"est.{_e}.s"] = ("s", "lower", "core.estimators", "wall_s",
                                NRMSE_ORKUT)
PER_LAYER.update({
    "nrmse.agg_s": ("s", "lower", "harness.nrmse.nrmse_agg", "wall_s",
                    NRMSE_ORKUT),
    "gt.df_s": ("s", "lower", "graphs.stats.edges_df/labels_df", "wall_s",
                GROUNDTRUTH_POKEC),
    "lcc.s": ("s", "lower", "graphs.lcc", "wall_s", GROUNDTRUTH_POKEC),
    "lcc.spark_jobs": ("count", "lower", "graphs.lcc", "wall_s",
                       GROUNDTRUTH_POKEC),
    "bounds.s": ("s", "lower", "core.bounds (per pair)", "wall_s",
                 GROUNDTRUTH_POKEC),
    "bounds.spark_jobs": ("count", "lower", "core.bounds (per pair)", "wall_s",
                          GROUNDTRUTH_POKEC),
    "trace.overhead_s": ("s", "lower",
                         "the benchmark's own tracing (traced - untraced unit)",
                         "none", _ALL),
})


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 15,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": spec[0], "better": spec[1]}
            for n, spec in PER_LAYER.items()
        ],
    }


def layer_map() -> list[dict]:
    """Per-layer metric -> layer, and the end-to-end metric and workload
    it should move."""
    return [
        {"metric": n, "layer": spec[2], "moves": spec[3], "on": spec[4]}
        for n, spec in PER_LAYER.items()
    ]
