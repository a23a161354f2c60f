"""One benchmark run: set-up, closed-loop timed units, per-unit checks,
the traced run's layer probes, and the run's record.

Imported by ``run.py`` only after it has configured Spark's environment.
"""
from __future__ import annotations

import dataclasses
import gc
import os
import resource
import subprocess
import time
import traceback
from statistics import median

import numpy as np

import checks
import workloads as W
from layers import GROUNDTRUTH_POKEC, NRMSE_ORKUT, PER_LAYER
from repro.harness import datasets
from repro.harness.session import get_spark
from tracing import Tracer

MAX_UNITS = 500
# Dataset generation and pair selection are set up this many times per
# run and ``setup_s`` counts their median. Spark's start and the warm-up
# unit are paid once: a second JVM start or warm-up per run would not
# fit the run's time budget.
SETUP_REPEATS = 3
# Per-layer metrics that are the median duration of one span name.
SPAN_MEDIANS = {
    "ctx.build_s": "ctx.build", "fanout.submit_s": "fanout.submit",
    "fanout.exec_s": "fanout.exec", "nrmse.agg_s": "nrmse.agg",
    "gt.df_s": "gt.df", "lcc.s": "lcc", "bounds.s": "bounds",
}


def _count(values: list[int]) -> float:
    """Median of per-call counts, as an int when it is whole."""
    m = median(values)
    return int(m) if m == int(m) else m


def stop_spark(spark) -> None:
    """Stop Spark and wait for the JVM (and its Python workers) to end."""
    from pyspark import SparkContext

    spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Run:
    """Subclasses define ``dataset`` and the unit protocol: ``warm_up``,
    ``unit`` (timed), ``settle`` (untimed: collect what the checks need),
    ``check``, ``self_check`` and ``probe``."""

    dataset: str
    # Units measured even when ``seconds`` have passed.
    min_units = 1

    def __init__(self, seed: int, seconds: float, traced: bool):
        self.seed = seed % 2**31
        self.seconds = seconds
        self.traced = traced
        self.walls: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.phases: dict[str, float | list[float]] = {}
        self.layer: dict[str, float] = {}  # per-layer values set directly

    def unit_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def execute(self, t0: float) -> None:
        """``t0``: when the benchmark started importing the program."""
        t = time.perf_counter()
        self.phases["import_s"] = t - t0
        self.spark = get_spark("perfbench")
        self.sc = self.spark.sparkContext
        self.sc.setLogLevel("ERROR")
        self.phases["spark_start_s"] = time.perf_counter() - t
        self.spark_env = {
            "spark_master": self.sc.master,
            "spark_default_parallelism": self.sc.defaultParallelism,
            "spark_driver_memory": self.sc.getConf().get("spark.driver.memory"),
        }
        self.off = Tracer()
        self.tracer = Tracer(self.sc, self.traced, f"run-{os.getpid()}")
        try:
            self.spec = datasets.SPECS[self.dataset]
            gens = []
            for _ in range(SETUP_REPEATS):
                datasets.load.cache_clear()
                datasets.target_pairs.cache_clear()
                self.g = None
                gc.collect()
                t = time.perf_counter()
                self.g = datasets.load(self.dataset)
                self.pairs = datasets.target_pairs(self.dataset)
                self.prepare()
                gens.append(time.perf_counter() - t)
            self.layer["gen.s"] = self.phases["gen_s"] = median(gens)
            self.phases["gen_all_s"] = gens
            t = time.perf_counter()
            self.warm_up()
            self.phases["warm_up_s"] = time.perf_counter() - t
            self.setup_s = sum(self.phases[k] for k in (
                "import_s", "spark_start_s", "gen_s", "warm_up_s"))
            self.measure()
            self.peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if not self.failures:
                self.failures += self.self_check()
            if self.traced:
                t = time.perf_counter()
                with self.tracer.span("probe"):
                    self.probe()
                self.phases["probe_s"] = time.perf_counter() - t
        finally:
            stop_spark(self.spark)

    def prepare(self) -> None:
        pass

    def measure(self) -> None:
        """Closed loop: one unit at a time until ``seconds`` of unit time
        (and at least ``min_units`` units)."""
        tracer = self.tracer if self.traced else self.off
        checks_s = 0.0
        for i in range(MAX_UNITS):
            if sum(self.walls) >= self.seconds and i >= self.min_units:
                break
            self.attempted += 1
            # Each unit starts from the same heap: what the warm-up or the
            # previous unit left in reference cycles is freed untimed.
            gc.collect()
            try:
                t = time.perf_counter()
                with tracer.span("unit"):
                    raw = self.unit(tracer, i)
                self.walls.append(time.perf_counter() - t)
                t = time.perf_counter()
                result = self.settle(raw)
                del raw  # a context held across units would inflate RSS
                fails = self.check(result)
                checks_s += time.perf_counter() - t
            except Exception:
                self.failed += 1
                self.failures.append(f"unit {i} raised:\n"
                                     + traceback.format_exc())
                break
            if fails:
                self.failed += 1
                self.failures += [f"unit {i}: {m}" for m in fails]
        self.phases["checks_s"] = checks_s
        self.layer["trace.overhead_s"] = (
            self.tracer.overhead_s / max(1, len(self.walls)))

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "wall_s": (median(self.walls) if self.walls else 0.0, "s"),
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "pass_frac": ((self.attempted - self.failed) / self.attempted,
                          "fraction"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        return {n: (self.layer_value(n), spec[0])
                for n, spec in PER_LAYER.items()}

    def layer_value(self, name: str) -> float:
        tr = self.tracer
        if name in self.layer:
            return self.layer[name]
        if name in SPAN_MEDIANS:
            return tr.median_s(SPAN_MEDIANS[name])
        if name == "fanout.overhead_s":
            # exec_s minus one table's in-task numeric work over the cores.
            work = sum(s["end"] - s["start"] for s in tr.spans
                       if s["name"].startswith(("kernel.", "est.")))
            cores = self.spark_env["spark_default_parallelism"]
            return tr.median_s("fanout.exec") - work / cores
        if name.startswith("fanout."):
            key = name.split(".", 1)[1]
            return _count([a + b for a, b in zip(
                tr.values("fanout.submit", key), tr.values("fanout.exec", key))])
        if name in ("lcc.spark_jobs", "bounds.spark_jobs"):
            return _count(tr.values(name.split(".")[0], "spark_jobs"))
        if name == "ne.useful_step_ratio":
            return (sum(tr.values("kernel.NE", "useful_steps"))
                    / sum(tr.values("kernel.NE", "walked_steps")))
        kind, what, field = name.split(".", 2)
        if kind == "est":
            return sum(tr.durations(name[:-2]))
        secs = sum(tr.durations(f"kernel.{what}"))
        steps = sum(tr.values(f"kernel.{what}", "walker_steps"))
        return {"s": secs, "walker_steps": steps,
                "steps_per_s": steps / secs}[field]


class NrmseRun(Run):
    """Units are one paper NRMSE table each (``workloads.SIMS`` sims)."""

    # One unit takes ~7 s; the median of three is not moved by one slow
    # unit, and more would not fit the run's time budget.
    min_units = 3

    def __init__(self, dataset: str, pair_idx: int, gate_alg: str, *args):
        super().__init__(*args)
        self.dataset = dataset
        self.pair_idx = pair_idx
        # The algorithm the assert_error_decreases gate is applied to.
        self.gate_alg = gate_alg
        self.exact_f = None

    def prepare(self) -> None:
        self.pair = self.pairs[self.pair_idx]

    def warm_up(self) -> None:
        unit, _ = W.nrmse_unit(self.spark, self.off, self.g, self.pair,
                               self.spec.burnin, self.unit_seed(999))
        W.collect(unit)

    def unit(self, tracer, i):
        return W.nrmse_unit(self.spark, tracer, self.g, self.pair,
                            self.spec.burnin, self.unit_seed(i))

    def settle(self, raw):
        unit, ctx = raw
        if self.traced and "ctx.bytes" not in self.layer:
            self.layer["ctx.bytes"] = W.context_bytes(ctx)
        self.last = W.collect(unit)
        return self.last

    def check(self, unit) -> list[str]:
        if self.exact_f is None:
            self.exact_f = datasets.exact_f(self.dataset, self.pair)
        return checks.check_nrmse(unit, self.exact_f,
                                  W.experiment.DEFAULT_FRACS, self.gate_alg)

    def self_check(self) -> list[str]:
        return checks.self_check_nrmse(self.last, self.exact_f,
                                       W.experiment.DEFAULT_FRACS,
                                       self.gate_alg)

    def probe(self) -> None:
        W.kernel_probe(self.tracer, self.g, self.pair, self.spec.burnin,
                       self.unit_seed(998))
        W.nrmse_agg_probe(self.spark, self.tracer, self.last.est, self.last.f)
        W.ground_truth_unit(self.spark, self.tracer, self.g, self.pairs[:1])


class GroundTruthRun(Run):
    """Units are one dataset's ground-truth pass (LCC + all bounds)."""

    def __init__(self, dataset: str, *args):
        super().__init__(*args)
        self.dataset = dataset
        self.refs = None

    def prepare(self) -> None:
        # Inputs from the seed: the edge rows reach Spark in a seeded
        # order; every ground-truth quantity is order-invariant.
        perm = np.random.default_rng(self.seed).permutation(self.g.n_edges)
        self.g_in = dataclasses.replace(self.g, edges=self.g.edges[perm])

    def warm_up(self) -> None:
        # The first Spark SQL pass pays JIT and code generation; the LCC
        # pass runs the same joins and aggregations as the bounds.
        W.ground_truth_unit(self.spark, self.off, self.g_in, pairs=())

    def unit(self, tracer, i):
        return W.ground_truth_unit(self.spark, tracer, self.g_in, self.pairs)

    def settle(self, raw):
        self.last = raw
        return raw

    def check(self, unit) -> list[str]:
        if self.refs is None:
            self.refs = checks.ground_truth_refs(self.g, self.pairs)
        # T(u) through the DuckDB oracle costs a Spark job per pair; one
        # seeded pair per unit covers all pairs across runs (the bounds
        # check already tests every pair's T(u) sums to 1e-9).
        i = self.seed % len(self.pairs)
        return (checks.check_ground_truth(unit, self.refs)
                + checks.check_t_counts_oracle(unit, self.refs,
                                               {i: self.pairs[i]}))

    def self_check(self) -> list[str]:
        return checks.self_check_ground_truth(self.last, self.refs)

    def probe(self) -> None:
        pair = self.pairs[0]
        unit, ctx = W.nrmse_unit(self.spark, self.tracer, self.g, pair,
                                 self.spec.burnin, self.unit_seed(997))
        self.layer["ctx.bytes"] = W.context_bytes(ctx)
        del ctx
        unit = W.collect(unit)
        W.kernel_probe(self.tracer, self.g, pair, self.spec.burnin,
                       self.unit_seed(998))
        W.nrmse_agg_probe(self.spark, self.tracer, unit.est, unit.f)


def make_run(workload: str, seed: int, seconds: float, traced: bool) -> Run:
    if workload == NRMSE_ORKUT:
        return NrmseRun("orkut", 0, "NeighborExploration-HH",
                        seed, seconds, traced)
    if workload == GROUNDTRUTH_POKEC:
        return GroundTruthRun("pokec", seed, seconds, traced)
    raise ValueError(f"unknown workload {workload!r}")
