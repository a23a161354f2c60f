"""The repository's benchmark: one command, two workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload nrmse-orkut-t10 --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

A run starts Spark (local mode, at most 4 cores), generates the
workload's dataset, runs one untimed warm-up, then runs units
closed-loop, one at a time, until ``--seconds`` of unit time have passed.
Every unit is checked for correctness outside the timed region. The
last line of standard output is one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``). The
full record of a run (environment, set-up phases, per-unit times and
quartiles, check messages, spans, layer self times, the layer map) is
written to ``.perfbench/results/``.

The traced run records spans around every call into the program and
then probes every layer on the workload's own dataset: in-driver kernel
and estimator calls, the NRMSE aggregation on materialized estimates,
and whichever of the NRMSE fan-out or the ground-truth pass the
workload's units do not already run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from layers import WORKLOADS, layer_map, manifest

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEM = "3g"


def configure_env(tmp: Path) -> None:
    """Spark and worker settings; must run before pyspark is imported.
    Spark's scratch space and temporary files stay inside ``tmp``."""
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src, str(ROOT), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    # The JVMs would otherwise write their perf-data files under /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = " ".join(
        [os.environ.get("JAVA_TOOL_OPTIONS", ""), "-XX:-UsePerfData"]).strip()
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEM} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={tmp} "
        # A heap fixed at its maximum from the start, so that growing it
        # under the ~129 MB broadcasts does not slow the first units.
        "--conf \"spark.driver.extraJavaOptions="
        f"-Djava.io.tmpdir={tmp} -Xms{DRIVER_MEM}\" "
        "pyspark-shell"
    )
    sys.path[:0] = [src, str(ROOT)]


def environment(args, spark_env: dict) -> dict:
    import duckdb
    import numpy
    import pandas
    import pyspark

    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(p.relative_to(ROOT).as_posix().encode())
        digest.update(p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, check=False)
        commit = r.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        **spark_env,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "duckdb": duckdb.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def summary(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    default=manifest()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json from perfbench/layers.py")
    args = ap.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir() or not (
            ROOT / "benchmarks" / "_bench_common.py").is_file():
        print(f"perfbench: no repro sources under {ROOT}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    tmp = OUT / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    configure_env(tmp)
    try:
        import runner

        run = runner.make_run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        run.execute(t0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = run.per_layer() if args.trace else run.end_to_end()
    record = {
        "environment": environment(args, run.spark_env),
        "phases": run.phases,
        "units": {"wall_s": summary(run.walls), "all_walls_s": run.walls,
                  "traced": bool(args.trace), "attempted": run.attempted,
                  "failed": run.failed,
                  "failed_frac": run.failed / max(1, run.attempted)},
        "end_to_end": {k: v for k, (v, _) in run.end_to_end().items()},
        "per_layer": ({k: v for k, (v, _) in metrics.items()}
                      if args.trace else None),
        "failures": run.failures,
        "layer_self_times": run.tracer.self_times(),
        "layer_map": layer_map(),
        "spans": run.tracer.spans,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    w = record["units"]["wall_s"]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} units, {run.failed} failed "
          f"(failed_frac {record['units']['failed_frac']:.3g})")
    if w["n"]:
        print(f"wall_s per unit: median {w['median']:.4f} s, "
              f"q1 {w['q1']:.4f}, q3 {w['q3']:.4f}, n {w['n']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    for msg in run.failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
