"""Spans around the benchmark's calls into each layer, with Spark job
counters read per span through a unique job group.

A disabled tracer records nothing and sets no job group, so the
untraced run executes the program's calls bare.
"""
from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from statistics import median


class Tracer:
    def __init__(self, sc=None, enabled: bool = False, run_id: str = ""):
        self.sc = sc
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count()
        # Time spent in the tracer's own bookkeeping (setting job groups,
        # reading the status tracker): what tracing adds to a traced call.
        self.overhead_s = 0.0

    @contextmanager
    def span(self, name: str, spark: bool = False):
        """Record a span; with ``spark``, count the Spark jobs, completed
        tasks and failed tasks launched inside it. Yields the span record
        (``None`` when disabled) so callers can attach counts."""
        if not self.enabled:
            yield None
            return
        t_in = time.perf_counter()
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run_id": self.run_id,
        }
        group = f"{self.run_id}-{rec['id']}"
        if spark:
            self.sc.setJobGroup(group, name)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        self.overhead_s += rec["start"] - t_in
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if spark:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                rec.update(self._group_counts(group))
            self.spans.append(rec)
            self.overhead_s += time.perf_counter() - rec["end"]

    def _group_counts(self, group: str) -> dict:
        """Jobs, completed and failed tasks of a job group. Listener
        events arrive asynchronously, so wait briefly for every job of
        the group to report a final status."""
        st = self.sc.statusTracker()
        deadline = time.monotonic() + 5.0
        while True:
            infos = [st.getJobInfo(j) for j in st.getJobIdsForGroup(group)]
            done = all(i is not None and i.status in ("SUCCEEDED", "FAILED")
                       for i in infos)
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.005)
        stages = {s for i in infos if i is not None for s in i.stageIds}
        tasks = failed = 0
        for sid in stages:
            si = st.getStageInfo(sid)
            if si is not None:
                tasks += si.numCompletedTasks
                failed += si.numFailedTasks
        return {"spark_jobs": len(infos), "tasks": tasks,
                "tasks_failed": failed}

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def values(self, name: str, key: str) -> list:
        return [s[key] for s in self.spans if s["name"] == name and key in s]

    def median_s(self, name: str) -> float:
        d = self.durations(name)
        return median(d) if d else 0.0

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total time and self time (duration minus
        the time its child spans cover; children run sequentially)."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + (
                    s["end"] - s["start"])
        out: dict[str, dict] = {}
        for s in self.spans:
            d = s["end"] - s["start"]
            o = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            o["calls"] += 1
            o["total_s"] += d
            o["self_s"] += d - child.get(s["id"], 0.0)
        return out
