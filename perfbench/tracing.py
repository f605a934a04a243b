"""Per-layer attribution for the benchmark's traced pass.

The traced pass wraps public functions of each layer, at the name its
caller looks up, and records one span per call: name, start, end,
parent span and the unit of work (a site, a campaign job or a survey
pass) it belongs to.  A generator-returning function gets one span per
resumption, not one over its lifetime, because a simulation process or
a streaming campaign is suspended for most of its life.  Counters are
bumped at the same seams.

Spans stay in memory until their unit ends.  The unit is then folded
into per-layer self times with :func:`self_times` (a span's duration
minus the part of it its child spans cover) and the raw spans are
dropped: one busy exact-mode site yields several hundred thousand
spans, so keeping a whole pass would cost gigabytes.  The folded
per-unit records are what the run writes out.

Untraced runs never call :func:`install`; nothing is patched unless a
traced pass asks for it.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: span name -> per-layer self-time metric it feeds
SELF_TIME_METRICS = {
    "sim.run": "sim.self_s",
    "net.flush": "net.flush_s",
    "server.handle": "server.self_s",
    "core.planner": "core.planner_s",
    "cohort.group": "cohort.self_s",
    "cohort.drain": "cohort.self_s",
    "cohort.ramp": "cohort.self_s",
    "cohort.synthesize": "cohort.self_s",
    "faults.check": "faults.self_s",
    "triage.classify": "triage.classify_s",
    "worlds.build": "worlds.build_s",
    "workload.fleet": "worlds.build_s",
    "workload.population": "workload.population_s",
    "codec.encode": "codec.encode_s",
    "codec.decode": "codec.decode_s",
    "store.append": "store.append_s",
    "store.lookup": "store.lookup_s",
    "dispatch.campaign": "dispatch.wait_s",
    "analysis.rollup": "analysis.rollup_s",
    "analysis.render": "analysis.rollup_s",
}
#: self time of these spans is harness or glue code, not a layer:
#: the benchmark's per-site root, a worker's per-job root, the triage
#: join loop and the indicator runner outside its simulation
OTHER_SPANS = ("site", "worker.job", "triage.iter", "triage.indicator", "dispatch.batch")


# -- self-time arithmetic ------------------------------------------------------


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        elif end > run_end:
            run_end = end
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Name -> summed self time of *spans*.

    Each span is ``(name, start, end, parent, unit)`` where *parent* is
    the index of the enclosing span in *spans* (-1 for a root).  A
    span's self time is its duration minus the union of its children's
    intervals, so nested, adjacent and overlapping children are each
    counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _unit in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _unit) in enumerate(spans):
        kids = children.get(index)
        covered = covered_length(kids, start, end) if kids else 0.0
        out[name] += (end - start) - covered
    return dict(out)


# -- the recorder --------------------------------------------------------------


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self, sink_dir: Optional[Path] = None) -> None:
        #: where worker processes append their folded job records
        self.sink_dir = sink_dir
        #: the process that owns this tracer; forked workers differ
        self.home_pid = self.pid = os.getpid()
        self.counts: Counter = Counter()
        #: wrapped target -> calls seen (the load check reads this)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        #: summed self time of every merged worker record
        self.worker_self_s = 0.0
        self._reset()

    def _reset(self) -> None:
        # counters are cleared in place: the wrappers hold references
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts.clear()
        self.calls.clear()
        self.self_s.clear()
        self.units: List[Dict] = []
        self.unit: Optional[str] = None

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.home_pid

    def adopt_process(self) -> None:
        """Start clean in a forked worker: the parent's open spans and
        counters were copied into this process and are not its own."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self._reset()

    def open(self, name: str) -> int:
        stack = self.stack
        index = len(self.spans)
        self.spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.unit])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def begin_unit(self, unit: str) -> None:
        self.unit = unit

    def end_unit(self) -> Dict:
        """Fold the finished unit's spans into self times; drop them."""
        folded = self_times(self.spans)
        record = {
            "unit": self.unit,
            "pid": self.pid,
            "spans": len(self.spans),
            "self_s": folded,
        }
        self.self_s.update(folded)
        self.units.append(record)
        self.spans = []
        self.unit = None
        return record

    def ship(self, record: Dict) -> None:
        """Append a worker's folded job record to its per-pid file."""
        path = self.sink_dir / f"worker-{self.pid}.jsonl"
        line = dict(record, counts=dict(self.counts), calls=dict(self.calls))
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        self.counts.clear()
        self.calls.clear()

    def collect_workers(self) -> int:
        """Merge every shipped worker record; returns how many."""
        merged = 0
        for path in sorted(self.sink_dir.glob("worker-*.jsonl")):
            with path.open(encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    self.self_s.update(record["self_s"])
                    self.worker_self_s += sum(record["self_s"].values())
                    self.counts.update(record["counts"])
                    self.calls.update(record["calls"])
                    self.counts["trace.worker_busy_s"] += record["busy_s"]
                    self.units.append({k: record[k] for k in ("unit", "pid", "spans", "self_s")})
                    merged += 1
            path.unlink()
        return merged


# -- wrappers ------------------------------------------------------------------


def _timed(tracer: Tracer, name: str, target: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tracer.calls[target] += 1
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _counted(tracer: Tracer, counter: str, target: str, fn: Callable) -> Callable:
    counts, calls = tracer.counts, tracer.calls

    def wrapper(*args, **kwargs):
        calls[target] += 1
        counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def _resumed(tracer: Tracer, name: str, gen):
    """Proxy generator: one span per resumption of *gen*."""
    value = None
    pending: Optional[BaseException] = None
    while True:
        index = tracer.open(name)
        try:
            item = gen.throw(pending) if pending is not None else gen.send(value)
        except StopIteration as stop:
            tracer.close(index)
            return stop.value
        except BaseException:
            tracer.close(index)
            raise
        tracer.close(index)
        pending = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into gen
            value, pending = None, exc


def _generator(tracer: Tracer, name: str, target: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tracer.calls[target] += 1
        return _resumed(tracer, name, fn(*args, **kwargs))

    return wrapper


class Patches:
    """Installed wrappers, so :meth:`undo` restores every original."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def targets(self) -> List[str]:
        return [f"{_owner_name(o)}.{a}" for o, a, _ in self._saved]


def _owner_name(owner) -> str:
    """``Class`` for a class, the last dotted part for a module."""
    return getattr(owner, "__qualname__", None) or owner.__name__.rsplit(".", 1)[-1]


def install(tracer: Tracer) -> Patches:
    """Wrap every traced seam; returns the patches to undo."""
    from repro.analysis.tables import TextTable
    from repro.campaign import executor, store as store_mod, triage
    from repro.core import coordinator, epochs, indicator
    from repro.faults.inject import FaultInjector
    from repro.net.link import Network
    from repro.server.resources import ServerResources
    from repro.server.webserver import SimWebServer
    from repro.sim.kernel import Simulator
    from repro.workload import fleet, populations
    from repro.worlds.spec import WorldSpec

    patches = Patches()
    counts = tracer.counts

    def wrap(owner, attr: str, make, label: str) -> None:
        target = f"{_owner_name(owner)}.{attr}"
        patches.set(owner, attr, make(tracer, label, target, owner.__dict__[attr]))

    # sim: the run loop's self time; timer registrations as a count
    wrap(Simulator, "run_until_complete", _timed, "sim.run")
    for attr in ("call_at", "call_in", "schedule", "timeout"):
        wrap(Simulator, attr, _counted, "sim.timers")

    # net: every end-of-instant transaction is an allocator flush
    original_at_end = Simulator.__dict__["at_instant_end"]

    def at_instant_end(sim, fn):
        tracer.calls["Simulator.at_instant_end"] += 1
        network = getattr(fn, "__self__", None)

        def flush():
            before = getattr(network, "allocations", 0)
            index = tracer.open("net.flush")
            try:
                fn()
            finally:
                tracer.close(index)
                counts["net.alloc_passes"] += getattr(network, "allocations", 0) - before

        original_at_end(sim, flush)

    patches.set(Simulator, "at_instant_end", at_instant_end)
    wrap(Network, "start_transfer", _counted, "net.flows")

    # server: requests admitted, then the pipeline per resumption
    wrap(SimWebServer, "submit", _counted, "server.requests")
    wrap(SimWebServer, "_handle", _generator, "server.handle")
    wrap(ServerResources, "consume_cpu", _counted, "server.cpu_ops")
    wrap(ServerResources, "read_disk", _counted, "server.disk_ops")

    # core: every planner class that defines the two hooks itself (a
    # subclass override, e.g. BisectKnee.record, bypasses the base's)
    planner_classes = [epochs.EpochPlanner]
    for cls in planner_classes:  # grows while walked: breadth-first
        planner_classes.extend(cls.__subclasses__())
    for cls in planner_classes:
        if "next_epoch" in cls.__dict__:
            wrap(cls, "next_epoch", _timed, "core.planner")
        if "record" in cls.__dict__:
            original = cls.__dict__["record"]
            target = f"{cls.__qualname__}.record"

            def record(self, epoch, _original=original, _target=target):
                tracer.calls[_target] += 1
                stack = tracer.stack
                outermost = not stack or tracer.spans[stack[-1]][0] != "core.planner"
                if outermost:
                    counts["core.epochs"] += 1
                    counts["core.epoch_requests"] += epoch.crowd_size
                index = tracer.open("core.planner")
                try:
                    return _original(self, epoch)
                finally:
                    tracer.close(index)

            patches.set(cls, "record", record)

    # core.cohort: the coordinator imported these names into its module
    original_group = coordinator.__dict__["group_cohorts"]

    def group_cohorts(*args, **kwargs):
        tracer.calls["coordinator.group_cohorts"] += 1
        index = tracer.open("cohort.group")
        try:
            cohorts = original_group(*args, **kwargs)
        finally:
            tracer.close(index)
        counts["cohort.groups"] += len(cohorts)
        counts["cohort.members"] += sum(len(c.members) for c in cohorts)
        return cohorts

    patches.set(coordinator, "group_cohorts", group_cohorts)
    wrap(coordinator, "epoch_drain_s", _timed, "cohort.drain")
    wrap(coordinator, "epoch_ramp_fraction", _timed, "cohort.ramp")
    wrap(coordinator, "synthesize_cohort_reports", _timed, "cohort.synthesize")

    # faults: every per-request and per-report check
    for attr in ("client_down", "request_disposition", "report_lost"):
        original = FaultInjector.__dict__[attr]
        target = f"FaultInjector.{attr}"

        def check(*args, _original=original, _target=target, **kwargs):
            tracer.calls[_target] += 1
            counts["faults.checks"] += 1
            index = tracer.open("faults.check")
            try:
                return _original(*args, **kwargs)
            finally:
                tracer.close(index)

        patches.set(FaultInjector, attr, check)

    # triage: the classifier as triage.py looks it up; the indicator run
    wrap(triage, "classify_indicator", _timed, "triage.classify")
    wrap(indicator.IndicatorRunner, "run", _timed, "triage.indicator")
    wrap(triage, "iter_triage", _generator, "triage.iter")

    # worlds / workload
    wrap(WorldSpec, "build", _timed, "worlds.build")
    wrap(fleet, "build_fleet", _timed, "workload.fleet")
    wrap(populations, "generate_population", _timed, "workload.population")

    # campaign: codec at the executor's names, store, dispatch
    wrap(executor, "encode_result", _timed, "codec.encode")
    wrap(executor, "decode_result", _timed, "codec.decode")
    wrap(store_mod.ResultStore, "get", _timed, "store.lookup")
    wrap(triage, "iter_campaign", _generator, "dispatch.campaign")

    original_append = store_mod.ResultStore.__dict__["append_batch"]

    def append_batch(self, records):
        tracer.calls["ResultStore.append_batch"] += 1
        shards = sorted({store_mod.shard_index(r["key"]) for r in records})
        paths = [self.shard_path(s) for s in shards] if self.path is not None else []
        before = sum(p.stat().st_size for p in paths if p.exists())
        index = tracer.open("store.append")
        try:
            original_append(self, records)
        finally:
            tracer.close(index)
        if paths:
            counts["store.fsyncs"] += len(shards)
            counts["store.bytes_written"] += sum(p.stat().st_size for p in paths) - before

    patches.set(store_mod.ResultStore, "append_batch", append_batch)

    original_batch_size = executor.__dict__["auto_batch_size"]

    def auto_batch_size(jobs, workers):
        tracer.calls["executor.auto_batch_size"] += 1
        index = tracer.open("dispatch.batch")
        try:
            size = original_batch_size(jobs, workers)
        finally:
            tracer.close(index)
        counts["dispatch.batches"] += -(-len(jobs) // size)
        return size

    patches.set(executor, "auto_batch_size", auto_batch_size)

    # the worker-side root: each job is a unit, shipped home when done
    original_execute = executor.__dict__["execute_job"]

    def execute_job(job, *args, **kwargs):
        tracer.adopt_process()
        tracer.calls["executor.execute_job"] += 1
        # a job run in the benchmark process (a one-job campaign phase
        # skips the pool) is a plain span of the enclosing unit
        shipped = tracer.in_worker and tracer.sink_dir is not None
        if shipped:
            tracer.begin_unit(job.job_id)
        index = tracer.open("worker.job")
        try:
            return original_execute(job, *args, **kwargs)
        finally:
            tracer.close(index)
            if shipped:
                start, end = tracer.spans[index][1:3]
                record = tracer.end_unit()
                record["busy_s"] = end - start
                tracer.ship(record)

    patches.set(executor, "execute_job", execute_job)

    # analysis: the rendered per-stratum table
    wrap(TextTable, "render", _timed, "analysis.render")
    return patches


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of the benchmark from one traced pass."""
    s = tracer.self_s
    c = tracer.counts
    out: Dict[str, float] = defaultdict(float)
    for span, metric in SELF_TIME_METRICS.items():
        out[metric] += s.get(span, 0.0)
    out["other.self_s"] = sum(s.get(name, 0.0) for name in OTHER_SPANS)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out.update(
        {
            "sim.timers": c["sim.timers"],
            "net.alloc_passes": c["net.alloc_passes"],
            "net.flows": c["net.flows"],
            "net.flows_per_pass": ratio(c["net.flows"], c["net.alloc_passes"]),
            "server.requests": c["server.requests"],
            "server.cpu_ops": c["server.cpu_ops"],
            "server.disk_ops": c["server.disk_ops"],
            "core.epochs": c["core.epochs"],
            "core.requests_per_epoch": ratio(c["core.epoch_requests"], c["core.epochs"]),
            "cohort.groups": c["cohort.groups"],
            "cohort.members": c["cohort.members"],
            "cohort.members_per_group": ratio(c["cohort.members"], c["cohort.groups"]),
            "faults.checks": c["faults.checks"],
            "triage.probes": c["triage.probes"],
            "triage.probe_yield": ratio(c["triage.active_stops"], c["triage.probes"]),
            "worlds.builds": tracer.calls["WorldSpec.build"],
            "store.bytes_written": c["store.bytes_written"],
            "store.fsyncs": c["store.fsyncs"],
            "dispatch.batches": c["dispatch.batches"],
            "trace.wall_s": traced_wall_s,
            "trace.untraced_wall_s": untraced_wall_s,
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
            "trace.worker_busy_s": c["trace.worker_busy_s"],
        }
    )
    # the benchmark process's own spans against its wall: a low share
    # means time went to code no layer span covers
    local = sum(s.values()) - tracer.worker_self_s
    out["trace.accounted_fraction"] = ratio(local, traced_wall_s)
    return dict(out)
