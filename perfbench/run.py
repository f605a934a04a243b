"""The repository benchmark: one command, every metric, checked results.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact_registry --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced pass.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a copy with
run metadata goes to ``perfbench/out/``.  The exit code is 0 only when
every site's verdict matched the committed reference.

The command itself imports nothing from the program.  It starts a few
fresh processes that only set up (the median of their set-up times is
``setup_s``) and then one fresh process that measures, so peak RSS
never carries another run's heap.  Every time and rate is scaled to
the reference box's speed by the host speed gauge of ``speed.py``.
See ``perfbench/README.md`` for the workloads, metrics and the layer
each one should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: set-up-only processes started before the measuring one; with the
#: measuring process's own set-up that is five samples per run
SETUP_PROBES = 4
#: host speed samples every process takes just before and just after
#: it sets up
SETUP_GAUGE_SAMPLES = 5
#: one child may take this long before the run is abandoned
CHILD_TIMEOUT_S = 170.0


def declared() -> dict:
    """The benchmark's declaration: workloads, metrics and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail_percentile(n: int, beyond: int = 10) -> int:
    """Highest whole percentile with at least *beyond* samples above it,
    and never below the median (short runs have too few samples)."""
    return max(50, min(99, (100 * (n - beyond)) // max(n, 1)))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for numerator in (
            m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(values, pct: float) -> float:
    """The Harrell-Davis estimate of the *pct* percentile of *values*.

    A weighted mean of all order statistics, weighted by the beta
    distribution of the quantile's rank.  The plain sample percentile
    jumps between sites when it falls in a gap of a multimodal sample
    (the exact_registry median sits between two scenarios' costs) and
    steps with the survey's whole-millisecond job times; this estimate
    does neither.
    """
    ordered = sorted(values)
    n = len(ordered)
    p = pct / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


# -- child roles ----------------------------------------------------------------


def _child(args) -> int:
    """Set up, and when measuring, run the passes; print raw JSON."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import speed

    # a reading before set-up, not counted in it, and one after it
    gauge = speed.Gauge()
    start = time.monotonic()
    before = gauge.reading(SETUP_GAUGE_SAMPLES)
    gauge_s = time.monotonic() - start
    import workloads

    plan = workloads.plan(args.workload, args.seed, workloads.passes_for(args.workload, args.seconds))
    if args.trace:
        # the first half of the plan, once untraced and once traced:
        # the difference of the two walls is the tracing overhead
        plan = plan[: max(1, len(plan) // 2)]
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    workloads.warm_up(args.workload)
    setup_s = time.monotonic() - args.t0 - gauge_s
    setup_scale = gauge.scale(before, gauge.reading(SETUP_GAUGE_SAMPLES))
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_scale": setup_scale}))
        return 0

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run_pass = _pass_runner(workloads, args.workload, reference, work)
        if args.trace:
            import tracing

            untraced = [run_pass(sites, None, None) for sites in plan]
            tracer = tracing.Tracer(sink_dir=work)
            patches = tracing.install(tracer)
            try:
                traced = [run_pass(sites, tracer, None) for sites in plan]
            finally:
                patches.undo()
            tracer.collect_workers()
            runs = untraced + traced
            layers = tracing.layer_metrics(
                tracer, sum(r.wall_s for r in traced), sum(r.wall_s for r in untraced)
            )
            calls, units = dict(tracer.calls), tracer.units
        else:
            runs = [run_pass(sites, None, gauge) for sites in plan]
            layers, calls, units = None, None, None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "setup_scale": setup_scale,
                "speed_samples": gauge.samples,
                "passes": [
                    {
                        "wall_s": r.wall_s,
                        # traced passes take no readings: their scale is 1
                        "wall_scale": r.wall_scale,
                        "table_ok": r.table_ok,
                        "table_digest": r.table_digest,
                        "missing": r.missing,
                        "sites": [s.__dict__ for s in r.sites],
                    }
                    for r in runs
                ],
                "peak_rss_mib": (usage_self + usage_children) / 1024.0,
                "layers": layers,
                "calls": calls,
                "units": units,
            }
        )
    )
    return 0


def _pass_runner(workloads, workload, reference, work):
    if workload == "survey":
        return lambda sites, tracer, gauge: workloads.run_survey(
            sites[0][1], reference, work, tracer, gauge=gauge
        )
    return lambda sites, tracer, gauge: workloads.run_in_process(
        workload, sites, reference, tracer, gauge
    )


# -- the command ----------------------------------------------------------------


def _spawn(args, role: str) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role,
    ]
    t0 = time.monotonic()
    # its own process group, so a timeout also stops the survey's workers
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, cwd=str(ROOT), start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:  # a timeout, or this process being stopped
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(OUT / f"work-{proc.pid}", ignore_errors=True)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _metadata(args, overhead_s) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "tracing_overhead_s": overhead_s,
    }


def declared_metrics(values: dict, trace: int) -> dict:
    """Name -> (value, unit) for exactly the metrics ``BENCHMARK.json``
    declares for this mode, in its order; a missing one is an error."""
    entries = declared()["per_layer" if trace else "end_to_end"]
    return {m["name"]: (values[m["name"]], m["unit"]) for m in entries}


def _end_to_end(raw: dict, setups) -> tuple:
    """The end-to-end metrics of a measuring process's raw output.

    *setups* holds ``(setup_s, setup_scale)`` per process.  Every time
    is multiplied by its host speed factor and every rate divided by it.
    """
    sites = [s for p in raw["passes"] for s in p["sites"]]
    raw_wall = sum(p["wall_s"] for p in raw["passes"])
    wall = sum(p["wall_s"] * p["wall_scale"] for p in raw["passes"])
    missing = sum(p["missing"] for p in raw["passes"])
    attempted = len(sites) + missing
    failed = sum(1 for s in sites if not s["ok"]) + missing
    requests = sum(s["requests"] for s in sites)
    committed = len(sites)
    times = [s["seconds"] * s["scale"] for s in sites]
    tail = tail_percentile(len(times))
    metrics = {
        "setup_s": statistics.median(t * f for t, f in setups),
        "sites_per_s": committed / wall,
        "site_s_p50": percentile(times, 50),
        "site_s_tail": percentile(times, tail),
        "sim_requests_per_s": requests / wall,
        "requests_per_site": requests / committed,
        "peak_rss_mib": raw["peak_rss_mib"],
        # the share of attempted sites whose verdict matched: the
        # complement of the failed fraction, which would read 0
        "verdict_ok_fraction": (attempted - failed) / attempted,
    }
    notes = {
        "site_s_tail_percentile": tail,
        "site_samples": len(times),
        "setup_samples": [t for t, _ in setups],
        "setup_scales": [f for _, f in setups],
        "speed_factor": wall / raw_wall,
        "speed_samples": raw["speed_samples"],
        "raw_wall_s": raw_wall,
        "wall_s": wall,
        "passes": len(raw["passes"]),
    }
    return metrics, notes, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared()["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default=None, help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role is not None:
        return _child(args)

    # stopped from outside: unwind through _spawn, which stops the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        setups = [_spawn(args, "setup") for _ in range(SETUP_PROBES)]
        setups = [(s["setup_s"], s["setup_scale"]) for s in setups]
        raw = _spawn(args, "measure")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append((raw["setup_s"], raw["setup_scale"]))

    metrics, notes, attempted, failed = _end_to_end(raw, setups)
    table_ok = all(p["table_ok"] for p in raw["passes"])
    correct = failed == 0 and table_ok
    overhead = raw["layers"]["trace.overhead_s"] if args.trace else None
    shown = declared_metrics(raw["layers"] if args.trace else metrics, args.trace)

    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not args.trace:
        print(
            f"{args.workload} site_s_tail is p{notes['site_s_tail_percentile']} "
            f"of {notes['site_samples']} sites; setup_s is the median of {len(setups)}; "
            f"host speed factor {notes['speed_factor']:.4f} (times x factor, rates / factor)"
        )
    for p in raw["passes"]:
        for s in p["sites"]:
            if not s["ok"]:
                print(f"MISMATCH {s['site_id']}: got {s['verdict']}", file=sys.stderr)
        if not p["table_ok"]:
            print(f"MISMATCH per-stratum table {p['table_digest']}", file=sys.stderr)

    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "meta": _metadata(args, overhead),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
        # a traced run's passes are half a plan run untraced and then
        # traced; only untraced runs' site statistics are end-to-end
        "notes": None if args.trace else notes,
        # untraced runs: every site as measured
        "sites": None if args.trace else [
            {k: s[k] for k in ("site_id", "seconds", "scale", "requests", "ok")}
            for p in raw["passes"] for s in p["sites"]
        ],
        # traced runs: wrapped-call counts and per-unit folded spans
        "calls": raw["calls"],
        "units": raw["units"],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
