"""Command-line interface: run MFC experiments from a shell.

    python -m repro list
    python -m repro list --json
    python -m repro stages
    python -m repro run qtnp --threshold-ms 100 --max-crowd 55 --seed 1
    python -m repro run univ3 --mr 2 --threshold-ms 250 --background 20.3
    python -m repro run univ2 --mr 2 --threshold-ms 250 --stage Base
    python -m repro run qtnp --stages Upload --stages CacheBust
    python -m repro run qtnp --planner bisect --max-crowd 150
    python -m repro run qtnp --jobs 3 --cache /tmp/qtnp.d
    python -m repro run qtnp --faults stall --faults report-loss
    python -m repro spec dump qtnp --max-crowd 55 --seed 1 > world.json
    python -m repro run --spec world.json
    python -m repro campaign quantcast --scale 0.1 --jobs 8 --cache /tmp/qc.d
    python -m repro campaign quantcast --jobs 8 --job-timeout 300 --retries 1
    python -m repro campaign --fsck /tmp/qc.d
    python -m repro chaos --quick
    python -m repro perf --quick --check --max-regression 0.25

``run`` prints the experiment summary and the inferred constraint
report, and exits non-zero if the experiment aborted (e.g. too few
live clients).  ``stages`` lists every registered probe stage and
epoch-planner strategy; ``run --stages``/``--planner`` select them by
name.  ``spec dump`` exports a preset as a declarative
:class:`~repro.worlds.spec.WorldSpec` JSON document, which ``run
--spec`` — after any hand edits — turns back into a runnable world.
``campaign`` measures a whole generated population (the paper's §5
study) through the parallel campaign engine.  ``run --faults`` injects
a named fault plan into the world; ``chaos`` runs the fault grid and
fails when any faulted verdict is silently wrong.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from typing import List, Optional

from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, JobSpec
from repro.core.config import MFCConfig, default_min_clients
from repro.core.epochs import PLANNERS, PlannerSpec
from repro.core.inference import infer_constraints
from repro.core.stages import STAGES, StageKind
from repro.core.variants import mfc_mr_config, staggered_config
from repro.faults.spec import FAULT_PRESETS, fault_spec_from_names
from repro.workload.fleet import FleetSpec
from repro.worlds import FLEET_PRESETS, SCENARIO_PRESETS, SYNTHETIC_MODELS, WorldSpec
from repro.worlds import codec as world_codec

#: historical alias — the preset registry lives in the world layer now
SCENARIOS = SCENARIO_PRESETS

STAGE_NAMES = {kind.value.lower(): kind for kind in StageKind}

POPULATIONS = ("quantcast", "startups", "phishing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mini-Flash Crowd profiling experiments (USENIX ATC 2008 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser("list", help="list available target scenarios")
    list_p.add_argument("--json", action="store_true",
                        help="machine-readable inventory: scenarios, fleet "
                             "presets, probe stages, planners, synthetic "
                             "models")
    list_p.set_defaults(func=cmd_list)

    sub.add_parser(
        "stages",
        help="list registered probe stages and epoch-planner strategies",
    ).set_defaults(func=cmd_stages)

    run = sub.add_parser("run", help="run an MFC experiment against a scenario")
    run.add_argument("scenario", nargs="?", choices=sorted(SCENARIOS),
                     help="preset scenario (omit when using --spec)")
    run.add_argument("--spec", default=None, metavar="PATH",
                     help="run a declarative WorldSpec JSON document "
                          "(see `repro spec dump`) instead of a preset")
    _add_world_arguments(run)
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="run each stage as its own world, N in parallel "
                          "(any value, even 1, switches to per-stage "
                          "worlds; default: all stages share one world)")
    run.add_argument("--cache", default=None, metavar="PATH",
                     help="result-store directory for --jobs runs "
                          "(requires --jobs): finished stages are never "
                          "recomputed")
    run.add_argument("--quiet", action="store_true",
                     help="print only the one-line stage outcomes")
    run.set_defaults(func=cmd_run)

    spec = sub.add_parser(
        "spec",
        help="inspect/export declarative world specifications",
    )
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    dump = spec_sub.add_parser(
        "dump",
        help="export a preset scenario as a WorldSpec JSON document",
    )
    dump.add_argument("scenario", choices=sorted(SCENARIOS))
    _add_world_arguments(dump)
    dump.add_argument("--out", default=None, metavar="PATH",
                      help="write the document here (default: stdout)")
    dump.set_defaults(func=cmd_spec_dump)

    campaign = sub.add_parser(
        "campaign",
        help="measure a generated §5 population through the campaign engine",
    )
    campaign.add_argument("population", nargs="?", choices=POPULATIONS,
                          help="population to measure (optional with "
                               "--compact)")
    campaign.add_argument("--stage", action="append", default=None,
                          choices=sorted(STAGE_NAMES),
                          help="stage(s) to measure (repeatable; default: base)")
    campaign.add_argument("--scale", type=float, default=0.1,
                          help="population scale (default 0.1): <= 1 shrinks "
                               "the paper's site counts, > 1 switches "
                               "quantcast to survey mode (10000 x scale "
                               "rank-proportional sites)")
    _add_probe_arguments(campaign, max_crowd=50, clients=60)
    campaign.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="worker processes (default: sequential)")
    campaign.add_argument("--batch", type=int, default=None, metavar="B",
                          help="worlds per worker task (default: auto-sized "
                               "by estimated world cost)")
    campaign.add_argument("--cache", default=None, metavar="DIR",
                          help="result-store directory of shard-NN.jsonl "
                               "files (created if missing; a regular file "
                               "is rejected); an interrupted campaign "
                               "resumes from it without recomputation")
    campaign.add_argument("--compact", default=None, metavar="DIR",
                          help="compact a result-store directory in place "
                               "(drop superseded and corrupt lines, report "
                               "bytes reclaimed) and exit")
    campaign.add_argument("--fsck", default=None, metavar="DIR",
                          help="integrity-check a result-store directory "
                               "without rewriting it (per-shard line/"
                               "record/corruption counts) and exit; "
                               "nonzero when any shard has mid-file damage")
    campaign.add_argument("--job-timeout", type=float, default=None,
                          metavar="SEC",
                          help="dead-letter mode: wall-clock budget per "
                               "job; a job that exceeds it commits a "
                               "dead-letter record instead of hanging the "
                               "campaign (default: no limit)")
    campaign.add_argument("--retries", type=int, default=0, metavar="N",
                          help="dead-letter mode: extra attempts for a "
                               "job that raises (timeouts are never "
                               "retried; default 0)")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress progress reporting")
    campaign.add_argument("--dry-run", action="store_true",
                          help="expand the campaign and print per-stratum "
                               "site counts, job counts and the key digest "
                               "without running anything")
    campaign.add_argument("--triage", action="store_true",
                          help="two-phase triage instead of full probing: "
                               "a near-free indicator sweep over every "
                               "site, then targeted active probes only "
                               "where the classifier flags a constraint "
                               "(--stage is ignored: phase 2 picks the "
                               "stages per site)")
    campaign.add_argument("--triage-threshold", type=float, default=2.0,
                          metavar="MARGIN",
                          help="ambiguity margin for --triage: stages "
                               "predicted to stop below MARGIN x max-crowd "
                               "stay on the classifier's watch list "
                               "(default 2.0)")
    campaign.set_defaults(func=cmd_campaign)

    triage = sub.add_parser(
        "triage",
        help="triage one scenario: indicator sweep + classifier verdict",
    )
    triage.add_argument("scenario", choices=sorted(SCENARIOS))
    _add_probe_arguments(triage, max_crowd=55, clients=65)
    triage.add_argument("--margin", type=float, default=2.0,
                        help="ambiguity margin: stages predicted to stop "
                             "below margin x max-crowd stay on the watch "
                             "list (default 2.0)")
    triage.add_argument("--active", action="store_true",
                        help="also run the targeted phase-2 probes the "
                             "verdict asks for and print the joined record")
    triage.add_argument("--crowd-mode", default=None,
                        choices=("exact", "cohort"),
                        help="epoch fan-out for the --active phase-2 "
                             "probes (default: exact; 'cohort' "
                             "aggregates homogeneous crowd members)")
    triage.add_argument("--json", action="store_true",
                        help="machine-readable verdict (and record with "
                             "--active)")
    triage.set_defaults(func=cmd_triage)

    chaos = sub.add_parser(
        "chaos",
        help="run the fault grid: faulted verdicts must match the "
             "baseline or be explicitly inconclusive, never silently "
             "wrong",
    )
    _add_grid_arguments(
        chaos,
        quick_help="CI-smoke slice: 2 scenarios x 3 fault families "
                   "instead of the full registry grid",
        json_help="machine-readable report (rows, counts, "
                  "silently-wrong cells)",
    )
    chaos.add_argument("--fault", action="append", default=None,
                       choices=sorted(FAULT_PRESETS),
                       help="restrict to a fault preset (repeatable; "
                            "default: --quick slice or every preset)")
    chaos.add_argument("--crowd-mode", default=None,
                       choices=("exact", "cohort"),
                       help="run every grid world in this crowd mode "
                            "(default: exact per-client simulation); "
                            "'cohort' asserts the hardening contract "
                            "under cohort aggregation")
    chaos.set_defaults(func=cmd_chaos)

    equiv = sub.add_parser(
        "equiv",
        help="run the cohort-vs-exact equivalence grid: aggregated "
             "crowd epochs must reach the same provisioning verdicts "
             "as exact per-client simulation",
    )
    _add_grid_arguments(
        equiv,
        quick_help="CI-smoke slice: 3 structurally different scenarios "
                   "instead of the full registry",
        json_help="machine-readable report (rows, counts, mismatches)",
    )
    equiv.set_defaults(func=cmd_equiv)

    perf = sub.add_parser(
        "perf",
        help="benchmark the simulation substrate and compare to baseline",
    )
    perf.add_argument("--quick", action="store_true",
                      help="small CI-smoke sizes (minutes -> seconds)")
    perf.add_argument("--out", default="benchmarks/results", metavar="DIR",
                      help="directory for BENCH_kernel.json / BENCH_world.json "
                           "(default benchmarks/results)")
    perf.add_argument("--baseline", default=None, metavar="PATH",
                      help="baseline file to compare against "
                           "(default <out>/BENCH_baseline.json)")
    perf.add_argument("--update-baseline", action="store_true",
                      help="record this run as the new baseline")
    perf.add_argument("--check", action="store_true",
                      help="perf gate: exit nonzero when any bench "
                           "regresses more than --max-regression vs "
                           "the baseline (or the baseline is missing)")
    perf.add_argument("--max-regression", type=float, default=0.25,
                      metavar="FRAC",
                      help="allowed fractional slowdown per bench for "
                           "--check (default 0.25 = 25%%)")
    perf.add_argument("--check-keys", action="append", default=None,
                      metavar="PREFIX",
                      help="restrict the --check timing gate to benches "
                           "whose key starts with PREFIX (repeatable; "
                           "default: every comparable bench). "
                           "Determinism fingerprints are always checked.")
    perf.add_argument("--no-root-mirror", action="store_true",
                      help="skip mirroring BENCH_kernel.json / "
                           "BENCH_world.json to the repository root "
                           "(the cross-PR perf trajectory record)")
    perf.add_argument("--profile", default=None, metavar="KEY",
                      help="cProfile one bench key (e.g. world.crowd_2000; "
                           "respects --quick key names) instead of running "
                           "the suites; writes the profile digest to "
                           "<out>/PROFILE_<key>.txt")
    perf.add_argument("--profile-lines", type=int, default=25, metavar="N",
                      help="rows per profile table (default 25)")
    perf.set_defaults(func=cmd_perf)
    return parser


#: arg-dest → default for every world-shaping flag; ``run --spec``
#: rejects non-default values (the document, not the flags, is the world)
_WORLD_FLAG_DEFAULTS = {
    "threshold_ms": 100.0,
    "max_crowd": 55,
    "step": 5,
    "clients": 65,
    "min_clients": None,
    "mr": 1,
    "stagger_ms": None,
    "stage": None,
    "stages": None,
    "planner": None,
    "background": None,
    "seed": 0,
    "faults": None,
}


def _add_world_arguments(parser) -> None:
    """Flags shared by ``run`` and ``spec dump`` — everything that
    shapes the world they describe."""
    d = _WORLD_FLAG_DEFAULTS
    _add_probe_arguments(parser, max_crowd=d["max_crowd"], clients=d["clients"])
    parser.add_argument("--step", type=int, default=d["step"],
                        help="crowd increment per epoch (default 5)")
    parser.add_argument("--min-clients", type=int, default=d["min_clients"],
                        help="abort below this many live clients "
                             "(default: the paper's 50, clamped to the fleet)")
    parser.add_argument("--mr", type=int, default=d["mr"], metavar="M",
                        help="MFC-mr: parallel requests per client (default 1)")
    parser.add_argument("--stagger-ms", type=float, default=d["stagger_ms"],
                        help="staggered MFC: one arrival per this many ms")
    parser.add_argument("--stage", action="append", default=d["stage"],
                        choices=sorted(STAGE_NAMES),
                        help="restrict to a paper stage (repeatable; "
                             "default: all)")
    parser.add_argument("--stages", action="append", default=d["stages"],
                        choices=sorted(STAGES), metavar="NAME",
                        help="registry-named probe stage to run, in order "
                             "(repeatable; see `repro stages`); cannot be "
                             "combined with --stage")
    parser.add_argument("--planner", default=d["planner"],
                        choices=sorted(PLANNERS),
                        help="epoch-progression strategy (default: the "
                             "paper's linear ramp; see `repro stages`)")
    parser.add_argument("--background", type=float, default=d["background"],
                        help="override background traffic (requests/second)")
    parser.add_argument("--faults", action="append", default=d["faults"],
                        choices=sorted(FAULT_PRESETS), metavar="NAME",
                        help="inject a named fault plan (repeatable: "
                             "plans merge); runs the hardened "
                             "coordinator and may downgrade verdicts "
                             "to inconclusive rather than answer "
                             "wrongly")


def _add_probe_arguments(parser, max_crowd: int, clients: int) -> None:
    """Flags every world-running command shares: threshold, crowd cap,
    fleet size and seed (crowd and fleet defaults per command)."""
    d = _WORLD_FLAG_DEFAULTS
    parser.add_argument("--threshold-ms", type=float, default=d["threshold_ms"],
                        help="θ degradation threshold (default 100)")
    parser.add_argument("--max-crowd", type=int, default=max_crowd,
                        help=f"crowd-size cap in requests (default {max_crowd})")
    parser.add_argument("--clients", type=int, default=clients,
                        help=f"fleet size per world (default {clients})")
    parser.add_argument("--seed", type=int, default=d["seed"])


def _probe_config(args) -> MFCConfig:
    """The experiment config the shared probe flags describe."""
    return MFCConfig(
        threshold_s=args.threshold_ms / 1000.0,
        max_crowd=args.max_crowd,
        min_clients=default_min_clients(args.clients),
    )


def _add_grid_arguments(parser, quick_help: str, json_help: str) -> None:
    """Flags shared by the ``chaos`` and ``equiv`` grids."""
    parser.add_argument("--quick", action="store_true", help=quick_help)
    parser.add_argument("--scenario", action="append", default=None,
                        choices=sorted(SCENARIOS),
                        help="restrict to a scenario (repeatable; "
                             "default: --quick slice or every preset)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: sequential)")
    parser.add_argument("--cache", default=None, metavar="PATH",
                        help="result store: an interrupted grid resumes "
                             "from it without recomputation")
    parser.add_argument("--json", action="store_true", help=json_help)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress reporting")


def _grid_kwargs(args) -> dict:
    """The grid-runner keyword arguments the shared grid flags give."""
    return dict(
        scenarios=args.scenario,
        seed=args.seed,
        quick=args.quick,
        jobs=args.jobs,
        store=args.cache,
        progress=not args.quiet and not args.json,
    )


def _finish_grid(args, report, format_report, broken: int, complaint: str) -> int:
    """Print a grid report (text, or the ``--json`` document); exit 1
    with *complaint* on stderr when any cell is *broken*."""
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    if broken:
        print(complaint, file=sys.stderr)
        return 1
    return 0


def _build_config(args) -> MFCConfig:
    config = MFCConfig(
        threshold_s=args.threshold_ms / 1000.0,
        max_crowd=args.max_crowd,
        crowd_step=args.step,
        initial_crowd=args.step,
        min_clients=(
            args.min_clients
            if args.min_clients is not None
            else default_min_clients(args.clients)
        ),
    )
    if args.mr > 1:
        config = mfc_mr_config(
            config,
            requests_per_client=args.mr,
            threshold_s=args.threshold_ms / 1000.0,
            max_crowd=args.max_crowd,
        )
    if args.stagger_ms is not None:
        config = staggered_config(config, interval_s=args.stagger_ms / 1000.0)
    return config


def _describe_scenario(scenario) -> str:
    """One-line server model: boxes × spec @ access bandwidth."""
    spec = scenario.server_spec
    model = (
        f"{scenario.n_servers}x {spec.name} "
        f"({spec.cpu_cores} core, {scenario.server_access_bps * 8 / 1e6:.0f} Mbps)"
    )
    return f"{model:<38} {scenario.notes or scenario.name}"


def cmd_list(args) -> int:
    if getattr(args, "json", False):
        print(json.dumps(_inventory(), indent=2, sort_keys=True))
        return 0
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]()
        print(f"{name:<12} {_describe_scenario(scenario)}")
    return 0


def cmd_stages(args) -> int:
    """List registered probe stages and epoch-planner strategies."""
    print("Probe stages (run with `repro run <scenario> --stages NAME`):")
    for name, stage in STAGES.items():
        recipe = stage.method.value
        if stage.body_bytes:
            recipe += f"+{stage.body_bytes / 1024:.0f}KB body"
        if stage.connections > 1:
            recipe += f" x{stage.connections} conns"
        print(
            f"  {name:<12} {recipe:<18} q={stage.degradation_quantile:<4} "
            f"-> {stage.resource}"
        )
        print(f"  {'':<12} {stage.description}")
    print()
    print("Epoch planners (run with `repro run <scenario> --planner NAME`):")
    for name in sorted(PLANNERS):
        cls = PLANNERS[name]
        doc = (cls.__doc__ or "").strip()
        summary = doc.splitlines()[0] if doc else ""
        print(f"  {name:<12} {summary}")
    return 0


def _inventory() -> dict:
    """The machine-readable preset inventory behind ``list --json``."""
    from repro.core.profiler import profile_site
    from repro.core.stages import standard_stages

    scenarios = {}
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]()
        spec = scenario.server_spec
        scenarios[name] = {
            "server": spec.name,
            "cpu_cores": spec.cpu_cores,
            "n_servers": scenario.n_servers,
            "access_mbps": scenario.server_access_bps * 8 / 1e6,
            "background_rps": scenario.background_rps,
            "stages": [
                s.name for s in standard_stages(profile_site(scenario.site))
            ],
            "notes": scenario.notes,
        }
    return {
        "scenarios": scenarios,
        "stage_kinds": [kind.value for kind in StageKind],
        "probe_stages": {
            name: {
                "method": stage.method.value,
                "degradation_quantile": stage.degradation_quantile,
                "resource": stage.resource,
                "assignment": stage.assignment,
                "body_bytes": stage.body_bytes,
                "connections": stage.connections,
                "description": stage.description,
            }
            for name, stage in STAGES.items()
        },
        "planners": sorted(PLANNERS),
        "fleet_presets": {
            name: world_codec.encode(factory())
            for name, factory in sorted(FLEET_PRESETS.items())
        },
        "fault_presets": {
            name: world_codec.encode(factory())
            for name, factory in sorted(FAULT_PRESETS.items())
        },
        "synthetic_models": sorted(SYNTHETIC_MODELS),
    }


def _world_from_args(args, scenario) -> WorldSpec:
    """The declarative world the shared run/dump flags describe."""
    return WorldSpec(
        scenario=scenario,
        fleet=FleetSpec(n_clients=args.clients),
        config=_build_config(args),
        seed=args.seed,
        stage_kinds=(
            tuple(STAGE_NAMES[s] for s in args.stage) if args.stage else None
        ),
        stages=tuple(args.stages) if args.stages else None,
        planner=PlannerSpec(name=args.planner) if args.planner else None,
        background_rps=args.background,
        faults=fault_spec_from_names(args.faults) if args.faults else None,
    )


def _report_result(result, quiet: bool) -> int:
    if quiet:
        for name, stage in result.stages.items():
            print(f"{name}\t{stage.describe()}")
    else:
        print(result.summary())
        print()
        print(infer_constraints(result).summary())
    return 1 if result.aborted else 0


def _check_stage_flags(args, prog: str) -> Optional[int]:
    """Shared guard: --stage (paper kinds) xor --stages (registry names)."""
    if args.stage and args.stages:
        print(f"{prog}: give --stage (paper kinds) or --stages "
              "(registry names), not both", file=sys.stderr)
        return 2
    return None


def _check_stores(args) -> Optional[int]:
    """Shared guard: every result-store flag of the command names a
    store directory; a regular file is rejected with the store's
    message before anything runs."""
    from repro.campaign.store import ResultStore

    for flag in ("--fsck", "--compact", "--cache"):
        path = getattr(args, flag[2:], None)
        if path is not None:
            try:
                ResultStore(path)
            except ValueError as exc:
                print(f"repro {args.command} {flag}: {exc}", file=sys.stderr)
                return 2
    return None


def cmd_run(args) -> int:
    if (args.scenario is None) == (args.spec is None):
        print("repro run: give exactly one of a scenario or --spec",
              file=sys.stderr)
        return 2
    bad = _check_stage_flags(args, "repro run")
    if bad is not None:
        return bad
    # --jobs (any value, even 1) selects the per-stage campaign path,
    # so sweeping N never changes experiment semantics; the shared
    # single-world path has no job grid, so --cache alone is an error
    # rather than a silent switch to per-stage worlds
    if args.cache is not None and args.jobs is None:
        print("repro run: --cache requires --jobs", file=sys.stderr)
        return 2
    if args.spec is not None:
        if args.jobs is not None:
            print("repro run: --spec runs a single world (no --jobs)",
                  file=sys.stderr)
            return 2
        overridden = sorted(
            "--" + dest.replace("_", "-")
            for dest, default in _WORLD_FLAG_DEFAULTS.items()
            if getattr(args, dest) != default
        )
        if overridden:
            print(
                "repro run: world flags have no effect with --spec "
                f"({', '.join(overridden)}); edit the document instead",
                file=sys.stderr,
            )
            return 2
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                world = WorldSpec.from_json(fh.read())
        except (OSError, ValueError) as exc:
            print(f"repro run: cannot load spec {args.spec}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            runner = world.build()
        except ValueError as exc:
            print(f"repro run: invalid world spec {args.spec}: {exc}",
                  file=sys.stderr)
            return 2
        return _report_result(runner.run(), args.quiet)
    world = _world_from_args(args, SCENARIOS[args.scenario]())
    if args.jobs is not None:
        return _run_stages_campaign(args, world)
    return _report_result(world.build().run(), args.quiet)


def cmd_spec_dump(args) -> int:
    bad = _check_stage_flags(args, "repro spec dump")
    if bad is not None:
        return bad
    world = _world_from_args(args, SCENARIOS[args.scenario]())
    text = world.to_json()
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out} (spec hash {world.spec_hash[:12]})",
              file=sys.stderr)
    else:
        print(text)
    return 0


def _run_stages_campaign(args, world: WorldSpec) -> int:
    """``run --jobs N``: each stage in its own world, N in parallel.

    Unlike the default single-world run, the stages do not share
    server state (warm caches etc.) — each result matches a
    single-``--stage`` invocation with the same seed.
    """
    if world.stages is not None:
        names = list(world.stages)
    else:
        kinds = world.stage_kinds if world.stage_kinds else tuple(StageKind)
        names = [kind.value for kind in kinds]
    # one registry-named stage per world: for a single stage this
    # resolves to the same stage plan as the kind selection
    job_specs = [
        JobSpec(
            f"{args.scenario}|{name}|seed{world.seed}",
            dataclasses.replace(world, stages=(name,), stage_kinds=None),
        )
        for name in names
    ]
    spec = CampaignSpec(name=f"run-{args.scenario}", jobs=job_specs)
    outcomes = run_campaign(
        spec, jobs=args.jobs, store=args.cache, progress=not args.quiet
    )
    # merge the per-stage worlds into one result so the default output
    # (summary + constraint report) matches the sequential path's shape
    from repro.core.records import MFCResult

    merged = MFCResult(target_name=world.scenario.name)
    for name, outcome in zip(names, outcomes):
        result = outcome.result
        if result.aborted:
            merged.aborted = True
            merged.abort_reason = result.abort_reason
        elif name in result.stages:
            merged.stages[name] = result.stage(name)
            merged.live_clients = max(merged.live_clients, result.live_clients)
            merged.total_requests += result.total_requests
    if args.quiet:
        for name, outcome in zip(names, outcomes):
            if outcome.result.aborted:
                print(f"{name}\tABORTED: {outcome.result.abort_reason}")
            elif name in outcome.result.stages:
                print(f"{name}\t{merged.stage(name).describe()}")
            else:
                print(f"{name}\tskipped (no qualifying object)")
        return 1 if merged.aborted else 0
    return _report_result(merged, quiet=False)


def cmd_campaign(args) -> int:
    # imported here so `repro list`/`run` stay import-light
    from repro.analysis import run_stage_study
    from repro.analysis.tables import TextTable
    from repro.workload.populations import (
        generate_population,
        phishing_population,
        quantcast_strata,
        startup_population,
    )

    from repro.campaign.store import ResultStore

    if args.fsck is not None:
        store = ResultStore(args.fsck)
        if not store.shard_paths():
            print(f"repro campaign --fsck: no store at {args.fsck}",
                  file=sys.stderr)
            return 1
        report = store.fsck()
        for shard in report["shards"]:
            flags = []
            if shard["corrupt"]:
                flags.append(f"CORRUPT x{shard['corrupt']}")
            if shard["torn_tail"]:
                flags.append("torn tail")
            if shard["dead_letters"]:
                flags.append(f"dead-letters {shard['dead_letters']}")
            print(
                f"{shard['path']}: {shard['lines']} lines, "
                f"{shard['live']} live record(s), "
                f"{shard['superseded']} superseded"
                + (f" [{', '.join(flags)}]" if flags else "")
            )
        totals = report["totals"]
        print(
            f"total: {totals['files']} shard(s), {totals['live']} live, "
            f"{totals['superseded']} superseded, "
            f"{totals['corrupt']} corrupt, "
            f"{totals['torn_tails']} torn tail(s), "
            f"{totals['dead_letters']} dead letter(s)"
        )
        if report["damaged"]:
            print(
                "repro campaign --fsck: mid-file corruption detected; "
                "run --compact to drop the damaged lines",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.compact is not None:
        store = ResultStore(args.compact)
        if not store.shard_paths():
            print(f"repro campaign --compact: no store at {args.compact}",
                  file=sys.stderr)
            return 1
        stats = store.compact()
        print(
            f"compacted {stats['files']} file(s): "
            f"{stats['lines_before']} lines -> "
            f"{stats['records_after']} records, "
            f"{stats['bytes_before']} -> {stats['bytes_after']} bytes "
            f"({stats['bytes_reclaimed']} reclaimed)"
        )
        return 0
    if args.population is None:
        print("repro campaign: a population is required unless --compact "
              "or --fsck is given", file=sys.stderr)
        return 2
    if args.triage and args.dry_run:
        # phase-2 jobs are chosen from phase-1 results: nothing to expand
        print("repro campaign: --dry-run cannot expand a --triage "
              "campaign (its probes depend on the indicator sweep)",
              file=sys.stderr)
        return 2

    strata_by_name = {
        "quantcast": quantcast_strata,
        "startups": startup_population,
        "phishing": phishing_population,
    }
    strata = strata_by_name[args.population](scale=args.scale)
    sites = generate_population(strata, seed=args.seed)
    config = _probe_config(args)
    fleet_spec = FleetSpec(n_clients=args.clients, unresponsive_fraction=0.05)
    if args.triage:
        return _campaign_triage(args, sites, config, fleet_spec)
    stages = (
        [STAGE_NAMES[s] for s in args.stage]
        if args.stage
        else [StageKind.BASE]
    )
    if args.dry_run:
        # expansion smoke: job counts and the key digest must be stable
        # run-to-run for a given population/scale/seed (CI asserts this)
        counts = ", ".join(
            f"{spec.name}={spec.n_sites}" for spec in strata
        )
        print(f"strata: {counts} ({len(sites)} sites)")
        for stage in stages:
            spec = CampaignSpec.for_study(
                sites, stage, config=config, fleet_spec=fleet_spec, seed=args.seed
            )
            jobs = spec.expand()
            keys = [job.key for job in jobs]
            digest = hashlib.sha256("".join(keys).encode("ascii")).hexdigest()
            print(
                f"campaign {spec.name}: {len(jobs)} jobs, "
                f"{len(set(keys))} distinct keys"
            )
            print(f"keys-digest: sha256:{digest}")
        return 0
    for stage in stages:
        result = run_stage_study(
            sites,
            stage,
            config=config,
            fleet_spec=fleet_spec,
            seed=args.seed,
            jobs=args.jobs,
            cache_path=args.cache,
            progress=not args.quiet,
            batch=args.batch,
            job_timeout_s=args.job_timeout,
            retries=args.retries,
        )
        table = TextTable(
            ["stratum", "measured", "degraded", "stop <=20", "stop <=50"],
            title=(
                f"{args.population} population, {stage.value} stage "
                f"({len(sites)} sites, seed {args.seed})"
            ),
        )
        for stratum in result.strata():
            table.add_row(
                stratum,
                result.measured_count(stratum),
                f"{result.degraded_fraction(stratum) * 100:.0f}%",
                f"{result.fraction_stopping_at_or_below(20, stratum) * 100:.0f}%",
                f"{result.fraction_stopping_at_or_below(50, stratum) * 100:.0f}%",
            )
        print(table.render())
        print()
    return 0


def _campaign_triage(args, sites, config, fleet_spec) -> int:
    """``repro campaign --triage``: the two-phase path over a population."""
    from repro.analysis.tables import TextTable
    from repro.campaign.triage import iter_triage

    per_stratum: dict = {}
    indicator_requests = active_requests = 0
    for record in iter_triage(
        sites,
        config=config,
        fleet_spec=fleet_spec,
        seed=args.seed,
        margin=args.triage_threshold,
        jobs=args.jobs,
        batch=args.batch,
        store=args.cache,
        progress=not args.quiet,
        job_timeout_s=args.job_timeout,
        retries=args.retries,
    ):
        row = per_stratum.setdefault(
            record.stratum or "-",
            {"sites": 0, "confident": 0, "ambiguous": 0, "clean": 0,
             "probed": 0, "stops": 0, "requests": 0},
        )
        row["sites"] += 1
        # labels beyond the classifier's three ("dead-letter" under a
        # timeout/retry policy, future additions) count without a
        # dedicated column rather than crashing the rollup
        row[record.label] = row.get(record.label, 0) + 1
        row["probed"] += 1 if record.probed else 0
        row["stops"] += sum(
            1 for stop in (record.active_stops or {}).values()
            if stop is not None
        )
        row["requests"] += record.total_requests
        indicator_requests += record.indicator_requests
        active_requests += record.active_requests

    table = TextTable(
        ["stratum", "sites", "confident", "ambiguous", "clean",
         "probed", "stops", "requests"],
        title=(
            f"{args.population} population triage "
            f"({sum(r['sites'] for r in per_stratum.values())} sites, "
            f"seed {args.seed}, margin {args.triage_threshold})"
        ),
    )
    # sorted: streaming arrival order varies with --jobs parallelism,
    # the rendered table must not (CI diffs two runs of this command)
    for stratum, row in sorted(per_stratum.items()):
        table.add_row(
            stratum, row["sites"], row["confident"], row["ambiguous"],
            row["clean"], row["probed"], row["stops"], row["requests"],
        )
    print(table.render())
    dead = sum(row.get("dead-letter", 0) for row in per_stratum.values())
    if dead:
        print(f"\ndead-lettered sites: {dead} (not triaged; see the cache)")
    total = indicator_requests + active_requests
    n_sites = sum(r["sites"] for r in per_stratum.values()) or 1
    print(
        f"\nrequests: {indicator_requests} indicator + {active_requests} "
        f"active = {total} ({total / n_sites:.0f}/site)"
    )
    return 0


def cmd_triage(args) -> int:
    # imported here so `repro list`/`run` stay import-light
    from repro.campaign import decode_result, execute_job
    from repro.core.inference import classify_indicator

    scenario = SCENARIOS[args.scenario]()
    config = _probe_config(args)
    fleet_spec = FleetSpec(n_clients=args.clients)
    if args.active:
        from repro.campaign.triage import run_triage

        records = run_triage(
            [(args.scenario, scenario)],
            config=config,
            fleet_spec=fleet_spec,
            seed=args.seed,
            margin=args.margin,
            crowd_mode=args.crowd_mode,
        )
        record = records[0]
        if args.json:
            print(json.dumps(dataclasses.asdict(record), indent=2))
            return 0
        print(f"Triage record for {record.site_id}: {record.label}")
        for stage, flag in record.stage_flags.items():
            predicted = record.predicted_stops.get(stage)
            line = f"  {stage:<12} {flag:<10}"
            if predicted is not None:
                line += f" predicted ~{predicted}"
            if record.active_stops and stage in record.active_stops:
                stop = record.active_stops[stage]
                line += (
                    f" -> active: stop at {stop}"
                    if stop is not None
                    else " -> active: no stop"
                )
            print(line)
        print(
            f"requests: {record.indicator_requests} indicator "
            f"+ {record.active_requests} active"
        )
        return 0

    world = WorldSpec(
        scenario=scenario,
        fleet=fleet_spec,
        config=config,
        seed=args.seed,
        indicator=True,
    )
    job = JobSpec(f"{args.scenario}|indicator|seed{args.seed}", world)
    result = decode_result(execute_job(job))
    verdict = classify_indicator(result, config=config, margin=args.margin)
    if args.json:
        payload = dataclasses.asdict(verdict)
        payload["indicator_requests"] = result.total_requests
        print(json.dumps(payload, indent=2))
        return 0
    print(result.describe())
    print()
    print(verdict.summary())
    print(f"indicator requests: {result.total_requests}")
    return 0


def cmd_chaos(args) -> int:
    # imported here so `repro list`/`run` stay import-light
    from repro.faults.chaos import chaos_grid, format_report

    report = chaos_grid(
        faults=args.fault, crowd_mode=args.crowd_mode, **_grid_kwargs(args)
    )
    wrong = report["counts"]["silently_wrong"]
    return _finish_grid(
        args, report, format_report, wrong,
        f"repro chaos: {wrong} silently wrong verdict(s) — a fault "
        "changed an answer without downgrading it",
    )


def cmd_equiv(args) -> int:
    # imported here so `repro list`/`run` stay import-light
    from repro.worlds.equivalence import equivalence_grid, format_report

    report = equivalence_grid(**_grid_kwargs(args))
    counts = report["counts"]
    broken = counts["verdict_mismatches"] + counts["knee_out_of_tolerance"]
    return _finish_grid(
        args, report, format_report, broken,
        f"repro equiv: {broken} cohort/exact disagreement(s) — "
        "aggregation changed an experiment's answer",
    )


def _project_root_for(path: str) -> Optional[str]:
    """Nearest ancestor of *path* (inclusive) that looks like a
    project root (has ``.git`` or ``pyproject.toml``); None if the
    walk reaches the filesystem root without finding one."""
    current = path
    while True:
        if os.path.exists(os.path.join(current, ".git")) or os.path.exists(
            os.path.join(current, "pyproject.toml")
        ):
            return current
        parent = os.path.dirname(current)
        if parent == current:
            return None
        current = parent


def _cmd_perf_profile(args) -> int:
    """``repro perf --profile KEY``: cProfile one registered bench.

    The bench runs once under the profiler (its record — timing and
    fingerprint — is reported but not written to the BENCH payloads:
    profiled wall times are not comparable to suite wall times).  The
    digest is the top-N functions by cumulative time plus their
    callers, which is the view that answers "where does an epoch's
    wall clock go" without a second tool.
    """
    import cProfile
    import io
    import pstats

    from repro.perf.benches import bench_factories

    factories = bench_factories(quick=args.quick)
    key = args.profile
    if key not in factories:
        print(
            f"perf --profile: unknown bench {key!r} (have: "
            + ", ".join(sorted(factories))
            + ")",
            file=sys.stderr,
        )
        return 2
    print(f"repro perf: profiling {key} ...", flush=True)
    profiler = cProfile.Profile()
    profiler.enable()
    record = factories[key]()
    profiler.disable()

    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats("cumulative")
    buf.write(f"bench {key}: seconds={record.get('seconds'):.4f} "
              f"fingerprint={record.get('fingerprint')}\n\n")
    buf.write(f"top {args.profile_lines} by cumulative time\n")
    stats.print_stats(args.profile_lines)
    buf.write(f"\ncallers of the top {args.profile_lines}\n")
    stats.print_callers(args.profile_lines)
    digest = buf.getvalue()

    os.makedirs(args.out, exist_ok=True)
    artifact = os.path.join(
        args.out, f"PROFILE_{key.replace('/', '_')}.txt"
    )
    with open(artifact, "w") as fh:
        fh.write(digest)
    print(digest)
    print(f"profile written: {artifact}")
    return 0


def cmd_perf(args) -> int:
    if args.profile:
        return _cmd_perf_profile(args)

    # imported here so `repro list`/`run` stay import-light
    from repro.perf import (
        BASELINE_FILENAME,
        compare_to_baseline,
        find_regressions,
        load_bench_file,
        write_bench_file,
    )
    from repro.perf.baseline import render_comparison
    from repro.perf.benches import bench_factories

    benches = {}
    for key, factory in bench_factories(quick=args.quick).items():
        print(f"repro perf: measuring {key} ...", flush=True)
        benches[key] = factory()
    # the substrate benches (kernel, allocator) and the end-to-end ones
    # (worlds, campaigns, triage) keep separate payload files
    kernel = {
        key: record for key, record in benches.items()
        if key.startswith(("kernel.", "allocator."))
    }
    world = {key: record for key, record in benches.items() if key not in kernel}

    write_bench_file(os.path.join(args.out, "BENCH_kernel.json"), kernel)
    write_bench_file(os.path.join(args.out, "BENCH_world.json"), world)
    if not args.no_root_mirror and not args.quick:
        # root-level copies record the cross-PR perf trajectory next to
        # README/ROADMAP, where successive PRs are expected to commit
        # them; the root is resolved from the --out path (not the cwd).
        # Quick smoke runs never mirror — they must not replace the
        # committed full-suite trajectory with .quick payloads.
        root = _project_root_for(os.path.abspath(args.out))
        if root is not None and root != os.path.abspath(args.out):
            write_bench_file(os.path.join(root, "BENCH_kernel.json"), kernel)
            write_bench_file(os.path.join(root, "BENCH_world.json"), world)
    baseline_path = (
        args.baseline
        if args.baseline is not None
        else os.path.join(args.out, BASELINE_FILENAME)
    )
    if args.update_baseline:
        existing = load_bench_file(baseline_path) or {}
        existing.update(benches)
        write_bench_file(baseline_path, existing)
        print(f"baseline updated: {baseline_path}")
        return 0

    baseline = load_bench_file(baseline_path)
    rows = compare_to_baseline(benches, baseline)
    print(render_comparison(rows))
    drifted = [r["key"] for r in rows if r["fingerprint_match"] is False]
    if drifted:
        print(
            "determinism drift vs baseline in: " + ", ".join(drifted),
            file=sys.stderr,
        )
        return 1
    checked = [r["key"] for r in rows if r["fingerprint_match"] is True]
    if baseline is not None and not checked:
        # fail closed: a baseline exists but no fingerprinted bench was
        # comparable (params changed / bench renamed without
        # --update-baseline), i.e. the determinism guard checked nothing
        print(
            "no fingerprinted bench matched a baseline entry; "
            f"refresh {baseline_path} with --update-baseline",
            file=sys.stderr,
        )
        return 1
    if args.check:
        if baseline is None:
            # a gate with nothing to gate against must fail loudly
            print(
                f"perf --check: no baseline at {baseline_path}; "
                "record one with --update-baseline",
                file=sys.stderr,
            )
            return 1
        gated_rows = rows
        if args.check_keys:
            prefixes = tuple(args.check_keys)
            gated_rows = [r for r in rows if r["key"].startswith(prefixes)]
        regressions = find_regressions(gated_rows, args.max_regression)
        if regressions:
            for reg in regressions:
                print(
                    f"perf regression: {reg['key']} {reg['slowdown']:.2f}x "
                    f"baseline ({reg['seconds']:.4f}s vs "
                    f"{reg['baseline_seconds']:.4f}s, allowed "
                    f"{1.0 + args.max_regression:.2f}x)",
                    file=sys.stderr,
                )
            return 1
        compared = sum(1 for r in gated_rows if r["baseline_seconds"] is not None)
        if compared == 0:
            # fail closed: a gate that compared nothing gates nothing
            # (typo'd --check-keys prefix, renamed benches, params drift)
            print(
                "perf --check: no bench was comparable to a baseline "
                "entry (check --check-keys prefixes and baseline params)",
                file=sys.stderr,
            )
            return 1
        print(
            f"perf check ok: {compared} bench(es) within "
            f"{args.max_regression * 100:.0f}% of baseline"
        )
        return 0
    if baseline is None:
        print(f"no baseline at {baseline_path}; record one with --update-baseline")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    bad = _check_stores(args)
    return bad if bad is not None else args.func(args)


if __name__ == "__main__":
    sys.exit(main())
