"""The benchmark's workloads: which sites a run profiles, and how.

A workload is a list of site templates.  A run is a number of whole
passes; in every pass ``--seed`` picks one world seed per template from
a pool of :data:`POOL_SIZE` seeds, a different one in each pass, and
shuffles the order.  The committed reference
(``reference/<workload>.json``) holds the verdict of every (template,
pool seed) pair, so the run of any seed is checked site by site.  The
survey's unit is a whole population: its pool entry seeds both the
population draw and the triage run.

The program is driven only through public entry points:
``WorldSpec.build().run()`` for the in-process workloads, and
``generate_population`` plus ``iter_triage`` for the survey.
"""

from __future__ import annotations

import gc
import hashlib
import random
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.tables import TextTable
from repro.campaign import triage
from repro.campaign.store import ResultStore
from repro.core.config import MFCConfig
from repro.core.records import StageOutcome
from repro.core.stages import StageKind
from repro.server import presets
from repro.workload import populations
from repro.workload.fleet import FleetSpec
from repro.worlds.registry import FAULT_PRESETS, SCENARIO_PRESETS
from repro.worlds.spec import WorldSpec

from time import perf_counter as clock

WORKLOADS = ("exact_registry", "cohort_crowd", "survey")
#: world seeds with a committed reference verdict
POOL_SIZE = 8
#: survey populations with a committed reference; a run draws distinct
#: ones, so its mix moves less from seed to seed than single draws do
SURVEY_POOL_SIZE = 16
#: host seconds one pass takes on the reference box (2-core x86 VM);
#: a run makes ``round(seconds / nominal)`` passes, at least one
NOMINAL_PASS_S = {"exact_registry": 6.8, "cohort_crowd": 3.5, "survey": 1.7}

# -- exact_registry: every registry scenario, clean and under a fault --------

EXACT_FAULTS = ("dropout", "report-loss", "storm")
#: 100 clients, not a few hundred: fleet size sets the per-stage base
#: measurement and liveness cost, and at 200 a pass takes 11 s, too
#: long for the three passes (60 sites) a steady p83 tail needs
EXACT_FLEET = FleetSpec(n_clients=100)
EXACT_CONFIG = MFCConfig(max_crowd=60, crowd_step=10, initial_crowd=10, min_clients=50)


def exact_templates() -> List[str]:
    names = []
    for index, name in enumerate(SCENARIO_PRESETS):
        names += [name, f"{name}+{EXACT_FAULTS[index % len(EXACT_FAULTS)]}"]
    return names


def exact_spec(template: str, world_seed: int) -> WorldSpec:
    name, _, fault = template.partition("+")
    return WorldSpec(
        scenario=SCENARIO_PRESETS[name](),
        fleet=EXACT_FLEET,
        config=EXACT_CONFIG,
        seed=world_seed,
        faults=FAULT_PRESETS[fault]() if fault else None,
    )


# -- cohort_crowd: large Large Object ramps as cohort macro-flows ------------

#: (fleet size, crowd cap, crowd step).  Fleet sizes step evenly from
#: 2000 to 5000 so site costs form a continuum rather than a few
#: clusters a percentile could jump between; caps alternate between
#: one below the knee (~300-500 clients: the ramp runs to the cap) and
#: one far above it (the ramp stops mid-way)
COHORT_SHAPES = (
    (2000, 200, 50),
    (2250, 1100, 100),
    (2500, 250, 50),
    (2750, 1350, 150),
    (3000, 250, 50),
    (3250, 1600, 100),
    (3500, 300, 50),
    (3750, 1850, 150),
    (4000, 300, 50),
    (4250, 2100, 200),
    (4500, 250, 50),
    (5000, 2500, 250),
)


def cohort_templates() -> List[str]:
    return [f"n{n}-cap{cap}-step{step}" for n, cap, step in COHORT_SHAPES]


def cohort_spec(template: str, world_seed: int) -> WorldSpec:
    n, cap, step = (int(part[len(tag):]) for part, tag in zip(template.split("-"), ("n", "cap", "step")))
    return WorldSpec(
        scenario=presets.qtnp_server(),
        fleet=FleetSpec(n_clients=n),
        config=MFCConfig(
            threshold_s=0.100, max_crowd=cap, crowd_step=step, initial_crowd=step, min_clients=50
        ),
        seed=world_seed,
        stage_kinds=(StageKind.LARGE_OBJECT,),
        crowd_mode="cohort",
    )


# -- survey: a mixed quantcast population through two-phase triage -----------

SURVEY_SCALE = 0.25
SURVEY_JOBS = 2
SURVEY_CONFIG = MFCConfig(threshold_s=0.100, max_crowd=50, min_clients=45)
SURVEY_FLEET = FleetSpec(n_clients=60, unresponsive_fraction=0.05)
#: dead-letter mode on: a hung job becomes a record instead of a hang
SURVEY_JOB_TIMEOUT_S = 120.0
SURVEY_RETRIES = 1

IN_PROCESS = {
    "exact_registry": (exact_templates, exact_spec),
    "cohort_crowd": (cohort_templates, cohort_spec),
}


# -- verdicts ------------------------------------------------------------------


def mfc_verdict(result) -> str:
    """Per-stage outcome and stopping size, plus the abort flag."""
    parts = []
    for name, stage in result.stages.items():
        stop = stage.stopping_crowd_size if stage.outcome is StageOutcome.STOPPED else None
        parts.append(f"{name}={stage.outcome.value}" + (f"@{stop}" if stop is not None else ""))
    if result.aborted:
        parts.append("aborted")
    return ",".join(parts)


def triage_verdict(record) -> str:
    """Triage label, probed stages and each probe's outcome and stop."""
    active = ",".join(
        f"{stage}={outcome}@{(record.active_stops or {}).get(stage)}"
        for stage, outcome in sorted((record.active_outcomes or {}).items())
    )
    return f"{record.label}|{','.join(record.probe_stages)}|{active}"


def stratum_table(records) -> str:
    """The per-stratum rollup ``repro campaign --triage`` prints."""
    rows: Dict[str, Dict[str, int]] = {}
    for record in records:
        row = rows.setdefault(
            record.stratum or "-",
            {"sites": 0, "confident": 0, "ambiguous": 0, "clean": 0,
             "probed": 0, "stops": 0, "requests": 0},
        )
        row["sites"] += 1
        row[record.label] = row.get(record.label, 0) + 1
        row["probed"] += 1 if record.probed else 0
        row["stops"] += sum(1 for stop in (record.active_stops or {}).values() if stop is not None)
        row["requests"] += record.total_requests
    table = TextTable(
        ["stratum", "sites", "confident", "ambiguous", "clean", "probed", "stops", "requests"]
    )
    for stratum, row in sorted(rows.items()):
        table.add_row(
            stratum, row["sites"], row["confident"], row["ambiguous"],
            row["clean"], row["probed"], row["stops"], row["requests"],
        )
    return table.render()


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- plans ---------------------------------------------------------------------


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def plan(workload: str, seed: int, passes: int) -> List[List[Tuple[str, int]]]:
    """Per pass, the ``(template, pool seed)`` sites in run order.

    The survey's pass is one population: ``[("population", pool seed)]``.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "survey":
        order = list(range(SURVEY_POOL_SIZE))
        rng.shuffle(order)
        return [[("population", order[i % SURVEY_POOL_SIZE])] for i in range(passes)]
    templates = IN_PROCESS[workload][0]()
    # each template's passes take distinct pool seeds, so a run's mix of
    # easy and hard worlds moves less from seed to seed
    orders = {t: rng.sample(range(POOL_SIZE), POOL_SIZE) for t in templates}
    out = []
    for index in range(passes):
        sites = [(t, orders[t][index % POOL_SIZE]) for t in templates]
        rng.shuffle(sites)
        out.append(sites)
    return out


def site_key(template: str, world_seed: int) -> str:
    return f"{template}|w{world_seed}"


# -- running -------------------------------------------------------------------


@dataclass
class SiteRun:
    site_id: str
    seconds: float
    requests: int
    ok: bool
    verdict: str
    #: host speed factor of the site's time (see ``speed.py``)
    scale: float = 1.0


@dataclass
class PassRun:
    wall_s: float
    sites: List[SiteRun] = field(default_factory=list)
    #: survey only: whether the per-stratum table matched
    table_ok: bool = True
    table_digest: Optional[str] = None
    #: survey only: sites the population had but the run never reported
    missing: int = 0
    #: host speed factor of ``wall_s``
    wall_scale: float = 1.0


def run_in_process(
    workload: str, sites, reference: Dict[str, str], tracer=None, gauge=None
) -> PassRun:
    """Profile each site in this process, timing ``build().run()``.

    Between sites, and outside the timed region, the benchmark collects
    the previous site's garbage (so the peak RSS is that of the largest
    site, not of leftovers), takes a host speed reading when given a
    *gauge* and folds the traced site's spans.  Each site's time is
    scaled by the readings just before and just after it.
    """
    make_spec = IN_PROCESS[workload][1]
    out = PassRun(wall_s=0.0)
    pass_start = clock()
    untimed_s = 0.0
    readings = []
    for template, world_seed in sites:
        between = clock()
        gc.collect()
        if gauge is not None:
            readings.append(gauge.reading())
        key = site_key(template, world_seed)
        spec = make_spec(template, world_seed)
        if tracer is not None:
            tracer.begin_unit(key)
            index = tracer.open("site")
        start = clock()
        untimed_s += start - between
        failure = None
        try:
            result = spec.build().run()
        except Exception as exc:  # noqa: BLE001 - a crashing site is a failed site
            failure = exc
        seconds = clock() - start
        if tracer is not None:
            tracer.close(index)
            tracer.end_unit()
            untimed_s += clock() - start - seconds
        if failure is not None:
            out.sites.append(SiteRun(key, seconds, 0, False, f"raised {failure!r}"))
            continue
        verdict = mfc_verdict(result)
        out.sites.append(
            SiteRun(key, seconds, result.total_requests, verdict == reference.get(key), verdict)
        )
    out.wall_s = clock() - pass_start - untimed_s
    if gauge is not None and out.sites:
        readings.append(gauge.reading())
        for site, before, after in zip(out.sites, readings, readings[1:]):
            site.scale = gauge.scale(before, after)
        raw = sum(site.seconds for site in out.sites)
        out.wall_scale = sum(site.seconds * site.scale for site in out.sites) / raw
    return out


def run_survey(
    pool_seed: int,
    reference: Dict,
    work_dir: Path,
    tracer=None,
    scale: float = SURVEY_SCALE,
    gauge=None,
) -> PassRun:
    """One population through two-phase triage into a fresh store.

    Given a *gauge*, a sampler thread takes host speed samples through
    the timed region, and the pass and its sites are scaled by them.
    """
    store_dir = work_dir / f"store-{pool_seed}"
    shutil.rmtree(store_dir, ignore_errors=True)
    if tracer is not None:
        tracer.begin_unit(f"population|w{pool_seed}")
    sampler = gauge.sampler() if gauge is not None else nullcontext()
    with sampler:
        start = clock()
        strata = populations.quantcast_strata(scale)
        sites = populations.generate_population(strata, seed=pool_seed)
        records = list(
            triage.iter_triage(
                sites,
                config=SURVEY_CONFIG,
                fleet_spec=SURVEY_FLEET,
                seed=pool_seed,
                jobs=SURVEY_JOBS,
                store=str(store_dir),
                crowd_mode="cohort",
                job_timeout_s=SURVEY_JOB_TIMEOUT_S,
                retries=SURVEY_RETRIES,
            )
        )
        with tracer.span("analysis.rollup") if tracer is not None else nullcontext():
            table = stratum_table(records)
        wall = clock() - start
    if tracer is not None:
        tracer.end_unit()
        tracer.counts["triage.probes"] += sum(len(r.probe_stages) for r in records)
        tracer.counts["triage.active_stops"] += sum(
            1 for r in records for stop in (r.active_stops or {}).values() if stop is not None
        )

    # per-site host time: the executor's own per-job timing, summed
    # over the site's indicator job and its stage probes
    seconds: Dict[str, float] = {}
    for stored in ResultStore(str(store_dir)).records():
        sid = stored["meta"].get("scenario_id")
        seconds[sid] = seconds.get(sid, 0.0) + stored.get("elapsed_s", 0.0)
    shutil.rmtree(store_dir, ignore_errors=True)

    expected = reference.get(f"w{pool_seed}", {})
    expected_sites = expected.get("sites", {})
    out = PassRun(wall_s=wall, table_digest=digest(table))
    out.table_ok = out.table_digest == expected.get("table_digest")
    for record in records:
        verdict = triage_verdict(record)
        out.sites.append(
            SiteRun(
                record.site_id,
                seconds.get(record.site_id, 0.0),
                record.total_requests,
                verdict == expected_sites.get(record.site_id),
                verdict,
            )
        )
    out.missing = max(0, len(sites) - len(records))
    if gauge is not None:
        out.wall_scale = sampler.scale()
        for site in out.sites:
            site.scale = out.wall_scale
    return out


def warm_up(workload: str) -> None:
    """One small world of the workload's kind, untimed."""
    if workload == "exact_registry":
        exact_spec("univ1", 0).build().run()
    elif workload == "cohort_crowd":
        cohort_spec(cohort_templates()[0], 0).build().run()
    else:
        site = populations.generate_population(
            populations.quantcast_strata(SURVEY_SCALE), seed=0
        )[0]
        triage.indicator_world(
            WorldSpec(scenario=site.scenario, fleet=SURVEY_FLEET, config=SURVEY_CONFIG)
        ).build().run()
