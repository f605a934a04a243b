"""Chaos harness: faults × scenarios, with a no-silent-wrong check.

The hardening contract this repo makes (ISSUE: robustness PR) is not
"faulted experiments still produce answers" — it is the paper's
non-intrusiveness/validity rule turned into an invariant: **a faulted
experiment may abort, may come back inconclusive, but must never
return a confidently wrong verdict.**

:func:`chaos_grid` runs that invariant as a grid: for each scenario a
hardened fault-free baseline world, plus one world per fault preset
(same seed, same config — the fault plan is the only difference).
Every world is an ordinary deterministic campaign job, so the grid
runs through :func:`~repro.campaign.executor.iter_campaign` — it
parallelizes, caches, and resumes like any campaign.  Per stage the
faulted verdict is compared against the baseline verdict under the
symmetric ok-rule:

    ok  ⇔  faulted == baseline
           or faulted ∈ {inconclusive, unknown}
           or baseline ∈ {inconclusive, unknown}
           or the pair disagrees only at the cap boundary

(``unknown`` covers aborted/skipped stages; a baseline that is itself
inconclusive pins nothing, so the comparison is vacuous; a stop
*exactly at* the other run's largest tested crowd overlaps its NoStop
claim to within one crowd step — see :func:`_cap_boundary`).
Anything else is *silently wrong* — the failure mode the hardened
coordinator and the inference downgrades exist to prevent — and fails
the grid.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.executor import iter_campaign
from repro.campaign.spec import JobSpec, derive_site_seed
from repro.campaign.store import ResultStore
from repro.core.config import MFCConfig
from repro.core.inference import Provisioning, infer_constraints
from repro.core.records import MFCResult, StageOutcome, StageResult
from repro.faults.spec import FAULT_PRESETS
from repro.workload.fleet import FleetSpec
from repro.worlds.registry import SCENARIO_PRESETS
from repro.worlds.spec import WorldSpec

#: verdicts that are explicitly "no confident answer" — always ok
_SOFT_VERDICTS = frozenset({Provisioning.INCONCLUSIVE, Provisioning.UNKNOWN})

#: the --quick slice: two structurally different scenarios (static
#: single box, query-heavy) × three fault families (client attrition,
#: in-flight request loss, server state loss)
QUICK_SCENARIOS = ("lab", "qtnp")
QUICK_FAULTS = ("dropout", "blackhole", "crash")


def chaos_config() -> MFCConfig:
    """The grid's world shape: small, hardened, fast.

    Chaos worlds exist to compare verdicts, not to reproduce §4
    numbers, so the crowd cap and fleet are shrunk until one world
    runs in seconds.  ``hardening=True`` is pinned explicitly so the
    fault-free baselines run the *hardened* coordinator too — the grid
    compares hardened-to-hardened, isolating the fault plan as the
    only variable.

    The check phase stays ON: with small crowds a single borderline
    epoch sits within noise of θ, and timeline perturbation from a
    fault in an *earlier* stage is enough to flip an unconfirmed
    single-epoch stop.  The paper's N−1/N/N+1 confirmation is the
    designed defense against exactly that.

    The crowd cap is chosen OFF every preset scenario's knee: a knee
    sitting exactly at the cap makes the stop-vs-NoStop call flip on
    timeline jitter alone, which would read as verdict instability the
    grid wrongly blames on the fault plan.  The registry knees sit
    near 25-30 (decisive headroom below 40) or above 45 (decisively
    clean at 40).
    """
    return MFCConfig(
        max_crowd=40,
        initial_crowd=5,
        crowd_step=5,
        min_significant_crowd=15,
        min_clients=24,
        hardening=True,
    )


def chaos_fleet() -> FleetSpec:
    """A compact, fully responsive fleet for the chaos grid.

    Sized so the client supply never caps the ramp below
    ``max_crowd``: a knee sitting exactly on the feasible cap makes
    the NoStop-vs-confirmed-stop call flip on timeline jitter, which
    reads as verdict instability the grid would wrongly blame on the
    fault plan.
    """
    return FleetSpec(n_clients=54, unresponsive_fraction=0.0)


def plan_chaos_jobs(
    scenarios: Sequence[str],
    faults: Sequence[str],
    seed: int = 0,
    config: Optional[MFCConfig] = None,
    fleet: Optional[FleetSpec] = None,
    crowd_mode: Optional[str] = None,
) -> List[JobSpec]:
    """One baseline + one world per fault, per scenario.

    ``crowd_mode="cohort"`` runs the whole grid through cohort
    aggregation — the hardening contract must hold there too, since
    large-fleet campaigns default to cohort worlds.  The job keys get
    a mode suffix so exact and cohort grids cache separately.
    """
    config = config if config is not None else chaos_config()
    fleet = fleet if fleet is not None else chaos_fleet()
    mode_suffix = f"|{crowd_mode}" if crowd_mode else ""
    jobs: List[JobSpec] = []
    for index, name in enumerate(scenarios):
        if name not in SCENARIO_PRESETS:
            raise ValueError(
                f"unknown scenario {name!r} (have: {sorted(SCENARIO_PRESETS)})"
            )
        base = WorldSpec(
            scenario=SCENARIO_PRESETS[name](),
            fleet=fleet,
            config=config,
            seed=derive_site_seed(seed, index),
            crowd_mode=crowd_mode,
        )
        jobs.append(
            JobSpec(
                f"chaos|{name}|baseline|seed{seed}{mode_suffix}",
                base,
                meta={"scenario": name, "fault": None},
            )
        )
        for fault in faults:
            if fault not in FAULT_PRESETS:
                raise ValueError(
                    f"unknown fault preset {fault!r} "
                    f"(have: {sorted(FAULT_PRESETS)})"
                )
            jobs.append(
                JobSpec(
                    f"chaos|{name}|{fault}|seed{seed}{mode_suffix}",
                    replace(base, faults=FAULT_PRESETS[fault]()),
                    meta={"scenario": name, "fault": fault},
                )
            )
    return jobs


def _verdicts(result: MFCResult) -> Dict[str, Provisioning]:
    return dict(infer_constraints(result).verdicts)


def _cap_boundary(
    a: Optional[StageResult], b: Optional[StageResult]
) -> bool:
    """True when the two stages disagree only at the edge of the
    tested crowd range.

    A stop *exactly at* the largest crowd one run tested, against a
    clean run of that same largest crowd, are overlapping claims —
    "knee = cap" vs "knee > cap", one crowd step apart.  On a site
    whose degradation ramps gradually through θ right at the cap, that
    call flips on sample noise alone (the fault-free baseline itself
    flips it across seeds), so the grid counts the pair as a boundary
    agreement rather than a silent wrong.  A stop strictly *inside*
    the other run's tested range never qualifies.
    """
    if a is None or b is None:
        return False
    if {a.outcome, b.outcome} != {StageOutcome.STOPPED, StageOutcome.NO_STOP}:
        return False
    stopped, clean = (a, b) if a.outcome is StageOutcome.STOPPED else (b, a)
    return (
        stopped.stopping_crowd_size is not None
        and stopped.stopping_crowd_size >= clean.largest_crowd
    )


def chaos_grid(
    scenarios: Optional[Sequence[str]] = None,
    faults: Optional[Sequence[str]] = None,
    seed: int = 0,
    quick: bool = False,
    jobs: Optional[int] = None,
    batch: Optional[int] = None,
    store: Optional[Union[ResultStore, str]] = None,
    progress: bool = False,
    config: Optional[MFCConfig] = None,
    fleet: Optional[FleetSpec] = None,
    crowd_mode: Optional[str] = None,
) -> Dict:
    """Run the chaos grid; return the comparison report.

    The report carries per-cell ``rows`` (scenario × fault × stage),
    aggregate ``counts`` and the list of ``silently_wrong`` cells.  A
    healthy grid has ``counts["silently_wrong"] == 0`` — that is the
    assertion CI's chaos-smoke job and ``repro chaos`` make.
    ``crowd_mode="cohort"`` asserts the same contract with cohort
    aggregation on.
    """
    if scenarios is None:
        scenarios = QUICK_SCENARIOS if quick else tuple(SCENARIO_PRESETS)
    if faults is None:
        faults = QUICK_FAULTS if quick else tuple(FAULT_PRESETS)

    plan = plan_chaos_jobs(
        scenarios, faults, seed=seed, config=config, fleet=fleet,
        crowd_mode=crowd_mode,
    )
    results: Dict[Tuple[str, Optional[str]], MFCResult] = {}
    for outcome in iter_campaign(
        plan, jobs=jobs, batch=batch, store=store, progress=progress
    ):
        results[(outcome.meta["scenario"], outcome.meta["fault"])] = (
            outcome.result
        )

    rows: List[Dict] = []
    counts = {
        "worlds": len(plan),
        "compared": 0,
        "matched": 0,
        "inconclusive": 0,
        "unknown": 0,
        "boundary": 0,
        "aborted_experiments": 0,
        "silently_wrong": 0,
    }
    for name in scenarios:
        baseline = results[(name, None)]
        base_verdicts = _verdicts(baseline)
        for fault in faults:
            faulted = results[(name, fault)]
            if faulted.aborted:
                counts["aborted_experiments"] += 1
            fault_verdicts = _verdicts(faulted)
            for stage in baseline.stages:
                b = base_verdicts.get(stage, Provisioning.UNKNOWN)
                f = fault_verdicts.get(stage, Provisioning.UNKNOWN)
                stage_result = faulted.stages.get(stage)
                boundary = f != b and _cap_boundary(
                    baseline.stages.get(stage), stage_result
                )
                ok = (
                    f == b
                    or f in _SOFT_VERDICTS
                    or b in _SOFT_VERDICTS
                    or boundary
                )
                counts["compared"] += 1
                if f == b:
                    counts["matched"] += 1
                elif boundary:
                    counts["boundary"] += 1
                elif f is Provisioning.INCONCLUSIVE:
                    counts["inconclusive"] += 1
                elif f is Provisioning.UNKNOWN:
                    counts["unknown"] += 1
                if not ok:
                    counts["silently_wrong"] += 1
                rows.append(
                    {
                        "scenario": name,
                        "fault": fault,
                        "stage": stage,
                        "baseline": b.value,
                        "faulted": f.value,
                        "ok": ok,
                        "note": (
                            faulted.abort_reason
                            if faulted.aborted
                            else (stage_result.reason if stage_result else "")
                        ),
                    }
                )
    return {
        "scenarios": list(scenarios),
        "faults": list(faults),
        "seed": seed,
        "crowd_mode": crowd_mode,
        "rows": rows,
        "counts": counts,
        "silently_wrong": [row for row in rows if not row["ok"]],
    }


def format_report(report: Dict) -> str:
    """Human-readable grid digest (``repro chaos`` output)."""
    counts = report["counts"]
    lines = [
        f"chaos grid: {len(report['scenarios'])} scenario(s) × "
        f"{len(report['faults'])} fault(s), {counts['worlds']} worlds"
    ]
    for row in report["rows"]:
        mark = "ok" if row["ok"] else "SILENTLY WRONG"
        lines.append(
            f"  {row['scenario']:<12} {row['fault']:<16} "
            f"{row['stage']:<12} {row['baseline']:>12} -> "
            f"{row['faulted']:<13} {mark}"
        )
    lines.append(
        f"compared={counts['compared']} matched={counts['matched']} "
        f"inconclusive={counts['inconclusive']} unknown={counts['unknown']} "
        f"boundary={counts['boundary']} "
        f"silently_wrong={counts['silently_wrong']}"
    )
    return "\n".join(lines)
