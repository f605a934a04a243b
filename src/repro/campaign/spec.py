"""Declarative experiment campaigns.

A *campaign* is a grid of independent MFC jobs — scenario × stage ×
config-variant × planner × seed — expanded into :class:`JobSpec`
entries whose order and seeding are deterministic.  Each job carries a
declarative :class:`~repro.worlds.spec.WorldSpec`, which is everything
a worker process needs to rebuild its world from scratch, plus a
*stable key*: a SHA-256 over a canonical encoding of the world, the
time limit and the release.  The key is what makes campaigns
resumable — an interrupted run skips every job whose key is already in
the result store, and repeated benchmark runs hit cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import __version__
from repro.core.config import MFCConfig
from repro.core.epochs import PlannerSpec
from repro.core.stages import StageKind, stage_named
from repro.server.presets import Scenario
from repro.workload.fleet import FleetSpec
from repro.workload.populations import PopulationSite
from repro.worlds.codec import stable_key
from repro.worlds.spec import WorldSpec

#: per-site seed stride — the historical ``run_stage_study`` formula
#: ``seed * 1_000_003 + site_index``; campaigns must reproduce it so a
#: parallel study returns byte-identical measurements
SEED_STRIDE = 1_000_003


def derive_site_seed(base_seed: int, site_index: int) -> int:
    """The study driver's per-site world seed."""
    return base_seed * SEED_STRIDE + site_index


@dataclass
class JobSpec:
    """One independent unit of campaign work: a world run to completion."""

    job_id: str
    world: WorldSpec
    time_limit_s: float = 1e7
    #: passthrough labels (site_id, stratum, ...) — never hashed
    meta: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.world, WorldSpec):
            raise TypeError(
                f"job {self.job_id!r}: world must be a WorldSpec, "
                f"got {type(self.world).__name__}"
            )

    @property
    def key(self) -> str:
        """Stable identity of this job's execution parameters."""
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = stable_key(
                {
                    # simulator behaviour can change between releases;
                    # versioning the key keeps old stores from silently
                    # replaying stale results (wipe the store, or bump
                    # __version__, after behavioural changes mid-release)
                    "repro_version": __version__,
                    "world": self.world,
                    "time_limit_s": self.time_limit_s,
                }
            )
            self.__dict__["_key"] = cached
        return cached


ScenarioLike = Union[PopulationSite, Tuple[str, Scenario], Scenario]


def _normalize_scenarios(
    scenarios: Sequence[ScenarioLike],
) -> List[Tuple[str, Scenario, Dict]]:
    """(scenario_id, scenario, extra-meta) triples in input order."""
    rows: List[Tuple[str, Scenario, Dict]] = []
    for entry in scenarios:
        if isinstance(entry, PopulationSite):
            rows.append(
                (
                    entry.site_id,
                    entry.scenario,
                    {"site_id": entry.site_id, "stratum": entry.stratum},
                )
            )
        elif isinstance(entry, Scenario):
            rows.append((entry.name, entry, {}))
        else:
            sid, scenario = entry
            rows.append((sid, scenario, {}))
    return rows


@dataclass
class CampaignSpec:
    """A named, fully expanded list of jobs."""

    name: str
    jobs: List[JobSpec] = field(default_factory=list)

    def expand(self) -> List[JobSpec]:
        """The jobs, in deterministic campaign order."""
        return list(self.jobs)

    def __len__(self) -> int:
        return len(self.jobs)

    @classmethod
    def grid(
        cls,
        name: str,
        scenarios: Sequence[ScenarioLike],
        stages: Sequence[Union[StageKind, str]],
        variants: Sequence[Tuple[str, Optional[MFCConfig]]] = (("default", None),),
        seeds: Sequence[int] = (0,),
        fleet_spec: Optional[FleetSpec] = None,
        per_site_seeding: bool = True,
        runner_kwargs: Optional[Dict] = None,
        time_limit_s: float = 1e7,
        planners: Sequence[Tuple[str, Optional[PlannerSpec]]] = (("default", None),),
    ) -> "CampaignSpec":
        """Expand seeds × variants × planners × stages × scenarios.

        Scenario entries may be :class:`PopulationSite` objects,
        ``(id, Scenario)`` pairs, or bare scenarios.  With
        *per_site_seeding* (the default) each job's world seed is
        ``base_seed * SEED_STRIDE + scenario_index`` — exactly the
        historical study seeding — otherwise the base seed is used
        unchanged for every scenario.

        Stage entries may be :class:`StageKind` members or registry
        stage *names* ("Upload", "CacheBust", ...); every cell is a world
        job selecting its one stage by name.  *planners* adds an
        epoch-strategy axis of ``(label, PlannerSpec or None)`` pairs.
        *runner_kwargs* carries extra :class:`WorldSpec` knobs
        (``use_naive_scheduling``, ``monitor_interval_s``, ...).
        """
        rows = _normalize_scenarios(scenarios)
        # axes the grid manages itself must come through their own
        # parameters, not ride in as world knobs
        reserved = sorted(
            set(runner_kwargs or {})
            & {"scenario", "fleet", "fleet_spec", "config", "seed",
               "stage_kinds", "stages", "planner"}
        )
        if reserved:
            raise ValueError(
                f"runner_kwargs may not carry grid axes: {reserved}; use "
                "the dedicated grid parameters instead"
            )
        fleet = fleet_spec if fleet_spec is not None else FleetSpec()
        jobs: List[JobSpec] = []
        for base_seed in seeds:
            for variant_name, config in variants:
                for planner_label, planner in planners:
                    # an explicit default-linear entry IS the default:
                    # fold it so the cell shares the default cell's id
                    if planner is not None and planner == PlannerSpec():
                        planner = None
                    planner_tag = "" if planner is None else f"|{planner_label}"
                    for stage in stages:
                        stage_name = (
                            stage.value
                            if isinstance(stage, StageKind)
                            else stage_named(stage).name
                        )
                        for index, (sid, scenario, extra) in enumerate(rows):
                            world = WorldSpec(
                                scenario=scenario,
                                fleet=fleet,
                                config=config if config is not None else MFCConfig(),
                                seed=(
                                    derive_site_seed(base_seed, index)
                                    if per_site_seeding
                                    else base_seed
                                ),
                                stages=(stage_name,),
                                planner=planner,
                                **dict(runner_kwargs or {}),
                            )
                            jobs.append(
                                JobSpec(
                                    job_id=(
                                        f"{sid}|{stage_name}|{variant_name}"
                                        f"|seed{base_seed}{planner_tag}"
                                    ),
                                    world=world,
                                    time_limit_s=time_limit_s,
                                    meta={
                                        "scenario_id": sid,
                                        "stage": stage_name,
                                        "variant": variant_name,
                                        "planner": planner_label,
                                        "base_seed": base_seed,
                                        "index": index,
                                        **extra,
                                    },
                                )
                            )
        return cls(name=name, jobs=jobs)

    @classmethod
    def for_study(
        cls,
        sites: Sequence[PopulationSite],
        stage: StageKind,
        config: Optional[MFCConfig] = None,
        fleet_spec: Optional[FleetSpec] = None,
        seed: int = 0,
    ) -> "CampaignSpec":
        """The §5 study as a campaign: one stage over a population."""
        return cls.grid(
            name=f"study-{stage.value}-seed{seed}",
            scenarios=sites,
            stages=(stage,),
            seeds=(seed,),
            fleet_spec=fleet_spec,
            variants=(("study", config),),
        )
