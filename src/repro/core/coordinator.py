"""The MFC coordinator (paper Figure 2(a)).

Orchestrates one experiment end-to-end:

1. **Registration / liveness** — probe every registered client; abort
   unless ≥ 50 answer within 1 s.
2. **Delay computation** (per stage) — measure ``T_coord(i)`` by ping;
   have each client measure ``T_target(i)`` and the base response time
   of its assigned object, *sequentially* so the measurements do not
   disturb each other.
3. **Epochs** — for each crowd size from the
   :class:`~repro.core.epochs.EpochPlanner`: pick participants at
   random, compute the synchronized dispatch plan, fire commands over
   the lossy control channel, wait out the epoch gap, collect whatever
   reports arrived, hand the aggregate to the planner.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.client import MFCClient, RequestCommand
from repro.core.cohort import (
    Cohort,
    CohortMeter,
    epoch_drain_s,
    epoch_ramp_fraction,
    group_cohorts,
    synthesize_cohort_reports,
)
from repro.core.config import MFCConfig
from repro.core.epochs import PlannerSpec, degradation_aggregate_sorted
from repro.core.records import (
    ClientReport,
    EpochLabel,
    EpochResult,
    MFCResult,
    StageOutcome,
    StageResult,
)
from repro.core.scheduler import DelayEstimates, SyncScheduler, naive_plan
from repro.core.stages import StagePlan
from repro.net.control import ControlChannel
from repro.server.http import Status
from repro.sim.kernel import Simulator
from repro.sim.process import Process

#: hardened: a degradation verdict whose aggregate lands this close to
#: the kill timer rests on censored (killed) samples, not on measured
#: queueing delay — genuine θ-level degradation sits orders of
#: magnitude below the 10 s timeout
CENSORED_AGGREGATE_FRACTION = 0.5
#: hardened mode: an epoch where at least this fraction of reports beat
#: their own unloaded base by more than θ is built on poisoned bases
STALE_BASE_FRACTION = 0.10
#: hardened mode: an epoch missing more than this fraction of its
#: scheduled reports is invalid — retried, never fed to the planner
MAX_EPOCH_ATTRITION = 0.5
#: hardened mode: retries per invalid epoch before aborting the stage
EPOCH_RETRY_LIMIT = 2
#: hardened mode: consecutive failed unloaded health probes before the
#: safety abort backs off (the paper's non-intrusiveness rule)
SAFETY_ABORT_CHECKS = 2


class Coordinator:
    """Single coordinator driving a fleet of MFC clients."""

    def __init__(
        self,
        sim: Simulator,
        clients: Sequence[MFCClient],
        control: ControlChannel,
        config: MFCConfig,
        target_name: str = "target",
        rng: Optional[random.Random] = None,
        use_naive_scheduling: bool = False,
        planner: Optional[PlannerSpec] = None,
        hardened: bool = False,
        crowd_mode: str = "exact",
        network=None,
        cohort_rng: Optional[random.Random] = None,
    ) -> None:
        config.validate()
        self.sim = sim
        self.clients = list(clients)
        #: live-target defenses: re-liveness with quarantine, invalid
        #: epoch retry, safety-abort guard.  Off (the default) keeps the
        #: event/RNG sequence byte-identical to the unhardened seed.
        self.hardened = hardened
        #: client ids the last re-liveness check could not reach
        self._quarantined: set = set()
        self.control = control
        self.config = config
        self.target_name = target_name
        #: epoch-progression strategy (default: the paper's linear ramp)
        self.planner = planner if planner is not None else PlannerSpec()
        # probe-instantiate so bad parameter *values* (not just names)
        # surface at world-build time, not epochs into the run
        self.planner.make(config)
        self._rng = rng if rng is not None else random.Random(0)
        #: ablation knob: dispatch all commands immediately instead of
        #: using the synchronization arithmetic
        self.use_naive_scheduling = use_naive_scheduling
        self.scheduler = SyncScheduler(config.stagger_interval_s)
        #: "cohort": homogeneous crowd members collapse into weighted
        #: macro-flows (see :mod:`repro.core.cohort`); needs the fluid
        #: network for macro-flow pipes — synthetic-service worlds pass
        #: network=None and silently stay exact
        self.crowd_mode = crowd_mode if network is not None else "exact"
        self.network = network
        self._cohort_rng = (
            cohort_rng if cohort_rng is not None else random.Random(0)
        )
        #: cohort key → dedicated macro-flow access link, reused across
        #: epochs with per-epoch capacity = weight × member access bps
        self._cohort_pipes: Dict[Tuple, object] = {}
        self._mailbox: Dict[Tuple[str, int], List[ClientReport]] = {}
        self._epoch_seq = 0
        for client in self.clients:
            client.report_sink = self._deliver_report

    # -- public API -----------------------------------------------------------

    def run(self, stages: Sequence[StagePlan]) -> Process:
        """Run the full experiment; the process returns an MFCResult."""
        return self.sim.process(self._experiment(list(stages)))

    # -- report plumbing ----------------------------------------------------------

    def _deliver_report(self, payload: Tuple[Tuple[str, int], ClientReport]) -> None:
        epoch_key, report = payload
        self._mailbox.setdefault(epoch_key, []).append(report)

    # -- experiment ------------------------------------------------------------------

    def _experiment(self, stages: List[StagePlan]) -> Generator:
        result = MFCResult(target_name=self.target_name, started_at=self.sim.now)

        live = yield from self._liveness_check()
        result.live_clients = len(live)
        if len(live) < self.config.min_clients:
            result.aborted = True
            result.abort_reason = (
                f"only {len(live)} live clients "
                f"(need {self.config.min_clients}); experiment aborted"
            )
            result.ended_at = self.sim.now
            return result

        for stage in stages:
            stage_result = yield from self._run_stage(stage, live)
            result.stages[stage.name] = stage_result
            result.total_requests += stage_result.total_requests
        result.ended_at = self.sim.now
        return result

    def _liveness_check(self) -> Generator:
        """Probe every client; keep those answering within the window."""
        answered: List[str] = []
        for client in self.clients:
            client.probe(answered.append)
        yield self.config.liveness_timeout_s
        alive = set(answered)
        return [c for c in self.clients if c.client_id in alive]

    # -- per stage --------------------------------------------------------------------

    def _run_stage(self, stage: StagePlan, live: List[MFCClient]) -> Generator:
        stage_result = StageResult(
            stage_name=stage.name,
            outcome=StageOutcome.ABORTED,
            started_at=self.sim.now,
        )
        try:
            yield from self._stage_body(stage, live, stage_result)
        except Exception as exc:  # noqa: BLE001 — commit partials, keep going
            # a mid-stage failure must never eat the epochs already run
            # or leave a bare ABORTED with no explanation: the epochs
            # appended so far stay committed on stage_result, and the
            # reason names the failure
            stage_result.outcome = StageOutcome.ABORTED
            stage_result.reason = (
                f"stage exception: {exc!r} "
                f"({len(stage_result.epochs)} epochs committed)"
            )
        stage_result.ended_at = self.sim.now
        return stage_result

    def _stage_body(
        self, stage: StagePlan, live: List[MFCClient], stage_result: StageResult
    ) -> Generator:
        """Delay computation plus the epoch loop, appending onto
        *stage_result* as results land (so an abort at any point keeps
        everything already observed).

        Unhardened, the pool is always the whole live fleet, so the
        feasible-crowd clamp, the attrition abort and the truncated-cap
        annotation change nothing.  Hardened mode adds re-liveness,
        poisoned-base quarantine, post-epoch vetting and the sample
        filter in :meth:`_finish_epoch`.
        """
        if self.hardened:
            # a client that died since registration must not hold up
            # the sequential measurement phase
            yield from self._reliveness(live, stage_result)
        # object assignment is positional in *live*, which is fixed for
        # the stage: one id -> position index serves every epoch
        index_of = {c.client_id: i for i, c in enumerate(live)}
        estimates = yield from self._measure_bases(
            stage, live, index_of, stage_result
        )
        planner = self.planner.make(
            self.config,
            max_feasible_crowd=len(live) * self.config.requests_per_client,
        )
        sick_streak = 0
        while True:
            pool = self._pool(live, estimates)
            # the feasible crowd tracks the *pool*, not the
            # registration-time fleet: a quarantine-shrunken pool would
            # otherwise run epochs clamped below the requested crowd,
            # and the planner — advancing from the clamped size — would
            # re-request the same crowd forever
            planner.max_feasible_crowd = min(
                self.config.max_crowd, len(pool) * self.config.requests_per_client
            )
            nxt = planner.next_epoch()
            if nxt is None:
                break
            crowd, label = nxt
            attempts = 0
            while True:
                if len(pool) < self.config.min_clients:
                    stage_result.reason = (
                        f"attrition: only {len(pool)} active clients "
                        f"(need {self.config.min_clients})"
                    )
                    return
                epoch = yield from self._run_epoch(
                    stage, crowd, label, index_of, pool, estimates
                )
                stage_result.epochs.append(epoch)
                # crowd counts synchronized commands; churn stages issue
                # `connections` sequential server requests per command
                stage_result.total_requests += crowd * stage.connections
                if not self.hardened:
                    break
                problem = self._epoch_problem(epoch)
                stale_problem = None
                if problem is None:
                    problem = stale_problem = self._stale_bases(epoch)
                if problem is None and epoch.degraded:
                    # validity gate (the paper's crowd-causality rule):
                    # degradation only counts as a signal if the site
                    # is healthy *without* the crowd — an unloaded
                    # probe degraded too means ambient interference
                    # (latency storm, middleware stall), not queueing
                    healthy = yield from self._health_probe(
                        stage, index_of, pool, stage_result, epoch
                    )
                    if not healthy:
                        sick_streak += 1
                        if sick_streak >= SAFETY_ABORT_CHECKS:
                            stage_result.reason = (
                                "safety abort: baseline health degraded "
                                f"under no load ({sick_streak} consecutive "
                                "sick probes); backing off "
                                "(non-intrusiveness)"
                            )
                            return
                        problem = (
                            "ambient degradation: the unloaded baseline "
                            "probe is degraded too, so the epoch's signal "
                            "is not crowd-caused"
                        )
                if problem is None:
                    sick_streak = 0
                    if (
                        epoch.crowd_size
                        >= self.config.min_significant_crowd
                    ):
                        # only verdict-bearing epochs count: one noisy
                        # sample out of a 5-request warm-up epoch is
                        # 20% "attrition" that says nothing about the
                        # crowds the stopping rule actually reads
                        stage_result.max_missing_fraction = max(
                            stage_result.max_missing_fraction,
                            self._epoch_attrition(epoch),
                        )
                        if (
                            not epoch.degraded
                            and epoch.aggregate_normalized_s < 0
                        ):
                            # a healthy epoch's aggregate quantile has
                            # no business being negative: its magnitude
                            # reads the stage's sample noise directly
                            stage_result.signal_noise_fraction = max(
                                stage_result.signal_noise_fraction,
                                -epoch.aggregate_normalized_s
                                / self.config.threshold_s,
                            )
                    # re-check liveness after every accepted epoch
                    # (planner.record takes no simulated time and draws
                    # no randomness, so it may follow)
                    yield from self._reliveness(live, stage_result)
                    break
                # invalid: keep it for the audit trail, never feed the
                # planner, re-check liveness and retry the crowd size
                epoch.label = EpochLabel.INVALID
                stage_result.invalid_epochs += 1
                attempts += 1
                if attempts > EPOCH_RETRY_LIMIT:
                    stage_result.reason = (
                        f"invalid epoch at crowd {crowd} after "
                        f"{attempts} attempts: {problem}"
                    )
                    return
                yield from self._reliveness(live, stage_result)
                if stale_problem is not None:
                    # the stage's base measurements are poisoned (taken
                    # during a transient inflation that has passed):
                    # every sample normalized against them is suspect,
                    # including the ones that don't read implausible —
                    # a stale base plus real queueing cancels into a
                    # clean-looking number that masks the knee.  The
                    # only honest recovery is fresh bases for the whole
                    # pool before retrying the crowd.
                    estimates = yield from self._measure_bases(
                        stage, live, index_of, stage_result
                    )
                pool = self._pool(live, estimates)
            planner.record(epoch)

        stage_result.outcome = planner.outcome or StageOutcome.NO_STOP
        stage_result.stopping_crowd_size = planner.stopping_crowd_size
        stage_result.earliest_degraded_crowd = planner.earliest_degraded_crowd
        stage_result.reason = planner.reason
        if stage_result.outcome is StageOutcome.NO_STOP and (
            planner.max_feasible_crowd
            < min(self.config.max_crowd, len(live) * self.config.requests_per_client)
        ):
            # the cap the planner actually hit was attrition-shrunken:
            # "no stop up to N" with N below what the fleet supported
            # must not pass as evidence of adequacy
            stage_result.truncated_crowd_cap = planner.max_feasible_crowd

    def _measure_bases(
        self,
        stage: StagePlan,
        live: List[MFCClient],
        index_of: Dict[str, int],
        stage_result: StageResult,
    ) -> Generator:
        """Base measurements for every client not quarantined; hardened
        mode then drops the clients whose base hit the kill timer."""
        estimates = yield from self._delay_computation(
            stage, live, index_of, frozenset(self._quarantined)
        )
        # one command per client, each issuing the stage's full
        # connection count against the server
        stage_result.total_requests += len(estimates) * stage.connections
        if self.hardened:
            self._quarantine_poisoned_bases(stage, live, estimates, stage_result)
        return estimates

    # -- hardening helpers ------------------------------------------------------------

    def _reliveness(
        self, live: List[MFCClient], stage_result: StageResult
    ) -> Generator:
        """Re-probe the fleet mid-experiment; quarantine non-responders.

        The quarantine set is fully re-derived each check, so a client
        that answers again (dropout window closed) rejoins — for the
        current stage only if it still holds usable base measurements,
        otherwise at the next stage's delay computation.
        """
        answered: List[str] = []
        for client in live:
            client.probe(answered.append)
        yield self.config.liveness_timeout_s
        alive = set(answered)
        self._quarantined = {c.client_id for c in live} - alive
        stage_result.quarantined_clients = max(
            stage_result.quarantined_clients, len(self._quarantined)
        )

    def _pool(
        self, live: List[MFCClient], estimates: Dict[str, DelayEstimates]
    ) -> List[MFCClient]:
        """Clients eligible for the next epoch: responsive and holding
        trustworthy base measurements (unhardened: all of *live*)."""
        return [
            c
            for c in live
            if c.client_id not in self._quarantined and c.client_id in estimates
        ]

    def _quarantine_poisoned_bases(
        self,
        stage: StagePlan,
        live: List[MFCClient],
        estimates: Dict[str, DelayEstimates],
        stage_result: StageResult,
    ) -> None:
        """Drop clients whose base measurement hit the kill timer.

        A timed-out base poisons normalization for the whole stage
        (every later sample reads ``elapsed - timeout`` ≈ negative, i.e.
        spuriously clean), so such clients sit the stage out.
        """
        for index, client in enumerate(live):
            if client.client_id not in estimates:
                continue
            path = stage.object_for(index)
            if client.base_times.get(path, 0.0) >= self.config.request_timeout_s:
                del estimates[client.client_id]
        stage_result.quarantined_clients = max(
            stage_result.quarantined_clients,
            len(live) - len(estimates),
        )

    def _epoch_attrition(self, epoch: EpochResult) -> float:
        """Fraction of scheduled reports that produced no usable sample
        (never arrived, arrived as a sample-free connection reset, or
        read implausibly fast against a stale base)."""
        scheduled = max(epoch.crowd_size, 1)
        usable = sum(
            1
            for r in epoch.reports
            if r.status is not Status.RESET
            and r.normalized_s >= -self.config.threshold_s
        )
        return 1.0 - usable / scheduled

    def _stale_bases(self, epoch: EpochResult) -> Optional[str]:
        """Detect base measurements poisoned by a transient slowdown.

        A report whose *loaded* response beat its client's unloaded
        base by more than θ is physically implausible — the base was
        measured during some transient inflation (latency storm, stall
        window) that has since passed, and every sample it normalizes
        will read spuriously clean, masking a real knee.  When a
        nontrivial fraction of an epoch reads that way, the epoch is
        invalid; the retry path re-measures the whole pool's bases
        (a single stale reading is tolerated as measurement noise).
        """
        if not epoch.reports:
            return None
        stale = sum(
            1
            for r in epoch.reports
            if r.normalized_s < -self.config.threshold_s
        )
        floor = max(2, math.ceil(STALE_BASE_FRACTION * len(epoch.reports)))
        if stale < floor:
            return None
        return (
            f"stale base measurements: {stale} of "
            f"{len(epoch.reports)} reports came back faster loaded than "
            "unloaded"
        )

    def _epoch_problem(self, epoch: EpochResult) -> Optional[str]:
        """Why this epoch cannot be trusted (None: it can)."""
        attrition = self._epoch_attrition(epoch)
        if attrition > MAX_EPOCH_ATTRITION:
            return (
                f"lost {attrition:.0%} of scheduled reports "
                f"(limit {MAX_EPOCH_ATTRITION:.0%})"
            )
        censor_floor = CENSORED_AGGREGATE_FRACTION * self.config.request_timeout_s
        if epoch.degraded and epoch.aggregate_normalized_s > censor_floor:
            return (
                "degradation signal rests on killed requests (aggregate "
                f"{epoch.aggregate_normalized_s:.1f}s vs the "
                f"{self.config.request_timeout_s:.0f}s kill timer)"
            )
        return None

    def _health_probe(
        self,
        stage: StagePlan,
        index_of: Dict[str, int],
        pool: List[MFCClient],
        stage_result: StageResult,
        epoch: EpochResult,
    ) -> Generator:
        """One unloaded request after a degraded epoch (paper's
        non-intrusiveness rule): if the target is slow even with no
        crowd, the degradation is not ours to probe further.

        The probes go through the clients that *carried* the
        degradation signal — the worst normalized samples of the epoch
        — not arbitrary ones: under a partial-fleet disturbance (a
        stall or latency storm hitting half the clients) an unaffected
        bystander would report the site healthy while the signal
        clients are ambiently slow, and the fake knee would be
        accepted.  Conversely one probe is not allowed to overturn the
        epoch on its own — a single unloaded request can hit transient
        server noise — so "ambient" takes two independent sick reads
        (the two worst carriers); any healthy probe accepts the epoch.
        """
        if not pool:
            return False
        by_id = {c.client_id: c for c in pool}
        reports = sorted(
            (r for r in epoch.reports if r.client_id in by_id),
            key=lambda r: r.normalized_s,
            reverse=True,
        )
        probers: List[MFCClient] = []
        for report in reports:
            client = by_id[report.client_id]
            if client not in probers:
                probers.append(client)
            if len(probers) == 2:
                break
        if not probers:
            probers = [pool[0]]
        for client in probers:
            status, normalized = yield from client.probe_unloaded(
                stage.object_for(index_of[client.client_id]),
                stage.method,
                body_bytes=stage.body_bytes,
                connections=stage.connections,
            )
            stage_result.total_requests += stage.connections
            if status is Status.OK and normalized <= self.config.threshold_s:
                return True
        return False

    def _delay_computation(
        self,
        stage: StagePlan,
        live: List[MFCClient],
        index_of: Dict[str, int],
        skip: frozenset,
    ) -> Generator:
        """Measure T_coord / T_target / base response times (§2.2.4).

        *skip* (hardened re-liveness quarantine) names clients left out
        of the sequential measurements — an unreachable client must not
        stall the phase for a kill-timer interval per probe.  Object
        assignment stays indexed by position in *live*, so skipping
        never shifts anyone else's object.
        """
        estimates: Dict[str, DelayEstimates] = {}
        # T_coord: coordinator pings every client in parallel
        coord_rtts: Dict[str, float] = {}
        for client in live:
            self.control.ping(
                client.node.latency_to_coord,
                lambda rtt, cid=client.client_id: coord_rtts.setdefault(cid, rtt),
            )
        yield self.config.liveness_timeout_s

        if self.crowd_mode == "cohort":
            yield from self._measure_cohorts(
                stage, live, index_of, skip, coord_rtts, estimates
            )
            return estimates

        # T_target + base response times: strictly sequential so the
        # measurements do not impact each other (§2.2.3)
        for index, client in enumerate(live):
            if client.client_id in skip:
                continue
            target_rtt = yield from client.measure_target_rtt()
            path = stage.object_for(index)
            yield from client.measure_base(
                [path],
                stage.method,
                body_bytes=stage.body_bytes,
                connections=stage.connections,
            )
            estimates[client.client_id] = DelayEstimates(
                client_id=client.client_id,
                coord_rtt_s=coord_rtts.get(
                    client.client_id, client.node.latency_to_coord.base_rtt
                ),
                target_rtt_s=target_rtt,
            )
        return estimates

    def _measure_cohorts(
        self,
        stage: StagePlan,
        live: List[MFCClient],
        index_of: Dict[str, int],
        skip: frozenset,
        coord_rtts: Dict[str, float],
        estimates: Dict[str, DelayEstimates],
    ) -> Generator:
        """Cohort-mode delay computation: one real sequential
        T_target + base measurement per *cohort* (the representative);
        members get an RTT draw from their own latency stream and a
        base synthesized from the representative's, shifted by the RTT
        difference — every live member still lands in *estimates* so
        the hardened pool-eligibility logic sees the full fleet."""
        eligible = [c for c in live if c.client_id not in skip]
        for cohort in group_cohorts(eligible, index_of, stage):
            rep = cohort.rep
            rep_rtt = yield from rep.measure_target_rtt()
            rep_path = cohort.paths[rep.client_id]
            yield from rep.measure_base(
                [rep_path],
                stage.method,
                body_bytes=stage.body_bytes,
                connections=stage.connections,
            )
            rep_base = rep.base_times[rep_path]
            for member in cohort.members:
                if member is rep:
                    target_rtt = rep_rtt
                else:
                    # zero-sim-time draw from the member's own latency
                    # stream: distributionally exact (spikes included)
                    target_rtt = member.node.latency_to_target.sample_rtt()
                    member.measured_target_rtt = target_rtt
                    member.base_times[cohort.paths[member.client_id]] = max(
                        0.0,
                        rep_base
                        + 2.0 * stage.connections * (target_rtt - rep_rtt),
                    )
                estimates[member.client_id] = DelayEstimates(
                    client_id=member.client_id,
                    coord_rtt_s=coord_rtts.get(
                        member.client_id, member.node.latency_to_coord.base_rtt
                    ),
                    target_rtt_s=target_rtt,
                )

    # -- per epoch --------------------------------------------------------------------

    def _select_participants(
        self, live: List[MFCClient], n_clients: int
    ) -> List[MFCClient]:
        if self.config.random_client_selection:
            return self._rng.sample(live, n_clients)
        return live[:n_clients]

    def _run_epoch(
        self,
        stage: StagePlan,
        crowd: int,
        label: EpochLabel,
        index_of: Dict[str, int],
        pool: List[MFCClient],
        estimates: Dict[str, DelayEstimates],
    ) -> Generator:
        """One epoch: draw participants, plan the synchronized dispatch,
        fire the commands, wait out the drain window, collect reports.

        Cohort mode differs only in the fan-out — one weighted command
        per cohort representative — and in the collection: every
        member's report is synthesized from the occupancy ledger after
        the drain instead of read from the mailbox.
        """
        self._epoch_seq += 1
        epoch_key = (stage.name, self._epoch_seq)
        m = self.config.requests_per_client
        n_clients = min(math.ceil(crowd / m), len(pool))
        participants = self._select_participants(pool, n_clients)
        scheduled_requests = n_clients * m
        cohorts: List[Cohort] = []
        senders = participants
        if self.crowd_mode == "cohort":
            cohorts = group_cohorts(participants, index_of, stage)
            senders = [c.rep for c in cohorts]

        sender_estimates = [estimates[c.client_id] for c in senders]
        now = self.sim.now
        if self.use_naive_scheduling:
            plans = naive_plan(now, sender_estimates)
            target_time = now
        else:
            target_time = (
                self.scheduler.earliest_feasible_T(now, sender_estimates)
                + self.config.schedule_lead_s
            )
            plans = self.scheduler.plan(now, target_time, sender_estimates)

        by_id = {c.client_id: c for c in senders}
        by_rep = {c.rep.client_id: c for c in cohorts}
        arrivals: Dict[Tuple, float] = {}
        for plan in plans:
            client = by_id[plan.client_id]
            weight, meter = 1, None
            cohort = by_rep.get(plan.client_id)
            if cohort is not None:
                arrivals[cohort.key] = plan.intended_arrival
                weight = cohort.weight
                cohort.meter = meter = CohortMeter(
                    cohort.weight, pipe=self._cohort_pipe(cohort)
                )
            command = RequestCommand(
                epoch_key=epoch_key,
                path=stage.object_for(index_of[client.client_id]),
                method=stage.method,
                n_parallel=m,
                body_bytes=stage.body_bytes,
                connections=stage.connections,
                weight=weight,
                meter=meter,
            )
            self.sim.call_at(
                plan.dispatch_time,
                lambda c=client, cmd=command: self.control.send(
                    c.node.latency_to_coord, c.execute_command, cmd
                ),
            )

        # wait out the epoch: commands, requests (≤10 s), reports
        drain_until = (
            max(p.intended_arrival for p in plans)
            + self.config.epoch_gap_s
            + self.config.report_slack_s
        )
        yield max(drain_until - self.sim.now, 0.0)

        # representatives never report over the control channel in
        # cohort mode, so their mailbox slot is empty and dropped here
        reports = self._mailbox.pop(epoch_key, [])
        if cohorts:
            drain = epoch_drain_s(cohorts)
            ramp = epoch_ramp_fraction(cohorts, drain)
            for cohort in cohorts:
                reports.extend(
                    synthesize_cohort_reports(
                        cohort,
                        self.config,
                        self._cohort_rng,
                        self.control.loss_prob,
                        cohort.rep.fault_gate,
                        arrivals.get(cohort.key, target_time),
                        drain,
                        connections=stage.connections,
                        ramp=ramp,
                    )
                )
                cohort.meter = None
        return self._finish_epoch(
            stage, label, scheduled_requests, n_clients, target_time, reports
        )

    def _finish_epoch(
        self,
        stage: StagePlan,
        label: EpochLabel,
        scheduled_requests: int,
        n_clients: int,
        target_time: float,
        reports: List[ClientReport],
    ) -> EpochResult:
        """Assemble the epoch record + degradation aggregate from the
        collected (or synthesized) reports."""
        epoch = EpochResult(
            index=self._epoch_seq,
            label=label,
            crowd_size=scheduled_requests,
            clients_used=n_clients,
            target_time=target_time,
            reports=reports,
            missing_reports=scheduled_requests - len(reports),
        )
        # connection resets carry no timing sample (the fault-injection
        # RESET sentinel); fault-free runs never see one, so the filter
        # is a byte-identical no-op there
        samples = [r for r in reports if r.status is not Status.RESET]
        if self.hardened:
            # a loaded response that beat its own unloaded base by more
            # than θ is physically implausible — its base was measured
            # during a transient inflation, and folding it into the
            # quantile drags the aggregate down and masks a real knee.
            # Hardened mode treats such samples as carrying no usable
            # timing information (they still count toward attrition).
            samples = [
                r for r in samples if r.normalized_s >= -self.config.threshold_s
            ]
        if samples:
            # one sort per epoch: every statistic computed over this
            # epoch's normalized times reads the same ordered sample
            ordered = sorted(r.normalized_s for r in samples)
            epoch.aggregate_normalized_s = degradation_aggregate_sorted(
                ordered, stage.degradation_quantile
            )
            epoch.degraded = epoch.aggregate_normalized_s > self.config.threshold_s
        return epoch

    # -- cohort mode -------------------------------------------------------------------

    def _cohort_pipe(self, cohort: Cohort):
        """Get or create the cohort's macro-flow access link, sized to
        the whole cohort's aggregate access capacity this epoch."""
        capacity = cohort.weight * cohort.rep.node.spec.access_bps
        pipe = self._cohort_pipes.get(cohort.key)
        if pipe is None:
            pipe = self.network.add_link(
                f"cohort:{self.target_name}:{len(self._cohort_pipes)}", capacity
            )
            self._cohort_pipes[cohort.key] = pipe
        else:
            self.network.set_capacity(pipe, capacity)
        return pipe
