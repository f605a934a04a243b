"""Dead-letter campaigns and result-store damage control.

A poison job — one that hangs past its wall-clock budget or raises on
every attempt — must never wedge a campaign: it commits a
:class:`DeadLetter` record in place of its result, the campaign runs
to completion, and a resume serves the letter from cache instead of
hanging again.  Without an opted-in policy the historical contract
holds exactly: failures raise, nothing is swallowed.
"""

import dataclasses
import json
import warnings

import pytest

from repro.campaign import (
    SUMMARY,
    CampaignSpec,
    JobSpec,
    ResultStore,
    iter_campaign,
    run_campaign,
)
from repro.campaign.codec import DeadLetter, decode_result, encode_result
from repro.campaign.executor import RetryPolicy, execute_job
from repro.campaign.store import shard_index
from repro.core.config import MFCConfig
from repro.server.presets import qtnp_server
from repro.workload.fleet import FleetSpec, lan_fleet
from repro.worlds import SyntheticSpec, WorldSpec


def job(job_id, seed=0):
    """A healthy millisecond world: one client, a one-request crowd."""
    world = WorldSpec(
        synthetic=SyntheticSpec(
            model="linear", params={"seconds_per_request": 0.001}
        ),
        fleet=lan_fleet(1),
        config=MFCConfig(
            threshold_s=0.1, max_crowd=1, initial_crowd=1, crowd_step=1,
            min_clients=1,
        ),
        seed=seed,
    )
    return JobSpec(job_id, world)


def broken_job(job_id="boom"):
    """A world that raises at build(), in any process."""
    healthy = job(job_id).world
    return JobSpec(job_id, dataclasses.replace(healthy, crowd_mode="bogus"))


def hung_job(job_id="hung"):
    """A 400-client exact-mode sweep that never stops early: ~16 s of
    wall time, far past the sub-second budgets below — the watchdog
    must cut it short."""
    return JobSpec(
        job_id,
        WorldSpec(
            scenario=qtnp_server(),
            fleet=FleetSpec(n_clients=400),
            config=MFCConfig(max_crowd=400, crowd_step=5, threshold_s=1e6),
        ),
    )


def record(key, value=0):
    return {
        "key": key,
        "job_id": key,
        "meta": {},
        "detail": SUMMARY,
        "elapsed_s": 0.1,
        "result": {"kind": "value", "value": value},
    }


# -- policy validation ------------------------------------------------------------


def test_policy_validates_and_reports_enablement():
    assert not RetryPolicy().enabled
    assert RetryPolicy(job_timeout_s=1.0).enabled
    assert RetryPolicy(retries=2).enabled
    with pytest.raises(ValueError):
        RetryPolicy(job_timeout_s=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(retry_backoff_s=-0.1)


# -- dead-letter codec ------------------------------------------------------------


def test_dead_letter_round_trips_through_the_codec():
    letter = DeadLetter(
        job_id="stuck", reason="timeout", error="JobTimeout('2s')",
        attempts=1, elapsed_s=2.001,
    )
    doc = encode_result(letter)
    assert doc["kind"] == "dead-letter"
    assert decode_result(json.loads(json.dumps(doc))) == letter


# -- hung jobs --------------------------------------------------------------------


def test_hung_job_dead_letters_and_the_campaign_completes(tmp_path):
    spec = CampaignSpec(
        name="hang", jobs=[job("ok", seed=1), hung_job(), job("ok2", seed=2)]
    )
    cache = tmp_path / "hang.cache"
    outcomes = run_campaign(spec, store=cache, job_timeout_s=0.5)
    assert [o.result for o in outcomes[::2]] == [
        decode_result(execute_job(j)) for j in spec.jobs[::2]
    ]
    letter = outcomes[1].result
    assert outcomes[1].dead
    assert isinstance(letter, DeadLetter)
    assert letter.reason == "timeout"
    assert letter.attempts == 1  # timeouts are never retried
    assert letter.elapsed_s >= 0.5

    # a resume serves the letter from cache instead of hanging again
    resumed = run_campaign(spec, store=cache, job_timeout_s=0.5)
    assert resumed[1].cached
    assert resumed[1].result == letter


def test_hung_job_dead_letters_under_the_pool(tmp_path):
    spec = CampaignSpec(
        name="hangpool",
        jobs=[hung_job()] + [job(f"ok{x}", seed=x) for x in range(3)],
    )
    for batch in (1, 2):
        outcomes = run_campaign(
            spec,
            jobs=2,
            batch=batch,
            store=tmp_path / f"b{batch}.cache",
            job_timeout_s=0.5,
        )
        assert sum(o.dead for o in outcomes) == 1
        assert outcomes[0].result.reason == "timeout"


# -- raising jobs -----------------------------------------------------------------


def test_flaky_job_recovers_within_its_retry_budget(monkeypatch):
    from repro.campaign import executor

    real_execute = executor.execute_job
    attempts = []

    def flaky(job, detail=SUMMARY):
        attempts.append(job.job_id)
        if len(attempts) <= 2:
            raise RuntimeError(f"flaky failure {len(attempts)}/2")
        return real_execute(job, detail)

    # the sequential path runs in this process, through the module global
    monkeypatch.setattr(executor, "execute_job", flaky)
    spec = CampaignSpec(name="flaky", jobs=[job("flaky")])
    outcomes = run_campaign(spec, retries=2, retry_backoff_s=0.0)
    assert attempts == ["flaky"] * 3
    assert not outcomes[0].dead
    assert outcomes[0].result == decode_result(real_execute(spec.jobs[0]))


def test_exhausted_retries_dead_letter_with_the_error(tmp_path):
    spec = CampaignSpec(name="boom", jobs=[broken_job()])
    outcomes = run_campaign(
        spec, store=tmp_path / "boom.cache", retries=1, retry_backoff_s=0.0
    )
    letter = outcomes[0].result
    assert isinstance(letter, DeadLetter)
    assert letter.reason == "error"
    assert letter.attempts == 2
    assert "crowd_mode must be" in letter.error


def test_without_a_policy_failures_still_raise():
    spec = CampaignSpec(name="boom", jobs=[broken_job()])
    with pytest.raises(ValueError, match="crowd_mode must be"):
        list(iter_campaign(spec))


# -- store corruption edges -------------------------------------------------------


def test_empty_shard_file_is_harmless(tmp_path):
    store = ResultStore(tmp_path / "cache.d")
    store.append(record("aa"))
    empty = store.shard_path(3)
    empty.touch()
    reloaded = ResultStore(tmp_path / "cache.d")
    assert len(reloaded) == 1
    report = reloaded.fsck()
    assert not report["damaged"]
    assert report["totals"]["files"] == 2


def test_torn_tail_at_a_batch_append_boundary(tmp_path):
    store = ResultStore(tmp_path / "cache.d")
    # one batch, one shard: "aa.." keys all route to the same file
    store.append_batch([record(f"aa{i:02d}", value=i) for i in range(4)])
    path = store.shard_path(shard_index("aa01"))
    text = path.read_text()
    # tear the last record mid-write, exactly as a kill mid-batch would
    path.write_text(text[: text.rindex('"value"') + 9])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a torn tail is normal wear
        reloaded = ResultStore(tmp_path / "cache.d")
        assert len(reloaded) == 3
    report = reloaded.fsck()
    assert not report["damaged"]
    assert report["totals"]["torn_tails"] == 1


def test_fsck_flags_mid_file_damage_and_counts_dead_letters(tmp_path):
    store = ResultStore(tmp_path / "cache.d")
    letter = DeadLetter(job_id="stuck", reason="timeout")
    store.append_batch(
        [
            record("aa01"),
            {**record("aa02"), "result": encode_result(letter)},
            record("aa03"),
        ]
    )
    path = store.shard_path(shard_index("aa01"))
    lines = path.read_text().splitlines()
    lines[1] = '{"broken'
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = ResultStore(tmp_path / "cache.d").fsck()
    assert report["damaged"]
    assert report["totals"]["corrupt"] == 1
    (shard,) = report["shards"]
    assert shard["corrupt"] == 1

    # intact store for comparison: the letter counts, nothing damages
    clean = ResultStore(tmp_path / "clean.d")
    clean.append_batch(
        [record("aa01"), {**record("aa02"), "result": encode_result(letter)}]
    )
    report = clean.fsck()
    assert not report["damaged"]
    assert report["totals"]["dead_letters"] == 1
