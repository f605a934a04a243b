"""The tracer: self-time arithmetic, wrapper coverage, untraced runs."""

import argparse
import json
import time

import pytest

import run
import speed
import tracing
import workloads
from tracing import covered_length, self_times


def span(name, start, end, parent=-1):
    return (name, start, end, parent, "u")


def test_nested_children_are_subtracted_at_each_level():
    spans = [
        span("root", 0.0, 10.0),
        span("child", 1.0, 5.0, parent=0),
        span("grandchild", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx({"root": 6.0, "child": 3.0, "grandchild": 1.0})


def test_adjacent_children_each_count_once():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 2.0, 4.0, parent=0),
        span("b", 4.0, 7.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx({"root": 5.0, "a": 2.0, "b": 3.0})


def test_overlapping_children_cover_their_union_only():
    # children from two worker processes under one parent can overlap
    spans = [
        span("root", 0.0, 10.0),
        span("w", 1.0, 6.0, parent=0),
        span("w", 4.0, 8.0, parent=0),
        span("w", 5.0, 5.5, parent=0),
    ]
    times = self_times(spans)
    assert times["root"] == pytest.approx(10.0 - 7.0)
    assert times["w"] == pytest.approx(5.0 + 4.0 + 0.5)


def test_children_are_clipped_to_their_parent():
    assert covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered_length([], 0.0, 1.0) == 0.0


def test_recorded_spans_sum_to_the_root():
    tracer = tracing.Tracer()
    tracer.begin_unit("site")
    with tracer.span("root"):
        for _ in range(3):
            with tracer.span("leaf"):
                time.sleep(0.001)
    record = tracer.end_unit()
    total = sum(record["self_s"].values())
    assert record["spans"] == 4
    assert tracer.spans == []
    assert total == pytest.approx(tracer.self_s["root"] + tracer.self_s["leaf"])
    assert tracer.self_s["leaf"] >= 0.003


def test_generator_proxy_times_each_resumption_and_forwards_throw():
    tracer = tracing.Tracer()

    def gen():
        got = yield 1
        try:
            yield got
        except KeyError:
            yield "caught"
        return "done"

    proxy = tracing._resumed(tracer, "g", gen())
    assert next(proxy) == 1
    assert proxy.send(7) == 7
    assert proxy.throw(KeyError()) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(proxy)
    assert stop.value.value == "done"
    assert [s[0] for s in tracer.spans] == ["g"] * 4
    assert tracer.stack == []


#: wrapped target -> the workload meant to load it
EXPECTED_LOAD = {
    "Simulator.run_until_complete": "exact_registry",
    "Simulator.call_at": "exact_registry",
    "Simulator.call_in": "exact_registry",
    "Simulator.schedule": "exact_registry",
    "Simulator.timeout": "exact_registry",
    "Simulator.at_instant_end": "exact_registry",
    "Network.start_transfer": "exact_registry",
    "SimWebServer.submit": "exact_registry",
    "SimWebServer._handle": "exact_registry",
    "ServerResources.consume_cpu": "exact_registry",
    "ServerResources.read_disk": "exact_registry",
    "EpochPlanner.next_epoch": "exact_registry",
    "EpochPlanner.record": "exact_registry",
    "BisectKnee.record": "survey",
    "coordinator.group_cohorts": "cohort_crowd",
    "coordinator.epoch_drain_s": "cohort_crowd",
    "coordinator.epoch_ramp_fraction": "cohort_crowd",
    "coordinator.synthesize_cohort_reports": "cohort_crowd",
    "FaultInjector.client_down": "exact_registry",
    "FaultInjector.request_disposition": "exact_registry",
    "FaultInjector.report_lost": "exact_registry",
    "triage.classify_indicator": "survey",
    "IndicatorRunner.run": "survey",
    "triage.iter_triage": "survey",
    "WorldSpec.build": "exact_registry",
    "fleet.build_fleet": "exact_registry",
    "populations.generate_population": "survey",
    "executor.encode_result": "survey",
    "executor.decode_result": "survey",
    "ResultStore.get": "survey",
    "triage.iter_campaign": "survey",
    "ResultStore.append_batch": "survey",
    "executor.auto_batch_size": "survey",
    "executor.execute_job": "survey",
    "TextTable.render": "survey",
}

#: small inputs that still reach every seam of each workload
SMALL_SITES = {
    "exact_registry": [("univ1", 0), ("univ1+report-loss", 0), ("qtnp+storm", 1), ("budget-vps+dropout", 0)],
    "cohort_crowd": [("n2000-cap200-step50", 0)],
}


def traced_calls(workload, tmp_path):
    tracer = tracing.Tracer(sink_dir=tmp_path)
    patches = tracing.install(tracer)
    targets = patches.targets
    try:
        if workload == "survey":
            workloads.run_survey(0, {}, tmp_path, tracer, scale=0.05)
            assert tracer.collect_workers() > 0
        else:
            workloads.run_in_process(workload, SMALL_SITES[workload], {}, tracer)
    finally:
        patches.undo()
    return tracer, targets


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_wrapped_function_records_on_its_workload(workload, tmp_path):
    tracer, targets = traced_calls(workload, tmp_path)
    assert set(targets) == set(EXPECTED_LOAD), "a wrapper without a designated workload"
    silent = [t for t, w in EXPECTED_LOAD.items() if w == workload and tracer.calls[t] == 0]
    assert silent == []
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0)
    if workload == "cohort_crowd":
        assert metrics["cohort.members_per_group"] > 1
    if workload == "survey":
        assert metrics["store.fsyncs"] > 0 and metrics["dispatch.batches"] > 0
        assert metrics["codec.encode_s"] > 0 and metrics["dispatch.wait_s"] > 0


def test_undo_restores_every_original():
    from repro.sim.kernel import Simulator

    original = Simulator.__dict__["call_in"]
    patches = tracing.install(tracing.Tracer())
    assert Simulator.__dict__["call_in"] is not original
    patches.undo()
    assert Simulator.__dict__["call_in"] is original


def test_untraced_run_installs_no_wrappers(monkeypatch, capsys):
    from repro.sim.kernel import Simulator
    from repro.worlds.spec import WorldSpec

    before = (Simulator.__dict__["call_in"], WorldSpec.__dict__["build"])

    def refuse(tracer):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(tracing, "install", refuse)
    args = argparse.Namespace(
        workload="cohort_crowd", seed=3, seconds=1.0, trace=0, role="measure", t0=time.monotonic()
    )
    assert run._child(args) == 0
    raw = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert raw["layers"] is None and raw["calls"] is None
    assert all(s["ok"] for p in raw["passes"] for s in p["sites"])
    assert (Simulator.__dict__["call_in"], WorldSpec.__dict__["build"]) == before


def test_harrell_davis_percentiles():
    assert run.beta_cdf(2, 3, 0.4) == pytest.approx(0.5248)
    assert run.percentile([0.2] * 40, 75) == pytest.approx(0.2)
    assert run.percentile(list(range(101)), 50) == pytest.approx(50.0)
    # a sample with a gap at its median: the estimate blends both sides
    # instead of jumping to one of them
    gap = [1.0] * 20 + [3.0] * 20
    assert 1.5 < run.percentile(gap, 50) < 2.5


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(12) == 50
    assert run.tail_percentile(5) == 50


def test_the_run_reports_exactly_the_declared_metrics():
    declared = run.declared()
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    layers = tracing.layer_metrics(tracing.Tracer(), 1.0, 1.0)
    assert set(layers) == {m["name"] for m in declared["per_layer"]}
    site = {"site_id": "s", "seconds": 0.5, "scale": 1.0, "requests": 10, "ok": True, "verdict": "v"}
    raw = {
        "passes": [{"wall_s": 1.0, "wall_scale": 1.0, "missing": 0, "sites": [site] * 3}],
        "peak_rss_mib": 40.0,
        "speed_samples": [speed.REFERENCE_SAMPLE_S],
    }
    metrics, notes, attempted, failed = run._end_to_end(raw, [(0.3, 1.0), (0.2, 1.0), (0.4, 1.0)])
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    assert (attempted, failed, metrics["setup_s"], metrics["sites_per_s"]) == (3, 0, 0.3, 3.0)


def test_times_and_rates_are_scaled_to_the_reference_speed():
    ref = speed.REFERENCE_SAMPLE_S
    # a host twice as slow before a unit of work and as fast after it
    assert speed.Gauge.scale(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert speed.Gauge.scale(3 * ref, ref) == pytest.approx(0.5)
    slow = {"site_id": "s", "seconds": 0.5, "scale": 0.5, "requests": 10, "ok": True, "verdict": "v"}
    fast = dict(slow, seconds=0.25, scale=1.0)
    raw = {
        "passes": [
            {"wall_s": 1.5, "wall_scale": 0.5, "missing": 0, "sites": [slow] * 3},
            {"wall_s": 0.75, "wall_scale": 1.0, "missing": 0, "sites": [fast] * 3},
        ],
        "peak_rss_mib": 40.0,
        "speed_samples": [ref],
    }
    # the set-ups' own factors scale their times
    metrics, notes, _, _ = run._end_to_end(raw, [(0.6, 0.5), (0.2, 2.0), (0.8, 0.5)])
    assert metrics["setup_s"] == pytest.approx(0.4)
    assert metrics["site_s_p50"] == pytest.approx(0.25)
    assert metrics["sites_per_s"] == pytest.approx(4.0)
    assert metrics["sim_requests_per_s"] == pytest.approx(40.0)
    assert metrics["requests_per_site"] == pytest.approx(10.0)
    assert notes["raw_wall_s"] == pytest.approx(2.25)
    assert notes["speed_factor"] == pytest.approx(1.5 / 2.25)


def test_in_process_sites_are_scaled_by_the_readings_around_them():
    gauge = speed.Gauge()
    out = workloads.run_in_process("cohort_crowd", [("n2000-cap200-step50", 1)] * 2, {}, None, gauge)
    # a reading before each site and one after the last
    assert len(gauge.samples) == 3
    samples = gauge.samples
    assert out.sites[0].scale == pytest.approx(speed.Gauge.scale(samples[0], samples[1]))
    assert out.sites[1].scale == pytest.approx(speed.Gauge.scale(samples[1], samples[2]))
    scales = [s.scale for s in out.sites]
    assert min(scales) * (1 - 1e-9) <= out.wall_scale <= max(scales) * (1 + 1e-9)
