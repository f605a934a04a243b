"""Unit tests for the perf benches, baseline machinery and perf gate."""

import json

import pytest

from repro.perf import (
    bench_allocator,
    bench_allocator_sync_crowd,
    bench_kernel_cascade,
    bench_kernel_timers,
    compare_to_baseline,
    find_regressions,
    load_bench_file,
    write_bench_file,
)
from repro.perf.baseline import render_comparison


def test_kernel_benches_report_throughput():
    rec = bench_kernel_timers(n_events=2_000, repeats=1)
    assert rec["events"] == 2_000
    assert rec["seconds"] > 0
    assert rec["events_per_s"] == pytest.approx(2_000 / rec["seconds"])
    cascade = bench_kernel_cascade(n_events=2_000, repeats=1)
    assert cascade["seconds"] > 0


def test_allocator_bench_counts_recomputes():
    rec = bench_allocator(n_flows=5, n_idle_links=20, n_rounds=2, repeats=1)
    # measured from Network.allocations: joins (eager, outside the
    # event loop) + one batched completion sweep per round
    assert rec["recomputes"] == 2 * (5 + 1)
    assert rec["us_per_recompute"] > 0


def test_sync_crowd_bench_coalesces_at_least_5x():
    """The acceptance criterion: a synchronized crowd folds ≥5x more
    per-event recomputes into its end-of-instant passes."""
    rec = bench_allocator_sync_crowd(n_clients=50, n_rounds=3, repeats=1)
    # two allocator passes per round: the crowd's join instant and the
    # batched completion sweep
    assert rec["recomputes"] == 2 * 3
    assert rec["per_event_recomputes"] == 3 * (50 + 1)
    assert rec["coalescing_factor"] >= 5.0


def test_campaign_bench_reports_batched_arm_and_floor():
    from repro.perf import bench_campaign

    rec = bench_campaign(n_worlds=24, jobs=2, repeats=1)
    assert rec["worlds"] == 24
    assert rec["worlds_per_s"] == pytest.approx(24 / rec["seconds"])
    assert rec["seq_seconds"] > 0
    assert not any(k.startswith(("per_job", "overhead")) for k in rec)
    assert rec["fingerprint"].startswith("sha256:")
    assert rec["params"]["n_worlds"] == 24


def test_campaign_bench_fingerprint_is_deterministic():
    from repro.perf import bench_campaign

    first = bench_campaign(n_worlds=10, jobs=2, repeats=1)
    second = bench_campaign(n_worlds=10, jobs=2, repeats=1)
    assert first["fingerprint"] == second["fingerprint"]


def test_find_regressions_flags_only_threshold_breaches():
    rows = compare_to_baseline(
        {
            "slow": {"seconds": 2.0, "params": {}},
            "ok": {"seconds": 1.1, "params": {}},
            "fresh": {"seconds": 9.9, "params": {}},  # no baseline entry
        },
        {
            "slow": {"seconds": 1.0, "params": {}},
            "ok": {"seconds": 1.0, "params": {}},
        },
    )
    regs = find_regressions(rows, max_regression=0.25)
    assert [r["key"] for r in regs] == ["slow"]
    assert regs[0]["slowdown"] == pytest.approx(2.0)
    # a generous threshold clears everything
    assert find_regressions(rows, max_regression=2.0) == []
    with pytest.raises(ValueError):
        find_regressions(rows, max_regression=-0.1)


def test_bench_file_roundtrip(tmp_path):
    path = str(tmp_path / "BENCH_test.json")
    payload = {"k": {"seconds": 1.5, "params": {"n": 3}}}
    write_bench_file(path, payload)
    assert load_bench_file(path) == payload
    assert load_bench_file(str(tmp_path / "missing.json")) is None


def test_bench_file_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "benches": {}}))
    with pytest.raises(ValueError, match="schema"):
        load_bench_file(str(path))


def test_compare_matches_only_identical_params():
    current = {
        "a": {"seconds": 1.0, "params": {"n": 10}},
        "b": {"seconds": 2.0, "params": {"n": 10}},
    }
    baseline = {
        "a": {"seconds": 3.0, "params": {"n": 10}},
        "b": {"seconds": 9.0, "params": {"n": 20}},  # incomparable
    }
    rows = {r["key"]: r for r in compare_to_baseline(current, baseline)}
    assert rows["a"]["speedup"] == pytest.approx(3.0)
    assert rows["b"]["speedup"] is None
    assert rows["b"]["baseline_seconds"] is None


def test_compare_flags_fingerprint_drift():
    current = {
        "w": {"seconds": 1.0, "params": {}, "fingerprint": "sha256:aa"},
    }
    same = {"w": {"seconds": 2.0, "params": {}, "fingerprint": "sha256:aa"}}
    drift = {"w": {"seconds": 2.0, "params": {}, "fingerprint": "sha256:bb"}}
    assert compare_to_baseline(current, same)[0]["fingerprint_match"] is True
    assert compare_to_baseline(current, drift)[0]["fingerprint_match"] is False
    assert compare_to_baseline(current, None)[0]["fingerprint_match"] is None


def test_render_comparison_marks_drift():
    rows = compare_to_baseline(
        {"w": {"seconds": 1.0, "params": {}, "fingerprint": "sha256:aa"}},
        {"w": {"seconds": 2.0, "params": {}, "fingerprint": "sha256:bb"}},
    )
    table = render_comparison(rows)
    assert "DRIFT" in table
    assert "2.00x" in table


def _canned_suites(monkeypatch, kernel_seconds=1.0, world_seconds=1.0):
    """Patch the bench table so CLI gate tests run in microseconds."""
    import repro.perf.benches as benches

    kernel = {
        "kernel.timers.quick": {"seconds": kernel_seconds, "params": {"n": 1}},
        "allocator.flows_10.quick": {"seconds": kernel_seconds, "params": {"n": 2}},
    }
    world = {
        "world.tiny": {
            "seconds": world_seconds,
            "params": {"n": 3},
            "fingerprint": "sha256:feed",
        },
    }
    records = {**kernel, **world}
    monkeypatch.setattr(
        benches, "bench_factories",
        lambda quick=False: {
            key: (lambda record=record: record) for key, record in records.items()
        },
    )
    return records


def _write_baseline(path, benches, scale=1.0):
    doctored = {
        key: {**rec, "seconds": rec["seconds"] * scale}
        for key, rec in benches.items()
    }
    write_bench_file(str(path), doctored)


def test_perf_check_exits_nonzero_on_doctored_regressed_baseline(
    monkeypatch, tmp_path, capsys
):
    """The acceptance criterion: feeding --check a baseline that makes
    the current numbers look >25% slower must exit nonzero."""
    from repro.cli import main

    benches = _canned_suites(monkeypatch)
    baseline = tmp_path / "BENCH_baseline.json"
    # doctor the baseline to half the current wall time → 2x "regression"
    _write_baseline(baseline, benches, scale=0.5)
    code = main(
        [
            "perf", "--quick", "--check", "--no-root-mirror",
            "--out", str(tmp_path / "results"),
            "--baseline", str(baseline),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "perf regression" in err


def test_perf_check_passes_against_honest_baseline(monkeypatch, tmp_path):
    from repro.cli import main

    benches = _canned_suites(monkeypatch)
    baseline = tmp_path / "BENCH_baseline.json"
    _write_baseline(baseline, benches, scale=1.0)
    code = main(
        [
            "perf", "--quick", "--check", "--no-root-mirror",
            "--out", str(tmp_path / "results"),
            "--baseline", str(baseline),
        ]
    )
    assert code == 0


def test_perf_check_respects_max_regression_flag(monkeypatch, tmp_path):
    from repro.cli import main

    benches = _canned_suites(monkeypatch)
    baseline = tmp_path / "BENCH_baseline.json"
    _write_baseline(baseline, benches, scale=0.5)  # current looks 2x slower
    code = main(
        [
            "perf", "--quick", "--check", "--no-root-mirror",
            "--max-regression", "1.5",  # allow up to 2.5x
            "--out", str(tmp_path / "results"),
            "--baseline", str(baseline),
        ]
    )
    assert code == 0


def test_perf_check_keys_scopes_the_timing_gate(monkeypatch, tmp_path):
    """--check-keys gates only matching benches: a world-bench
    'regression' (cross-machine wall-clock noise) passes a gate scoped
    to kernel./allocator., and fails an unscoped one."""
    from repro.cli import main

    benches = _canned_suites(monkeypatch)
    baseline = tmp_path / "BENCH_baseline.json"
    # doctor only the world bench into a regression
    doctored = {
        key: {**rec, "seconds": rec["seconds"] * (0.1 if key.startswith("world.") else 1.0)}
        for key, rec in benches.items()
    }
    write_bench_file(str(baseline), doctored)
    scoped = [
        "perf", "--quick", "--check", "--no-root-mirror",
        "--check-keys", "kernel.", "--check-keys", "allocator.",
        "--out", str(tmp_path / "results"),
        "--baseline", str(baseline),
    ]
    assert main(scoped) == 0
    unscoped = [a for a in scoped if a not in ("--check-keys", "kernel.", "allocator.")]
    assert main(unscoped) == 1


def test_perf_check_fails_without_baseline(monkeypatch, tmp_path):
    from repro.cli import main

    _canned_suites(monkeypatch)
    code = main(
        [
            "perf", "--quick", "--check", "--no-root-mirror",
            "--out", str(tmp_path / "results"),
            "--baseline", str(tmp_path / "missing.json"),
        ]
    )
    assert code == 1


def test_perf_mirrors_bench_files_to_project_root(monkeypatch, tmp_path):
    """The cross-PR trajectory record: root-level BENCH_* copies land
    in the project root resolved from --out, regardless of the cwd."""
    import os

    from repro.cli import main

    _canned_suites(monkeypatch)
    repo = tmp_path / "repo"
    (repo / "benchmarks").mkdir(parents=True)
    (repo / "pyproject.toml").write_text("")  # the root marker
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)  # cwd must NOT receive the mirrors
    out = repo / "benchmarks" / "results"
    code = main(["perf", "--out", str(out)])
    assert code == 0
    assert load_bench_file(str(out / "BENCH_kernel.json"))
    # the mirrored root copies exist and match the --out payloads
    assert load_bench_file(str(repo / "BENCH_kernel.json")) == load_bench_file(
        str(out / "BENCH_kernel.json")
    )
    assert load_bench_file(str(repo / "BENCH_world.json")) == load_bench_file(
        str(out / "BENCH_world.json")
    )
    assert not os.path.exists(elsewhere / "BENCH_kernel.json")
    assert not os.path.exists(repo / "BENCH_baseline.json")


def test_perf_mirror_skipped_outside_any_project(monkeypatch, tmp_path):
    """No project root above --out → no stray mirror files."""
    import os

    from repro.cli import main

    _canned_suites(monkeypatch)
    monkeypatch.chdir(tmp_path)
    code = main(["perf", "--out", str(tmp_path / "results")])
    assert code == 0
    assert not os.path.exists(tmp_path / "BENCH_kernel.json")


def test_perf_quick_never_overwrites_root_mirror(monkeypatch, tmp_path):
    """--quick smoke payloads must not replace the committed
    full-suite trajectory record at the project root."""
    from repro.cli import main

    _canned_suites(monkeypatch)
    repo = tmp_path / "repo"
    (repo / "benchmarks").mkdir(parents=True)
    (repo / "pyproject.toml").write_text("")
    committed = {"k": {"seconds": 1.0, "params": {"full": True}}}
    write_bench_file(str(repo / "BENCH_kernel.json"), committed)
    code = main(["perf", "--quick", "--out", str(repo / "benchmarks" / "results")])
    assert code == 0
    # the root record is untouched by the quick run
    assert load_bench_file(str(repo / "BENCH_kernel.json")) == committed


def test_perf_check_fails_when_nothing_was_comparable(monkeypatch, tmp_path):
    """A gate that compared zero benches (typo'd prefix, renamed
    benches) must fail loudly, not pass vacuously."""
    from repro.cli import main

    benches = _canned_suites(monkeypatch)
    baseline = tmp_path / "BENCH_baseline.json"
    _write_baseline(baseline, benches, scale=0.01)  # wildly regressed
    code = main(
        [
            "perf", "--quick", "--check", "--no-root-mirror",
            "--check-keys", "kernal.",  # typo: matches nothing
            "--out", str(tmp_path / "results"),
            "--baseline", str(baseline),
        ]
    )
    assert code == 1


def test_committed_baseline_loads_and_has_acceptance_entry():
    import os

    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    baseline = load_bench_file(
        os.path.join(repo_root, "benchmarks", "results", "BENCH_baseline.json")
    )
    assert baseline is not None
    world = baseline["world.large_object_200"]
    assert world["params"]["n_clients"] == 200
    assert world["fingerprint"].startswith("sha256:")
