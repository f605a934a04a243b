"""The correctness check: a doctored reference must fail the run."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parents[1]


def test_mismatching_site_verdict_is_a_failed_site():
    sites = [("n2000-cap200-step50", 1)]
    key = workloads.site_key(*sites[0])
    reference = json.loads((BENCH / "reference" / "cohort_crowd.json").read_text())
    good = workloads.run_in_process("cohort_crowd", sites, reference)
    assert [s.ok for s in good.sites] == [True]
    doctored = dict(reference, **{key: "LargeObject=stopped@150"})
    bad = workloads.run_in_process("cohort_crowd", sites, doctored)
    assert [s.ok for s in bad.sites] == [False]
    assert bad.sites[0].verdict == reference[key]


def test_survey_checks_sites_and_the_stratum_table(tmp_path):
    first = workloads.run_survey(2, {}, tmp_path, scale=0.05)
    reference = {
        "w2": {
            "table_digest": first.table_digest,
            "sites": {s.site_id: s.verdict for s in first.sites},
        }
    }
    again = workloads.run_survey(2, reference, tmp_path, scale=0.05)
    assert again.table_ok and all(s.ok for s in again.sites) and again.missing == 0
    reference["w2"]["table_digest"] = "sha256:0"
    victim = sorted(reference["w2"]["sites"])[0]
    reference["w2"]["sites"][victim] = "clean||"
    doctored = workloads.run_survey(2, reference, tmp_path, scale=0.05)
    assert not doctored.table_ok
    assert [s.site_id for s in doctored.sites if not s.ok] == [victim]


def test_command_exits_nonzero_on_a_doctored_reference(tmp_path):
    # a checkout whose reference disagrees with the program
    bench = tmp_path / "perfbench"
    shutil.copytree(BENCH, bench, ignore=shutil.ignore_patterns("out", "tests", "__pycache__"))
    os.symlink(BENCH.parent / "src", tmp_path / "src")
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    path = bench / "reference" / "cohort_crowd.json"
    reference = json.loads(path.read_text())
    path.write_text(json.dumps({k: "LargeObject=stopped@150" for k in reference}))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cohort_crowd",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "MISMATCH" in proc.stderr


def test_command_refuses_to_run_without_the_program(tmp_path):
    # what the benchmark's own files alone make: no program source
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
