"""Record the reference verdicts every benchmark run is checked against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

For the in-process workloads the reference holds one verdict per
(site template, pool seed) pair; for the survey, one entry per pool
population with every site's triage verdict and the digest of the
per-stratum table.  The pool covers every seed a run can draw, so the
default seed and any held-out seed are both checked.  Re-record only
when a change is meant to alter verdicts, and say so in its review.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def record(workload: str) -> dict:
    if workload == "survey":
        work = HERE / "out" / "reference-work"
        work.mkdir(parents=True, exist_ok=True)
        out = {}
        for pool_seed in range(workloads.SURVEY_POOL_SIZE):
            run = workloads.run_survey(pool_seed, {}, work)
            out[f"w{pool_seed}"] = {
                "table_digest": run.table_digest,
                "sites": {s.site_id: s.verdict for s in sorted(run.sites, key=lambda s: s.site_id)},
            }
            print(f"survey w{pool_seed}: {len(run.sites)} sites", file=sys.stderr)
        work.rmdir()
        return out
    templates = workloads.IN_PROCESS[workload][0]()
    sites = [(t, w) for t in templates for w in range(workloads.POOL_SIZE)]
    run = workloads.run_in_process(workload, sites, {})
    raised = [s for s in run.sites if s.verdict.startswith("raised")]
    if raised:
        raise SystemExit(f"{workload}: sites raised: {[s.site_id for s in raised]}")
    return {s.site_id: s.verdict for s in run.sites}


def main(names) -> None:
    for workload in names or workloads.WORKLOADS:
        path = HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record(workload), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
