"""Performance measurement for the simulation substrate.

Every paper figure and the §5 study run through the same three hot
layers — the event kernel (`sim/`), the fluid-network rate allocator
(`net/`) and the server pipeline (`server/` + `core/`) — so this
package owns the *measurement baseline* those layers are optimised
against:

- :mod:`repro.perf.benches` — microbenchmarks for kernel event
  throughput and allocator cost versus flow count, plus the end-to-end
  200-client Large Object world benchmark, all keyed in the one
  ordered ``bench_factories`` table;
- :mod:`repro.perf.baseline` — ``BENCH_*.json`` reading/writing and
  comparison against the recorded baseline, including the determinism
  fingerprint that guards against behaviour drift.

``repro perf`` (see :mod:`repro.cli`) drives both and emits
``BENCH_kernel.json`` / ``BENCH_world.json`` so every future PR has a
trajectory to beat.
"""

from repro.perf.baseline import (
    BASELINE_FILENAME,
    compare_to_baseline,
    find_regressions,
    load_bench_file,
    write_bench_file,
)
from repro.perf.benches import (
    bench_allocator,
    bench_allocator_sync_crowd,
    bench_campaign,
    bench_kernel_cascade,
    bench_kernel_timers,
    bench_world,
)

__all__ = [
    "BASELINE_FILENAME",
    "bench_allocator",
    "bench_allocator_sync_crowd",
    "bench_campaign",
    "bench_kernel_cascade",
    "bench_kernel_timers",
    "bench_world",
    "compare_to_baseline",
    "find_regressions",
    "load_bench_file",
    "write_bench_file",
]
