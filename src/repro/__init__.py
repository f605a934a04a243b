"""repro — reproduction of "Remote Profiling of Resource Constraints of
Web Servers Using Mini-Flash Crowds" (Ramamurthy et al., USENIX ATC 2008).

The package is layered bottom-up:

- :mod:`repro.sim` — a from-scratch discrete-event simulation kernel
  (generator-based processes, resources, seeded RNG streams).
- :mod:`repro.net` — a wide-area network substrate: latency models with
  jitter, processor-sharing links, a TCP transfer-time model and a lossy
  UDP-like control channel.
- :mod:`repro.server` — a queueing-network web-server substrate: worker
  pools, caches, a back-end database, FastCGI/Mongrel dynamic backends,
  load-balanced clusters and an ``atop``-like resource monitor.
- :mod:`repro.content` — synthetic site content, a crawler and the
  paper's content-classification heuristics.
- :mod:`repro.workload` — client fleets, Poisson background traffic and
  rank-stratified server populations.
- :mod:`repro.core` — the paper's contribution: the MFC coordinator,
  client agents, stage/epoch engine, synchronization scheduler,
  constraint inference and the MFC-mr / staggered / measurer variants.
- :mod:`repro.worlds` — the declarative world layer: one serializable
  :class:`~repro.worlds.spec.WorldSpec` per experiment world, with
  canonical JSON encode/decode, a stable SHA-256 identity and the
  registries of named scenario/fleet/synthetic-server components.
- :mod:`repro.campaign` — parallel experiment campaigns: declarative
  job grids, a process-pool executor with a deterministic sequential
  fallback, and a resumable JSONL result cache.
- :mod:`repro.analysis` — statistics, table/figure renderers and the
  large-scale study driver.

Quickstart::

    from repro.core.runner import MFCRunner
    from repro.server.presets import university_server

    runner = MFCRunner.build(server_spec=university_server(), seed=1)
    result = runner.run()
    print(result.summary())
"""

__version__ = "1.2.0"

__all__ = ["__version__"]
