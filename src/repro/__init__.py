"""repro — reproduction of "Measuring the Deployment of DNSSEC
Bootstrapping Using Authenticated Signals" (IMC 2025).

The package bundles a from-scratch DNS/DNSSEC stack, a YoDNS-style
all-nameserver scanner, the RFC 9615 authenticated-bootstrapping analysis
pipeline that constitutes the paper's contribution, and a synthetic DNS
ecosystem calibrated to the paper's published measurements.

Typical use — continuous monitoring over an evolving ecosystem::

    from repro import Monitor, MonitorConfig

    monitor = Monitor.init(MonitorConfig(root="./monitor", scale=1 / 100_000))
    monitor.run_epoch()                # epoch 0: full baseline scan
    for result in monitor.run_until(weeks=4):
        print(result.epoch, result.zones_scanned, len(result.events))
    print(monitor.diff().diff.changed, "zones reclassified last week")

Add an RFC 9615 parental agent to close the bootstrapping loop — it
acts after each completed epoch, provisioning DS for zones whose
signal chain authenticates, and the next delta epoch confirms the
island → secured transition::

    from repro import Agent

    for result in monitor.run_until(weeks=8, agent=Agent()):
        if result.agent is not None:
            print(result.epoch, result.agent.secured)

One-shot campaigns take a :class:`CampaignConfig`::

    from repro import CampaignConfig, run_campaign

    campaign = run_campaign(
        CampaignConfig(scale=1 / 100_000, seed=1, telemetry=True)
    )
    print(campaign.report.total_scanned, campaign.simulated_duration)

Lower-level pieces compose the same way the campaign does::

    from repro import build_world, AnalysisPipeline

    world = build_world(scale=1 / 100_000, seed=1)
    scanner = world.make_scanner()
    results = scanner.scan_many(world.scan_list)
    report = AnalysisPipeline(world.operator_db).analyze(results)

Stored campaigns answer per-zone questions through the query plane::

    from repro import QueryService, build_index

    build_index(store_dir, operator_db=world.operator_db)
    with QueryService(store_dir) as queries:
        print(queries.zone_status("example.com").status)
"""

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Name",
    "Message",
    "RRType",
    "Zone",
    "Scanner",
    "AnalysisPipeline",
    "build_world",
    "run_campaign",
    "resume_campaign",
    "CampaignConfig",
    "Telemetry",
    "ChaosConfig",
    "RetryPolicy",
    "QueryService",
    "build_index",
    "Monitor",
    "MonitorConfig",
    "EpochDiff",
    "Agent",
]

_API = {
    "Name": ("repro.dns", "Name"),
    "Message": ("repro.dns", "Message"),
    "RRType": ("repro.dns", "RRType"),
    "Zone": ("repro.dns", "Zone"),
    "Scanner": ("repro.scanner", "Scanner"),
    "AnalysisPipeline": ("repro.core", "AnalysisPipeline"),
    "build_world": ("repro.ecosystem", "build_world"),
    "run_campaign": ("repro.campaign", "run_campaign"),
    "resume_campaign": ("repro.campaign", "resume_campaign"),
    "CampaignConfig": ("repro.campaign", "CampaignConfig"),
    "Telemetry": ("repro.obs", "Telemetry"),
    "ChaosConfig": ("repro.chaos", "ChaosConfig"),
    "RetryPolicy": ("repro.chaos", "RetryPolicy"),
    "QueryService": ("repro.query", "QueryService"),
    "build_index": ("repro.query", "build_index"),
    "Monitor": ("repro.monitor", "Monitor"),
    "MonitorConfig": ("repro.monitor", "MonitorConfig"),
    "EpochDiff": ("repro.monitor", "EpochDiff"),
    "Agent": ("repro.agent", "Agent"),
}


def __getattr__(name):
    """Lazily re-export the high-level API to keep import cost low."""
    from importlib import import_module

    if name in _API:
        module, attr = _API[name]
        return getattr(import_module(module), attr)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
