"""The ``registry_serve`` system under test, in a process of its own.

Builds the seeded hub, clones it into a 3-replica
:class:`~repro.ha.replica.RegistryReplicaSet`, puts a
:class:`~repro.ha.frontend.FailoverFrontend` in front (the deployment
``repro cluster`` exercises) and then talks to the load generator over a
line protocol: it prints one JSON line when it is ready, then answers one
JSON line per command read from stdin:

* ``stats`` — the frontend's own counters and its metrics registry in
  Prometheus text (frontend and replica-set families);
* ``sync``  — one anti-entropy pass (pushed images reach every replica);
* ``rss``   — this process's peak resident set size since it was ready,
  so serving and not the build;
* ``quit`` (or end of stdin) — stop every server and exit.

The hub is the ``tiny`` preset built from :data:`~common.HUB_SEED`, the
deployment every ``registry_serve`` run measures. Run it by hand with
``python3 perfbench/server.py`` and type the commands.
"""

from __future__ import annotations

import json
import sys
import time

from common import HUB_SEED, hub_config, peak_rss_mb, reset_peak_rss  # puts src/ on sys.path

from repro.ha.frontend import FailoverFrontend
from repro.ha.health import HealthMonitor
from repro.ha.replica import RegistryReplicaSet
from repro.obs import MetricsRegistry
from repro.synth.hubgen import generate_dataset
from repro.synth.materialize import materialize_registry

REPLICAS = 3
SCALE = "tiny"


def _reply(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main() -> int:
    start = time.perf_counter()
    config = hub_config(SCALE, HUB_SEED)
    template = generate_dataset(config)
    generated = time.perf_counter()
    source, truth = materialize_registry(
        template,
        fail_share=config.fail_share,
        fail_auth_share=config.fail_auth_share,
        seed=config.seed,
    )
    materialized = time.perf_counter()
    metrics = MetricsRegistry()
    replica_set = RegistryReplicaSet.from_source(
        source, REPLICAS, metrics=metrics
    ).start_all()
    endpoints = replica_set.endpoints()
    frontend = FailoverFrontend(
        endpoints,
        monitor=HealthMonitor(endpoints, metrics=metrics),
        seed=HUB_SEED,
        metrics=metrics,
    ).start()
    build_s = time.perf_counter() - start
    reset_peak_rss()
    _reply({
        "frontend": frontend.base_url,
        "replicas": endpoints,
        "generate_s": generated - start,
        "materialize_s": materialized - generated,
        "build_s": build_s,
        "images": truth.images,
        "auth_repos": sorted(truth.auth_repos),
        "no_latest_repos": sorted(truth.no_latest_repos),
        "pull_counts": {r.name: r.pull_count for r in source.repositories()},
    })
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                _reply({
                    "stats": dict(frontend.stats),
                    "prometheus": metrics.render_prometheus(),
                })
            elif command == "sync":
                _reply({"sync": replica_set.sync()})
            elif command == "rss":
                _reply({"peak_rss_mb": peak_rss_mb()})
            elif command == "quit":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        frontend.stop()
        replica_set.stop_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
