"""Shared pieces of the benchmark: presets, host record, statistics, RSS.

Everything here uses only the program's public API, so the benchmark keeps
measuring the same thing while the code under ``src/`` changes.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import resource
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: everything a run writes (scratch stores, traces, result records)
OUT = ROOT / ".perfbench"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: pool workers every parallel stage is configured with
WORKERS = 2
#: every workload's hub is built from this fixed seed, so the work a run
#: does is the same size whatever ``--seed`` is; the seed drives the order,
#: layout and timing of that work instead (see each workload)
HUB_SEED = 2017


def hub_config(scale: str, seed: int):
    """The synthetic-hub presets ``repro bench`` builds, by name.

    ``tiny`` is the unit-test hub; ``mid`` is tiny's layer shape at 120
    images (~740 unique layers, ~177 MB of real tarballs); ``10m`` is the
    calibrated bench shape at 800 images (~10.2 M file occurrences).
    """
    from repro.synth.config import SyntheticHubConfig

    if scale == "tiny":
        return SyntheticHubConfig.tiny(seed=seed)
    if scale == "mid":
        return replace(
            SyntheticHubConfig.tiny(seed=seed),
            n_images=120,
            n_rare_types=40,
            n_official=10,
        )
    if scale == "10m":
        return replace(SyntheticHubConfig.bench(seed=seed), n_images=800)
    raise ValueError(f"unknown scale {scale!r}")


def host_record(seed: int, workers: int) -> dict:
    """Where and how a result was measured."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
        "pool_workers": workers,
    }


def reset_peak_rss() -> bool:
    """Reset this process's peak resident set size to its current size, so
    that :func:`peak_rss_mb` covers only what runs after; returns whether
    the kernel allowed it."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """Peak resident set size, in MiB, of this process since the last
    :func:`reset_peak_rss`, or of the largest of its reaped children (pool
    workers), whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            own = int(line.split()[1])
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def pass_due(setup_index: int, setups: int, passes: int, measured_s: float,
             seconds: float, min_passes: int) -> bool:
    """Whether another measured pass runs after set-up *setup_index* of
    *setups*, given the *passes* run so far and their *measured_s*.

    The passes are spread over the set-ups, each running up to its share
    of *seconds* and of *min_passes*, so that they sample the whole run
    rather than one stretch of it: the host's speed drifts over seconds."""
    share = (setup_index + 1) / setups
    return measured_s < seconds * share or passes < min_passes * share


def percentile(values: list[float], q: float) -> float:
    """The *q*-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def prometheus_samples(text: str) -> dict[str, float]:
    """Parse Prometheus text exposition into ``{"name{labels}": value}``,
    keeping the program's own metric names verbatim (bucket lines are
    dropped; ``_sum``/``_count`` of histograms are kept)."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if "_bucket{" in key:
            continue
        out[key] = float(value)
    return out


def pool_counters(metrics) -> tuple[dict[str, float], dict[str, float]]:
    """The process pool's own metrics: the per-layer figures read from
    them, and every Prometheus sample of *metrics*."""
    samples = prometheus_samples(metrics.render_prometheus())
    counters = {
        "parallel.busy_s": sample_total(
            samples, "parallel_shard_seconds_sum", mode="process"
        ),
        "parallel.worker_utilization": sample_total(
            samples, "parallel_worker_utilization", mode="process"
        ),
        "parallel.shards_failed": sample_total(
            samples, "parallel_shards_failed_total", mode="process"
        ),
    }
    return counters, samples


def pool_workers(samples: dict[str, float]) -> int:
    """Workers the last process-pool dispatch actually started."""
    return int(sample_total(samples, "parallel_pool_workers", mode="process"))


def sample_total(samples: dict[str, float], name: str, **labels: str) -> float:
    """Sum the samples of family *name* whose labels include *labels*."""
    total = 0.0
    wanted = [f'{k}="{v}"' for k, v in labels.items()]
    for key, value in samples.items():
        family, _, rest = key.partition("{")
        if family == name and all(w in rest for w in wanted):
            total += value
    return total


FIGURE_IDS = tuple(f"fig{n}" for n in range(3, 30))


def declared_metrics(kind: str) -> dict[str, dict]:
    """The metrics ``BENCHMARK.json`` declares under *kind* (``end_to_end``
    or ``per_layer``), by name: the one place their names, units and
    directions are written down."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {row["name"]: row for row in doc[kind]}


def declared_workloads() -> tuple[str, ...]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(row["name"] for row in doc["workloads"])


@dataclass
class Outcome:
    """What one workload run produced.

    ``metrics`` holds the contract metrics (end-to-end, or per-layer in a
    traced run) by name; ``gates`` every correctness check by name;
    ``report`` everything else worth keeping: the workload's own named
    figures, host, the program's Prometheus samples. ``trace`` is the
    Chrome trace of a traced run.
    """

    attempted: int
    failed: int
    metrics: dict[str, float]
    gates: dict[str, bool]
    report: dict = field(default_factory=dict)
    trace: dict | None = None

    @property
    def correct(self) -> bool:
        return bool(self.gates) and all(self.gates.values())
