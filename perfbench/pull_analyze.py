"""Workload ``pull_analyze``: the paper's §III path on real bytes.

Set-up generates the ``mid`` hub and materializes it into a registry of
real gzip'd tarballs. The hub is built from :data:`~common.HUB_SEED`;
``--seed`` seeds the Hub search index (the order and duplicates the crawl
sees, hence the order layers are downloaded, sharded and merged in), the
simulated network's per-request draws and the downloader's backoff.
One *pass* is what a user of the pipeline waits for: crawl → download
(``SimulatedSession``) → cold analysis on a 2-worker process pool with no
profile cache → ``compute_all_figures``. Passes repeat until the run's
seconds are spent, spread over the set-ups (each set-up is followed by
its share of them); each is checked against the materializer's
``GroundTruth`` and a serial reference pass, outside the timed region.
``peak_rss_mb`` covers the passes only: the peak is reset after each
set-up and the reference pass, and read after each set-up's passes,
before any pass is checked.
"""

from __future__ import annotations

import hashlib
import json
import time

from common import (
    FIGURE_IDS,
    HUB_SEED,
    WORKERS,
    Outcome,
    hub_config,
    median,
    pass_due,
    peak_rss_mb,
    pool_counters,
    pool_workers,
    reset_peak_rss,
)

import repro.core.figures as figures_mod
from repro.analyzer import analyzer as analyzer_mod
from repro.analyzer import extract as extract_mod
from repro.analyzer import shard as shard_mod
from repro.crawler.crawler import HubCrawler
from repro.downloader.downloader import Downloader
from repro.downloader.session import SimulatedSession
from repro.filetypes.classifier import classify_bytes
from repro.obs import MetricsRegistry
from repro.parallel import pool as pool_mod
from repro.parallel.pool import ParallelConfig
from repro.registry.search import HubSearchEngine
from repro.registry.tarball import extract_layer_tarball
from repro.synth import hubgen, materialize
from repro.util.digest import sha256_bytes

SCALE = "mid"
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
MIN_PASSES = 3


def setup(seed: int):
    """Generate and materialize the hub and seed its search index;
    returns (registry, search index, truth)."""
    config = hub_config(SCALE, HUB_SEED)
    template = hubgen.generate_dataset(config)
    registry, truth = materialize.materialize_registry(
        template,
        fail_share=config.fail_share,
        fail_auth_share=config.fail_auth_share,
        seed=config.seed,
    )
    return registry, HubSearchEngine(registry, seed=seed), truth


def run_pass(seed: int, registry, search, mode: str, metrics: MetricsRegistry):
    """One crawl → download → analyze → figures pass; returns its parts.

    *mode* is the analysis pool mode (``process`` normally, ``serial`` for
    the reference and the traced pass, which also downloads serially)."""
    download_mode = "thread" if mode == "process" else "serial"
    crawl = HubCrawler(search).crawl()
    downloader = Downloader(
        SimulatedSession(registry, seed=seed),
        parallel=ParallelConfig(mode=download_mode, workers=WORKERS),
        seed=seed,
        metrics=metrics,
    )
    images = downloader.download_all(crawl.repositories)
    pull_counts = {repo.name: repo.pull_count for repo in registry.repositories()}
    analyzer = analyzer_mod.Analyzer(
        downloader.dest,
        parallel=ParallelConfig(
            mode=mode, workers=WORKERS, chunk_size=8, min_parallel_items=0
        ),
        metrics=metrics,
    )
    analysis = analyzer.analyze(images, pull_counts)
    figures = figures_mod.compute_all_figures(analysis.dataset)
    return downloader.stats, analysis, figures


def fingerprint(analysis, figures) -> str:
    """A digest over every column of the dataset, the failed layers and
    every figure's metrics."""
    h = hashlib.sha256()
    ds = analysis.dataset
    for column in (
        ds.file_sizes, ds.file_types, ds.layer_file_offsets, ds.layer_file_ids,
        ds.layer_cls, ds.layer_dir_counts, ds.layer_max_depths,
        ds.image_layer_offsets, ds.image_layer_ids, ds.pull_counts,
    ):
        h.update(column.tobytes())
    h.update("\n".join(ds.repo_names).encode())
    h.update(json.dumps(sorted(analysis.failed_layers)).encode())
    h.update(json.dumps(
        [(f.figure_id, f.metrics) for f in figures], sort_keys=True, default=repr
    ).encode())
    return h.hexdigest()


def summarize(stats, analysis, figures) -> tuple:
    """What a pass is checked on: its download stats, its unique-layer
    count and its fingerprint."""
    return stats, analysis.n_layers, fingerprint(analysis, figures)


def check_pass(gates: dict, truth, summary: tuple, reference: str) -> None:
    """Fold the correctness checks of one pass's *summary* into *gates*."""
    stats, n_layers, digest = summary

    def gate(name: str, ok: bool) -> None:
        gates[name] = gates.get(name, True) and bool(ok)

    gate("downloads_succeeded_match_truth", stats.succeeded == truth.n_images)
    gate("downloads_auth_match_truth", stats.failed_auth == len(truth.auth_repos))
    gate(
        "downloads_no_latest_match_truth",
        stats.failed_no_latest == len(truth.no_latest_repos),
    )
    gate("downloads_other_failures_zero", stats.failed_other == 0)
    gate("unique_layers_match_truth", n_layers == truth.n_unique_layers)
    gate("fingerprint_matches_serial", digest == reference)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    if trace:
        return _run_traced(seed)
    setup_s: list[float] = []
    pass_s: list[float] = []
    summaries: list[tuple] = []
    peaks: list[float] = []
    gates: dict[str, bool] = {}
    attempted = failed = 0
    workers = 0
    samples: dict = {}
    rss_reset = True
    for n in range(SETUP_REPEATS):
        registry = search = truth = None  # drop the last set-up before the next
        t0 = time.perf_counter()
        registry, search, truth = setup(seed)
        setup_s.append(time.perf_counter() - t0)
        if n == 0:
            _, ref_analysis, ref_figures = run_pass(
                seed, registry, search, "serial", MetricsRegistry()
            )
            reference = fingerprint(ref_analysis, ref_figures)
            n_layers = ref_analysis.n_layers
            ref_analysis = ref_figures = None

        rss_reset = reset_peak_rss() and rss_reset
        before = len(pass_s)
        while pass_due(n, SETUP_REPEATS, len(pass_s), sum(pass_s), seconds, MIN_PASSES):
            metrics = MetricsRegistry()
            t0 = time.perf_counter()
            stats, analysis, figures = run_pass(seed, registry, search, "process", metrics)
            pass_s.append(time.perf_counter() - t0)
            summaries.append(summarize(stats, analysis, figures))
            attempted += analysis.n_layers + len(analysis.failed_layers)
            failed += len(analysis.failed_layers)
            stats = analysis = figures = None
            _, samples = pool_counters(metrics)
            workers = pool_workers(samples)
        if len(pass_s) > before:
            peaks.append(peak_rss_mb())
    peak_rss = max(peaks)
    for summary in summaries:
        check_pass(gates, truth, summary, reference)

    layers_per_s = [n_layers / s for s in pass_s]
    return Outcome(
        attempted=attempted,
        failed=failed,
        gates=gates,
        metrics={
            "setup_s": median(setup_s),
            "throughput_per_s": median(layers_per_s),
            "latency_p50_ms": median(pass_s) * 1e3,
            "peak_rss_mb": peak_rss,
        },
        report={
            "pool_workers": workers,
            "named": {
                "setup_s": median(setup_s),
                "pipeline_layers_per_s": median(layers_per_s),
                "pass_p50_ms": median(pass_s) * 1e3,
                "pass_max_ms": max(pass_s) * 1e3,
                "passes": len(pass_s),
                "unique_layers": n_layers,
                "failed_share": failed / attempted if attempted else 0.0,
                "peak_rss_mb": peak_rss,
            },
            "setup_s": setup_s,
            "pass_s": pass_s,
            "peak_rss_reset": rss_reset,
            "prometheus": samples,
        },
    )


def _patch_pass_layers(tracer) -> None:
    tracer.patch(HubCrawler, "crawl", "crawler.crawl")
    tracer.patch(Downloader, "download_all", "downloader.download_all")
    tracer.patch(
        Downloader, "download_image", "downloader.download_image",
        op_of=lambda _self, repo, *rest: repo,
    )
    tracer.patch(analyzer_mod.Analyzer, "analyze", "analyzer.analyze")
    tracer.patch_everywhere(shard_mod.build_shards, "analyzer.build_shards")
    tracer.patch_everywhere(pool_mod.map_shards, "parallel.map_shards")
    tracer.patch_everywhere(
        extract_mod.extract_and_profile, "analyzer.extract_and_profile",
        op_of=lambda digest, *rest: digest,
    )
    tracer.patch_everywhere(
        extract_layer_tarball, "registry.tarball.extract",
        count_of=lambda result, *args: len(result),
    )
    tracer.patch_everywhere(
        classify_bytes, "filetypes.classify", count_of=lambda result, *args: 1
    )
    tracer.patch_everywhere(
        sha256_bytes, "util.digest.sha256",
        count_of=lambda result, data, *rest: len(data),
    )
    tracer.patch(figures_mod, "compute_all_figures", "core.figures")
    tracer.patch_dict(figures_mod.FIGURES, "core.figures.")


def layer_metrics(totals: dict, counts: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass, from span totals and counts."""

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    out = {
        "crawler.crawl_s": total("crawler.crawl"),
        "downloader.download_s": total("downloader.download_all"),
        "registry.tarball.extract_s": total("registry.tarball.extract"),
        "registry.tarball.members": counts.get("registry.tarball.extract", 0.0),
        "filetypes.classify_s": total("filetypes.classify"),
        "filetypes.files": counts.get("filetypes.classify", 0.0),
        "util.digest.sha256_s": total("util.digest.sha256"),
        "util.digest.sha256_bytes": counts.get("util.digest.sha256", 0.0),
        "analyzer.profile_self_s": self_s("analyzer.extract_and_profile"),
        "analyzer.assemble_s": self_s("analyzer.analyze"),
        "core.figures_s": total("core.figures"),
    }
    for fid in FIGURE_IDS:
        out[f"core.figures.{fid}_s"] = total(f"core.figures.{fid}")
    return out


def _run_traced(seed: int) -> Outcome:
    from spans import Tracer

    tracer = Tracer()
    with tracer:
        tracer.patch(hubgen, "generate_dataset", "synth.generate")
        tracer.patch(materialize, "materialize_registry", "synth.materialize")
        registry, search, truth = setup(seed)

    # untraced, normal configuration: the program's own pool counters
    metrics = MetricsRegistry()
    stats, analysis, figures = run_pass(seed, registry, search, "process", metrics)
    counters, samples = pool_counters(metrics)

    # untraced serial pass: the reference and the overhead baseline
    t0 = time.perf_counter()
    _, ref_analysis, ref_figures = run_pass(
        seed, registry, search, "serial", MetricsRegistry()
    )
    untraced_s = time.perf_counter() - t0
    reference = fingerprint(ref_analysis, ref_figures)
    gates: dict[str, bool] = {}
    check_pass(gates, truth, summarize(stats, analysis, figures), reference)

    with tracer:
        _patch_pass_layers(tracer)
        t0 = time.perf_counter()
        t_stats, t_analysis, t_figures = run_pass(
            seed, registry, search, "serial", MetricsRegistry()
        )
        traced_s = time.perf_counter() - t0
    check_pass(gates, truth, summarize(t_stats, t_analysis, t_figures), reference)

    totals = tracer.totals(since=t0)
    per_layer = layer_metrics(totals, tracer.counts)
    setup_totals = tracer.totals()
    per_layer.update({
        "synth.generate_s": setup_totals["synth.generate"]["total_s"],
        "synth.materialize_s": setup_totals["synth.materialize"]["total_s"],
        "downloader.layers_fetched": stats.unique_layers_fetched,
        "downloader.duplicate_layer_hits": stats.duplicate_layer_hits,
        "downloader.retries": stats.retries,
        "analyzer.layers_failed": len(analysis.failed_layers),
        **counters,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
        "trace.coverage": tracer.top_level_seconds(since=t0) / traced_s,
    })
    return Outcome(
        attempted=analysis.n_layers + len(analysis.failed_layers),
        failed=len(analysis.failed_layers),
        gates=gates,
        metrics=per_layer,
        report={
            "pool_workers": pool_workers(samples),
            "traced_pass_s": traced_s,
            "untraced_serial_pass_s": untraced_s,
            "span_totals": totals,
            "prometheus": samples,
        },
        trace=tracer.chrome_trace(),
    )
