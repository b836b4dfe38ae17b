"""Workload ``characterize``: the paper-scale §IV/§V statistics.

Set-up generates the ``10m`` hub (~10.2 M file occurrences) twice over:
streamed into a spilled chunk store and as the in-memory dataset. It
repeats a few times and reports the median. The hub is built from
:data:`~common.HUB_SEED`; ``--seed`` draws the store's chunk budget
(0.8-1.25 M occurrences, so 9 to 13 chunks), a layout the report must not
depend on. One *pass* runs ``streaming_report`` over the chunk store on a
2-worker process pool, then ``compute_all_figures`` on the in-memory
dataset. No tarball, no magic sniffing and no HTTP is touched. The
streaming report is compared byte for byte with ``report_from_dataset``
outside the timed region. Passes repeat until the run's seconds are
spent, spread over the set-ups (each set-up is followed by its share of
them). ``peak_rss_mb`` covers the passes only: the reference report is
built before the peak is reset, the peak is reset after each set-up and
read after its passes, and each pass's output is compared with the
reference after that.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time

from common import (
    FIGURE_IDS,
    HUB_SEED,
    OUT,
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
from repro.core import colstream
from repro.dedup.streaming import FileDedupState
from repro.obs import MetricsRegistry
from repro.parallel.pool import ParallelConfig
from repro.synth import hubgen, streamgen

SCALE = "10m"
SETUP_REPEATS = 3
MIN_PASSES = 2


def chunk_budget(seed: int) -> int:
    """Occurrences per spilled chunk for *seed*."""
    share = random.Random(f"{seed}:chunks").uniform(0.8, 1.25)
    return int(streamgen.DEFAULT_CHUNK_OCCURRENCES * share)


def setup(seed: int, store):
    """Spill the chunked hub to *store* and build the in-memory dataset;
    returns (chunk specs, dataset)."""
    config = hub_config(SCALE, HUB_SEED)
    shutil.rmtree(store, ignore_errors=True)
    streamgen.spill_chunks(
        streamgen.iter_dataset_chunks(config, chunk_occurrences=chunk_budget(seed)),
        store,
    )
    specs = streamgen.open_chunk_store(store)
    dataset = hubgen.generate_dataset(config)
    return specs, dataset


def run_pass(specs, dataset, mode: str, metrics: MetricsRegistry):
    """Streaming report over the chunk store, then the figure suite."""
    report = colstream.streaming_report(
        specs,
        parallel=ParallelConfig(mode=mode, workers=WORKERS, min_parallel_items=0),
        metrics=metrics,
    )
    figures = figures_mod.compute_all_figures(dataset)
    return report, figures


def pass_keys(report, figures) -> tuple[str, str]:
    """What a pass is checked on: its report JSON and its figures' metrics."""
    figures_key = json.dumps(
        [(f.figure_id, f.metrics) for f in figures], sort_keys=True, default=repr
    )
    return report.to_json(), figures_key


class _Checker:
    """Every pass must reproduce the in-memory reference report, built
    here, and the figures of the first pass."""

    def __init__(self, dataset):
        self.reference = colstream.report_from_dataset(dataset).to_json()
        self.figures: str | None = None
        self.gates: dict[str, bool] = {}

    def check(self, report, figures) -> None:
        self.compare(*pass_keys(report, figures))

    def compare(self, report_json: str, figures_key: str) -> None:
        if self.figures is None:
            self.figures = figures_key
        self._gate("streaming_report_matches_in_memory", report_json == self.reference)
        self._gate("figures_repeat_exactly", figures_key == self.figures)

    def _gate(self, name: str, ok: bool) -> None:
        self.gates[name] = self.gates.get(name, True) and bool(ok)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    store = OUT / "tmp" / f"characterize-{os.getpid()}"
    try:
        if trace:
            return _run_traced(seed, store)
        setup_s: list[float] = []
        pass_s: list[float] = []
        outputs: list[tuple[str, str]] = []
        peaks: list[float] = []
        attempted = failed = 0
        samples: dict = {}
        rss_reset = True
        for n in range(SETUP_REPEATS):
            specs = dataset = None  # drop the last set-up before the next
            t0 = time.perf_counter()
            specs, dataset = setup(seed, store)
            setup_s.append(time.perf_counter() - t0)
            if n == 0:
                checker = _Checker(dataset)
                n_occurrences = sum(spec.n_occurrences for spec in specs)

            rss_reset = reset_peak_rss() and rss_reset
            before = len(pass_s)
            while pass_due(n, SETUP_REPEATS, len(pass_s), sum(pass_s), seconds, MIN_PASSES):
                metrics = MetricsRegistry()
                attempted += len(specs) + len(FIGURE_IDS)
                t0 = time.perf_counter()
                try:
                    report, figures = run_pass(specs, dataset, "process", metrics)
                except RuntimeError:  # a chunk shard failed: the report is void
                    failed += len(specs)
                    checker.gates["every_chunk_analyzed"] = False
                    break
                pass_s.append(time.perf_counter() - t0)
                outputs.append(pass_keys(report, figures))
                report = figures = None
                _, samples = pool_counters(metrics)
            if len(pass_s) > before:
                peaks.append(peak_rss_mb())
            if failed:
                break
        peak_rss = max(peaks, default=peak_rss_mb())
    finally:
        shutil.rmtree(store, ignore_errors=True)
    for keys in outputs:
        checker.compare(*keys)

    rates = [n_occurrences / s for s in pass_s] or [0.0]
    pass_s = pass_s or [0.0]
    return Outcome(
        attempted=attempted,
        failed=failed,
        gates=checker.gates,
        metrics={
            "setup_s": median(setup_s),
            "throughput_per_s": median(rates),
            "latency_p50_ms": median(pass_s) * 1e3,
            "peak_rss_mb": peak_rss,
        },
        report={
            "pool_workers": pool_workers(samples),
            "named": {
                "setup_s": median(setup_s),
                "occurrences_per_s": median(rates),
                "pass_p50_ms": median(pass_s) * 1e3,
                "pass_max_ms": max(pass_s) * 1e3,
                "passes": len(pass_s),
                "occurrences": n_occurrences,
                "chunks": len(specs),
                "failed_share": failed / attempted if attempted else 0.0,
                "peak_rss_mb": peak_rss,
            },
            "setup_s": setup_s,
            "pass_s": pass_s,
            "peak_rss_reset": rss_reset,
            "prometheus": samples,
        },
    )


def _run_traced(seed: int, store) -> Outcome:
    from spans import Tracer

    tracer = Tracer()
    with tracer:
        tracer.patch(streamgen, "spill_chunks", "synth.streamgen.spill")
        tracer.patch(hubgen, "generate_dataset", "synth.generate")
        specs, dataset = setup(seed, store)
    store_bytes = sum(path.stat().st_size for path in store.iterdir())
    checker = _Checker(dataset)

    metrics = MetricsRegistry()
    report, figures = run_pass(specs, dataset, "process", metrics)
    counters, samples = pool_counters(metrics)
    checker.check(report, figures)

    t0 = time.perf_counter()
    report, figures = run_pass(specs, dataset, "serial", MetricsRegistry())
    untraced_s = time.perf_counter() - t0
    checker.check(report, figures)

    with tracer:
        tracer.patch(colstream, "streaming_report", "core.colstream.streaming_report")
        tracer.patch(colstream, "partial_from_spec", "core.colstream.partial")
        tracer.patch(colstream, "merge_partials", "core.colstream.merge")
        tracer.patch(colstream, "finalize_report", "core.colstream.finalize")
        tracer.patch(FileDedupState, "merge", "dedup.streaming.merge")
        tracer.patch(figures_mod, "compute_all_figures", "core.figures")
        tracer.patch_dict(figures_mod.FIGURES, "core.figures.")
        t0 = time.perf_counter()
        report, figures = run_pass(specs, dataset, "serial", MetricsRegistry())
        traced_s = time.perf_counter() - t0
    checker.check(report, figures)

    totals = tracer.totals(since=t0)
    setup_totals = tracer.totals()

    def total(name: str, table=totals) -> float:
        return table.get(name, {}).get("total_s", 0.0)

    per_layer = {
        "synth.generate_s": total("synth.generate", setup_totals),
        "synth.streamgen.spill_s": total("synth.streamgen.spill", setup_totals),
        "synth.streamgen.store_bytes": store_bytes,
        "core.colstream.partial_s": total("core.colstream.partial"),
        "core.colstream.merge_s": total("core.colstream.merge"),
        "core.colstream.finalize_s": total("core.colstream.finalize"),
        "dedup.streaming.merge_s": total("dedup.streaming.merge"),
        "core.figures_s": total("core.figures"),
        **{f"core.figures.{fid}_s": total(f"core.figures.{fid}") for fid in FIGURE_IDS},
        **counters,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
        "trace.coverage": tracer.top_level_seconds(since=t0) / traced_s,
    }
    return Outcome(
        attempted=len(specs) + len(FIGURE_IDS),
        failed=0,
        gates=checker.gates,
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
