"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pull_analyze --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` repeats the
workload once with spans around the calls into each ``repro`` module and
reports the per-layer metrics instead (and writes a Chrome trace).
``--workload all`` runs every workload in turn. Each workload prints its
named figures, writes a result record under ``.perfbench/`` and, as the
last line of standard output, one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

The exit code is 0 when every correctness gate held, 1 when one failed,
and 2 when the benchmark could not run at all (for instance outside a
checkout, where there is no ``src/`` to measure).
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import time

import common

#: the workloads and metrics ``BENCHMARK.json`` declares
WORKLOADS = common.declared_workloads()
END_TO_END = common.declared_metrics("end_to_end")
PER_LAYER = common.declared_metrics("per_layer")
#: a run that has not finished by then is stopped and reported as failed
DEADLINE_S = 170
#: share of a traced run's wall time its top-level spans must cover
MIN_COVERAGE = 0.95


class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"workload did not finish within {DEADLINE_S} s")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    module = importlib.import_module(name)
    wall = time.perf_counter()
    outcome = module.run(seed, seconds, trace)
    wall = time.perf_counter() - wall
    if trace:
        # the layer spans must account for the traced run's time
        outcome.gates["spans_cover_traced_run"] = (
            outcome.metrics["trace.coverage"] >= MIN_COVERAGE
        )

    declared = PER_LAYER if trace else END_TO_END
    unknown = set(outcome.metrics) - set(declared)
    if unknown:
        raise RuntimeError(f"{name} reported undeclared metrics: {sorted(unknown)}")
    metrics = {
        metric: {"value": float(outcome.metrics.get(metric, 0.0)), "unit": row["unit"]}
        for metric, row in declared.items()
    }
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }

    common.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}" + ("-trace" if trace else "")
    record = {
        **result,
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "wall_s": wall,
        "host": common.host_record(seed, outcome.report.get("pool_workers", 0)),
        "gates": outcome.gates,
        **{k: v for k, v in outcome.report.items() if k != "pool_workers"},
    }
    (common.OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if outcome.trace is not None:
        (common.OUT / f"{stem}.trace.json").write_text(json.dumps(outcome.trace))

    print(f"== {name} (seed {seed}, trace {int(trace)}, {wall:.1f} s)")
    for metric, row in metrics.items():
        better = declared[metric]["better"]
        print(f"  {metric:<36} {row['value']:>16.6g} {row['unit']:<6} ({better} is better)")
    for metric, value in outcome.report.get("named", {}).items():
        print(f"  [{name}] {metric:<27} {value:>16.6g}")
    for gate, ok in outcome.gates.items():
        print(f"  gate {gate:<45} {'ok' if ok else 'FAILED'}")
    print(f"  host {json.dumps(record['host'])}")
    print(f"  record {common.OUT / (stem + '.json')}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run a perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro").is_dir():
        print(f"perfbench: no program to measure at {common.SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S * len(names))
    results = []
    for name in names:
        results.append(run_one(name, args.seed, args.seconds, bool(args.trace)))
    signal.alarm(0)

    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{metric}": row
                for name, r in zip(names, results)
                for metric, row in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
