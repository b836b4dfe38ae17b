"""Workload ``registry_serve``: independent clients pulling and pushing.

The system under test runs in its own process (``server.py``): the
``tiny`` hub materialized into a 3-replica ``RegistryReplicaSet`` behind a
``FailoverFrontend``. The hub is built from a fixed seed, so the
deployment is the same in every run; ``--seed`` drives the traffic: the
order and arrival times of the requests.

Traffic is open loop: a Poisson process at a fixed rate, sent by one
generator process over at most two connections. Pulls (a manifest GET
plus every layer blob GET) are split over the images by Zipf weights on
the ranking by pull count, auth-gated and ``latest``-less repositories
included; a fixed minority share of arrivals pushes a new image (blob
uploads plus a manifest PUT). The pushed images are those of a second
``tiny`` hub, built from its own fixed seed, so their layer counts, sizes
and contents follow the generator's distribution. Every request is timed
from when it was due, not when it was sent. The generator's own lateness
is reported: the time from when an op was due, or from when the registry
freed its connection if that was later, to when it was sent. A run in
which the generator fell behind its schedule is marked invalid. Pulled
blobs are hashed on a thread of their own, off the connections' path.

The run starts the deployment :data:`SETUP_REPEATS` times, one after
another. It sends the nominal rate for the run's seconds, cut into
:data:`ROUNDS` slices, each followed by a closed-loop burst that measures
the rate the deployment sustains; each deployment serves its share of
these rounds. Both metrics thus sample the whole run, not one stretch of
it, since the host's speed drifts over seconds. On the last deployment
the run then walks a fixed rate ladder to find the highest pull rate
whose p90 latency meets :data:`LATENCY_LIMIT_MS` without a growing
backlog. Every deployment's pushes must read back before it is stopped.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import random
import select
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    HUB_SEED,
    Outcome,
    hub_config,
    median,
    percentile,
    prometheus_samples,
    sample_total,
)

from repro.downloader.session import RateLimitedError, TransientNetworkError
from repro.model.manifest import Manifest
from repro.registry.errors import AuthRequiredError, RegistryError, TagNotFoundError
from repro.registry.http import HTTPSession
from repro.synth.hubgen import generate_dataset
from repro.synth.materialize import materialize_registry

#: the hub the pushed images come from: the deployment's preset (``tiny``),
#: built from a seed of its own so that its layers are new to the registry
PUSH_HUB_SEED = HUB_SEED + 1
#: share of arrivals that push a new image. Unverified: no public registry
#: trace this repository cites gives a read/write mix, so this only makes
#: pushes the minority the workload calls for
PUSH_SHARE = 0.1
#: Zipf exponent over the pull-count ranking
ZIPF_S = 1.0
#: concurrent connections of the generator
CONNECTIONS = 2
#: the ladder: pull rates 5 % apart, finer than the throughput bound
LADDER = tuple(round(5.0 * 1.05 ** i, 3) for i in range(56))
#: pulls per second at which the latency metrics are measured: about a
#: third of the sustained rate on a 2-CPU host, so that queueing does not
#: amplify host noise, yet ~70 successful pulls in a 12 s run
NOMINAL_RATE = LADDER[6]
#: how long one ladder probe sends
PROBE_S = 3.0
#: rounds of a run: a slice of the nominal phase, then a closed-loop burst
#: of :data:`BURST_PULLS` pulls, spread over the :data:`SETUP_REPEATS`
#: deployments. The sustained rate is all the bursts' pulls over all their
#: time, which averages the host's fast and slow stretches where a median
#: of bursts would jump between them
ROUNDS = 6
BURST_PULLS = 30
#: share of the sustained rate the ladder walk starts at
ESTIMATE_SHARE = 0.85
MAX_PROBES = 3
#: a rate passes when its p90 pull latency stays under this limit ...
LATENCY_LIMIT_MS = 250.0
#: ... and the queue wait at its end exceeds that at its start by no more
BACKLOG_SLACK_S = 0.25
#: a phase whose queue wait passes this is overloaded: the rest is dropped
ABORT_WAIT_S = 2.0
#: the generator is behind schedule when its send lateness p99 passes this
LATENESS_LIMIT_MS = 20.0
REQUEST_TIMEOUT_S = 5.0
#: deployments started per run, one after another, each serving its share
#: of the rounds; ``setup_s`` is the median of their start-ups
SETUP_REPEATS = 3

SERVER = Path(__file__).resolve().parent / "server.py"


# -- the server process ---------------------------------------------------------


def placement(cpus: set[int]) -> tuple[set[int], set[int]]:
    """The CPUs of *cpus* the deployment runs on, and those the generator
    runs on: the generator gets the last one to itself and the deployment
    the rest, so that neither's threads are moved onto the other's CPU.
    On one CPU both share it."""
    ordered = sorted(cpus)
    if len(ordered) < 2:
        return set(ordered), set(ordered)
    return set(ordered[:-1]), {ordered[-1]}


class ServerProcess:
    """``server.py`` as a child process, driven over its line protocol;
    *cpus* restricts it to those CPUs."""

    def __init__(self, cpus: set[int] | None = None) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            if cpus:
                # before the server has started its threads, which inherit it
                os.sched_setaffinity(self.proc.pid, cpus)
            self.info = self._read(timeout=120.0)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def _read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("registry server did not answer")
        return json.loads(line)

    def ask(self, command: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def replica_samples(self) -> dict[str, float]:
        """Every replica's ``/metrics``, summed per sample name."""
        out: dict[str, float] = {}
        for url in self.info["replicas"]:
            with urllib.request.urlopen(url + "/metrics", timeout=REQUEST_TIMEOUT_S) as r:
                text = r.read().decode()
            for key, value in prometheus_samples(text).items():
                out[key] = out.get(key, 0.0) + value
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b"quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


# -- traffic --------------------------------------------------------------------


@dataclass
class PushImage:
    repo: str
    blobs: list[bytes]  # in the order of the manifest's layers
    manifest: Manifest


@dataclass
class Op:
    id: str  # shared by every span of this pull or push
    due: float  # seconds after the phase starts
    kind: str  # "pull" | "push"
    repo: str
    push: PushImage | None = None
    # filled in by the generator
    free: float = 0.0  # when the registry freed the connection that sent it
    picked: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    outcome: str = ""  # ok | expected | refused | error | skipped
    error: str = ""


def push_images() -> list[PushImage]:
    """The images of the ``tiny`` hub built from :data:`PUSH_HUB_SEED`,
    in an order shuffled by that seed; ``repo`` is each image's name there.
    Auth-gated repositories are left out, so every image reads locally."""
    config = hub_config("tiny", PUSH_HUB_SEED)
    registry, truth = materialize_registry(
        generate_dataset(config),
        fail_share=config.fail_share,
        fail_auth_share=config.fail_auth_share,
        seed=config.seed,
    )
    images = []
    for repo in sorted(set(truth.images) - set(truth.auth_repos)):
        manifest = registry.get_manifest(repo, "latest")
        blobs = [registry.get_blob(digest) for digest in manifest.layer_digests]
        images.append(PushImage(repo, blobs, manifest))
    random.Random(PUSH_HUB_SEED).shuffle(images)
    return images


def _apportion(total: int, weights: list[float]) -> list[int]:
    """Split *total* in proportion to *weights* (largest remainder)."""
    scale = total / sum(weights)
    shares = [w * scale for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: (counts[i] - shares[i], i)
    )
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def schedule(seed: int, label: str, rate: float, seconds: float,
             targets: list[str], weights: list[float],
             pushes: list[PushImage]) -> list[Op]:
    """Arrivals for *seconds* at pull rate *rate*, plus pushes.

    The mix is fixed by the rate: ``rate * seconds`` pulls split over
    *targets* by the Zipf *weights*, and :data:`PUSH_SHARE` of all arrivals
    pushes, the first that many of *pushes* (cycling), each to a new
    repository. The seed (with *label*) draws the order of that mix and
    the arrival times, as a Poisson process with that many arrivals: sorted
    uniform times over the window. Every run of a rate therefore sends the
    same work, in a different order."""
    rng = random.Random(f"{seed}:{label}:{rate}")
    n_pulls = round(rate * seconds)
    n_pushes = round(n_pulls * PUSH_SHARE / (1.0 - PUSH_SHARE))
    kinds: list[tuple[str, str]] = [
        ("pull", repo)
        for repo, count in zip(targets, _apportion(n_pulls, weights))
        for _ in range(count)
    ]
    kinds += [("push", pushes[n % len(pushes)]) for n in range(n_pushes)]
    rng.shuffle(kinds)
    times = sorted(rng.uniform(0.0, seconds) for _ in kinds)
    ops: list[Op] = []
    for due, (kind, target) in zip(times, kinds):
        op_id = f"{label}-{kind}-{len(ops)}"
        if kind == "push":
            repo = f"perfbench/{label}-{seed}-{len(ops)}"
            image = PushImage(repo, target.blobs, target.manifest)
            ops.append(Op(op_id, due, "push", repo, image))
        else:
            ops.append(Op(op_id, due, "pull", target))
    return ops


class Checks:
    """Correctness gates over every response the generator sees.

    Pulled blobs are hashed by a thread of its own, so that the hashing
    does not hold up the connection that pulled them; :meth:`drain` waits
    for it and :meth:`close` stops it."""

    def __init__(self, info: dict) -> None:
        self.images: dict[str, str] = info["images"]
        self.auth = set(info["auth_repos"])
        self.no_latest = set(info["no_latest_repos"])
        self.gates: dict[str, bool] = {}
        self.pushed: dict[str, str] = {}
        self._lock = threading.Lock()
        self._blobs: queue.Queue = queue.Queue(maxsize=64)
        self._hasher = threading.Thread(target=self._hash_blobs, daemon=True)
        self._hasher.start()

    def gate(self, name: str, ok: bool) -> None:
        with self._lock:
            self.gates[name] = self.gates.get(name, True) and bool(ok)

    def verify_blobs(self, blobs: list[tuple[str, bytes]]) -> None:
        """Queue ``(digest, bytes)`` pairs for the digest check."""
        self._blobs.put(blobs)

    def _hash_blobs(self) -> None:
        while (blobs := self._blobs.get()) is not None:
            self.gate(
                "pulled_blobs_match_digests",
                all("sha256:" + hashlib.sha256(b).hexdigest() == d for d, b in blobs),
            )
            self._blobs.task_done()

    def drain(self) -> None:
        self._blobs.join()

    def close(self) -> None:
        self._blobs.put(None)
        self._hasher.join()

    def record_push(self, repo: str, digest: str) -> None:
        with self._lock:
            self.pushed[repo] = digest


def _pull(session: HTTPSession, op: Op, checks: Checks, clock) -> None:
    repo = op.repo
    try:
        manifest = session.get_manifest(repo, "latest")
    except AuthRequiredError:
        op.done = clock()
        checks.gate("expected_outcomes_match_truth", repo in checks.auth)
        op.outcome = "expected"
        return
    except TagNotFoundError:
        op.done = clock()
        checks.gate("expected_outcomes_match_truth", repo in checks.no_latest)
        op.outcome = "expected"
        return
    checks.gate(
        "expected_outcomes_match_truth",
        repo not in checks.auth and repo not in checks.no_latest,
    )
    blobs = [(digest, session.get_blob(digest)) for digest in manifest.layer_digests]
    op.done = clock()
    checks.gate("pulled_manifests_match_truth", manifest.digest() == checks.images.get(repo))
    checks.verify_blobs(blobs)
    op.outcome = "ok"


def _push(session: HTTPSession, op: Op, checks: Checks, clock) -> None:
    image = op.push
    sent = [session.push_blob(blob) for blob in image.blobs]
    digest = session.push_manifest(image.repo, "latest", image.manifest)
    op.done = clock()
    checks.gate(
        "pushes_return_sent_digests",
        sent == [ref.digest for ref in image.manifest.layers]
        and digest == image.manifest.digest(),
    )
    checks.record_push(image.repo, digest)
    op.outcome = "ok"


def run_phase(url: str, ops: list[Op], checks: Checks, *,
              open_loop: bool = True) -> float:
    """Send *ops* over :data:`CONNECTIONS` connections; returns the wall
    time. Open loop sends each op when due; closed loop back to back.
    Returns once every pulled blob of the phase has been hashed."""
    clock = time.perf_counter
    lock = threading.Lock()
    cursor = iter(range(len(ops)))
    aborted = threading.Event()
    start = clock() + (0.05 if open_loop else 0.0)

    def worker() -> None:
        session = HTTPSession(url, timeout=REQUEST_TIMEOUT_S)
        free = start  # when the registry last freed this connection
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            op = ops[index]
            op.free = free
            op.picked = clock()
            due = start + op.due if open_loop else op.picked
            if open_loop:
                if aborted.is_set() or op.picked - due > ABORT_WAIT_S:
                    aborted.set()
                    op.outcome = "skipped"
                    continue
                wait = due - op.picked
                if wait > 0:
                    time.sleep(wait)
            op.sent = clock()
            op.due = due  # absolute from here on
            try:
                (_pull if op.kind == "pull" else _push)(session, op, checks, clock)
            except RateLimitedError as exc:
                op.outcome, op.error = "refused", repr(exc)
            except Exception as exc:  # noqa: BLE001 — timeouts, resets, bad answers
                op.outcome, op.error = "error", repr(exc)
            if op.outcome in ("refused", "error"):
                op.done = clock()
            free = op.done

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = clock() - start
    checks.drain()
    return wall


@dataclass
class PhaseStats:
    errors: list[str] = field(default_factory=list)
    pull_ms: list[float] = field(default_factory=list)
    push_ms: list[float] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    expected: int = 0
    skipped: int = 0
    backlog_grew: bool = False

    def pull_p90_ms(self) -> float:
        return percentile(self.pull_ms, 90.0) if self.pull_ms else 0.0

    def lateness_p99_ms(self) -> float:
        return percentile(self.lateness_ms, 99.0) if self.lateness_ms else 0.0

    def passes(self) -> bool:
        return (
            not self.backlog_grew
            and self.failed == 0
            and bool(self.pull_ms)
            and self.pull_p90_ms() <= LATENCY_LIMIT_MS
        )


def kept_schedule(stats: PhaseStats) -> bool:
    """Whether the generator sent on time; a run where it did not measured
    the generator, not the registry, and is invalid."""
    return stats.lateness_p99_ms() <= LATENESS_LIMIT_MS


def merge_stats(parts: list[PhaseStats]) -> PhaseStats:
    """The stats of several phases as one; the backlog grew if it grew in
    any of them."""
    out = PhaseStats()
    for part in parts:
        out.errors += part.errors
        out.pull_ms += part.pull_ms
        out.push_ms += part.push_ms
        out.lateness_ms += part.lateness_ms
        out.attempted += part.attempted
        out.failed += part.failed
        out.expected += part.expected
        out.skipped += part.skipped
        out.backlog_grew = out.backlog_grew or part.backlog_grew
    return out


def phase_stats(ops: list[Op]) -> PhaseStats:
    stats = PhaseStats()
    waits: list[float] = []
    for op in ops:
        stats.attempted += 1
        if op.outcome == "skipped":
            stats.skipped += 1
            stats.failed += 1
            continue
        # the registry held the op up until it freed the connection; from
        # then on, any delay before the send is the generator's own
        waits.append(max(0.0, op.free - op.due))
        stats.lateness_ms.append((op.sent - max(op.due, op.free)) * 1e3)
        if op.outcome == "expected":
            stats.expected += 1
        elif op.outcome != "ok":
            stats.failed += 1
            stats.errors.append(f"{op.id}: {op.error}")
        elif op.kind == "pull":
            stats.pull_ms.append((op.done - op.due) * 1e3)
        else:
            stats.push_ms.append((op.done - op.due) * 1e3)
    third = max(1, len(waits) // 3)
    head, tail = waits[:third], waits[-third:]
    stats.backlog_grew = stats.skipped > 0 or (
        bool(waits) and sum(tail) / len(tail) - sum(head) / len(head) > BACKLOG_SLACK_S
    )
    return stats


# -- the run --------------------------------------------------------------------


def _targets(info: dict) -> tuple[list[str], list[float]]:
    counts = info["pull_counts"]
    ranked = sorted(counts, key=lambda repo: (-counts[repo], repo))
    return ranked, [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]


def start_deployment(cpus: set[int]) -> tuple[ServerProcess, float, bool]:
    """Start the deployment on *cpus* and read its catalog through the
    frontend; returns it, how long that took and whether the catalog
    equalled the seeded repositories."""
    t0 = time.perf_counter()
    server = ServerProcess(cpus)
    try:
        session = HTTPSession(server.info["frontend"], timeout=REQUEST_TIMEOUT_S)
        catalog = session.catalog()
    except BaseException:
        server.stop()
        raise
    started_s = time.perf_counter() - t0
    return server, started_s, sorted(catalog) == sorted(server.info["pull_counts"])


def _read_back(server: ServerProcess, checks: Checks) -> None:
    """After one anti-entropy pass every pushed manifest must read back
    through the frontend with the digest its push returned."""
    server.ask("sync")
    session = HTTPSession(server.info["frontend"], timeout=REQUEST_TIMEOUT_S)
    ok = True
    for repo, digest in checks.pushed.items():
        try:
            ok = ok and session.get_manifest(repo, "latest").digest() == digest
        except (RegistryError, TransientNetworkError, OSError):
            ok = False
    checks.gate("pushed_manifests_read_back", ok)


def split(ops: list[Op], seconds: float, rounds: int) -> list[list[Op]]:
    """*ops*, scheduled over *seconds*, cut into *rounds* slices of equal
    length, each op due relative to the start of its slice. Cutting one
    schedule keeps the run's traffic mix whatever the number of slices."""
    width = seconds / rounds
    slices: list[list[Op]] = [[] for _ in range(rounds)]
    for op in ops:
        k = min(int(op.due / width), rounds - 1)
        op.due -= k * width
        slices[k].append(op)
    return slices


def sustained(bursts: list[tuple[int, float]]) -> float:
    """Pulls per second over all *bursts* together."""
    return sum(pulls for pulls, _ in bursts) / sum(wall for _, wall in bursts)


def climb_ladder(server: ServerProcess, seed: int, checks: Checks,
                 pushes: list[PushImage], nominal_passed: bool,
                 sustained: float) -> tuple[float, list[dict]]:
    """Find the highest passing rate of :data:`LADDER`, given the nominal
    rate's verdict; returns it and every probe made.

    The walk starts at the ladder rate nearest :data:`ESTIMATE_SHARE` of
    the *sustained* closed-loop rate and steps one rung at a time: up while
    probes pass, down while they fail, at most :data:`MAX_PROBES` probes."""
    url = server.info["frontend"]
    targets, weights = _targets(server.info)
    nominal = LADDER.index(NOMINAL_RATE)
    verdicts = {nominal: nominal_passed}
    probes: list[dict] = []

    def passes(index: int) -> bool:
        if index not in verdicts:
            rate = LADDER[index]
            ops = schedule(
                seed, f"probe{index}", rate, PROBE_S, targets, weights, pushes
            )
            run_phase(url, ops, checks)
            stats = phase_stats(ops)
            verdicts[index] = stats.passes()
            probes.append({
                "rate": rate,
                "pulls": len(stats.pull_ms),
                "pull_p90_ms": stats.pull_p90_ms(),
                "backlog_grew": stats.backlog_grew,
                "failed": stats.failed,
                "passed": verdicts[index],
            })
        return verdicts[index]

    index = max(
        [i for i, rate in enumerate(LADDER) if rate <= ESTIMATE_SHARE * sustained]
        or [0]
    )
    if passes(index):
        while index + 1 < len(LADDER) and len(probes) < MAX_PROBES:
            if not passes(index + 1):
                break
            index += 1
        return LADDER[index], probes
    while index > 0 and len(probes) < MAX_PROBES:
        index -= 1
        if passes(index):
            return LADDER[index], probes
    return 0.0, probes


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """Run the workload with the generator (this thread and every thread it
    starts) and the deployment on CPUs of their own; see :func:`placement`."""
    own = os.sched_getaffinity(0)
    server_cpus, generator_cpus = placement(own)
    os.sched_setaffinity(0, generator_cpus)
    try:
        outcome = (_run_traced if trace else _run)(seed, seconds, server_cpus)
    finally:
        os.sched_setaffinity(0, own)
    outcome.report["placement"] = {
        "deployment": sorted(server_cpus),
        "generator": sorted(generator_cpus),
    }
    return outcome


def _run(seed: int, seconds: float, server_cpus: set[int]) -> Outcome:
    pushes = push_images()
    setup_s: list[float] = []
    slices: list[list[Op]] = []
    parts: list[PhaseStats] = []
    bursts: list[tuple[int, float]] = []
    peaks: list[float] = []
    gates: dict[str, bool] = {}
    for n in range(SETUP_REPEATS):
        server, started_s, catalog_ok = start_deployment(server_cpus)
        setup_s.append(started_s)
        checks = Checks(server.info)
        try:
            checks.gate("catalog_matches_truth", catalog_ok)
            url = server.info["frontend"]
            targets, weights = _targets(server.info)
            if not slices:
                slices = split(
                    schedule(seed, "nominal", NOMINAL_RATE, seconds, targets, weights, pushes),
                    seconds,
                    ROUNDS,
                )
            # this deployment's share of the rounds
            for k in range(n * ROUNDS // SETUP_REPEATS, (n + 1) * ROUNDS // SETUP_REPEATS):
                run_phase(url, slices[k], checks)
                parts.append(phase_stats(slices[k]))
                burst = schedule(seed, f"burst{k}", BURST_PULLS, 1.0, targets, weights, pushes)
                wall = run_phase(url, burst, checks, open_loop=False)
                bursts.append((sum(op.kind == "pull" for op in burst), wall))
            if n + 1 == SETUP_REPEATS:
                nominal = merge_stats(parts)
                checks.gate("generator_kept_schedule", kept_schedule(nominal))
                max_rate, probes = climb_ladder(
                    server, seed, checks, pushes, nominal.passes(), sustained(bursts)
                )
            _read_back(server, checks)
            samples = program_samples(server)
            peaks.append(server.ask("rss")["peak_rss_mb"])
        finally:
            checks.close()
            server.stop()
        for name, ok in checks.gates.items():
            gates[name] = gates.get(name, True) and ok
    peak_rss = max(peaks)

    named = {
        "setup_s": median(setup_s),
        "pull_p50_ms": median(nominal.pull_ms),
        "pull_p90_ms": nominal.pull_p90_ms(),
        "pulls": len(nominal.pull_ms),
        "push_p50_ms": median(nominal.push_ms) if nominal.push_ms else 0.0,
        "push_max_ms": max(nominal.push_ms, default=0.0),
        "pushes": len(nominal.push_ms),
        "expected_outcomes": nominal.expected,
        "sustained_pulls_per_s": sustained(bursts),
        "max_pull_rate_rps": max_rate,
        "failed_share": nominal.failed / nominal.attempted,
        "lateness_p99_ms": nominal.lateness_p99_ms(),
        "backlog_grew_at_nominal": float(nominal.backlog_grew),
        "peak_rss_mb": peak_rss,
    }
    return Outcome(
        attempted=nominal.attempted,
        failed=nominal.failed,
        gates=gates,
        metrics={
            "setup_s": median(setup_s),
            "throughput_per_s": sustained(bursts),
            "latency_p50_ms": median(nominal.pull_ms),
            "peak_rss_mb": peak_rss,
        },
        report={
            "named": named,
            "valid": gates["generator_kept_schedule"],
            "nominal_rate": NOMINAL_RATE,
            "setup_s": setup_s,
            "burst_pulls_per_s": [pulls / wall for pulls, wall in bursts],
            "nominal_errors": nominal.errors[:20],
            "prometheus": samples,
            "ladder_probes": probes,
            "backlog_grew": {
                str(NOMINAL_RATE): nominal.backlog_grew,
                **{str(p["rate"]): p["backlog_grew"] for p in probes},
            },
        },
    )


def program_samples(server: ServerProcess) -> dict[str, dict[str, float]]:
    """The deployment's own metrics under their Prometheus names: the
    frontend's registry and the replicas' ``/metrics`` (summed)."""
    return {
        "frontend": prometheus_samples(server.ask("stats")["prometheus"]),
        "replicas": server.replica_samples(),
    }


def _frontend_delta(before: dict, after: dict) -> dict[str, float]:
    return {
        f"ha.frontend.{key}": after["stats"][key] - before["stats"][key]
        for key in ("reads", "writes", "failovers", "refused", "corrupt_blocked")
    }


def _server_seconds(before: dict, after: dict) -> dict[str, float]:
    def delta(endpoint: str) -> float:
        name = "registry_http_request_seconds_sum"
        return (sample_total(after, name, endpoint=endpoint)
                - sample_total(before, name, endpoint=endpoint))

    return {
        "registry.http.server_manifest_s": delta("manifest"),
        "registry.http.server_blob_s": delta("blob"),
        "registry.http.server_upload_s": delta("upload"),
    }


def _run_traced(seed: int, seconds: float, server_cpus: set[int]) -> Outcome:
    from spans import Tracer

    pushes = push_images()
    server, started_s, catalog_ok = start_deployment(server_cpus)
    setup_s = [started_s]
    checks = Checks(server.info)
    try:
        checks.gate("catalog_matches_truth", catalog_ok)
        url = server.info["frontend"]
        targets, weights = _targets(server.info)

        # untraced, open loop at the nominal rate: the program's counters
        before = server.ask("stats")
        ops = schedule(seed, "nominal", NOMINAL_RATE, seconds, targets, weights, pushes)
        run_phase(url, ops, checks)
        nominal = phase_stats(ops)
        frontend = _frontend_delta(before, server.ask("stats"))
        checks.gate("generator_kept_schedule", kept_schedule(nominal))

        # the same traffic closed loop: untraced before and after the traced
        # replay, so drift between replays cancels out of the overhead
        def replay(label: str) -> float:
            ops = schedule(seed, label, NOMINAL_RATE, seconds, targets, weights, pushes)
            return run_phase(url, ops, checks, open_loop=False)

        untraced_s = replay("replay-before")
        tracer = Tracer()
        samples_before = server.replica_samples()
        with tracer:
            tracer.patch(HTTPSession, "get_manifest", "registry.http.manifest_get")
            tracer.patch(HTTPSession, "get_blob", "registry.http.blob_get")
            tracer.patch(HTTPSession, "push_blob", "registry.http.blob_push")
            tracer.patch(HTTPSession, "push_manifest", "registry.http.manifest_put")
            this = sys.modules[__name__]
            tracer.patch(this, "_pull", "loadgen.pull", op_of=lambda s, op, *r: op.id)
            tracer.patch(this, "_push", "loadgen.push", op_of=lambda s, op, *r: op.id)
            traced_s = replay("traced")
        samples_after = server.replica_samples()
        untraced_s = (untraced_s + replay("replay-after")) / 2
        _read_back(server, checks)
        samples = program_samples(server)
        peak_rss = server.ask("rss")["peak_rss_mb"]
    finally:
        checks.close()
        server.stop()

    totals = tracer.totals()

    def total(name: str) -> float:
        return totals.get(name, {}).get("total_s", 0.0)

    server_s = _server_seconds(samples_before, samples_after)
    client_s = {
        "registry.http.manifest_get_s": total("registry.http.manifest_get"),
        "registry.http.blob_get_s": total("registry.http.blob_get"),
        "registry.http.blob_push_s": total("registry.http.blob_push"),
        "registry.http.manifest_put_s": total("registry.http.manifest_put"),
    }
    per_layer = {
        "synth.generate_s": server.info["generate_s"],
        "synth.materialize_s": server.info["materialize_s"],
        **client_s,
        **server_s,
        "ha.frontend.hop_s": sum(client_s.values()) - sum(server_s.values()),
        **frontend,
        "loadgen.lateness_p99_ms": nominal.lateness_p99_ms(),
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
        "trace.coverage": tracer.top_level_seconds() / (CONNECTIONS * traced_s),
    }
    return Outcome(
        attempted=nominal.attempted,
        failed=nominal.failed,
        gates=checks.gates,
        metrics=per_layer,
        report={
            "valid": checks.gates["generator_kept_schedule"],
            "traced_replay_s": traced_s,
            "untraced_replay_s": untraced_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss,
            "span_totals": totals,
            "prometheus": samples,
        },
        trace=tracer.chrome_trace(),
    )
