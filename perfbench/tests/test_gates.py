"""Each correctness gate of the benchmark fires on a corrupted output.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
The workloads' own checking code is exercised on small inputs (the
``tiny`` hub), first on good output — every gate holds — then on output
corrupted one way at a time.
"""

from __future__ import annotations

import copy
import hashlib
import sys
from dataclasses import replace

import pytest

import characterize
import pull_analyze
import registry_serve
from common import hub_config, pass_due
from repro.core.colstream import streaming_report
from repro.model.manifest import Manifest, ManifestLayerRef
from repro.obs import MetricsRegistry
from repro.registry.errors import AuthRequiredError
from repro.registry.search import HubSearchEngine
from repro.registry.tarball import layer_from_files
from repro.synth.hubgen import generate_dataset
from repro.synth.materialize import materialize_registry
from repro.synth.streamgen import iter_dataset_chunks, open_chunk_store, spill_chunks


def test_passes_are_spread_over_the_setups():
    def plan(pass_s, seconds, min_passes, setups=3):
        """Passes run after each set-up, each taking *pass_s*."""
        done, rounds = [], []
        for n in range(setups):
            before = len(done)
            while pass_due(n, setups, len(done), sum(done), seconds, min_passes):
                done.append(pass_s)
            rounds.append(len(done) - before)
        return rounds

    assert plan(3.4, 12.0, 3) == [2, 1, 1]
    assert plan(7.0, 12.0, 2) == [1, 1, 0]
    assert plan(20.0, 12.0, 3) == [1, 1, 1]


# -- pull_analyze ---------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_pipeline():
    config = hub_config("tiny", 3)
    registry, truth = materialize_registry(
        generate_dataset(config),
        fail_share=config.fail_share,
        fail_auth_share=config.fail_auth_share,
        seed=config.seed,
    )
    search = HubSearchEngine(registry, seed=config.seed)
    stats, analysis, figures = pull_analyze.run_pass(
        3, registry, search, "serial", MetricsRegistry()
    )
    reference = pull_analyze.fingerprint(analysis, figures)
    return truth, stats, analysis, figures, reference


def _pull_gates(truth, stats, analysis, figures, reference) -> dict:
    gates: dict = {}
    summary = pull_analyze.summarize(stats, analysis, figures)
    pull_analyze.check_pass(gates, truth, summary, reference)
    return gates


def test_pull_analyze_gates_hold_on_good_output(tiny_pipeline):
    assert all(_pull_gates(*tiny_pipeline).values())


@pytest.mark.parametrize(
    "field, gate",
    [
        ("succeeded", "downloads_succeeded_match_truth"),
        ("failed_auth", "downloads_auth_match_truth"),
        ("failed_no_latest", "downloads_no_latest_match_truth"),
        ("failed_other", "downloads_other_failures_zero"),
    ],
)
def test_pull_analyze_download_gates_fire(tiny_pipeline, field, gate):
    truth, stats, analysis, figures, reference = tiny_pipeline
    bad = replace(stats, **{field: getattr(stats, field) + 1})
    gates = _pull_gates(truth, bad, analysis, figures, reference)
    assert gates[gate] is False
    assert sum(not ok for ok in gates.values()) == 1


def test_pull_analyze_fingerprint_gate_fires(tiny_pipeline):
    truth, stats, analysis, figures, reference = tiny_pipeline
    bad = copy.deepcopy(analysis)
    bad.dataset.file_sizes[0] += 1
    gates = _pull_gates(truth, stats, bad, figures, reference)
    assert gates["fingerprint_matches_serial"] is False


def test_pull_analyze_unique_layer_gate_fires(tiny_pipeline):
    truth, stats, analysis, figures, reference = tiny_pipeline
    bad_truth = copy.copy(truth)
    bad_truth.layers = dict(list(truth.layers.items())[1:])
    gates = _pull_gates(bad_truth, stats, analysis, figures, reference)
    assert gates["unique_layers_match_truth"] is False


# -- characterize ---------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    config = hub_config("tiny", 5)
    store = tmp_path_factory.mktemp("chunks")
    spill_chunks(iter_dataset_chunks(config, chunk_occurrences=500), store)
    specs = open_chunk_store(store)
    dataset = generate_dataset(config)
    report, figures = characterize.run_pass(specs, dataset, "serial", MetricsRegistry())
    return dataset, report, figures


def test_characterize_gates_hold_on_good_output(tiny_store):
    dataset, report, figures = tiny_store
    checker = characterize._Checker(dataset)
    checker.check(report, figures)
    checker.check(report, figures)
    assert checker.gates and all(checker.gates.values())


def test_characterize_report_gate_fires(tiny_store):
    dataset, report, figures = tiny_store
    bad = copy.deepcopy(report)
    bad.doc["totals"]["occurrences"] += 1
    checker = characterize._Checker(dataset)
    checker.check(bad, figures)
    assert checker.gates["streaming_report_matches_in_memory"] is False


def test_characterize_figures_gate_fires(tiny_store):
    dataset, report, figures = tiny_store
    bad = copy.deepcopy(figures)
    first = next(iter(bad[0].metrics))
    bad[0].metrics[first] += 1.0
    checker = characterize._Checker(dataset)
    checker.check(report, figures)
    checker.check(report, bad)
    assert checker.gates["figures_repeat_exactly"] is False


def test_characterize_reports_a_failed_chunk(tiny_store, tmp_path):
    config = hub_config("tiny", 5)
    spill_chunks(iter_dataset_chunks(config, chunk_occurrences=500), tmp_path)
    specs = open_chunk_store(tmp_path)
    next(tmp_path.glob("chunk-*.npz")).write_bytes(b"not a chunk")
    with pytest.raises(RuntimeError):
        streaming_report(specs)


# -- registry_serve -------------------------------------------------------------


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


class FakeSession:
    """Answers like ``HTTPSession``; *rot* flips a byte of every blob."""

    def __init__(self, blobs: dict[str, bytes], manifests: dict[str, Manifest],
                 *, rot: bool = False, auth: tuple[str, ...] = ()):
        self.blobs, self.manifests, self.rot, self.auth = blobs, manifests, rot, auth

    def get_manifest(self, repo, reference):
        if repo in self.auth:
            raise AuthRequiredError(repo)
        return self.manifests[repo]

    def get_blob(self, digest):
        blob = self.blobs[digest]
        return bytes([blob[0] ^ 1]) + blob[1:] if self.rot else blob

    def push_blob(self, data):
        return _digest(data if not self.rot else data + b"x")

    def push_manifest(self, repo, tag, manifest):
        return manifest.digest()


@pytest.fixture()
def serve_fixture():
    blob = b"layer bytes" * 100
    manifest = Manifest(layers=(ManifestLayerRef(digest=_digest(blob), size=len(blob)),))
    info = {
        "images": {"good/repo": manifest.digest()},
        "auth_repos": ["gated/repo"],
        "no_latest_repos": [],
    }
    return blob, manifest, info


def _pull(session, repo, info):
    checks = registry_serve.Checks(info)
    op = registry_serve.Op("t", 0.0, "pull", repo)
    registry_serve._pull(session, op, checks, lambda: 0.0)
    checks.close()
    return checks.gates, op


def _push_image(repo: str, seed: int) -> registry_serve.PushImage:
    """A one-layer image of seeded random bytes."""
    rng = registry_serve.random.Random(seed)
    layer, blob = layer_from_files([("app/f.bin", rng.randbytes(4096))])
    ref = ManifestLayerRef(digest=layer.digest, size=len(blob))
    return registry_serve.PushImage(repo, [blob], Manifest(layers=(ref,)))


def test_serve_gates_hold_on_good_pulls(serve_fixture):
    blob, manifest, info = serve_fixture
    session = FakeSession({manifest.layers[0].digest: blob}, {"good/repo": manifest},
                          auth=("gated/repo",))
    gates, op = _pull(session, "good/repo", info)
    assert op.outcome == "ok" and all(gates.values())
    gates, op = _pull(session, "gated/repo", info)
    assert op.outcome == "expected" and all(gates.values())


def test_serve_blob_digest_gate_fires(serve_fixture):
    blob, manifest, info = serve_fixture
    session = FakeSession({manifest.layers[0].digest: blob}, {"good/repo": manifest},
                          rot=True)
    gates, _ = _pull(session, "good/repo", info)
    assert gates["pulled_blobs_match_digests"] is False


def test_serve_manifest_gate_fires(serve_fixture):
    blob, manifest, info = serve_fixture
    info = {**info, "images": {"good/repo": "sha256:" + "0" * 64}}
    session = FakeSession({manifest.layers[0].digest: blob}, {"good/repo": manifest})
    gates, _ = _pull(session, "good/repo", info)
    assert gates["pulled_manifests_match_truth"] is False


def test_serve_expected_outcome_gate_fires(serve_fixture):
    blob, manifest, info = serve_fixture
    # the registry lets an anonymous client read an auth-gated repository
    session = FakeSession({manifest.layers[0].digest: blob}, {"gated/repo": manifest})
    gates, _ = _pull(session, "gated/repo", info)
    assert gates["expected_outcomes_match_truth"] is False


def test_serve_push_gate_fires(serve_fixture):
    _, _, info = serve_fixture
    image = _push_image("new/repo", 1)
    for rot, expected in ((False, True), (True, False)):
        checks = registry_serve.Checks(info)
        op = registry_serve.Op("t", 0.0, "push", image.repo, image)
        registry_serve._push(FakeSession({}, {}, rot=rot), op, checks, lambda: 0.0)
        checks.close()
        assert checks.gates["pushes_return_sent_digests"] is expected


@pytest.fixture(scope="module")
def server():
    server = registry_serve.ServerProcess()
    yield server
    server.stop()


def test_serve_read_back_gate_fires(server):
    checks = registry_serve.Checks(server.info)
    session = registry_serve.HTTPSession(server.info["frontend"])
    image = _push_image("rb/repo", 2)
    op = registry_serve.Op("t", 0.0, "push", image.repo, image)
    registry_serve._push(session, op, checks, lambda: 0.0)
    registry_serve._read_back(server, checks)
    assert checks.gates["pushed_manifests_read_back"] is True
    checks.pushed["rb/repo"] = "sha256:" + "0" * 64
    registry_serve._read_back(server, checks)
    checks.close()
    assert checks.gates["pushed_manifests_read_back"] is False


def test_run_phase_sends_every_op_once_under_thread_switching(server):
    targets, weights = registry_serve._targets(server.info)
    pushes = [_push_image(f"src/{n}", n) for n in range(3)]
    ops = registry_serve.schedule(4, "stress", 30.0, 1.0, targets, weights, pushes)
    checks = registry_serve.Checks(server.info)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        registry_serve.run_phase(server.info["frontend"], ops, checks, open_loop=False)
    finally:
        sys.setswitchinterval(interval)
        checks.close()
    assert all(op.outcome in ("ok", "expected") for op in ops)
    assert all(op.free <= op.picked <= op.sent <= op.done for op in ops)
    assert checks.gates and all(checks.gates.values())
    assert len(checks.pushed) == sum(op.kind == "push" for op in ops)


def test_serve_lateness_marks_run_invalid():
    ops = [registry_serve.Op(str(i), float(i), "pull", "r") for i in range(10)]
    for op in ops:
        op.picked = op.due
        op.sent = op.due + 0.5  # the generator sent every request 500 ms late
        op.done = op.sent + 0.01
        op.outcome = "ok"
    stats = registry_serve.phase_stats(ops)
    assert not registry_serve.kept_schedule(stats)
    for op in ops:
        op.sent = op.due
    assert registry_serve.kept_schedule(registry_serve.phase_stats(ops))


def test_serve_lateness_counts_post_response_work():
    """Work the generator does after a response (or waiting for the GIL)
    delays its next pick: that delay is lateness, not registry queueing."""
    ops = [registry_serve.Op(str(i), i * 0.1, "pull", "r") for i in range(10)]
    for op in ops:
        # the registry answered the previous op in time, but the generator
        # picked this one 60 ms after it was due
        op.free = op.due - 0.05
        op.picked = op.sent = op.due + 0.06
        op.done = op.sent + 0.01
        op.outcome = "ok"
    stats = registry_serve.phase_stats(ops)
    assert not registry_serve.kept_schedule(stats)
    assert not stats.backlog_grew
    for op in ops:
        # now the registry held the connection until then: queue wait
        op.free = op.picked
    stats = registry_serve.phase_stats(ops)
    assert registry_serve.kept_schedule(stats)


def test_schedule_mix_is_fixed_by_rate():
    targets, weights = ["a", "b", "c"], [1.0, 0.5, 1 / 3]
    pushes = [_push_image(f"src/{n}", n) for n in range(2)]

    def mix(seed):
        ops = registry_serve.schedule(seed, "m", 20.0, 2.0, targets, weights, pushes)
        pulls = sorted(op.repo for op in ops if op.kind == "pull")
        pushed = sorted(op.push.manifest.digest() for op in ops if op.kind == "push")
        return pulls, pushed, [op.due for op in ops]

    pulls, pushed, times = mix(1)
    assert len(pulls) == 40 and len(pushed) == 4
    assert mix(2)[:2] == (pulls, pushed) and mix(2)[2] != times
    assert mix(1) == (pulls, pushed, times)


def test_backlog_growth_is_detected():
    ops = [registry_serve.Op(str(i), i * 0.1, "pull", "r") for i in range(30)]
    for i, op in enumerate(ops):
        op.free = op.due + i * 0.05  # every request waits longer than the last
        op.picked = op.sent = op.free
        op.done, op.outcome = op.sent + 0.01, "ok"
    assert registry_serve.phase_stats(ops).backlog_grew


def test_split_keeps_every_op_in_its_slice():
    targets, weights = ["a", "b", "c"], [1.0, 0.5, 1 / 3]
    pushes = [_push_image(f"src/{n}", n) for n in range(2)]
    ops = registry_serve.schedule(5, "s", 20.0, 4.0, targets, weights, pushes)
    absolute = {op.id: op.due for op in ops}
    slices = registry_serve.split(ops, 4.0, 4)
    assert sorted(op.id for part in slices for op in part) == sorted(absolute)
    for k, part in enumerate(slices):
        assert part and all(0.0 <= op.due < 1.0 for op in part)
        assert all(op.due + k == pytest.approx(absolute[op.id]) for op in part)


def test_merged_stats_pool_samples_and_keep_a_grown_backlog():
    calm = registry_serve.PhaseStats(pull_ms=[1.0, 2.0], attempted=3, expected=1)
    grown = registry_serve.PhaseStats(
        pull_ms=[3.0], attempted=2, failed=1, errors=["x"], backlog_grew=True
    )
    merged = registry_serve.merge_stats([calm, grown])
    assert merged.pull_ms == [1.0, 2.0, 3.0]
    assert (merged.attempted, merged.failed, merged.expected) == (5, 1, 1)
    assert merged.errors == ["x"] and merged.backlog_grew
    assert not registry_serve.merge_stats([calm, calm]).backlog_grew


def test_sustained_rate_weighs_bursts_by_time():
    assert registry_serve.sustained([(40, 1.0), (40, 3.0)]) == pytest.approx(20.0)
