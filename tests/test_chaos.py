"""Differential chaos suite — the headline invariant of :mod:`repro.chaos`.

A chaotic campaign with retries converges to the *same* classification
report (Tables 1–3, Figure 1) as the fault-free campaign at the same
seed and scale — sequentially, split across worker processes, and
through a checkpoint/resume cycle.  Residual failures are counted
(``retry.abandoned``), never silently dropped.

Alongside the differential tests: Hypothesis properties of
:class:`RetryPolicy` (determinism, budget, stream independence),
interaction tests against the fault behaviors of
:mod:`repro.server.behaviors`, and unit tests of the
:class:`ChaosPlane` decision function (fairness cap, layout
independence, spec parsing).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignConfig, resume_campaign, run_campaign
from repro.chaos import (
    ONE_IMMEDIATE_RETRY,
    ChaosConfig,
    ChaosPlane,
    RetryPolicy,
    derive_seed,
    stable_unit,
)
from repro.dns.message import make_query
from repro.dns.name import Name
from repro.dns.types import Rcode, RRType
from repro.obs.stats import collect_stats, render_stats
from repro.reports import render_artifacts
from repro.scanner import Scanner
from repro.scanner.results import QueryStatus
from repro.scanner.yodns import ScannerConfig
from repro.server.behaviors import DropQueriesBehavior, TransientFailureBehavior
from repro.server.network import SimulatedClock
from repro.store.manifest import load_manifest

from tests.helpers import OP_IP_1, build_mini_world

SCALE = 1e-6
SEED = 41
#: Every fault kind at once, at the default (moderate) intensities.
CHAOS = ChaosConfig.default(seed=7)


@pytest.fixture(scope="module")
def baseline_artifacts():
    """The fault-free campaign's artifacts — the convergence target."""
    return render_artifacts(run_campaign(CampaignConfig(scale=SCALE, seed=SEED)).report)


@pytest.fixture(scope="module")
def chaotic_sequential(tmp_path_factory):
    root = tmp_path_factory.mktemp("chaos-seq") / "store"
    campaign = run_campaign(
        CampaignConfig(
            scale=SCALE, seed=SEED, store_dir=root, telemetry=True, chaos=CHAOS
        )
    )
    return campaign, root


@pytest.fixture(scope="module")
def chaotic_parallel(tmp_path_factory):
    root = tmp_path_factory.mktemp("chaos-par") / "store"
    campaign = run_campaign(
        CampaignConfig(
            scale=SCALE,
            seed=SEED,
            store_dir=root,
            workers=2,
            telemetry=True,
            chaos=CHAOS,
        )
    )
    return campaign, root


class TestDifferential:
    """Chaos on + retries ≡ chaos off, for the artifacts a user sees."""

    def test_sequential_chaotic_campaign_matches_fault_free(
        self, chaotic_sequential, baseline_artifacts
    ):
        campaign, _ = chaotic_sequential
        assert render_artifacts(campaign.report) == baseline_artifacts

    def test_faults_were_actually_injected(self, chaotic_sequential):
        # The differential claim is vacuous unless the plane really hit
        # the scan with every configured fault kind.
        _, root = chaotic_sequential
        counters = collect_stats(root).counters
        assert counters["chaos.decisions"] > 1000
        for kind in ("loss", "servfail", "truncation", "latency", "brownout"):
            assert counters[f"chaos.faults.{kind}"] > 0, kind
        assert counters["retry.attempts"] > 0

    def test_parallel_chaotic_campaign_matches_fault_free(
        self, chaotic_parallel, baseline_artifacts
    ):
        campaign, _ = chaotic_parallel
        assert render_artifacts(campaign.report) == baseline_artifacts

    def test_residual_failures_match_across_layouts(
        self, chaotic_sequential, chaotic_parallel
    ):
        # Worker processes run derived fault streams, so raw fault
        # counts differ between layouts — but the *residual* count
        # (queries abandoned after every attempt timed out) is a
        # property of the world, not the layout: only genuinely dead
        # servers can defeat the fairness bound.
        seq = collect_stats(chaotic_sequential[1]).counters
        par = collect_stats(chaotic_parallel[1]).counters
        assert seq.get("retry.abandoned", 0) == par.get("retry.abandoned", 0)

    def test_stats_render_fault_injection_section(self, chaotic_sequential):
        _, root = chaotic_sequential
        text = render_stats(collect_stats(root))
        assert "fault injection" in text
        assert "suppressed by fairness cap" in text
        assert "retries:" in text


class TestManifestRoundTrip:
    """An interrupted chaotic campaign resumes chaotic — and converges."""

    def test_chaos_and_retry_survive_the_manifest(self, tmp_path, baseline_artifacts):
        root = tmp_path / "store"
        retry = RetryPolicy(attempts=5, base=0.5, seed=3)
        run_campaign(
            CampaignConfig(
                scale=SCALE,
                seed=SEED,
                store_dir=root,
                stop_after=70,
                chaos=CHAOS,
                retry=retry,
            )
        )
        stored = CampaignConfig.from_manifest(load_manifest(root))
        assert stored.chaos == CHAOS
        assert stored.retry == retry
        # Resume with no flags: the recorded fault model applies to the
        # remainder, and the finished report still equals fault-free.
        resumed = resume_campaign(root)
        assert render_artifacts(resumed.report) == baseline_artifacts

    def test_config_dict_round_trips_losslessly(self):
        chaos = ChaosConfig(loss=0.2, brownout_period=60.0, brownout_duration=5.0,
                            brownout_fraction=0.5, seed=9)
        assert ChaosConfig.from_dict(chaos.to_dict()) == chaos
        assert ChaosConfig.from_dict(ChaosConfig().to_dict()) == ChaosConfig()
        retry = RetryPolicy(attempts=6, budget=30.0, retry_servfail=False)
        assert RetryPolicy.from_dict(retry.to_dict()) == retry
        assert RetryPolicy.from_dict(RetryPolicy().to_dict()) == RetryPolicy()


policies = st.builds(
    RetryPolicy,
    attempts=st.integers(1, 6),
    base=st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
    multiplier=st.floats(1.0, 3.0, allow_nan=False, allow_infinity=False),
    cap=st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
    budget=st.floats(0.0, 20.0, allow_nan=False, allow_infinity=False),
    jitter=st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**32),
)
keys = st.text(min_size=1, max_size=40)


class TestRetryPolicyProperties:
    @given(policy=policies, key=keys)
    @settings(max_examples=200, deadline=None)
    def test_same_seed_same_schedule(self, policy, key):
        # The schedule is a pure function of (policy, key): recomputing
        # it — or rebuilding the policy from its manifest dict — yields
        # the identical wait sequence, element for element.
        twin = RetryPolicy.from_dict(policy.to_dict())
        assert twin == policy
        assert policy.schedule(key) == policy.schedule(key) == twin.schedule(key)

    @given(policy=policies, key=keys)
    @settings(max_examples=200, deadline=None)
    def test_total_wait_never_exceeds_budget(self, policy, key):
        waits = policy.schedule(key)
        assert len(waits) <= policy.attempts - 1
        assert all(w >= 0.0 for w in waits)
        assert sum(waits) <= policy.budget + 1e-9

    @given(policy=policies, key=keys)
    @settings(max_examples=100, deadline=None)
    def test_backoff_defined_only_between_attempts(self, policy, key):
        assert policy.backoff(0, key, 0.0) is None
        assert policy.backoff(policy.attempts, key, 0.0) is None

    @given(key=keys, buckets=st.lists(st.integers(0, 63), min_size=2, max_size=2,
                                      unique=True))
    @settings(max_examples=100, deadline=None)
    def test_derived_worker_streams_are_independent(self, key, buckets):
        # Two workers derive distinct jitter streams from their bucket
        # ranges; with jitter on, their schedules for the same key
        # disagree (BLAKE2b collision odds are ignorable).
        policy = RetryPolicy.default()
        a = policy.derive("worker", buckets[0])
        b = policy.derive("worker", buckets[1])
        assert a.seed != b.seed
        assert a.schedule(key) != b.schedule(key)

    def test_legacy_policy_reproduces_pre_chaos_behaviour(self):
        legacy = ONE_IMMEDIATE_RETRY
        assert legacy.attempts == 2
        assert legacy.schedule("any/key") == [0.0]  # immediate re-attempt
        assert not legacy.retry_servfail

    def test_hash_primitives_are_pure_functions(self):
        assert stable_unit(1, "a", 2) == stable_unit(1, "a", 2)
        assert 0.0 <= stable_unit(1, "a", 2) < 1.0
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(2, "x")


class TestBehaviorInteraction:
    """Retry loop vs the server fault behaviors of repro.server.behaviors."""

    def test_transient_servfail_recovers_within_the_retry_loop(self):
        world = build_mini_world()
        qname = Name.from_text("example.com")
        world["servers"]["operator"].add_behavior(
            TransientFailureBehavior([qname], failures=2)
        )
        scanner = Scanner(
            world["network"],
            world["root_ips"],
            ScannerConfig(retry_policy=RetryPolicy.default()),
        )
        result = scanner.query_one(OP_IP_1, qname, RRType.SOA)
        assert result.status == QueryStatus.OK
        assert scanner.retry_attempts >= 2
        assert scanner.retry_backoff_seconds > 0.0

    def test_legacy_policy_does_not_retry_servfail(self):
        # The pre-chaos scanner surfaced the first SERVFAIL verbatim —
        # the default (no policy configured) must keep doing exactly that.
        world = build_mini_world()
        qname = Name.from_text("example.com")
        world["servers"]["operator"].add_behavior(
            TransientFailureBehavior([qname], failures=1)
        )
        scanner = Scanner(world["network"], world["root_ips"])
        result = scanner.query_one(OP_IP_1, qname, RRType.SOA)
        assert result.status == QueryStatus.ERROR
        assert result.rcode == Rcode.SERVFAIL

    def test_dropped_queries_exhaust_the_budget_and_are_counted(self):
        world = build_mini_world()
        world["servers"]["operator"].add_behavior(DropQueriesBehavior())
        # Waits: 4.0, then 8.0 would blow the 5.0 budget → abandon after
        # exactly two attempts and one backoff.
        policy = RetryPolicy(
            attempts=5, base=4.0, multiplier=2.0, cap=10.0, budget=5.0, jitter=0.0
        )
        scanner = Scanner(
            world["network"], world["root_ips"], ScannerConfig(retry_policy=policy)
        )
        result = scanner.query_one(OP_IP_1, Name.from_text("example.com"), RRType.SOA)
        assert result.status == QueryStatus.TIMEOUT
        assert scanner.retry_abandoned == 1
        assert scanner.retry_attempts == 1
        assert scanner.retry_backoff_seconds == pytest.approx(4.0)

    def test_backoff_advances_the_simulated_clock(self):
        world = build_mini_world()
        world["servers"]["operator"].add_behavior(DropQueriesBehavior())
        policy = RetryPolicy(attempts=2, base=1.5, jitter=0.0, budget=10.0)
        scanner = Scanner(
            world["network"], world["root_ips"], ScannerConfig(retry_policy=policy)
        )
        clock = scanner.limiter.clock
        before = clock.now()
        scanner.query_one(OP_IP_1, Name.from_text("example.com"), RRType.SOA)
        # Two timeouts plus one 1.5 s backoff, all simulated time.
        assert clock.now() - before >= 1.5


def _plane(clock=None, **config):
    return ChaosPlane(ChaosConfig(**config), clock=clock or SimulatedClock())


K1 = ("203.0.113.10", b"example.com.", int(RRType.SOA))
K2 = ("198.41.0.4", b"island.com.", int(RRType.CDS))


class TestChaosPlane:
    def test_decisions_are_layout_independent(self):
        # The verdict for a key's nth exchange must not depend on which
        # other keys were asked in between — the property that makes the
        # sequential and sharded-parallel fault streams agree.
        a = _plane(loss=0.5, seed=1)
        b = _plane(loss=0.5, seed=1)
        seq_a = [a.decide(*K1, False), a.decide(*K1, False),
                 a.decide(*K2, False), a.decide(*K1, False)]
        b.decide(*K2, False)
        seq_b = [b.decide(*K1, False), b.decide(*K1, False), b.decide(*K1, False)]
        assert [d.kind for d in (seq_a[0], seq_a[1], seq_a[3])] == [
            d.kind for d in seq_b
        ]

    def test_fairness_cap_bounds_consecutive_faults(self):
        plane = _plane(loss=1.0, max_consecutive=2)
        kinds = [plane.decide(*K1, False).kind for _ in range(6)]
        # loss, loss, <clean>, loss, loss, <clean> — never 3 in a row.
        assert kinds == ["loss", "loss", None, "loss", "loss", None]
        assert plane.suppressed == 2

    def test_fairness_cap_is_per_asking_task(self):
        # Two concurrent zone scans retrying the same key: B's attempts,
        # interleaved into A's retry loop, must not spend A's forced pass
        # (a shared streak let A see loss, loss, [B passes], loss, loss —
        # four consecutive timeouts, an abandoned query under in_flight).
        plane = _plane(loss=1.0, max_consecutive=2)
        seen = {"A": [], "B": []}
        for name in "AABAAB":
            seen[name].append(plane.decide(*K1, False, asker="AB".index(name)).kind)
        assert seen["A"] == ["loss", "loss", None, "loss"]
        assert seen["B"] == ["loss", "loss"]

    def test_zero_cap_means_unbounded(self):
        plane = _plane(loss=1.0, max_consecutive=0)
        assert all(plane.decide(*K1, False).drop for _ in range(10))
        assert plane.suppressed == 0

    def test_brownout_windows_follow_the_clock(self):
        clock = SimulatedClock()
        plane = _plane(
            clock=clock,
            brownout_period=100.0,
            brownout_duration=10.0,
            brownout_fraction=1.0,
            max_consecutive=0,
        )
        kinds = []
        for _ in range(100):
            kinds.append(plane.decide(*K1, False).kind)
            clock.advance(1.0)
        browns = kinds.count("brownout")
        # ~10 of every 100 seconds dark, the rest clean.
        assert 5 <= browns <= 15
        assert kinds.count(None) == 100 - browns

    def test_injected_servfail_reaches_the_client(self):
        world = build_mini_world()
        world["network"].install_chaos(ChaosConfig(servfail=1.0, max_consecutive=0))
        response = world["network"].query(OP_IP_1, make_query("example.com", RRType.SOA))
        assert response.rcode == Rcode.SERVFAIL

    def test_truncation_is_udp_only_so_tcp_fallback_succeeds(self):
        world = build_mini_world()
        world["network"].install_chaos(ChaosConfig(truncation=1.0, max_consecutive=0))
        scanner = Scanner(world["network"], world["root_ips"])
        result = scanner.query_one(OP_IP_1, Name.from_text("example.com"), RRType.SOA)
        assert result.status == QueryStatus.OK
        assert scanner.tcp_fallbacks == 1

    def test_counters_use_telemetry_key_space(self):
        plane = _plane(loss=1.0, max_consecutive=0)
        plane.decide(*K1, False)
        counters = plane.counters()
        assert counters["chaos.decisions"] == 1
        assert counters["chaos.faults.loss"] == 1

    def test_derive_changes_only_the_seed(self):
        config = ChaosConfig.default(seed=1)
        derived = config.derive("worker", 3)
        assert derived.seed != config.seed
        assert derived == ChaosConfig(**{**config.to_dict(), "seed": derived.seed})


class TestSpecsAndValidation:
    def test_chaos_spec_parsing(self):
        assert ChaosConfig.from_spec("off") is None
        assert ChaosConfig.from_spec("none") is None
        assert ChaosConfig.from_spec("default") == ChaosConfig.default()
        config = ChaosConfig.from_spec("loss=0.1,servfail=0.05,seed=3")
        assert (config.loss, config.servfail, config.seed) == (0.1, 0.05, 3)
        with pytest.raises(ValueError, match="bogus"):
            ChaosConfig.from_spec("bogus=1")

    def test_retry_spec_parsing(self):
        assert RetryPolicy.from_spec("off") is None
        assert RetryPolicy.from_spec("default") == RetryPolicy.default()
        assert RetryPolicy.from_spec("6").attempts == 6
        policy = RetryPolicy.from_spec("attempts=5,base=0.5,retry_servfail=false")
        assert (policy.attempts, policy.base, policy.retry_servfail) == (5, 0.5, False)
        with pytest.raises(ValueError, match="unknown"):
            RetryPolicy.from_spec("nope=1")

    def test_campaign_rejects_non_convergent_combination(self):
        # attempts must exceed the fairness bound or convergence is not
        # a theorem — validate() refuses the combination up front.
        config = CampaignConfig(
            scale=SCALE, chaos=ChaosConfig(loss=0.5), retry=RetryPolicy(attempts=2)
        )
        with pytest.raises(ValueError, match="max_consecutive"):
            config.validate()

    def test_chaotic_campaign_implies_default_retries(self):
        config = CampaignConfig(scale=SCALE, chaos=ChaosConfig.default())
        assert config.effective_retry() == RetryPolicy.default()
        assert CampaignConfig(scale=SCALE).effective_retry() is None
