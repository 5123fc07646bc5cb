"""Differential determinism suite for the repro.sched event loop.

The load-bearing claim of :mod:`repro.sched` is that concurrency is a
*pure scheduling optimisation*: a campaign run with ``in_flight=N``
renders the same bytes (Tables 1-3, Figure 1) as the sequential
campaign at the same seed/scale — through chaos, through worker
partitioning, and across a kill/resume cycle — while the simulated
duration drops because query RTTs, retry backoffs, and rate-limit
waits overlap.  The unit and property tests pin the mechanism that
makes this true: a heap of ``(fire_time, sequence)`` events whose
order is a pure function of the workload, independent of thread
timing, dict layout, and ``PYTHONHASHSEED``.
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignConfig, resume_campaign, run_campaign
from repro.chaos import ChaosConfig
from repro.parallel import run_parallel_campaign
from repro.reports.figure1 import compute_figure1, render_figure1
from repro.reports.table1 import compute_table1, render_table1
from repro.reports.table2 import compute_table2, render_table2
from repro.reports.table3 import compute_table3, render_table3
from repro.sched import EventLoop, FlightMap, Gate, TaskCancelled, active_loop
from repro.server.network import SimulatedClock
from repro.store.manifest import load_manifest

SCALE = 1e-6
SEED = 41


def rendered_artifacts(campaign) -> dict:
    """The four user-facing artifacts, as the exact strings a user sees."""
    report = campaign.report
    return {
        "table1": render_table1(compute_table1(report)),
        "table2": render_table2(compute_table2(report)),
        "table3": render_table3(compute_table3(report)),
        "figure1": render_figure1(compute_figure1(report)),
    }


@pytest.fixture(scope="module")
def sequential():
    return run_campaign(CampaignConfig(scale=SCALE, seed=SEED, recheck=True))


@pytest.fixture(scope="module")
def sequential_artifacts(sequential):
    return rendered_artifacts(sequential)


# ---------------------------------------------------------------------------
# Event-loop units
# ---------------------------------------------------------------------------


def run_workload(durations, in_flight, clock=None):
    """Run one synthetic workload: task *i* advances the clock through
    ``durations[i]`` step by step.  Returns (trace, results, makespan)."""
    clock = clock or SimulatedClock()
    trace = []
    loop = EventLoop(clock, max_in_flight=in_flight, trace=trace)

    def fn(steps):
        for dt in steps:
            clock.advance(dt)
        return clock.now()

    results = loop.run(list(durations), fn)
    return trace, results, clock.now()


class TestEventLoop:
    def test_rejects_non_positive_in_flight(self):
        with pytest.raises(ValueError):
            EventLoop(SimulatedClock(), max_in_flight=0)

    def test_same_instant_events_fire_in_push_order(self):
        # Four tasks all advance by the same amount: every wakeup lands
        # on the same fire time, so the (fire, seq) heap must break ties
        # by push order — FIFO, not hash or thread order.
        trace, results, _ = run_workload([(1.0,)] * 4, in_flight=4)
        assert [index for _, _, index in trace] == [0, 1, 2, 3, 0, 1, 2, 3]
        seqs = [seq for _, seq, _ in trace]
        assert seqs == sorted(seqs)

    def test_in_flight_one_degenerates_to_serial_order(self):
        durations = [(0.5, 0.25), (2.0,), (0.125,)]
        trace, results, makespan = run_workload(durations, in_flight=1)
        # Serial semantics: task i starts when task i-1 finishes, so the
        # completion times are exactly the prefix sums.
        assert results == pytest.approx([0.75, 2.75, 2.875])
        assert makespan == pytest.approx(2.875)
        # And the trace never interleaves: once a task appears, no other
        # task fires until it is done.
        order = [index for _, _, index in trace]
        assert order == sorted(order)

    def test_results_yield_in_submission_order(self):
        # Task 0 takes far longer than tasks 1-3; with everything in
        # flight it *finishes* last but must still be *yielded* first.
        durations = [(10.0,), (1.0,), (1.0,), (1.0,)]
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=4)

        def fn(steps):
            for dt in steps:
                clock.advance(dt)
            return clock.now()

        results = list(loop.map_iter(durations, fn))
        assert results == pytest.approx([10.0, 1.0, 1.0, 1.0])
        assert clock.now() == pytest.approx(10.0)  # overlapped, not 13.0

    def test_makespan_is_critical_path_not_sum(self):
        _, _, makespan = run_workload([(3.0,), (1.0,), (2.0,)], in_flight=3)
        assert makespan == pytest.approx(3.0)

    def test_in_flight_peak_respects_cap(self):
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=2, trace=[])

        def fn(steps):
            for dt in steps:
                clock.advance(dt)

        loop.run([(1.0,)] * 6, fn)
        assert loop.in_flight_peak == 2
        assert loop.tasks_started == 6

    def test_task_error_propagates_and_loop_uninstalls(self):
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=2)

        def fn(item):
            if item == 1:
                raise ValueError("boom")
            clock.advance(1.0)
            return item

        with pytest.raises(ValueError, match="boom"):
            loop.run([0, 1, 2], fn)
        assert clock.scheduler is None  # clock handed back intact

    def test_abandoning_the_iterator_cancels_cleanly(self):
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=3)

        def fn(item):
            clock.advance(1.0)
            return item

        gen = loop.map_iter(range(5), fn)
        assert next(gen) == 0
        gen.close()  # consumer walks away mid-flight
        assert clock.scheduler is None

    def test_loop_is_not_reentrant(self):
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=2)

        def fn(item):
            clock.advance(1.0)
            return item

        gen = loop.map_iter(range(3), fn)
        next(gen)
        with pytest.raises(RuntimeError, match="not reentrant"):
            loop.run([9], fn)
        gen.close()

    def test_two_clocks_share_one_timeline(self):
        # Machine mode: the limiter clock and the network clock are
        # distinct objects; both must advance on the same task timeline
        # and both must land on start + makespan afterwards.
        a, b = SimulatedClock(), SimulatedClock()
        b.advance(100.0)  # pre-existing offset survives the loop
        loop = EventLoop(a, max_in_flight=2, extra_clocks=(b,))

        def fn(item):
            a.advance(1.0)
            b.advance(2.0)
            return item

        loop.run([0, 1], fn)
        assert a.scheduler is None and b.scheduler is None
        assert a.now() == pytest.approx(3.0)
        assert b.now() == pytest.approx(103.0)


class TestGateAndFlightMap:
    def test_wait_outside_a_task_is_an_error(self):
        loop = EventLoop(SimulatedClock(), max_in_flight=2)
        with pytest.raises(RuntimeError, match="outside a scheduled task"):
            loop.gate().wait()

    def test_single_flight_computes_once(self):
        # N concurrent tasks all need the same cache key: exactly one
        # claims it and computes; the rest wait on the gate and re-check.
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=8)
        flights = FlightMap()
        cache = {}
        computes = []

        def fn(item):
            while True:
                if "key" in cache:
                    return cache["key"]
                claim = flights.claim(active_loop(clock), "key")
                if claim is None:
                    continue  # woken: re-check the cache
                with claim:
                    computes.append(item)
                    clock.advance(5.0)  # expensive fill
                    cache["key"] = 42
                    return 42

        results = loop.run(range(8), fn)
        assert results == [42] * 8
        assert computes == [0]  # first claimant computed, alone
        assert clock.now() == pytest.approx(5.0)  # everyone else waited

    def test_claim_released_on_exception(self):
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=2)
        flights = FlightMap()
        attempts = []

        def fn(item):
            while True:
                claim = flights.claim(active_loop(clock), "key")
                if claim is None:
                    continue
                with claim:
                    attempts.append(item)
                    if item == 0:
                        clock.advance(1.0)
                        raise ValueError("fill failed")
                    return item

        with pytest.raises(ValueError, match="fill failed"):
            loop.run([0, 1], fn)
        # Task 0's failure released the gate; nothing deadlocked.
        assert clock.scheduler is None

    def test_no_loop_means_no_claim_overhead(self):
        # Outside a scheduled task, claim() returns a no-op context so
        # the serial scan path stays branch-cheap.
        flights = FlightMap()
        claim = flights.claim(None, "key")
        with claim:
            pass
        assert active_loop(SimulatedClock()) is None


# ---------------------------------------------------------------------------
# Property tests: scheduling is a pure function of (seed, in_flight)
# ---------------------------------------------------------------------------


def synthetic_workload(seed: int):
    rng = random.Random(seed)
    return [
        tuple(
            round(rng.uniform(0.0, 2.0), 3) for _ in range(rng.randint(0, 4))
        )
        for _ in range(rng.randint(1, 10))
    ]


class TestSchedulingProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), in_flight=st.integers(1, 8))
    def test_trace_is_pure_function_of_seed_and_in_flight(self, seed, in_flight):
        durations = synthetic_workload(seed)
        first = run_workload(durations, in_flight)
        second = run_workload(durations, in_flight)
        assert first == second

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), in_flight=st.integers(1, 8))
    def test_no_event_fires_before_the_frontier(self, seed, in_flight):
        trace, _, makespan = run_workload(synthetic_workload(seed), in_flight)
        fire_times = [fire for fire, _, _ in trace]
        assert fire_times == sorted(fire_times)  # monotone on the clock
        assert all(fire >= 0.0 for fire in fire_times)
        assert makespan == pytest.approx(max(fire_times))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), in_flight=st.integers(1, 8))
    def test_results_match_the_serial_map(self, seed, in_flight):
        # Whatever the interleaving, per-task work is untouched: each
        # task's total advance equals the serial sum of its steps.
        durations = synthetic_workload(seed)
        _, serial, _ = run_workload(durations, 1)
        _, concurrent, _ = run_workload(durations, in_flight)
        # Serial completion times are prefix sums; concurrent tasks all
        # start at 0, so completion = own duration + wait interleavings.
        assert len(concurrent) == len(serial)
        prefix = 0.0
        for steps, completed in zip(durations, serial):
            prefix += sum(steps)
            assert completed == pytest.approx(prefix, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_in_flight_one_trace_is_serial(self, seed):
        durations = synthetic_workload(seed)
        trace, _, _ = run_workload(durations, 1)
        order = [index for _, _, index in trace]
        assert order == sorted(order)  # strictly one task at a time

    def test_trace_is_independent_of_hash_seed(self):
        # The determinism claim must survive PYTHONHASHSEED: run the
        # same workload in two interpreters with different hash seeds
        # and compare traces byte for byte.
        script = textwrap.dedent(
            """
            import random
            from repro.sched import EventLoop
            from repro.server.network import SimulatedClock

            rng = random.Random(7)
            durations = [
                tuple(round(rng.uniform(0.0, 2.0), 3) for _ in range(rng.randint(0, 4)))
                for _ in range(8)
            ]
            clock = SimulatedClock()
            trace = []
            loop = EventLoop(clock, max_in_flight=4, trace=trace)

            def fn(steps):
                # Route the steps through a dict so iteration order would
                # matter if anything keyed on hash order.
                table = {f"step-{i}": dt for i, dt in enumerate(steps)}
                for key in table:
                    clock.advance(table[key])
                return clock.now()

            loop.run(durations, fn)
            print(repr(trace))
            """
        )
        outputs = []
        for hash_seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), "src") if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Differential goldens: concurrent campaigns render the sequential bytes
# ---------------------------------------------------------------------------


class TestDifferentialGoldens:
    def test_concurrent_campaign_renders_sequential_bytes(
        self, sequential, sequential_artifacts
    ):
        concurrent = run_campaign(
            CampaignConfig(scale=SCALE, seed=SEED, recheck=True, in_flight=64)
        )
        assert rendered_artifacts(concurrent) == sequential_artifacts
        assert concurrent.rechecked == sequential.rechecked
        # Same classification work: identical total query volume.
        assert (
            concurrent.world.network.queries_sent
            == sequential.world.network.queries_sent
        )
        # And it was genuinely concurrent: overlap shrank the campaign.
        assert concurrent.simulated_duration < sequential.simulated_duration

    def test_in_flight_one_is_byte_identical_to_legacy(self, sequential):
        one = run_campaign(
            CampaignConfig(scale=SCALE, seed=SEED, recheck=True, in_flight=1)
        )
        # Not just the artifacts: the full per-zone records, the
        # simulated duration, and the query count all match exactly —
        # in_flight=1 *is* the legacy serial scan.
        assert [repr(r) for r in one.results] == [repr(r) for r in sequential.results]
        assert one.simulated_duration == sequential.simulated_duration
        assert one.world.network.queries_sent == sequential.world.network.queries_sent

    def test_workers_compose_with_in_flight(self, sequential_artifacts, tmp_path):
        parallel = run_parallel_campaign(
            CampaignConfig(
                scale=SCALE, seed=SEED, store_dir=tmp_path / "store", workers=2, in_flight=16
            )
        )
        assert rendered_artifacts(parallel) == sequential_artifacts
        manifest = load_manifest(tmp_path / "store")
        assert manifest.config.get("in_flight") == 16

    def test_chaos_composes_with_in_flight(self, sequential_artifacts):
        # Fault injection + concurrency + retries still converge to the
        # fault-free sequential classifications.
        chaotic = run_campaign(
            CampaignConfig(
                scale=SCALE, seed=SEED, chaos=ChaosConfig.default(), in_flight=64
            )
        )
        assert rendered_artifacts(chaotic) == sequential_artifacts

    def test_kill_and_resume_preserve_the_bytes(self, sequential_artifacts, tmp_path):
        root = tmp_path / "store"
        run_campaign(
            CampaignConfig(
                scale=SCALE, seed=SEED, store_dir=root, in_flight=16, stop_after=5
            )
        )
        # in_flight round-trips through the manifest, so the resume
        # rebuilds the same concurrent scanner without being told.
        stored = CampaignConfig.from_manifest(load_manifest(root))
        assert stored.in_flight == 16
        resumed = resume_campaign(root)
        assert rendered_artifacts(resumed) == sequential_artifacts


class TestConfigPlumbing:
    def test_validate_rejects_bad_in_flight(self):
        with pytest.raises(ValueError, match="in_flight"):
            CampaignConfig(scale=SCALE, seed=SEED, in_flight=0).validate()

    def test_manifest_round_trip_is_lossless(self):
        config = CampaignConfig(scale=SCALE, seed=SEED, in_flight=8)
        assert config.manifest_config().get("in_flight") == 8
        # Legacy manifests (no in_flight key) load as in_flight=None.
        legacy = CampaignConfig(scale=SCALE, seed=SEED)
        assert "in_flight" not in legacy.manifest_config()
