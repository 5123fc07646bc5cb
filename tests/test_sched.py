"""Differential determinism suite for the repro.sched event loop.

The load-bearing claim of :mod:`repro.sched` is that concurrency is a
*pure scheduling optimisation*: a campaign run with ``in_flight=N``
renders the same bytes (Tables 1-3, Figure 1) as the serial campaign at
the same seed/scale — through chaos, through worker partitioning, and
across a kill/resume cycle — while the simulated duration drops because
query RTTs, retry backoffs, and rate-limit waits overlap.  The unit and
property tests pin the mechanism that makes this true: step generators
resumed from a heap of ``(fire_time, sequence)`` events whose order is
a pure function of the workload, independent of dict layout and
``PYTHONHASHSEED``.  The serial scan itself (one task on that loop) is
held against literals recorded from the last commit that still had a
separate serial scan loop.
"""

import hashlib
import os
import random
import subprocess
import sys
import textwrap
import threading
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignConfig, resume_campaign, run_campaign
from repro.chaos import ChaosConfig
from repro.ecosystem import build_world
from repro.reports import ARTIFACTS, render_artifacts
from repro.scanner.serialize import result_to_line
from repro.sched import EventLoop, FlightMap, Gate, Sleep, run_steps
from repro.server.network import SimulatedClock
from repro.store.manifest import load_manifest

SCALE = 1e-6
SEED = 41

# What the serial scan loop of commit cb2e959 (the parent of the change
# that folded it into the event loop) produced for this fixture — an
# independent reference: the goldens below no longer compare the driver
# with itself.
LEGACY_SERIAL = {
    "queries_sent": 13400,
    "simulated_duration": 105.77999999999186,
    "results_sha256": "5143e5daf4ade9e1860ea51c0f366d30628e4b3ca178099d90c45873b3e019a5",
    "artefacts_crc": 696075013,
}
LEGACY_WORKERS2_DURATIONS = [21.219999999999636, 25.07999999999958]
LEGACY_CHAOS = {"retry.abandoned": 0, "net.timeouts": 1478, "net.queries": 16575}


def artefacts_crc(campaign) -> int:
    """CRC of the four paper artefacts (what LEGACY_SERIAL recorded)."""
    rendered = render_artifacts(campaign.report)
    return zlib.crc32("\n".join(rendered[name] for name in ARTIFACTS[:4]).encode())


def results_digest(results) -> str:
    """SHA-256 of the results' canonical serialisation (hash-seed free)."""
    return hashlib.sha256("\n".join(result_to_line(r) for r in results).encode()).hexdigest()


@pytest.fixture(scope="module")
def sequential():
    return run_campaign(CampaignConfig(scale=SCALE, seed=SEED, recheck=True))


@pytest.fixture(scope="module")
def sequential_artifacts(sequential):
    return render_artifacts(sequential.report)


# ---------------------------------------------------------------------------
# Event-loop units
# ---------------------------------------------------------------------------


def sleeper(clock):
    """Task function: sleep through the item's durations, return the time."""

    def fn(steps, task):
        for dt in steps:
            yield Sleep(dt)
        return clock.now()

    return fn


def run_workload(durations, in_flight, clock=None):
    """Run one synthetic workload: task *i* sleeps through
    ``durations[i]`` step by step.  Returns (trace, results, makespan)."""
    clock = clock or SimulatedClock()
    trace = []
    loop = EventLoop(clock, max_in_flight=in_flight, trace=trace)
    results = loop.run(list(durations), sleeper(clock))
    return trace, results, clock.now()


class TestEventLoop:
    def test_rejects_non_positive_in_flight(self):
        with pytest.raises(ValueError):
            EventLoop(SimulatedClock(), max_in_flight=0)

    def test_same_instant_events_fire_in_push_order(self):
        # Four tasks all sleep the same amount: every wakeup lands on
        # the same fire time, so the (fire, seq) heap must break ties
        # by push order — FIFO, not hash order.
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
        results = list(loop.map_iter(durations, sleeper(clock)))
        assert results == pytest.approx([10.0, 1.0, 1.0, 1.0])
        assert clock.now() == pytest.approx(10.0)  # overlapped, not 13.0

    def test_makespan_is_critical_path_not_sum(self):
        _, _, makespan = run_workload([(3.0,), (1.0,), (2.0,)], in_flight=3)
        assert makespan == pytest.approx(3.0)

    def test_in_flight_peak_respects_cap(self):
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=2, trace=[])
        loop.run([(1.0,)] * 6, sleeper(clock))
        assert loop.in_flight_peak == 2
        assert loop.tasks_started == 6

    def test_task_error_propagates_and_loop_uninstalls(self):
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=2)
        closed = []

        def fn(item, task):
            try:
                yield Sleep(1.0)
                if item == 0:
                    raise ValueError("boom")
                yield Sleep(1.0)
                return item
            finally:
                closed.append(item)

        with pytest.raises(ValueError, match="boom"):
            loop.run([0, 1, 2], fn)
        # Task 1 was mid-flight when the error surfaced: it was closed
        # (task 2, admitted but never started, has nothing to unwind),
        # and the loop handed the clock back at the frontier, reusable.
        assert closed == [0, 1]
        assert clock.now() == pytest.approx(1.0)
        assert loop.run([(0.5,)], sleeper(clock)) == pytest.approx([1.5])
        assert closed == [0, 1]

    def test_abandoning_the_iterator_cancels_cleanly(self):
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=3)
        unwound = []

        def fn(item, task):
            try:
                yield Sleep(1.0 + item)
                return item
            finally:
                unwound.append(item)

        gen = loop.map_iter(range(5), fn)
        assert next(gen) == 0
        gen.close()  # consumer walks away mid-flight
        # Tasks 1 and 2 were parked on their sleeps, task 3 was admitted
        # but never started: every live generator is closed (finally
        # blocks run for the started ones), nothing else is admitted.
        assert unwound == [0, 1, 2]
        assert loop.tasks_started == 4
        assert loop.run([7], fn) == [7]  # and the loop is reusable

    def test_loop_is_not_reentrant(self):
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=2)
        fn = sleeper(clock)
        gen = loop.map_iter([(1.0,)] * 3, fn)
        next(gen)
        with pytest.raises(RuntimeError, match="not reentrant"):
            loop.run([(9.0,)], fn)
        gen.close()

    def test_a_clock_the_loop_does_not_own_keeps_its_own_time(self):
        # Machine mode: the loop runs on the scan machine's clock; a
        # network with a clock of its own (a parallel worker's world)
        # accumulates fabric time there — exactly as in a serial scan,
        # it never lands on the machine's timeline.
        machine, fabric = SimulatedClock(), SimulatedClock()
        fabric.advance(100.0)  # pre-existing offset survives the loop
        loop = EventLoop(machine, max_in_flight=2)

        def fn(item, task):
            yield Sleep(1.0)
            fabric.advance(2.0)  # what a query cost or a timeout does
            return machine.now()

        assert loop.run([0, 1], fn) == pytest.approx([1.0, 1.0])
        assert machine.now() == pytest.approx(1.0)
        assert fabric.now() == pytest.approx(104.0)

    def test_time_spent_inside_a_slice_moves_the_task(self):
        # The clock is a plain number set to the running task's time:
        # code that advances it synchronously inside a slice (the
        # fabric charging a timeout) moves that task, and only it.
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=2)

        def fn(cost, task):
            clock.advance(cost)
            yield Sleep(1.0)
            return clock.now()

        assert loop.run([2.0, 0.0], fn) == pytest.approx([3.0, 1.0])
        assert clock.now() == pytest.approx(3.0)

    def test_yielding_anything_but_an_intent_is_an_error(self):
        def fn(item, task):
            yield 1.0

        with pytest.raises(TypeError, match="not an intent"):
            EventLoop(SimulatedClock()).run([0], fn)


class TestGateAndFlightMap:
    def test_wait_outside_a_task_is_an_error(self):
        # A gate is released by a task of the same loop.  A waiter with
        # nobody to release it — a synchronous facade called while the
        # holder sits suspended in another loop, say — deadlocks loudly
        # instead of computing the key a second time.
        def fn(item, task):
            yield Gate()

        with pytest.raises(RuntimeError, match="scheduler deadlock"):
            EventLoop(SimulatedClock(), max_in_flight=2).run([0], fn)

    def test_single_flight_computes_once(self):
        # N concurrent tasks all need the same cache key: exactly one
        # claims it and computes; the rest wait on the gate and re-check.
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=8)
        flights = FlightMap()
        cache = {}
        computes = []

        def fn(item, task):
            while True:
                if "key" in cache:
                    return cache["key"]
                claim = yield from flights.claim("key")
                if claim is None:
                    continue  # woken: re-check the cache
                with claim:
                    computes.append(item)
                    yield Sleep(5.0)  # expensive fill
                    cache["key"] = 42
                    return 42

        results = loop.run(range(8), fn)
        assert results == [42] * 8
        assert computes == [0]  # first claimant computed, alone
        assert clock.now() == pytest.approx(5.0)  # everyone else waited
        assert loop.gate_waits == 7

    def test_claim_released_on_exception(self):
        clock = SimulatedClock()
        loop = EventLoop(clock, max_in_flight=2)
        flights = FlightMap()
        attempts = []

        def fn(item, task):
            while True:
                claim = yield from flights.claim("key")
                if claim is None:
                    continue
                with claim:
                    attempts.append(item)
                    if item == 0:
                        yield Sleep(1.0)
                        raise ValueError("fill failed")
                    return item

        with pytest.raises(ValueError, match="fill failed"):
            loop.run([0, 1], fn)
        # Task 0's failure released the gate; nothing deadlocked, and
        # the key is free again.
        assert attempts == [0]
        assert run_steps(clock, None, flights.claim("key")) is not None

    def test_no_loop_means_no_claim_overhead(self):
        # A lone task — every synchronous facade — gets its claim at
        # once: no gate is yielded, so the serial scan never waits.
        flights = FlightMap()
        loop = EventLoop(SimulatedClock())

        def fn(item, task):
            claim = yield from flights.claim("key")
            with claim:
                return "computed"

        assert loop.run([0], fn) == ["computed"]
        assert loop.gate_waits == 0
        assert loop.events == 1  # the start event, nothing else


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
        # task's total sleep equals the serial sum of its steps.
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
            from repro.sched import EventLoop, Sleep
            from repro.server.network import SimulatedClock

            rng = random.Random(7)
            durations = [
                tuple(round(rng.uniform(0.0, 2.0), 3) for _ in range(rng.randint(0, 4)))
                for _ in range(8)
            ]
            clock = SimulatedClock()
            trace = []
            loop = EventLoop(clock, max_in_flight=4, trace=trace)

            def fn(steps, task):
                # Route the steps through a dict so iteration order would
                # matter if anything keyed on hash order.
                table = {f"step-{i}": dt for i, dt in enumerate(steps)}
                for key in table:
                    yield Sleep(table[key])
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
        assert render_artifacts(concurrent.report) == sequential_artifacts
        assert concurrent.rechecked == sequential.rechecked
        # Same classification work: identical total query volume.
        assert (
            concurrent.world.network.queries_sent
            == sequential.world.network.queries_sent
        )
        # And it was genuinely concurrent: overlap shrank the campaign.
        assert concurrent.simulated_duration < sequential.simulated_duration

    def test_overlap_cuts_a_wan_campaign_fivefold(self):
        # 50 ms per query, the RTT the paper's fleet paid: the loop overlaps
        # the waits the serial scan pays end to end — same work, new schedule.
        runs = {}
        for in_flight in (1, 8, 64):
            world = build_world(scale=SCALE, seed=SEED)
            network = world.network
            network.query_cost = 0.05
            results = world.make_scanner(in_flight=in_flight).scan_many(world.scan_list)
            zones = [result.zone for result in results]
            runs[in_flight] = (zones, network.queries_sent, network.clock.now())
        assert runs[1][:2] == runs[8][:2] == runs[64][:2]
        assert runs[64][2] <= runs[1][2] / 5
        assert runs[64][2] <= runs[8][2] * 1.25  # more overlap never lengthens it

    def test_in_flight_one_is_byte_identical_to_legacy(self, sequential):
        one = run_campaign(
            CampaignConfig(scale=SCALE, seed=SEED, recheck=True, in_flight=1)
        )
        # in_flight=1 *is* the serial scan (it is the default) — and the
        # serial scan is the legacy one: the full per-zone records, the
        # simulated duration, the query count and the rendered artefacts
        # equal what the deleted serial loop produced, literally.
        for campaign in (one, sequential):
            assert campaign.world.network.queries_sent == LEGACY_SERIAL["queries_sent"]
            assert campaign.simulated_duration == LEGACY_SERIAL["simulated_duration"]
            assert results_digest(campaign.results) == LEGACY_SERIAL["results_sha256"]
            assert artefacts_crc(campaign) == LEGACY_SERIAL["artefacts_crc"]

    def test_serial_workers_keep_the_legacy_machine_durations(self, tmp_path):
        # A scan machine's clock carries its rate-limit waits and
        # backoffs; fabric time stays on the worker's world clock.
        parallel = run_campaign(
            CampaignConfig(scale=SCALE, seed=SEED, store_dir=tmp_path / "store", workers=2)
        )
        assert [m.duration for m in parallel.machines] == LEGACY_WORKERS2_DURATIONS
        assert artefacts_crc(parallel) == LEGACY_SERIAL["artefacts_crc"]

    def test_serial_chaos_run_keeps_the_legacy_fault_stream(self):
        # No chaos draw moved: same residual failures, same timeouts,
        # same query volume as the deleted serial loop under the default
        # fault model (whose truncation storms exercise the TCP retry).
        chaotic = run_campaign(
            CampaignConfig(scale=SCALE, seed=SEED, chaos=ChaosConfig.default(), telemetry=True)
        )
        counters = chaotic.telemetry.counters
        assert {name: counters[name] for name in LEGACY_CHAOS} == LEGACY_CHAOS
        assert counters["scan.tcp_fallbacks"] == counters["net.tcp_queries"] == 399
        assert artefacts_crc(chaotic) == LEGACY_SERIAL["artefacts_crc"]

    def test_workers_compose_with_in_flight(self, sequential_artifacts, tmp_path):
        parallel = run_campaign(
            CampaignConfig(
                scale=SCALE, seed=SEED, store_dir=tmp_path / "store", workers=2, in_flight=16
            )
        )
        assert render_artifacts(parallel.report) == sequential_artifacts
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
        assert render_artifacts(chaotic.report) == sequential_artifacts

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
        assert render_artifacts(resumed.report) == sequential_artifacts


class TestOneDriver:
    """Every scan runs on the calling thread; an abandoned scan unwinds
    through ordinary generator closing."""

    @pytest.mark.parametrize(
        "layout",
        [{"in_flight": 256}, {"transport": "wire", "in_flight": 16}],
        ids=["sim-256", "wire-16"],
    )
    def test_a_scan_starts_no_task_threads(self, layout, monkeypatch):
        # Sample the thread count while zones are in flight (from the
        # scanner's sink): no thread but the caller's, sockets included.
        import repro.campaign as campaign_module

        seen = set()
        real_scan_into = campaign_module.scan_into

        def scan_into(scanner, zones, store=None, **kwargs):
            each = kwargs.pop("each", None)

            def sample(scanned, total):
                seen.add(threading.active_count())
                if each is not None:
                    each(scanned, total)

            return real_scan_into(scanner, zones[:40], store, each=sample, **kwargs)

        monkeypatch.setattr(campaign_module, "scan_into", scan_into)
        before = threading.active_count()
        run_campaign(CampaignConfig(scale=SCALE, seed=SEED, recheck=False, **layout))
        assert seen == {before}
        assert threading.active_count() == before

    def test_abandoning_a_scan_closes_every_live_zone(self, monkeypatch):
        import inspect

        from repro.obs import Telemetry
        from repro.scanner.yodns import Scanner

        world = build_world(scale=SCALE, seed=SEED)
        zones = world.scan_list[:48]
        expected = [result_to_line(r) for r in world.make_scanner().scan_many(zones)]

        world = build_world(scale=SCALE, seed=SEED)
        telemetry = Telemetry(clock=world.network.clock)
        scanner = world.make_scanner(telemetry=telemetry, in_flight=8)
        started = []
        real_steps = Scanner._scan_zone_steps

        def tracked(self, zone, task):
            started.append(real_steps(self, zone, task))
            return started[-1]

        scanner.scan_many(zones[:2])  # warm the shared lookups: zone 2 is quick
        monkeypatch.setattr(Scanner, "_scan_zone_steps", tracked)
        scan = scanner.scan_iter(zones[2:])
        next(scan)
        scan.close()  # what stop_after and a dropped iterator amount to
        states = {inspect.getgeneratorstate(steps) for steps in started}
        assert states == {inspect.GEN_CLOSED}
        # Zones were cut short (their spans never reported — only the
        # finished ones did), and claimed gates were released on the way.
        spans = [e["name"] for e in telemetry.events if e["kind"] == "span"]
        assert 3 <= spans.count("scan_zone") < 2 + len(started)
        assert spans.count("sched_loop") == 1  # the warm-up's; the cut one never closed
        assert scanner._flights._gates == {} and scanner.resolver._flights._gates == {}
        # A second scan on the same scanner works, warm caches and all.
        again = scanner.scan_many(zones)
        assert [_sans_queries(line) for line in map(result_to_line, again)] == [
            _sans_queries(line) for line in expected
        ]

    def test_a_manifest_that_still_carries_time_scale_resumes(
        self, sequential_artifacts, tmp_path
    ):
        # The pacing knob is gone; stores written while it existed still
        # record it, and must resume (the key is ignored).
        import json

        from repro.store.manifest import manifest_path

        root = tmp_path / "store"
        run_campaign(CampaignConfig(scale=SCALE, seed=SEED, store_dir=root, stop_after=5))
        path = manifest_path(root)
        manifest = json.loads(path.read_text())
        manifest["config"]["time_scale"] = 2.5
        path.write_text(json.dumps(manifest))
        assert render_artifacts(resume_campaign(root).report) == sequential_artifacts


def _sans_queries(line: str) -> str:
    """A serialised result without its ``queries_used`` (which zone pays
    for a shared lookup depends on who got there first)."""
    import json

    record = json.loads(line)
    record.pop("queries_used", None)
    return json.dumps(record, sort_keys=True)


class TestConfigPlumbing:
    def test_validate_rejects_bad_in_flight(self):
        with pytest.raises(ValueError, match="in_flight"):
            CampaignConfig(scale=SCALE, seed=SEED, in_flight=0).validate()

    def test_manifest_round_trip_is_lossless(self):
        config = CampaignConfig(scale=SCALE, seed=SEED, in_flight=8)
        assert config.manifest_config().get("in_flight") == 8
        # The serial scan (in_flight=1, the default) records no key, and
        # a manifest without the key loads as 1.
        serial = CampaignConfig(scale=SCALE, seed=SEED, in_flight=1)
        assert serial == CampaignConfig(scale=SCALE, seed=SEED)
        assert "in_flight" not in serial.manifest_config()
