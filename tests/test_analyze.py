"""Tests for the critical-path bottleneck analyzer (repro.obs.analyze).

The acceptance test builds a pipeline with a *known* bottleneck — a
fast source feeding a throttled consumer through a small queue — runs
it under the dense oracle's profiler (``hw_harness.TickProfiler``: the
throttle has no plan), and checks the analyzer names the throttle as
root with attribution equal to the ProfileReport's stall accounting.
"""

import pytest

from repro.hw.engine import Engine
from repro.hw.flit import Flit
from repro.hw.module import Module
from repro.obs.analyze import analyze_report
from repro.obs.export import report_from_dict, report_to_dict
from repro.obs.profile import (
    MemoryProfile,
    ModuleProfile,
    ProfileReport,
    QueueProfile,
)

from hw_harness import ListSink, ListSource, TickProfiler


class Throttle(Module):
    """Forwards one flit every ``period`` cycles — a deliberate choke."""

    def __init__(self, name: str, period: int):
        super().__init__(name)
        self.period = period
        self._countdown = 0
        self._held = None

    def tick(self, cycle: int) -> None:
        if self._countdown > 0:
            self._countdown -= 1
            self._note_busy()
            return
        if self._held is not None:
            out = self.output()
            if not out.try_push(self._held):
                self._note_stalled(out)
                return
            self._held = None
        queue = self.input()
        if queue.can_pop():
            self._held = queue.pop()
            self._countdown = self.period - 1
            self._note_busy()
        else:
            self._note_starved()

    def is_idle(self) -> bool:
        return self._held is None and self._countdown == 0


def _flits(n):
    return [Flit({"value": i}) for i in range(n)]


def _profiled_throttle_run(n_flits=60, period=5):
    engine = Engine(default_queue_capacity=2)
    source = ListSource("source", _flits(n_flits))
    throttle = Throttle("throttle", period)
    sink = ListSink("sink")
    for module in (source, throttle, sink):
        engine.add_module(module)
    engine.connect(source, throttle)
    engine.connect(throttle, sink)
    # Throttle has no plan, so only the dense oracle can profile it.
    profiler = TickProfiler().attach(engine)
    engine.run()
    return profiler.report()


class TestKnownBottleneck:
    def test_analyzer_names_the_throttle_as_root(self):
        report = _profiled_throttle_run()
        report.validate()
        source = report.module("source")
        assert source.stalled > 0, "choke never backed up — test is vacuous"

        analysis = analyze_report(report)
        assert analysis.root_bottleneck == "throttle"
        # Attribution must match the report's own stall accounting: every
        # stall the source recorded was charged to its output queue, and
        # the chain walker hands exactly that mass to the throttle.
        assert analysis.attributed_stalls["throttle"] == source.stalled
        feed = next(q for q in report.queues if "throttle" in q.name)
        assert feed.full_stalls == source.stalled

    def test_chain_walks_source_to_throttle(self):
        report = _profiled_throttle_run()
        analysis = analyze_report(report)
        chain = next(c for c in analysis.chains if c.module == "source")
        assert chain.root == "throttle"
        assert chain.stalled == report.module("source").stalled
        assert chain.path[0] == "source" and chain.path[-1] == "throttle"

    def test_what_if_bounds(self):
        report = _profiled_throttle_run()
        analysis = analyze_report(report)
        by_module = {w.module: w for w in analysis.what_ifs}
        throttle = by_module["throttle"]
        assert throttle.speedup_bound > 1.0
        # An everything-else-free run still needs the throttle's busy
        # cycles, so no bound may promise more than cycles/busy.
        ceiling = report.cycles / report.module("throttle").busy
        assert throttle.speedup_bound <= ceiling + 1e-9

    def test_survives_json_round_trip(self):
        report = _profiled_throttle_run()
        rebuilt = report_from_dict(report_to_dict(report))
        analysis = analyze_report(rebuilt)
        assert analysis.root_bottleneck == "throttle"
        assert (
            analysis.attributed_stalls["throttle"]
            == report.module("source").stalled
        )

    def test_render_mentions_root_and_chain(self):
        text = analyze_report(_profiled_throttle_run()).render()
        assert "throttle" in text
        assert "root bottleneck" in text


class TestMultiHopChain:
    def test_stall_attributed_through_intermediate_module(self):
        # source -> fast relay (period 1... but choked by q2) -> slow
        # throttle: the source's stalls must walk two hops to the slow end.
        engine = Engine(default_queue_capacity=2)
        source = ListSource("source", _flits(60))
        relay = Throttle("relay", 1)
        slow = Throttle("slow", 6)
        sink = ListSink("sink")
        for module in (source, relay, slow, sink):
            engine.add_module(module)
        engine.connect(source, relay)
        engine.connect(relay, slow)
        engine.connect(slow, sink)
        profiler = TickProfiler().attach(engine)
        engine.run()
        report = profiler.report()

        assert report.module("source").stalled > 0
        assert report.module("relay").stalled > 0
        analysis = analyze_report(report)
        assert analysis.root_bottleneck == "slow"
        source_chain = next(
            c for c in analysis.chains if c.module == "source"
        )
        assert source_chain.root == "slow"
        # Overlapping upstream stalls attribute as max, never sum.
        assert analysis.attributed_stalls["slow"] == max(
            report.module("source").stalled, report.module("relay").stalled
        )


def _hand_report(modules, queues, edges, cycles=100):
    return ProfileReport(
        name="hand", cycles=cycles, mode="dense", wall_seconds=0.0,
        ticks_executed=0, ticks_possible=0,
        modules=modules, queues=queues,
        memory=MemoryProfile(requests=0, bytes_transferred=0, responses=0),
        edges=edges,
    )


def _module(name, busy=0, stalled=0, starved=0, cycles=100):
    return ModuleProfile(
        name=name, kind="M", busy=busy, starved=starved, stalled=stalled,
        idle=cycles - busy - stalled - starved, flits_out=busy,
    )


class TestHandBuiltReports:
    def test_self_limited_stall_roots_at_itself(self):
        # A module stalled with no stalling output queue (e.g. blocked on
        # memory) is its own root.
        report = _hand_report(
            [_module("lonely", busy=40, stalled=30)],
            [QueueProfile("q", 8, 10, 1, 0)],
            {"q": {"producers": ["lonely"], "consumers": []}},
        )
        analysis = analyze_report(report)
        chain = next(c for c in analysis.chains if c.module == "lonely")
        assert chain.root == "lonely"
        assert "self-limited" in chain.render()

    def test_min_stall_share_filters_noise(self):
        report = _hand_report(
            [_module("a", busy=90, stalled=1), _module("b", busy=50)],
            [], {},
        )
        assert analyze_report(report, min_stall_share=0.05).chains == []
        assert len(analyze_report(report, min_stall_share=0.001).chains) == 1

    def test_empty_report(self):
        analysis = analyze_report(_hand_report([], [], {}))
        assert analysis.root_bottleneck is None
        assert analysis.chains == []
        assert analysis.render()  # must not crash

    def test_ranking_orders_by_busy(self):
        report = _hand_report(
            [_module("a", busy=10), _module("b", busy=90)], [], {},
        )
        analysis = analyze_report(report)
        assert analysis.ranking[0] == "b"
        assert analysis.root_bottleneck == "b"

    def test_backpressure_outweighs_raw_busy(self):
        # "slow" is less busy than "burst" but absorbs a huge stall mass;
        # busy + attributed stalls make it the root bottleneck.
        report = _hand_report(
            [
                _module("burst", busy=50, stalled=45),
                _module("slow", busy=40, starved=5),
            ],
            [QueueProfile("burst->slow", 2, 50, 2, 45)],
            {"burst->slow": {"producers": ["burst"], "consumers": ["slow"]}},
        )
        analysis = analyze_report(report)
        assert analysis.root_bottleneck == "slow"
        assert analysis.attributed_stalls["slow"] == 45
        what_if = next(w for w in analysis.what_ifs if w.module == "slow")
        assert what_if.speedup_bound == pytest.approx(100 / (100 - 45))


class TestDeviceWhatIf:
    def test_lpt_bound_over_device_counts(self):
        from repro.obs.analyze import device_what_if

        # LPT over [4, 3, 2, 1] on 2 devices: loads (4+1, 3+2) -> makespan 5
        what_ifs = device_what_if([4, 3, 2, 1])
        by_count = {w.module: w for w in what_ifs}
        assert by_count["devices=1"].speedup_bound == pytest.approx(1.0)
        assert by_count["devices=2"].speedup_bound == pytest.approx(10 / 5)
        # 4 devices: makespan is the largest wave -> 10/4 = 2.5x
        assert by_count["devices=4"].speedup_bound == pytest.approx(10 / 4)
        assert by_count["devices=4"].saved_cycles == 6

    def test_one_huge_wave_caps_scaling(self):
        from repro.obs.analyze import device_what_if

        what_ifs = device_what_if([100, 1, 1])
        assert what_ifs[-1].module == "devices=8"
        assert what_ifs[-1].speedup_bound == pytest.approx(102 / 100)

    def test_empty_and_bogus_inputs(self):
        from repro.obs.analyze import device_what_if

        assert device_what_if([]) == []
        assert device_what_if([0, 0]) == []


class TestShardingReport:
    def _sharded_ledger(self, tmp_path):
        from repro.obs.ledger import RunLedger, RunManifest, run_context
        from repro.accel import MetadataWaveDriver
        from repro.accel.sharding import run_sharded
        from repro.eval.workloads import make_workload

        workload = make_workload(
            n_reads=60, read_length=50, chromosomes=(21,),
            genome_scale=2.5e-5, psize=1000, seed=17,
        )
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        manifest = RunManifest(workload="sharding-test", workers=1)
        driver = MetadataWaveDriver(reference=workload.reference)
        with run_context(manifest, ledger):
            _res, stats = run_sharded(
                driver, workload.partitions, 2, devices=2, workers=1
            )
        return ledger, stats

    def test_report_reconstructs_the_run(self, tmp_path):
        from repro.obs.analyze import sharding_report_from_ledger

        ledger, stats = self._sharded_ledger(tmp_path)
        report = sharding_report_from_ledger(ledger)
        assert report.stage == "metadata"
        assert report.devices == 2
        assert report.waves == stats.waves
        assert report.total_cycles == stats.total_cycles
        assert report.steals == stats.steal_count
        assert len(report.per_device) == 2
        assert [d.device for d in report.per_device] == [0, 1]
        assert max(d.utilization for d in report.per_device) == pytest.approx(1.0)
        assert report.what_ifs, "expected Amdahl what-ifs over device count"
        speedups = {w.module: w.speedup_bound for w in report.what_ifs}
        assert speedups["devices=1"] == pytest.approx(1.0)

    def test_render_mentions_devices_and_what_ifs(self, tmp_path):
        from repro.obs.analyze import sharding_report_from_ledger

        ledger, _stats = self._sharded_ledger(tmp_path)
        text = sharding_report_from_ledger(ledger).render()
        assert "sharding analysis: metadata" in text
        assert "d0" in text and "d1" in text
        assert "what-if: " in text

    def test_empty_ledger_raises(self, tmp_path):
        from repro.obs.analyze import sharding_report_from_ledger
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(str(tmp_path / "empty.jsonl"))
        with pytest.raises(ValueError, match="no shard.run events"):
            sharding_report_from_ledger(ledger)
