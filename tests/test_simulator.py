"""Tests for the trace-driven simulator: windows, intervals, accounting."""

import numpy as np
import pytest

from repro.core.organizations import build_organization
from repro.core.params import LiteParams, SimulationParams
from repro.core.simulator import Simulator
from repro.mem.paging import TransparentHugePaging
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.mmu.translation import PAGES_PER_2MB


def make_process():
    process = Process(PhysicalMemory(1 << 30, seed=3), TransparentHugePaging())
    process.mmap(PAGES_PER_2MB * 4, name="heap")
    process.mmap(256, name="stack", thp_eligible=False)
    return process


def make_trace(process, n=3000, seed=0):
    generator = np.random.default_rng(seed)
    vmas = list(process.address_space)
    heap, stack = vmas[0], vmas[1]
    pages = np.where(
        generator.random(n) < 0.5,
        heap.start_vpn + generator.integers(heap.num_pages, size=n),
        stack.start_vpn + generator.integers(64, size=n),
    )
    return pages.astype(np.int64)


class TestRun:
    def test_accounting_consistency(self):
        process = make_process()
        sim = Simulator(build_organization("THP", process), instructions_per_access=3.0)
        result = sim.run(make_trace(process), fast_forward_accesses=500)
        assert result.accesses == 2500
        assert result.instructions == 7500
        assert result.l1_misses >= result.l2_misses
        assert result.page_walks == result.l2_misses
        assert result.cycles.l1_miss_cycles == result.l1_misses * 7
        assert result.cycles.l2_miss_cycles == result.l2_misses * 50

    def test_deterministic(self):
        outcomes = []
        for _ in range(2):
            process = make_process()
            sim = Simulator(build_organization("THP", process), instructions_per_access=3.0)
            result = sim.run(make_trace(process))
            outcomes.append((result.l1_misses, result.l2_misses, result.total_energy_pj))
        assert outcomes[0] == outcomes[1]

    def test_fast_forward_excluded_from_stats(self):
        process = make_process()
        trace = make_trace(process)
        sim = Simulator(build_organization("THP", process))
        result = sim.run(trace, fast_forward_accesses=1000)
        assert result.accesses == len(trace) - 1000
        # Warmed structures -> fewer cold walks than a cold run measures.
        cold_process = make_process()
        cold = Simulator(build_organization("THP", cold_process)).run(
            make_trace(cold_process), fast_forward_accesses=0
        )
        assert result.l2_misses <= cold.l2_misses

    def test_empty_trace_rejected(self):
        process = make_process()
        sim = Simulator(build_organization("THP", process))
        with pytest.raises(ValueError):
            sim.run([])

    def test_fast_forward_must_leave_measurement(self):
        process = make_process()
        sim = Simulator(build_organization("THP", process))
        with pytest.raises(ValueError):
            sim.run([1, 2, 3], fast_forward_accesses=3)

    def test_invalid_ipa(self):
        with pytest.raises(ValueError):
            Simulator(build_organization("THP", make_process()), instructions_per_access=0)

    def test_accepts_plain_lists(self):
        process = make_process()
        vma = next(iter(process.address_space))
        sim = Simulator(build_organization("THP", process))
        result = sim.run([vma.start_vpn] * 100, fast_forward_accesses=0)
        assert result.accesses == 100
        assert result.l1_misses == 1


class TestTimeline:
    def test_window_count(self):
        process = make_process()
        sim = Simulator(
            build_organization("THP", process), sim_params=SimulationParams(timeline_windows=10)
        )
        result = sim.run(make_trace(process), fast_forward_accesses=0)
        assert len(result.timeline) == 10

    def test_timeline_mpki_reconciles_with_total(self):
        process = make_process()
        sim = Simulator(
            build_organization("THP", process),
            instructions_per_access=2.0,
            sim_params=SimulationParams(timeline_windows=5),
        )
        result = sim.run(make_trace(process, 3000), fast_forward_accesses=0)
        window_instr = (3000 // 5) * 2
        total_from_windows = sum(s.l1_mpki * window_instr / 1000 for s in result.timeline)
        assert total_from_windows == pytest.approx(result.l1_misses, abs=1)

    def test_timeline_instructions_monotone(self):
        process = make_process()
        sim = Simulator(
            build_organization("THP", process), sim_params=SimulationParams(timeline_windows=7)
        )
        result = sim.run(make_trace(process), fast_forward_accesses=0)
        marks = [sample.instructions for sample in result.timeline]
        assert marks == sorted(marks)


class TestLiteIntegration:
    def test_intervals_fire(self):
        process = make_process()
        lite_params = LiteParams(interval_instructions=600, reactivate_probability=0.0)
        org = build_organization("TLB_Lite", process, lite_params=lite_params)
        sim = Simulator(org, instructions_per_access=3.0)
        result = sim.run(make_trace(process, 4000), fast_forward_accesses=1000)
        # 3000 measured accesses * 3 ipa / 600 instr = 15 intervals.
        assert result.lite_intervals == 15

    def test_lite_runs_during_fast_forward_too(self):
        process = make_process()
        lite_params = LiteParams(interval_instructions=600, reactivate_probability=0.0)
        org = build_organization("TLB_Lite", process, lite_params=lite_params)
        sim = Simulator(org, instructions_per_access=3.0)
        sim.run(make_trace(process, 4000), fast_forward_accesses=1000)
        assert org.lite.stats.intervals == 20

    def test_timeline_carries_active_ways(self):
        process = make_process()
        lite_params = LiteParams(interval_instructions=600, reactivate_probability=0.0)
        org = build_organization("TLB_Lite", process, lite_params=lite_params)
        sim = Simulator(org, sim_params=SimulationParams(timeline_windows=4))
        result = sim.run(make_trace(process, 4000))
        for sample in result.timeline:
            assert set(sample.active_ways) == {"L1-4KB", "L1-2MB", "L1-1GB"}

    def test_way_histogram_reflects_downsizing(self):
        """A trivially cacheable trace lets Lite shrink to 1 way."""
        process = make_process()
        vma = next(iter(process.address_space))
        trace = [vma.start_vpn] * 20_000
        lite_params = LiteParams(interval_instructions=300, reactivate_probability=0.0)
        org = build_organization("TLB_Lite", process, lite_params=lite_params)
        result = Simulator(org, instructions_per_access=3.0).run(
            trace, fast_forward_accesses=2000
        )
        shares = result.way_lookup_shares("L1-4KB")
        assert shares.get(1, 0) > 0.9


class TestResultHelpers:
    def test_hit_shares_sum_to_one(self):
        process = make_process()
        sim = Simulator(build_organization("THP", process))
        result = sim.run(make_trace(process))
        shares = result.hit_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_summary_line_contains_key_fields(self):
        process = make_process()
        result = Simulator(build_organization("THP", process), workload_name="toy").run(
            make_trace(process)
        )
        line = result.summary_line()
        assert "THP" in line and "toy" in line
