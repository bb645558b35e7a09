"""Tests for the semantically partitioned TLB baseline."""

import pytest

from repro.analysis.experiments import ExperimentSettings, run_workload_config
from repro.core.organizations import build_organization, paging_policy_for
from repro.mem.paging import TransparentHugePaging
from repro.mem.physical import PhysicalMemory
from repro.mem.process import Process
from repro.mmu.translation import PAGES_PER_2MB
from repro.tlb.semantic import (
    GLOBALS,
    HEAP,
    STACK,
    SemanticPartitionedTLB,
    classify_by_vma,
)
from repro.tlb.set_assoc import SetAssociativeTLB


def make_process():
    process = Process(PhysicalMemory(1 << 30, seed=3), TransparentHugePaging())
    process.mmap(PAGES_PER_2MB * 2, name="heap")
    process.mmap(64, name="globals_seg", thp_eligible=False)
    process.mmap(64, name="stack", thp_eligible=False)
    return process


class TestClassifier:
    def test_classes_by_vma(self):
        process = make_process()
        classify = classify_by_vma(process.address_space)
        vmas = {vma.name: vma for vma in process.address_space}
        assert classify(vmas["heap"].start_vpn + 5) == HEAP
        assert classify(vmas["globals_seg"].start_vpn) == GLOBALS
        assert classify(vmas["stack"].start_vpn) == STACK

    def test_unknown_defaults_to_heap(self):
        process = make_process()
        classify = classify_by_vma(process.address_space)
        assert classify(0) == HEAP


class TestPartitionedStructure:
    def build(self):
        partitions = [
            SetAssociativeTLB("p-stack", 16, 4),
            SetAssociativeTLB("p-globals", 16, 4),
            SetAssociativeTLB("p-heap", 32, 4),
        ]
        # Classify by a simple modulo for structure-level tests.
        tlb = SemanticPartitionedTLB("sem", partitions, lambda vpn: vpn % 3)
        return tlb, partitions

    def test_routing(self):
        tlb, partitions = self.build()
        tlb.fill(3, "a")  # class 0
        tlb.fill(4, "b")  # class 1
        assert partitions[0].peek(3) == "a"
        assert partitions[1].peek(4) == "b"
        assert partitions[2].peek(3) is None
        assert tlb.lookup(3) == "a"

    def test_stats_summed_but_not_merged(self):
        tlb, partitions = self.build()
        tlb.lookup(0)
        tlb.fill(0, 0)
        tlb.lookup(0)
        tlb.sync_stats()
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1
        # Per-way histograms live on the partitions (geometries differ).
        assert partitions[0].stats.lookups_by_ways == {4: 2}

    def test_reset_propagates(self):
        tlb, partitions = self.build()
        tlb.lookup(0)
        tlb.reset_stats()
        assert partitions[0].stats.lookups == 0

    def test_flush_and_invalidate(self):
        tlb, _ = self.build()
        tlb.fill(9, 9)
        assert tlb.invalidate(9)
        tlb.fill(9, 9)
        tlb.flush()
        assert tlb.occupancy() == 0

    def test_empty_partitions_rejected(self):
        with pytest.raises(ValueError):
            SemanticPartitionedTLB("sem", [], lambda vpn: 0)


class TestSemanticConfig:
    def test_builder_and_bindings(self):
        org = build_organization("Semantic", make_process())
        assert org.name == "Semantic"
        bound = {binding.name for binding in org.bindings}
        assert {"L1-4KB-stack", "L1-4KB-globals", "L1-4KB-heap"} <= bound

    def test_dispatch(self):
        assert isinstance(paging_policy_for("Semantic"), TransparentHugePaging)
        org = build_organization("Semantic", make_process())
        assert org.name == "Semantic"

    def test_probe_cost_is_partition_sized(self):
        from repro.energy.cacti import page_tlb_params

        org = build_organization("Semantic", make_process())
        binding = next(b for b in org.bindings if b.name == "L1-4KB-stack")
        assert binding.params_for_ways(4).read_pj < page_tlb_params(64, 4).read_pj

    def test_trade_off_visible_on_stack_heavy_workload(self):
        """Cheaper probes, but a stack tier larger than its partition
        costs misses — the partitioning literature's known trade-off."""
        from repro.workloads.registry import get_workload

        settings = ExperimentSettings(trace_accesses=60_000)
        thp = run_workload_config(get_workload("omnetpp"), "THP", settings)
        semantic = run_workload_config(get_workload("omnetpp"), "Semantic", settings)
        assert semantic.total_energy_pj < thp.total_energy_pj
        assert semantic.l1_mpki > thp.l1_mpki
