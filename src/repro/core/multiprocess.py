"""Multi-programmed simulation: processes time-sharing one core's TLBs.

The paper evaluates one process per core; on a real system the per-core
TLB hierarchy is time-shared, and context switches either flush it (no
address-space tags) or let entries from different processes coexist
(PCID/ASID tagging).  This extension models both:

* every process gets a disjoint *virtual-page namespace* (its address
  space is placed at a distinct multi-terabyte offset).  Namespaced page
  numbers are exactly what an ASID-extended TLB tag is: entries from
  different processes can never alias, and one union page table / range
  table serves the walker the same translations each per-process table
  would;
* with ``pcid=True`` a context switch changes nothing architecturally —
  surviving entries keep hitting (tagged-TLB semantics);
* with ``pcid=False`` every switch flushes all TLBs and MMU caches,
  modelling untagged hardware.

The interesting interaction with the paper's designs: after a flush, an
RMM range TLB refills with *one* entry per VMA (a couple of background
range walks) while page TLBs must re-walk every hot page — range
translations make context switches far cheaper, amplifying RMM_Lite's
advantage as the switch rate grows (`bench_multiprocess.py`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..mem.physical import PhysicalMemory
from ..mem.process import Process
from ..workloads.base import Workload
from .organizations import (
    Organization,
    build_organization,
    lite_defaults,
    paging_policy_for,
)
from .params import HierarchyParams, LiteParams
from .simulator import Simulator
from .stats import SimulationResult

#: Virtual-page-number stride between process namespaces (2^32 pages =
#: 16 TB of VA per process; the 48-bit x86-64 VA space fits 16 of them).
NAMESPACE_STRIDE = 1 << 32

#: Maximum co-scheduled processes (namespace capacity).
MAX_PROCESSES = 16


@dataclass(frozen=True)
class TimeSharingConfig:
    """Knobs of the multi-programmed run."""

    quantum_accesses: int = 20_000
    pcid: bool = True
    accesses_per_process: int = 100_000
    seed: int = 42
    physical_bytes: int = 64 << 30

    def __post_init__(self) -> None:
        if self.quantum_accesses <= 0:
            raise ConfigurationError("quantum_accesses must be positive")
        if self.accesses_per_process <= 0:
            raise ConfigurationError("accesses_per_process must be positive")


def build_system(
    workloads: list[Workload],
    config_name: str,
    sharing: TimeSharingConfig,
    hierarchy_params: HierarchyParams | None = None,
    lite_params: LiteParams | None = None,
):
    """Build the shared organization, merged trace, and switch events.

    Returns ``(organization, trace, events, instructions_per_access)``.
    The union process holds every workload's mappings in its namespace;
    traces are interleaved round-robin at quantum granularity, and (for
    ``pcid=False``) a flush event is scheduled at every switch boundary.
    """
    if not 1 <= len(workloads) <= MAX_PROCESSES:
        raise ConfigurationError(f"need 1..{MAX_PROCESSES} workloads")
    policy = paging_policy_for(config_name)
    union = Process(
        physical=PhysicalMemory(sharing.physical_bytes, seed=sharing.seed),
        policy=policy,
    )
    traces = []
    for index, workload in enumerate(workloads):
        base_vpn = 0x10000 + index * NAMESPACE_STRIDE
        regions = workload.regions()
        # Recreate the workload's VMAs inside its namespace.
        for spec in workload.vma_specs:
            region = regions[spec.name]
            union.mmap(
                region.num_pages,
                name=f"p{index}:{spec.name}",
                at_vpn=base_vpn + region.start_vpn,
                thp_eligible=spec.thp_eligible,
            )
        trace = workload.trace(sharing.accesses_per_process, seed=sharing.seed + index)
        traces.append(trace.astype(np.int64) + base_vpn)

    merged = _interleave(traces, sharing.quantum_accesses)
    events = []
    if not sharing.pcid:
        switch_positions = range(
            sharing.quantum_accesses, len(merged), sharing.quantum_accesses
        )
        events = [
            (position, lambda org: org.hierarchy.flush_tlbs())
            for position in switch_positions
        ]
    organization = build_organization(
        config_name, union, params=hierarchy_params, lite_params=lite_params
    )
    ipa = sum(w.instructions_per_access for w in workloads) / len(workloads)
    return organization, merged, events, ipa


def _interleave(traces: list[np.ndarray], quantum: int) -> np.ndarray:
    """Round-robin the traces in quantum-sized slices."""
    chunks = []
    offsets = [0] * len(traces)
    remaining = sum(len(trace) for trace in traces)
    while remaining:
        for index, trace in enumerate(traces):
            start = offsets[index]
            if start >= len(trace):
                continue
            stop = min(start + quantum, len(trace))
            chunks.append(trace[start:stop])
            offsets[index] = stop
            remaining -= stop - start
    return np.concatenate(chunks)


def run_time_shared(
    workloads: list[Workload],
    config_name: str,
    sharing: TimeSharingConfig | None = None,
    hierarchy_params: HierarchyParams | None = None,
    lite_params: LiteParams | None = None,
    fast_forward_fraction: float = 0.1,
) -> SimulationResult:
    """Simulate the time-shared system under one configuration."""
    sharing = sharing or TimeSharingConfig()
    if lite_params is None:
        lite_params = lite_defaults(
            config_name, len(workloads) * sharing.accesses_per_process
        )
    organization, trace, events, ipa = build_system(
        workloads, config_name, sharing, hierarchy_params, lite_params
    )
    simulator = Simulator(
        organization,
        workload_name="+".join(w.name for w in workloads),
        instructions_per_access=ipa,
    )
    fast_forward = int(len(trace) * fast_forward_fraction)
    return simulator.run(trace, fast_forward_accesses=fast_forward, events=events)
