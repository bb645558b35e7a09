"""Core: the Lite mechanism, TLB organizations, and the MMU simulator."""

from .counters import LRUDistanceCounters
from .hierarchy import (
    BaseHierarchy,
    ConfigurationError,
    L1Slot,
    MixedTLBHierarchy,
    TLBHierarchy,
)
from .lite import LiteController, LiteIntervalRecord, LiteStats, ResizableUnit
from .organizations import (
    CATALOGUE,
    CONFIG_NAMES,
    EXTENDED_CONFIG_NAMES,
    Organization,
    OrganizationSpec,
    build_organization,
    lite_defaults,
    paging_policy_for,
)
from .multiprocess import TimeSharingConfig, run_time_shared
from .params import (
    RMM_LITE_PARAMS,
    TLB_LITE_PARAMS,
    ConfigurationSummary,
    HierarchyParams,
    LiteParams,
    SetAssocParams,
    SimulationParams,
)
from .simulator import Simulator
from .stats import SimulationResult, TimelineSample

__all__ = [
    "LRUDistanceCounters",
    "LiteController",
    "LiteIntervalRecord",
    "LiteStats",
    "ResizableUnit",
    "TLBHierarchy",
    "MixedTLBHierarchy",
    "BaseHierarchy",
    "L1Slot",
    "ConfigurationError",
    "Organization",
    "CONFIG_NAMES",
    "EXTENDED_CONFIG_NAMES",
    "CATALOGUE",
    "OrganizationSpec",
    "build_organization",
    "lite_defaults",
    "paging_policy_for",
    "HierarchyParams",
    "SetAssocParams",
    "LiteParams",
    "TLB_LITE_PARAMS",
    "RMM_LITE_PARAMS",
    "SimulationParams",
    "ConfigurationSummary",
    "Simulator",
    "TimeSharingConfig",
    "run_time_shared",
    "SimulationResult",
    "TimelineSample",
]
