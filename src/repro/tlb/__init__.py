"""TLB structures: set-associative and fully-associative (interval) TLBs."""

from .banked import BankedSetAssociativeTLB
from .base import TLBStats, TranslationStructure
from .fully_assoc import FullyAssociativeTLB
from .replacement import PLRUSetAssociativeTLB
from .semantic import SemanticPartitionedTLB, classify_by_vma
from .set_assoc import SetAssociativeTLB

__all__ = [
    "TLBStats",
    "TranslationStructure",
    "SetAssociativeTLB",
    "BankedSetAssociativeTLB",
    "FullyAssociativeTLB",
    "PLRUSetAssociativeTLB",
    "SemanticPartitionedTLB",
    "classify_by_vma",
]
