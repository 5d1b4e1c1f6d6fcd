"""Simulated SSD substrate: virtual clock, device profiles, I/O accounting.

This package replaces the physical Memblaze Q520 PCIe SSD of the paper's
testbed with a deterministic virtual-time model (see DESIGN.md §1 for the
substitution argument).
"""

from .clock import SimClock
from .device import SimulatedSSD
from .flash import (
    WAL_STREAM_OWNER,
    DeviceConfig,
    FlashSpec,
    FlashTranslationLayer,
)
from .metrics import (
    COMPACTION_READ,
    COMPACTION_WRITE,
    FLUSH_WRITE,
    GC_READ,
    GC_WRITE,
    USER_READ,
    USER_SCAN,
    WAL_WRITE,
)
from .profile import ENTERPRISE_PCIE, SSDProfile, get_profile

__all__ = [
    "SimClock",
    "SimulatedSSD",
    "SSDProfile",
    "get_profile",
    "ENTERPRISE_PCIE",
    "USER_READ",
    "USER_SCAN",
    "WAL_WRITE",
    "FLUSH_WRITE",
    "COMPACTION_READ",
    "COMPACTION_WRITE",
    "GC_READ",
    "GC_WRITE",
    "DeviceConfig",
    "FlashSpec",
    "FlashTranslationLayer",
    "WAL_STREAM_OWNER",
]
