"""Memory hierarchy: caches, ports, MSHRs, L2, and main memory."""

from repro.mem.cache import Cache, CacheGeometry
from repro.mem.ports import (
    PORT_POLICIES,
    BankedPorts,
    FinitePorts,
    PortArbiter,
    ReplicatedPorts,
    make_ports,
)
from repro.mem.hierarchy import MemoryHierarchy, MemSystemConfig, MshrFile

__all__ = [
    "Cache",
    "CacheGeometry",
    "PortArbiter",
    "FinitePorts",
    "BankedPorts",
    "ReplicatedPorts",
    "PORT_POLICIES",
    "make_ports",
    "MshrFile",
    "MemoryHierarchy",
    "MemSystemConfig",
]
