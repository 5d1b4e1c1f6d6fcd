"""Named parameter presets for the simulated SSD.

The paper's evaluation ran on an enterprise-level PCIe SSD (Memblaze Q520)
whose defining property — shared by flash devices generally — is *asymmetric*
read/write performance: reads are roughly an order of magnitude faster than
sustained (random, GC-burdened) writes.  The device model only needs four
numbers per device: read/write bandwidth and read/write per-request overhead.

Bandwidths are expressed in MB/s.  Since 1 MB/s equals exactly 1 byte/µs,
``1.0 / bandwidth_mbps`` is the per-byte service time in microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class SSDProfile:
    """Performance parameters of a simulated storage device.

    Parameters
    ----------
    name:
        Human-readable identifier used in reports.
    read_bandwidth_mbps / write_bandwidth_mbps:
        Sustained transfer rates.  Flash devices are read-fast/write-slow;
        the paper's motivation (§I) rests on this asymmetry.
    read_overhead_us / write_overhead_us:
        Fixed per-request cost (command submission, flash access latency).
    sequential_discount:
        Multiplier applied to the per-request overhead for sequential
        accesses (large compaction reads/writes), in ``(0, 1]``.  Flash has
        far less of a sequential/random gap than disks, but large requests
        still amortise command overhead.
    """

    name: str
    read_bandwidth_mbps: float
    write_bandwidth_mbps: float
    read_overhead_us: float
    write_overhead_us: float
    sequential_discount: float = 0.2

    def __post_init__(self) -> None:
        for field_name in (
            "read_bandwidth_mbps",
            "write_bandwidth_mbps",
        ):
            if getattr(self, field_name) <= 0:
                raise ConfigError(f"{field_name} must be positive")
        for field_name in ("read_overhead_us", "write_overhead_us"):
            if getattr(self, field_name) < 0:
                raise ConfigError(f"{field_name} must be non-negative")
        if not 0 < self.sequential_discount <= 1:
            raise ConfigError("sequential_discount must be in (0, 1]")

    @property
    def read_us_per_byte(self) -> float:
        """Transfer time per byte read, in microseconds."""
        return 1.0 / self.read_bandwidth_mbps

    @property
    def write_us_per_byte(self) -> float:
        """Transfer time per byte written, in microseconds."""
        return 1.0 / self.write_bandwidth_mbps

    @property
    def asymmetry(self) -> float:
        """Read-to-write bandwidth ratio (>1 means reads are faster)."""
        return self.read_bandwidth_mbps / self.write_bandwidth_mbps

    def scaled(self, *, write_bandwidth_mbps: float) -> "SSDProfile":
        """Return a copy with a different write bandwidth.

        Used by the device-asymmetry ablation bench, which sweeps the
        read/write ratio while holding everything else fixed.
        """
        return SSDProfile(
            name=f"{self.name}-w{write_bandwidth_mbps:g}",
            read_bandwidth_mbps=self.read_bandwidth_mbps,
            write_bandwidth_mbps=write_bandwidth_mbps,
            read_overhead_us=self.read_overhead_us,
            write_overhead_us=self.write_overhead_us,
            sequential_discount=self.sequential_discount,
        )


#: Enterprise PCIe SSD modelled after the paper's Memblaze Q520 testbed:
#: fast reads, roughly 8x slower sustained random writes.
ENTERPRISE_PCIE = SSDProfile(
    name="enterprise-pcie",
    read_bandwidth_mbps=2000.0,
    write_bandwidth_mbps=250.0,
    read_overhead_us=25.0,
    write_overhead_us=30.0,
)

#: Consumer SATA SSD: lower bandwidth, higher per-request overhead.
SATA_SSD = SSDProfile(
    name="sata-ssd",
    read_bandwidth_mbps=500.0,
    write_bandwidth_mbps=120.0,
    read_overhead_us=80.0,
    write_overhead_us=90.0,
)

#: Hypothetical device with symmetric read/write performance: on such a
#: device LDC's read-for-write trade buys less.  Reachable by name
#: (``repro explore --profiles balanced-flash``); the asymmetry ablation
#: scales ``ENTERPRISE_PCIE``'s write bandwidth instead.
BALANCED_FLASH = SSDProfile(
    name="balanced-flash",
    read_bandwidth_mbps=500.0,
    write_bandwidth_mbps=500.0,
    read_overhead_us=50.0,
    write_overhead_us=50.0,
)

#: Spinning disk: symmetric bandwidth but enormous per-request (seek) cost,
#: mostly amortised away for sequential compaction I/O.
HDD = SSDProfile(
    name="hdd",
    read_bandwidth_mbps=150.0,
    write_bandwidth_mbps=150.0,
    read_overhead_us=8000.0,
    write_overhead_us=8000.0,
    sequential_discount=0.02,
)

PROFILES = {
    profile.name: profile
    for profile in (ENTERPRISE_PCIE, SATA_SSD, BALANCED_FLASH, HDD)
}


def get_profile(name: str) -> SSDProfile:
    """Look up a named profile, raising :class:`ConfigError` for unknowns."""
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ConfigError(f"unknown SSD profile {name!r}; known: {known}") from None
