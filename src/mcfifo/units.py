"""Unit conversions.

Everything inside the package is seconds and bits. Configs and the CLI speak
ms/us/bytes/Mbps and get converted here, at the boundary.
"""

BITS_PER_BYTE = 8.0


def bits_from_bytes(n_bytes: float) -> float:
    return n_bytes * BITS_PER_BYTE


def seconds_from_ms(ms: float) -> float:
    return ms * 1e-3


def bps_from_mbps(mbps: float) -> float:
    return mbps * 1e6
