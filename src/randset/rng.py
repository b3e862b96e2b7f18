"""Counter-based random number generation.

Every draw is a pure function of (seed, stream, index): the generator hashes a
64-bit counter with the splitmix64 finalizer, so draws can be produced in any
order, in blocks, or in parallel and still agree bit for bit. Streams separate
independent uses (driver draws, halo points, sign flips) within one seed.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_SEED_SALT = 0x8C62B1A39F2DD5E3
_STREAM_SALT = 0xD1342543DE82EF95

# stream ids used across the package (any distinct constants work)
STREAM_DRIVER = 0x01
STREAM_DRIVER_INIT = 0x02
STREAM_HALO_BASE = 0x1000_0000


def _mix64_int(x: int) -> int:
    x &= _MASK
    x = (x ^ (x >> 30)) * _MUL1 & _MASK
    x = (x ^ (x >> 27)) * _MUL2 & _MASK
    return x ^ (x >> 31)


def _stream_base(seed: int, stream: int) -> int:
    s = _mix64_int((seed & _MASK) * _SEED_SALT & _MASK)
    t = _mix64_int((stream & _MASK) * _STREAM_SALT & _MASK)
    return (s ^ t) & _MASK


def _mix64_array(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MUL1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MUL2)
    x ^= x >> np.uint64(31)
    return x


def uniform_at(seed: int, stream: int, indices: np.ndarray | list[int]) -> np.ndarray:
    """Uniform(0,1) draws at the given counter indices (vectorized, order-free)."""
    idx = np.asarray(indices, dtype=np.uint64)
    base = np.uint64(_stream_base(seed, stream))
    ctr = base + idx * np.uint64(_GAMMA)
    bits = _mix64_array(ctr)
    # 53-bit mantissa, offset by half a ulp so values live strictly inside (0,1)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0**-53)


def uniform_block(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Uniform(0,1) draws for counter indices start .. start+count-1."""
    return uniform_at(seed, stream, np.arange(start, start + count, dtype=np.uint64))


def unit_disk_point(seed: int, index: int) -> tuple[float, float]:
    """Uniform point on the closed unit disk for a 1-based index.

    Rejection-samples from the square on a stream dedicated to this index, so
    the result does not depend on how many rejections other indices needed.
    """
    stream = STREAM_HALO_BASE + index
    k = 0
    while True:
        u = uniform_at(seed, stream, [2 * k, 2 * k + 1])
        x = float(2.0 * u[0] - 1.0)
        y = float(2.0 * u[1] - 1.0)
        if x * x + y * y <= 1.0:
            return (x, y)
        k += 1
