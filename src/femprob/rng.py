"""Counter-based pseudo-random numbers built on the splitmix64 finalizer.

Every draw is a pure function of (key, index): the i-th variate of a stream
is ``mix64(key + i * GOLDEN)``, the classic splitmix64 output sequence.
There is no mutable generator state, so

* a stream can be evaluated in chunks of any size (or split across
  workers) and always yields the same numbers, and
* sub-streams derived from a user seed via `derive_key` are stable
  across platforms and library versions (no dependency on numpy's
  Generator stream guarantees).

The mixer is the splitmix64 finalizer (Steele, Lea & Flood's SplittableRandom,
also used to seed the xoshiro family); it passes BigCrush as a bare counter
hash, which is ample for Monte Carlo work at the scales used here.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# float64 has a 53-bit mantissa; top 53 bits of the output map to [0, 1)
_INV_2_53 = 1.0 / (1 << 53)

# numpy scalars of the constants and shifts, built once rather than per call
_GOLDEN_U64, _MIX_A_U64, _MIX_B_U64 = map(np.uint64, (_GOLDEN, _MIX_A, _MIX_B))
_U11, _U27, _U30, _U31 = map(np.uint64, (11, 27, 30, 31))


def mix64(x: int) -> int:
    """Scalar splitmix64 finalizer on a 64-bit integer."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def derive_key(seed: int, *path: int) -> int:
    """Derive a 64-bit stream key from a seed and a path of integers.

    Chained mixing makes distinct paths produce statistically independent
    streams; (seed,) and (seed, 0) differ because every path element is
    offset before mixing.
    """
    key = mix64(seed)
    for p in path:
        key = mix64(key ^ (((int(p) + 1) * _GOLDEN) & _MASK64))
    return key


def uniforms(key: int, count: int, offset: int = 0) -> np.ndarray:
    """Return variates ``offset .. offset+count-1`` of stream `key` in [0, 1).

    ``uniforms(k, n)`` equals ``concatenate([uniforms(k, j), uniforms(k, n-j, j)])``
    bit for bit, for any split point j.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    # uint64 array arithmetic wraps modulo 2**64 without overflow warnings.
    # `out` doubles as the scratch array: every xor-shift writes its shifted
    # copy into its uint64 view, and the final scaling fills it as float64
    # (z < 2**53 there, so the conversion is exact, as astype's would be).
    z = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    out = np.empty(count, dtype=np.float64)
    t = out.view(np.uint64)
    z *= _GOLDEN_U64
    z += np.uint64(key)
    np.right_shift(z, _U30, out=t)
    z ^= t
    z *= _MIX_A_U64
    np.right_shift(z, _U27, out=t)
    z ^= t
    z *= _MIX_B_U64
    np.right_shift(z, _U31, out=t)
    z ^= t
    z >>= _U11
    np.multiply(z, _INV_2_53, out=out)
    return out


def uniform_at(key: int, index: int) -> float:
    """Single variate `index` of stream `key`; agrees with `uniforms`."""
    z = mix64((key + (index + 1) * _GOLDEN) & _MASK64)
    return (z >> 11) * _INV_2_53
