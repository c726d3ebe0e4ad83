"""Counter-based pseudo-random numbers built on the splitmix64 finalizer.

Every draw is a pure function of (key, index): the i-th variate of a stream
is ``mix64(key + i * GOLDEN)``, the classic splitmix64 output sequence.
There is no mutable generator state, so

* a stream can be evaluated in chunks of any size (or split across
  workers) and always yields the same numbers, and
* sub-streams derived from a user seed via `derive_key` are stable
  across platforms and library versions (no dependency on numpy's
  Generator stream guarantees).

Keys and streams come as arrays too: `derive_key` takes a uint64 array of
seeds or of path elements (say trial indices), and `uniforms` takes an array
of keys, one row each.  Scalar and array paths run the same in-place
finalizer, so each element equals its scalar call.

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


def _finalize(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of each element of uint64 array `z`, in place.

    `scratch` is a uint64 array of z's shape that every xor-shift writes its
    shifted copy into.  uint64 array arithmetic wraps modulo 2**64 without
    overflow warnings.  Returns `z`.
    """
    np.right_shift(z, _U30, out=scratch)
    z ^= scratch
    z *= _MIX_A_U64
    np.right_shift(z, _U27, out=scratch)
    z ^= scratch
    z *= _MIX_B_U64
    np.right_shift(z, _U31, out=scratch)
    z ^= scratch
    return z


def mix64(x: int | np.ndarray) -> int | np.ndarray:
    """Splitmix64 finalizer of a 64-bit integer, or of each element of a uint64 array."""
    if isinstance(x, np.ndarray):
        z = x.astype(np.uint64)
        return _finalize(z, np.empty_like(z))
    z = np.array([x & _MASK64], dtype=np.uint64)
    return int(_finalize(z, np.empty_like(z))[0])


def derive_key(seed: int | np.ndarray, *path: int | np.ndarray) -> int | np.ndarray:
    """Derive a 64-bit stream key from a seed and a path of integers.

    Chained mixing makes distinct paths produce statistically independent
    streams; (seed,) and (seed, 0) differ because every path element is
    offset before mixing.  The seed or a path element may be a uint64 array
    (say of trial indices); the result is then the uint64 array of the keys
    of its elements, each equal to its scalar call, with each step of the
    chain run once over the whole array.
    """
    key = mix64(seed)
    for p in path:
        if isinstance(p, np.ndarray):
            offset = p.astype(np.uint64)
            offset += np.uint64(1)
            offset *= _GOLDEN_U64
        else:
            offset = ((int(p) + 1) * _GOLDEN) & _MASK64
        key = mix64(key ^ offset)
    return key


def uniforms(key: int | np.ndarray, count: int, offset: int = 0) -> np.ndarray:
    """Return variates ``offset .. offset+count-1`` of stream `key` in [0, 1).

    ``uniforms(k, n)`` equals ``concatenate([uniforms(k, j), uniforms(k, n-j, j)])``
    bit for bit, for any split point j.  A 1-D uint64 array of keys gives
    one row per key, row j equal to ``uniforms(int(key[j]), count, offset)``.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    z = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z *= _GOLDEN_U64
    if isinstance(key, np.ndarray):
        if key.ndim != 1 or key.dtype != np.uint64:
            raise ValueError("an array of keys must be 1-D uint64")
        z = np.add.outer(key, z)
    else:
        z += np.uint64(key)
    # `out` doubles as the scratch array: every xor-shift writes its shifted
    # copy into its uint64 view, and the final scaling fills it as float64
    # (z < 2**53 there, so the conversion is exact, as astype's would be).
    out = np.empty(z.shape, dtype=np.float64)
    _finalize(z, out.view(np.uint64))
    z >>= _U11
    np.multiply(z, _INV_2_53, out=out)
    return out


def uniform_at(key: int, index: int) -> float:
    """Single variate `index` of stream `key`; agrees with `uniforms`."""
    z = mix64((key + (index + 1) * _GOLDEN) & _MASK64)
    return (z >> 11) * _INV_2_53
