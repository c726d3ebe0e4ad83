"""Counter-based pseudo-random numbers built on the splitmix64 finalizer.

Every draw is a pure function of (key, index): the i-th variate of a stream
is ``mix64(key + i * GOLDEN)``, the classic splitmix64 output sequence.
There is no mutable generator state, so

* a stream can be evaluated in chunks of any size (or split across
  workers) and always yields the same numbers, and
* sub-streams derived from a user seed via `derive_key` are stable
  across platforms and library versions (no dependency on numpy's
  Generator stream guarantees).

Keys and streams come as arrays too: `derive_key` takes an integer array of
seeds or of path elements (say trial indices), and `uniforms` takes an array
of keys, one row each.  Scalar and array paths run the same in-place
finalizer, so each element equals its scalar call.  A seed, a key or a path
element is any integer of either sign, taken modulo 2**64; a float, a bool
or a string is a `ParameterError` naming the argument, as a negative count
or offset is.

`uniforms` forms the counters of a block of draws as one sum of a read-only
table of `_BLOCK` steps ``(i + 1) * GOLDEN``, built on the first draw, and
the scalar ``key + offset * GOLDEN``; longer streams are drawn block by
block.  Its `out` argument takes a float64 destination, so a loop over
blocks can draw each one into the same buffer.

The mixer is the splitmix64 finalizer (Steele, Lea & Flood's SplittableRandom,
also used to seed the xoshiro family); it passes BigCrush as a bare counter
hash, which is ample for Monte Carlo work at the scales used here.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import ParameterError, _checked_count, _checked_integer

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# float64 has a 53-bit mantissa; top 53 bits of the output map to [0, 1)
_INV_2_53 = 1.0 / (1 << 53)

# numpy scalars of the constants and shifts, built once rather than per call
_GOLDEN_U64, _MIX_A_U64, _MIX_B_U64 = map(np.uint64, (_GOLDEN, _MIX_A, _MIX_B))
_U11, _U27, _U30, _U31 = map(np.uint64, (11, 27, 30, 31))

# values per block of the draw, mesh, Monte Carlo and quadrature loops:
# 2**15 float64 values are 256 KiB per array, so every pass over a block
# stays in L2 (2**13..2**18 measured for the Monte Carlo loops and
# 2**13..2**17 for fem's quadrature points; 2**15 was fastest)
_BLOCK = 1 << 15


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


def _key_part(value: int | np.ndarray, name: str) -> int | np.ndarray:
    """A seed or path element modulo 2**64: a uint64 copy of an integer array, else an int."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iu":
            raise ParameterError(f"{name} must be an integer array, got dtype {value.dtype}")
        return value.astype(np.uint64)
    return _checked_integer(value, name) & _MASK64


def derive_key(seed: int | np.ndarray, *path: int | np.ndarray) -> int | np.ndarray:
    """Derive a 64-bit stream key from a seed and a path of integers.

    Chained mixing makes distinct paths produce statistically independent
    streams; (seed,) and (seed, 0) differ because every path element is
    offset before mixing.  The seed or a path element may be an integer
    array (say of trial indices); the result is then the uint64 array of
    the keys of its elements, each equal to its scalar call, with each step
    of the chain run once over the whole array.
    """
    key = mix64(_key_part(seed, "seed"))
    for i, p in enumerate(path):
        offset = _key_part(p, f"path[{i}]")
        if isinstance(offset, np.ndarray):
            offset += np.uint64(1)
            offset *= _GOLDEN_U64
        else:
            offset = ((offset + 1) * _GOLDEN) & _MASK64
        key = mix64(key ^ offset)
    return key


@cache
def _steps() -> np.ndarray:
    """Read-only counter steps ``(i + 1) * GOLDEN`` mod 2**64 for i < `_BLOCK`.

    Built on the first draw, not at import, and shared by every draw after.
    """
    steps = np.arange(1, _BLOCK + 1, dtype=np.uint64)
    steps *= _GOLDEN_U64
    steps.flags.writeable = False
    return steps


def uniforms(
    key: int | np.ndarray, count: int, offset: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Return variates ``offset .. offset+count-1`` of stream `key` in [0, 1).

    ``uniforms(k, n)`` equals ``concatenate([uniforms(k, j), uniforms(k, n-j, j)])``
    bit for bit, for any split point j.  A 1-D uint64 array of keys gives
    one row per key, row j equal to ``uniforms(int(key[j]), count, offset)``.
    An integer key is taken modulo 2**64, as `derive_key` takes its seed.
    The variates are written into `out` when given, a float64 array of the
    result's shape, and `out` is returned.
    """
    count = _checked_count(count, "count", minimum=0)
    offset = _checked_count(offset, "offset", minimum=0)
    keys = isinstance(key, np.ndarray)
    if keys:
        if key.ndim != 1 or key.dtype != np.uint64:
            raise ParameterError("an array of keys must be 1-D uint64")
        shape, start = (key.size, count), offset * _GOLDEN
    else:
        shape, start = (count,), _checked_integer(key, "key") + offset * _GOLDEN
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ParameterError(f"out must be a float64 array of shape {shape}")
    steps = _steps()
    for first in range(0, count, _BLOCK):
        z = steps[:count - first] + np.uint64((start + first * _GOLDEN) & _MASK64)
        if keys:
            z = np.add.outer(key, z)
        # the block of `out` doubles as the scratch array: every xor-shift
        # writes its shifted copy into its uint64 view, and the final scaling
        # fills it as float64 (z < 2**53 there, so the conversion is exact)
        block = out[..., first:first + z.shape[-1]]
        _finalize(z, block.view(np.uint64))
        z >>= _U11
        np.multiply(z, _INV_2_53, out=block)
    return out


def uniform_at(key: int, index: int) -> float:
    """Single variate `index` of stream `key`; agrees with `uniforms`."""
    index = _checked_count(index, "index", minimum=0)
    z = mix64((_checked_integer(key, "key") + (index + 1) * _GOLDEN) & _MASK64)
    return (z >> 11) * _INV_2_53
