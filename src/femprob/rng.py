"""Counter-based pseudo-random numbers built on the splitmix64 finalizer.

Every draw is a pure function of (key, index): the i-th variate of a stream
is ``mix64(key + i * GOLDEN)``, the classic splitmix64 output sequence.
There is no mutable generator state, so

* a stream can be evaluated in chunks of any size (or split across
  workers) and always yields the same numbers, and
* sub-streams derived from a user seed via `derive_key` are stable
  across platforms and library versions (no dependency on numpy's
  Generator stream guarantees).

There is one path for scalars and arrays alike.  A seed, a stream key, a
key-path element or the argument of `mix64` enters through `_key_part`: an
integer of either sign, or an array of an integer dtype, taken modulo 2**64
as a uint64 array (0-d for an integer); a float, a bool or a string is a
`ParameterError` naming the argument, as a negative count or offset is.
Every step after that is uint64 array arithmetic, which wraps modulo 2**64
without overflow warnings, and a call with integer arguments converts its
result to an int only at its return.  So `derive_key` takes an integer
array of seeds or of path elements (say trial indices), `uniforms` a 1-D
integer array of keys, one row each, and each element equals its scalar call.

`_blocks` is the package's one tiling rule: it cuts a (rows x width)
array into blocks of about `_BLOCK` values, whole rows when a row fits,
else the columns of one row at a time, in one loop that also yields the
one block of a small array.  `uniforms` walks its (keys x
counters) output with it, so a call with any number of keys and any count
holds at most one block of counters, and its callers (`mesh`, `oracle`)
cut no blocks of their own.  The counters of a block are one uint64 add
of a read-only table of ``(i + 1) * GOLDEN`` steps, built for the block
size on the first draw, and ``key + (offset + first) * GOLDEN``, the
block's start.  Its `out` argument takes a float64 destination, which may
be a strided view (say the interior columns of a node array), so a caller
draws straight into the array it fills.  `fem` walks its quadrature
points with `_blocks` too, at its own block size.

`uniform_at` forms the counter of one draw with Python ints; it is the
reference that the array path is tested against.

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
_ONE_U64, _U11, _U27, _U30, _U31 = map(np.uint64, (1, 11, 27, 30, 31))

# draws per block, across all the keys of a call: 2**15 float64 values are
# 256 KiB per array, so every pass over a block stays in L2 (2**13..2**18
# measured for the Monte Carlo loops; 2**15 was fastest)
_BLOCK = 1 << 15


def _rows_per_block(width: int, unit: int = 1, size: int | None = None) -> int:
    """How many rows of `width` cells of `unit` values one block of `size`
    values (`_BLOCK`, read at call time, when not given) holds: as many as
    fit, and at least one."""
    return max(1, (_BLOCK if size is None else size) // max(1, width * unit))


def _blocks(rows: int, width: int, unit: int = 1, size: int | None = None):
    """Yield the clipped (rows, columns) slices of blocks of about `size` values.

    For a (rows x width) array of cells of `unit` values each: whole rows,
    as many as fit, when one row fits in `size` values (`_BLOCK`, read at
    call time, when not given); otherwise one row at a time, in blocks of
    as many columns as fit.  Each cell lies in exactly one block, the
    blocks come in order, and no slice reaches past the array.
    """
    # a block of columns holds as many cells as rows of one cell would
    step, columns = _rows_per_block(width, unit, size), _rows_per_block(1, unit, size)
    for start in range(0, rows, step):
        for first in range(0, width, columns):
            yield slice(start, min(start + step, rows)), slice(first, min(first + columns, width))


def _finalize(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer of each element of uint64 array `z`, in place.

    `scratch` is a uint64 array of z's shape that every xor-shift writes its
    shifted copy into, a new one when not given.  uint64 array arithmetic
    wraps modulo 2**64 without overflow warnings.  Returns `z`.
    """
    if scratch is None:
        scratch = np.empty_like(z)
    np.right_shift(z, _U30, out=scratch)
    z ^= scratch
    z *= _MIX_A_U64
    np.right_shift(z, _U27, out=scratch)
    z ^= scratch
    z *= _MIX_B_U64
    np.right_shift(z, _U31, out=scratch)
    z ^= scratch
    return z


def _key_part(value: int | np.ndarray, name: str) -> np.ndarray:
    """A seed, key or path element modulo 2**64 as a new uint64 array, 0-d for an integer.

    An integer is checked by the rule of `errors._checked_integer`; an array
    must have an integer dtype.  Either is a `ParameterError` naming `name`.
    """
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "iu":
            raise ParameterError(f"{name} must be an integer array, got dtype {value.dtype}")
        return value.astype(np.uint64)
    return np.array(_checked_integer(value, name) & _MASK64, dtype=np.uint64)


def mix64(x: int | np.ndarray) -> int | np.ndarray:
    """Splitmix64 finalizer of an integer modulo 2**64, as an int.

    Of an integer array, the uint64 array of the finalizer of each element.
    """
    z = _finalize(_key_part(x, "x"))
    return int(z) if z.ndim == 0 else z


def derive_key(seed: int | np.ndarray, *path: int | np.ndarray) -> int | np.ndarray:
    """Derive a 64-bit stream key from a seed and a path of integers.

    Chained mixing makes distinct paths produce statistically independent
    streams; (seed,) and (seed, 0) differ because every path element is
    offset before mixing.  The seed or a path element may be an integer
    array (say of trial indices); the result is then the uint64 array of
    the keys of its elements, each equal to its scalar call, with each step
    of the chain run once over the whole array.
    """
    key = _finalize(_key_part(seed, "seed"))
    for i, p in enumerate(path):
        offset = _key_part(p, f"path[{i}]")
        offset += _ONE_U64
        offset *= _GOLDEN_U64
        # an explicit output keeps the xor of two 0-d arrays an array
        mixed = np.empty(np.broadcast(key, offset).shape, dtype=np.uint64)
        key = _finalize(np.bitwise_xor(key, offset, out=mixed))
    return int(key) if key.ndim == 0 else key


@cache
def _steps(size: int) -> np.ndarray:
    """Read-only counter steps ``(i + 1) * GOLDEN`` mod 2**64 for i < `size`.

    Built on the first draw at each block size, not at import, and shared
    by every draw after.
    """
    steps = np.arange(1, size + 1, dtype=np.uint64)
    steps *= _GOLDEN_U64
    steps.flags.writeable = False
    return steps


def uniforms(
    key: int | np.ndarray, count: int, offset: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Return variates ``offset .. offset+count-1`` of stream `key` in [0, 1).

    ``uniforms(k, n)`` equals ``concatenate([uniforms(k, j), uniforms(k, n-j, j)])``
    bit for bit, for any split point j.  A 1-D integer array of keys gives
    one row per key, row j equal to ``uniforms(int(key[j]), count, offset)``.
    A key is taken modulo 2**64, as `derive_key` takes its seed.
    The variates are written into `out` when given, a float64 array (or
    view) of the result's shape, and `out` is returned.  The rows and
    counters are drawn in the blocks of `_blocks`, so the work arrays hold
    at most `_BLOCK` values however many keys and draws there are.
    """
    count = _checked_count(count, "count", minimum=0)
    offset = _checked_count(offset, "offset", minimum=0)
    key = _key_part(key, "key")
    if key.ndim > 1:
        raise ParameterError(f"key must be an integer or a 1-D array, got shape {key.shape}")
    shape = key.shape + (count,)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ParameterError(f"out must be a float64 array of shape {shape}")
    # one row per key, a lone key as one row
    keys, rows = key.reshape(-1, 1), out if key.ndim else out[None]
    steps = _steps(_BLOCK)
    for row, column in _blocks(len(keys), count, size=steps.size):
        base = _key_part((offset + column.start) * _GOLDEN, "offset")
        z = steps[:column.stop - column.start] + (keys[row] + base)
        # the block of `out` doubles as the scratch array: every xor-shift
        # writes its shifted copy into its uint64 view, and the final scaling
        # fills it as float64 (z < 2**53 there, so the conversion is exact,
        # and from int64 it is faster than from uint64)
        block = rows[row, column]
        _finalize(z, block.view(np.uint64))
        z >>= _U11
        np.multiply(z.view(np.int64), _INV_2_53, out=block)
    return out


def uniform_at(key: int, index: int) -> float:
    """Single variate `index` of stream `key`; agrees with `uniforms`."""
    index = _checked_count(index, "index", minimum=0)
    z = mix64((_checked_integer(key, "key") + (index + 1) * _GOLDEN) & _MASK64)
    return (z >> 11) * _INV_2_53
