"""Randomly jittered 1D meshes of the unit interval.

`jittered_nodes` draws the nodes of many meshes at once, one row per seed;
`build_mesh` is its one-seed case wrapped as a `Mesh1D`, and
`Mesh1D._of_rows` wraps all its rows at once, checked as one array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ParameterError, _checked_count, _checked_integer, _checked_number
from .rng import _key_part, derive_key, uniforms

__all__ = ["Mesh1D", "build_mesh", "jittered_nodes"]


@dataclass(frozen=True)
class Mesh1D:
    """A sorted node set on [0, 1] together with the seed that drew it.

    ``gaps`` holds the element diameters (read-only), ``n_elements`` their
    number and ``h_max`` the largest of them, the mesh size every error
    bound in this package is phrased in.  The nodes are checked, and these
    fields computed, by the rule of `_checked_gaps`, which `_of_rows`
    applies once to the node rows of many meshes.
    """

    nodes: np.ndarray
    seed: int
    gaps: np.ndarray = field(init=False, repr=False)
    n_elements: int = field(init=False)
    h_max: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "seed", _checked_integer(self.seed, "seed"))
        nodes = np.asarray(self.nodes, dtype=np.float64)
        object.__setattr__(self, "nodes", nodes)
        # a 1-D node set is the one row of nodes[None]; any other is refused
        gaps, h_max = _checked_gaps(nodes[None])
        object.__setattr__(self, "gaps", gaps[0])
        object.__setattr__(self, "n_elements", gaps.shape[1])
        object.__setattr__(self, "h_max", float(h_max[0]))

    @classmethod
    def _of_rows(cls, nodes: np.ndarray, seeds: np.ndarray) -> Iterator[Mesh1D]:
        """One mesh per row of a (T, n+1) float64 node array and entry of `seeds`.

        Mesh j equals ``Mesh1D(nodes=nodes[j], seed=seeds[j])`` field for
        field, but the rows are checked once, as one array, when called; the
        meshes are built as they are taken.  `seeds` is a 1-D integer array
        of T entries, stored as Python ints.
        """
        _checked_seeds(seeds)
        gaps, h_max = _checked_gaps(nodes)
        rows = zip(nodes, gaps, seeds.tolist(), h_max.tolist(), strict=True)
        return (cls._unchecked(*row) for row in rows)

    @classmethod
    def _unchecked(cls, nodes: np.ndarray, gaps: np.ndarray, seed: int, h_max: float) -> Mesh1D:
        """The mesh of fields already checked, without `__post_init__`."""
        mesh = object.__new__(cls)
        mesh.__dict__.update(nodes=nodes, seed=seed, gaps=gaps, n_elements=gaps.size, h_max=h_max)
        return mesh


def _checked_gaps(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (T, n) gaps of a (T, n+1) float64 node array, and each row's largest.

    Every row must be a mesh: at least two nodes, from exactly 0 to exactly
    1, strictly increasing (so no node is NaN); anything else is a
    `ParameterError`.
    """
    if nodes.ndim != 2 or nodes.shape[1] < 2:
        raise ParameterError("a mesh needs at least two nodes")
    if not ((nodes[:, 0] == 0.0) & (nodes[:, -1] == 1.0)).all():
        raise ParameterError("mesh must span exactly [0, 1]")
    gaps = nodes[:, 1:] - nodes[:, :-1]
    if not (gaps > 0.0).all():
        raise ParameterError("mesh nodes must be strictly increasing")
    gaps.flags.writeable = False
    return gaps, gaps.max(axis=1)


def _checked_seeds(seeds: np.ndarray) -> np.ndarray:
    """`seeds` as uint64 keys: a 1-D array of an integer dtype, by `_key_part`'s rule."""
    if not isinstance(seeds, np.ndarray) or seeds.ndim != 1:
        raise ParameterError(f"seeds must be a 1-D integer array, got {_described(seeds)}")
    return _key_part(seeds, "seeds")


def _described(value) -> str:
    """A value that should have been an array, for an error message: its
    shape if it is a numpy array, else the name of its type."""
    return f"shape {value.shape}" if isinstance(value, np.ndarray) else type(value).__name__


def jittered_nodes(n_elements: int, jitter: float, seeds: np.ndarray) -> np.ndarray:
    """Nodes of one jittered n-element mesh per seed, one row per mesh.

    Row j is ``build_mesh(n_elements, jitter, int(seeds[j])).nodes``, bit for
    bit; `seeds` is a 1-D array of an integer dtype, taken modulo 2**64 as
    `derive_key` takes it, and checked also when no node moves.  The draws
    of all the meshes come from one `uniforms` call, straight into the
    interior columns of the node array, which `uniforms` fills in blocks
    that stay in L2 cache however many meshes there are; the offsets are
    formed in place there, then the uniform nodes added.
    """
    seeds = _checked_seeds(seeds)
    n_elements = _checked_count(n_elements, "n_elements")
    jitter = _checked_number(jitter, "jitter")
    if not 0.0 <= jitter < 0.5:
        raise ParameterError(f"jitter must lie in [0, 0.5), got {jitter!r}")
    uniform = np.linspace(0.0, 1.0, n_elements + 1)
    nodes = np.tile(uniform, (len(seeds), 1))
    if n_elements > 1 and jitter > 0.0:
        # (2u - 1) * jitter * h_u, one product at a time as written, plus
        # the uniform node (IEEE addition commutes, so the order is free)
        offsets = uniforms(derive_key(seeds), n_elements - 1, out=nodes[:, 1:-1])
        offsets *= 2.0
        offsets -= 1.0
        offsets *= jitter
        offsets *= 1.0 / n_elements
        offsets += uniform[1:-1]
    return nodes


def build_mesh(n_elements: int, jitter: float, seed: int) -> Mesh1D:
    """Uniform n-element mesh with interior nodes displaced at random.

    Each interior node moves by an independent uniform offset in
    [-jitter * h_u, +jitter * h_u] where h_u = 1/n_elements; jitter < 0.5
    keeps every gap inside [(1 - 2*jitter) * h_u, (1 + 2*jitter) * h_u],
    so ordering can never break.  Deterministic in `seed`, any integer,
    taken modulo 2**64.
    """
    seeds = _key_part(seed, "seed").reshape(1)
    return Mesh1D(nodes=jittered_nodes(n_elements, jitter, seeds)[0], seed=seed)
