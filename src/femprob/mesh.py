"""Randomly jittered 1D meshes of the unit interval.

`jittered_nodes` draws the nodes of many meshes at once, one row per seed;
`build_mesh` is its one-seed case wrapped as a `Mesh1D`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, _checked_count, _checked_integer, _checked_number
from .rng import _BLOCK, _key_part, derive_key, uniforms

__all__ = ["Mesh1D", "build_mesh", "jittered_nodes"]


@dataclass(frozen=True)
class Mesh1D:
    """A sorted node set on [0, 1] together with the seed that drew it.

    ``gaps`` holds the element diameters (read-only), ``n_elements`` their
    number and ``h_max`` the largest of them, the mesh size every error
    bound in this package is phrased in.
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
        if nodes.ndim != 1 or nodes.size < 2:
            raise ParameterError("a mesh needs at least two nodes")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ParameterError("mesh must span exactly [0, 1]")
        gaps = nodes[1:] - nodes[:-1]
        if not gaps.min() > 0.0:
            raise ParameterError("mesh nodes must be strictly increasing")
        gaps.flags.writeable = False
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "n_elements", gaps.size)
        object.__setattr__(self, "h_max", float(gaps.max()))


def jittered_nodes(n_elements: int, jitter: float, seeds: np.ndarray) -> np.ndarray:
    """Nodes of one jittered n-element mesh per seed, one row per mesh.

    Row j is ``build_mesh(n_elements, jitter, int(seeds[j])).nodes``, bit for
    bit; `seeds` is a 1-D array of an integer dtype, taken modulo 2**64 as
    `derive_key` takes it, and checked also when no node moves.  The draws
    for many meshes come from one `uniforms` call per chunk of meshes, each
    chunk at most `_BLOCK` values (one mesh per chunk when a mesh alone has
    more), so the temporaries stay in L2 cache however many meshes there are.
    """
    seeds = _key_part(seeds, "seeds")
    if seeds.ndim != 1:
        raise ParameterError(f"seeds must be a 1-D integer array, got shape {seeds.shape}")
    n_elements = _checked_count(n_elements, "n_elements")
    jitter = _checked_number(jitter, "jitter")
    if not 0.0 <= jitter < 0.5:
        raise ParameterError(f"jitter must lie in [0, 0.5), got {jitter!r}")
    nodes = np.empty((len(seeds), n_elements + 1))
    nodes[:] = np.linspace(0.0, 1.0, n_elements + 1)
    if n_elements > 1 and jitter > 0.0:
        h_uniform = 1.0 / n_elements
        keys = derive_key(seeds)
        rows = max(1, _BLOCK // (n_elements - 1))
        for start in range(0, len(seeds), rows):
            draws = uniforms(keys[start:start + rows], n_elements - 1)
            nodes[start:start + rows, 1:-1] += (2.0 * draws - 1.0) * jitter * h_uniform
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
