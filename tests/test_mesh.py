"""Jittered mesh generator: bounds, determinism, validation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femprob import ParameterError, build_mesh
from femprob import rng
from femprob.mesh import Mesh1D, jittered_nodes
from femprob.rng import derive_key


class TestBuildMesh:
    def test_zero_jitter_is_uniform(self):
        mesh = build_mesh(4, 0.0, seed=31337)
        np.testing.assert_array_equal(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert mesh.h_max == 0.25

    def test_jitter_bounds_at_reference_config(self):
        mesh = build_mesh(4, 0.4, seed=42)
        assert 0.25 * 0.2 <= mesh.gaps.min()
        assert mesh.h_max <= 0.25 * 1.8

    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0.0, max_value=0.499),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_gap_bounds_hold_always(self, n, jitter, seed):
        mesh = build_mesh(n, jitter, seed)
        h_uniform = 1.0 / n
        gaps = mesh.gaps
        assert np.all(gaps >= (1.0 - 2.0 * jitter) * h_uniform - 1e-15)
        assert np.all(gaps <= (1.0 + 2.0 * jitter) * h_uniform + 1e-15)
        assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
        assert np.all(np.diff(mesh.nodes) > 0)
        assert mesh.h_max == gaps.max()

    def test_distinct_seeds_distinct_meshes(self):
        a = build_mesh(1000, 0.3, seed=1)
        b = build_mesh(1000, 0.3, seed=2)
        assert not np.array_equal(a.nodes, b.nodes)
        # both remain valid meshes
        assert np.all(np.diff(a.nodes) > 0) and np.all(np.diff(b.nodes) > 0)

    def test_deterministic_in_seed(self):
        a = build_mesh(57, 0.45, seed=77)
        b = build_mesh(57, 0.45, seed=77)
        np.testing.assert_array_equal(a.nodes, b.nodes)

    def test_jitter_leaves_uniform_template_untouched(self):
        jittered = build_mesh(8, 0.3, seed=5)
        assert not np.array_equal(jittered.nodes, np.linspace(0.0, 1.0, 9))
        np.testing.assert_array_equal(
            build_mesh(8, 0.0, seed=5).nodes, np.linspace(0.0, 1.0, 9)
        )

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            build_mesh(0, 0.1, 1)
        with pytest.raises(ParameterError):
            build_mesh(4, 0.5, 1)
        with pytest.raises(ParameterError):
            build_mesh(4, -0.1, 1)


class TestJitteredNodes:
    @pytest.mark.parametrize("block", [None, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 97])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_rows_equal_build_mesh(self, n, jitter, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(rng, "_BLOCK", block)
        seeds = [0, 1, 2**63, 2**64 - 1, 12345, 7, 8]
        nodes = jittered_nodes(n, jitter, np.array(seeds, dtype=np.uint64))
        assert nodes.shape == (len(seeds), n + 1)
        for seed, row in zip(seeds, nodes):
            assert row.tobytes() == build_mesh(n, jitter, seed).nodes.tobytes()

    def test_build_mesh_takes_any_integer_seed(self):
        # seeds are reduced modulo 2**64, as derive_key reduces them
        np.testing.assert_array_equal(
            build_mesh(6, 0.3, seed=-1).nodes, build_mesh(6, 0.3, seed=2**64 - 1).nodes
        )

    @pytest.mark.parametrize(
        "n, jitter", [(0, 0.1), (-3, 0.1), (4, 0.5), (4, -0.1), (4, float("nan"))]
    )
    def test_rejects_bad_parameters(self, n, jitter):
        with pytest.raises(ParameterError):
            jittered_nodes(n, jitter, np.arange(3, dtype=np.uint64))


class TestMesh1DValidation:
    def test_rejects_wrong_span(self):
        with pytest.raises(ParameterError):
            Mesh1D(nodes=np.array([0.0, 0.5, 0.9]), seed=0)

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ParameterError):
            Mesh1D(nodes=np.array([0.0, 0.7, 0.3, 1.0]), seed=0)

    def test_gaps_are_read_only(self):
        mesh = build_mesh(5, 0.2, seed=3)
        np.testing.assert_array_equal(mesh.gaps, np.diff(mesh.nodes))
        with pytest.raises(ValueError):
            mesh.gaps[0] = 0.5

    def test_recomputes_h_max(self):
        mesh = Mesh1D(nodes=np.array([0.0, 0.1, 0.6, 1.0]), seed=0)
        assert mesh.h_max == 0.5
        assert mesh.n_elements == 3 and type(mesh.n_elements) is int

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ([0.0], "a mesh needs at least two nodes"),
            ([[0.0, 1.0]], "a mesh needs at least two nodes"),
            (0.5, "a mesh needs at least two nodes"),
            ([0.0, 0.5, float("nan")], "mesh must span exactly [0, 1]"),
            ([0.0, float("nan"), 1.0], "mesh nodes must be strictly increasing"),
        ],
        ids=["one_node", "2d", "scalar", "nan_end", "nan"],
    )
    def test_rejects_what_is_not_a_node_row(self, nodes, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            Mesh1D(nodes=nodes, seed=0)


def _seeds(trials, dtype):
    # uint64 keys as the sweep derives them; as int64 about half are negative
    return derive_key(5, np.arange(trials)).astype(dtype)


class TestRows:
    """`Mesh1D._of_rows` checks many node rows as one array and gives the
    meshes that `Mesh1D` builds from each row, field for field."""

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    @pytest.mark.parametrize("trials", [1, 3, 200])
    @pytest.mark.parametrize("n", [1, 2, 96])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_rows_equal_the_constructor(self, trials, n, jitter, dtype):
        seeds = _seeds(trials, dtype)
        nodes = jittered_nodes(n, jitter, seeds)
        meshes = list(Mesh1D._of_rows(nodes, seeds))
        assert len(meshes) == trials
        for mesh, row, seed in zip(meshes, nodes, seeds):
            want = Mesh1D(nodes=row, seed=seed)
            assert mesh.nodes.tobytes() == want.nodes.tobytes()
            assert type(mesh.seed) is int and mesh.seed == want.seed == int(seed)
            assert mesh.gaps.tobytes() == want.gaps.tobytes()
            assert not mesh.gaps.flags.writeable and not want.gaps.flags.writeable
            assert type(mesh.n_elements) is int and mesh.n_elements == want.n_elements == n
            assert type(mesh.h_max) is float and mesh.h_max == want.h_max

    @pytest.mark.parametrize(
        "node, value", [(2, None), (4, 0.999), (0, 1e-9), (2, float("nan")), (4, float("nan"))],
        ids=["non_increasing", "right_end", "left_end", "nan", "nan_end"],
    )
    def test_bad_row_gets_the_constructor_message(self, node, value):
        seeds = _seeds(3, np.uint64)
        nodes = jittered_nodes(4, 0.3, seeds)
        nodes[1, node] = nodes[1, node - 1] if value is None else value
        with pytest.raises(ParameterError) as want:
            Mesh1D(nodes=nodes[1], seed=int(seeds[1]))
        with pytest.raises(ParameterError, match=f"^{re.escape(str(want.value))}$"):
            Mesh1D._of_rows(nodes, seeds)

    def test_rows_need_two_nodes_each(self):
        with pytest.raises(ParameterError, match="^a mesh needs at least two nodes$"):
            Mesh1D._of_rows(np.zeros((3, 1)), _seeds(3, np.uint64))

    def test_one_seed_per_row(self):
        nodes = jittered_nodes(4, 0.3, _seeds(3, np.uint64))
        with pytest.raises(ValueError):
            list(Mesh1D._of_rows(nodes, _seeds(2, np.uint64)))
