"""Counter-based generator: determinism, split independence, distribution."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femprob import ElementPair, ParameterError, mc_estimate, rng
from femprob.mesh import jittered_nodes
from femprob.rng import derive_key, mix64, uniform_at, uniforms


class TestDeterminism:
    def test_same_key_same_stream(self):
        a = uniforms(1234, 1000)
        b = uniforms(1234, 1000)
        np.testing.assert_array_equal(a, b)

    def test_scalar_matches_vector(self):
        key = derive_key(42, 7)
        stream = uniforms(key, 50)
        for i in (0, 1, 17, 49):
            assert uniform_at(key, i) == stream[i]

    def test_scalar_matches_vector_at_offset(self):
        # offsets past one 2**15 block, near 2**53 and near the top of 2**64
        key = derive_key(2026, 1)
        for offset in (0, 2**15 - 3, 3 * 2**15 + 5, 2**53 - 2, 2**64 - 40):
            block = uniforms(key, 32, offset)
            assert [uniform_at(key, offset + i) for i in range(32)] == block.tolist()

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 300), st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_chunking_is_invisible(self, key, split, extra):
        total = split + extra
        whole = uniforms(key, total)
        parts = np.concatenate([uniforms(key, split), uniforms(key, extra, offset=split)])
        np.testing.assert_array_equal(whole, parts)


    @pytest.mark.parametrize("key", [2026, np.array([5, 2**64 - 1, 0], dtype=np.uint64)])
    def test_out_is_filled_and_returned(self, key):
        want = uniforms(key, 2**15 + 9, 11)
        buffer = np.full(want.shape, np.nan)
        assert uniforms(key, 2**15 + 9, 11, out=buffer) is buffer
        assert buffer.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "key, out",
        [
            (1, np.empty(4)),
            (1, np.empty(5, dtype=np.float32)),
            (np.array([1], dtype=np.uint64), np.empty(5)),
            (np.array([1], dtype=np.uint64), np.empty((2, 5))),
        ],
    )
    def test_out_of_another_shape_or_dtype_rejected(self, key, out):
        with pytest.raises(ValueError):
            uniforms(key, 5, out=out)

    def test_blocks_across_the_top_of_the_counter(self):
        # two whole 2**15 tables and a ragged block, wrapping past 2**64
        count, offset = 2 * 2**15 + 7, 2**64 - 2**15 - 3
        key = derive_key(2026, 1)
        want = [uniform_at(key, offset + i) for i in range(count)]
        assert uniforms(key, count, offset).tolist() == want
        rows = uniforms(np.array([7, key], dtype=np.uint64), count, offset)
        assert rows[1].tolist() == want
        assert rows[0].tolist() == [uniform_at(7, offset + i) for i in range(count)]


    def test_step_table_serves_every_row_length(self):
        # small, then large, then small again, from a table built by the
        # first draw: every draw matches `uniform_at` at every length
        rng._steps.cache_clear()
        key = derive_key(2026, 3)
        keys = np.array([key, 11], dtype=np.uint64)
        for count, split in [(5, 2), (95, 40), (2**15 + 3, 2**15 - 1), (3, 1), (200, 150)]:
            whole = uniforms(key, count)
            assert whole.tolist() == [uniform_at(key, i) for i in range(count)]
            parts = np.concatenate([uniforms(key, split), uniforms(key, count - split, split)])
            assert parts.tobytes() == whole.tobytes()
            rows = uniforms(keys, count)
            assert rows[0].tobytes() == whole.tobytes()
            assert rows[1].tobytes() == uniforms(11, count).tobytes()


    def test_step_table_follows_the_block_size(self, monkeypatch):
        # a table built while the block size differed must not cut a later
        # draw short: every block is drawn from a table of its own size
        rng._steps.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(rng, "_BLOCK", 7)
            assert uniforms(1, 3).tolist() == [uniform_at(1, i) for i in range(3)]
        assert uniforms(5, 20).tolist() == [uniform_at(5, i) for i in range(20)]

    def test_many_keys_hold_one_block_of_counters(self):
        # numpy reports its buffers to tracemalloc: the (keys x counters)
        # work arrays of one call span one block, not the whole output
        uniforms(0, 1)  # builds the counter table, which lives as long as the process
        keys = np.arange(10_000)
        tracemalloc.start()
        try:
            out = uniforms(keys, 96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2**20


def finalized_shapes(monkeypatch):
    """Shapes of the 2-D counter blocks `uniforms` hands to the finalizer."""
    shapes = []
    finalize = rng._finalize

    def recorded(z, scratch=None):
        if z.ndim == 2:  # key derivations are 0-d or 1-D
            shapes.append(z.shape)
        return finalize(z, scratch)

    monkeypatch.setattr(rng, "_finalize", recorded)
    return shapes


class TestBlocks:
    """`_blocks`, the one tiling rule of the draws (rows of keys, columns of
    counters) and of fem's quadrature (rows of meshes, columns of elements)."""

    @pytest.mark.parametrize("points", [1, 15])
    @pytest.mark.parametrize("n_trials", [0, 1, 5])
    def test_blocks_tile_every_trial_and_element_once_in_order(self, n_trials, points):
        # one element, a mesh of exactly one block, one element above it
        # (an element block plus a lone element), and meshes that leave
        # the last block of trials or of elements part-filled; at the
        # default size, read at call time, and at given sizes
        for size in (None, 7 * points, 700):
            block_size = rng._BLOCK if size is None else size
            per_block = block_size // points
            for n in (1, 3, per_block, per_block + 1, 2 * per_block + 5):
                cells = np.arange(n_trials * n).reshape(n_trials, n)
                visited = []
                for trials, elements in rng._blocks(n_trials, n, points, size):
                    # clipped: no slice reaches past the array
                    assert 0 <= trials.start < trials.stop <= n_trials
                    assert 0 <= elements.start < elements.stop <= n
                    block = cells[trials, elements]
                    assert 0 < block.size * points <= block_size
                    visited.extend(block.ravel().tolist())
                assert visited == list(range(n_trials * n))

    def test_rows_per_block(self):
        assert rng._rows_per_block(96) == rng._BLOCK // 96
        assert rng._rows_per_block(96, 2, 1000) == 5
        assert rng._rows_per_block(rng._BLOCK + 1) == rng._rows_per_block(3, 15, 7) == 1

    def test_patching_rng_block_alone_reblocks_every_draw(self, monkeypatch):
        # uniforms, jittered_nodes and mc_estimate take their block size
        # from `rng._BLOCK` alone, and give the same bytes at any size
        pair = ElementPair.from_constants(1.0, 1, 2.0, 2)
        keys = np.array([3, 2**64 - 1, 12345, 8], dtype=np.uint64)
        draws = [
            lambda: uniforms(keys, 30, 5).tobytes(),
            lambda: jittered_nodes(12, 0.3, keys).tobytes(),
            lambda: mc_estimate(pair, 0.25, 101, 42).p_hat,
        ]
        want = [draw() for draw in draws]
        shapes = finalized_shapes(monkeypatch)
        monkeypatch.setattr(rng, "_BLOCK", 7)
        for draw, value in zip(draws, want):
            shapes.clear()
            assert draw() == value
            assert len(shapes) > 1 and max(rows * width for rows, width in shapes) <= 7
        assert shapes == [(2, 3)] * 33 + [(2, 2)]  # mc_estimate: 3 trials of 2 streams a block


class TestDerivation:
    def test_distinct_paths_distinct_keys(self):
        keys = {
            derive_key(5),
            derive_key(5, 0),
            derive_key(5, 1),
            derive_key(5, 0, 0),
            derive_key(5, 0, 1),
            derive_key(5, 1, 0),
            derive_key(6),
        }
        assert len(keys) == 7

    def test_splitmix64_reference_outputs(self):
        # the first three outputs of splitmix64 seeded with 0, as published
        # with the algorithm; scalar and array paths share one mixer
        want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        golden = 0x9E3779B97F4A7C15
        assert [mix64(i * golden % 2**64) for i in (1, 2, 3)] == want
        assert uniforms(0, 3).tolist() == [(z >> 11) / 2**53 for z in want]

    def test_mix64_is_64_bit(self):
        for x in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
            assert 0 <= mix64(x) < 2**64

    def test_count_validation(self):
        with pytest.raises(ValueError):
            uniforms(1, -1)
        assert uniforms(1, 0).size == 0

    def test_offset_and_index_validation(self):
        with pytest.raises(ValueError):
            uniforms(5, 2, offset=-3)
        with pytest.raises(ValueError):
            uniform_at(5, -1)

    @pytest.mark.parametrize("key", [-1, 2**64 - 1, 2**64 + 5, -(2**70) + 3])
    def test_key_taken_modulo_2_64(self, key):
        want = [uniform_at(key % 2**64, offset) for offset in range(3, 6)]
        assert uniforms(key, 3, offset=3).tolist() == want
        assert [uniform_at(key, offset) for offset in range(3, 6)] == want


class TestKeyArrays:
    """Array keys: every element equals the scalar call it stands for."""

    seeds = st.integers(min_value=-(2**70), max_value=2**70)
    keys = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8)

    @given(keys, st.integers(0, 40), st.sampled_from([0, 1, 2**15 - 3, 2**53 - 2, 2**64 - 50]))
    @settings(max_examples=40, deadline=None)
    def test_uniforms_rows_equal_scalar_streams(self, keys, count, offset):
        rows = uniforms(np.array(keys, dtype=np.uint64), count, offset)
        assert rows.shape == (len(keys), count)
        for key, row in zip(keys, rows):
            assert row.tobytes() == uniforms(key, count, offset).tobytes()

    @given(
        seeds,
        st.lists(st.integers(-5, 2**64 + 5), max_size=3),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        st.lists(st.integers(-5, 2**64 + 5), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_index_array_keys_equal_scalar_chains(self, seed, prefix, indices, path):
        keys = derive_key(seed, *prefix, np.array(indices, dtype=np.uint64), *path)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [derive_key(seed, *prefix, i, *path) for i in indices]

    @given(keys, st.lists(st.integers(0, 100), max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_derive_key_of_a_seed_array(self, seeds, path):
        keys = derive_key(np.array(seeds, dtype=np.uint64), *path)
        assert keys.tolist() == [derive_key(seed, *path) for seed in seeds]
        assert mix64(np.array(seeds, dtype=np.uint64)).tolist() == list(map(mix64, seeds))

    def test_key_array_must_be_1d(self):
        with pytest.raises(ParameterError, match="^key must be an integer or a 1-D array"):
            uniforms(np.zeros((2, 2), dtype=np.uint64), 4)

    @pytest.mark.parametrize(
        "keys", [np.arange(3), np.array([-3, 2**62, 5]), np.arange(3, dtype=np.uint8)],
        ids=["arange", "negative", "uint8"],
    )
    def test_key_array_of_any_integer_dtype(self, keys):
        # taken modulo 2**64, as derive_key and jittered_nodes take keys
        rows = uniforms(keys, 4)
        assert rows.tobytes() == uniforms(keys.astype(np.uint64), 4).tobytes()
        assert rows[0].tobytes() == uniforms(int(keys[0]), 4).tobytes()


_M64 = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix_reference(z):
    """The splitmix64 finalizer in Python ints, reducing after every product."""
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & _M64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & _M64
    return z ^ z >> 31


def _key_reference(seed, *path):
    key = _mix_reference(seed & _M64)
    for p in path:
        key = _mix_reference(key ^ (p + 1) * _GOLDEN & _M64)
    return key


def _uniforms_reference(key, count, offset):
    return [
        (_mix_reference(key + (offset + i + 1) * _GOLDEN & _M64) >> 11) / 2**53
        for i in range(count)
    ]


class TestIntReference:
    """`mix64`, `derive_key` and `uniforms` equal a Python-int splitmix64, bit for bit."""

    wide = st.integers(min_value=-(2**70), max_value=2**70)

    @given(wide, st.lists(wide, max_size=3), st.lists(wide, min_size=1, max_size=4),
           st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_mix64_and_derive_key(self, seed, path, elements, at):
        # an integer argument, a Python int or a numpy integer of any sign,
        # gives an int
        signed = (seed + 2**63) % 2**64 - 2**63
        for integer in (seed, np.int64(signed), np.uint64(seed & _M64)):
            mixed = mix64(integer)
            assert type(mixed) is int and mixed == _mix_reference(seed & _M64)
            key = derive_key(integer, *path)
            assert type(key) is int and key == _key_reference(seed, *path)
        # an array of elements (int64 or uint64) at any position of the path
        # or as the seed: one key per element, each its scalar chain
        array = np.array([e & _M64 for e in elements], dtype=np.uint64)
        at = min(at, len(path))
        for values in (array, array.view(np.int64)):
            mixed = mix64(values)
            assert mixed.dtype == np.uint64
            assert mixed.tolist() == [_mix_reference(e & _M64) for e in elements]
            keys = derive_key(seed, *path[:at], values, *path[at:])
            assert keys.dtype == np.uint64
            want = [_key_reference(seed, *path[:at], e, *path[at:]) for e in elements]
            assert keys.tolist() == want
            keys = derive_key(values, *path)
            assert keys.tolist() == [_key_reference(e, *path) for e in elements]

    @given(
        wide,
        st.lists(st.integers(0, _M64), min_size=1, max_size=3),
        st.integers(0, 40),
        st.one_of(st.integers(0, 2**16), st.integers(2**64 - 60, 2**64 + 60)),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniforms(self, key, keys, count, offset):
        draws = uniforms(key, count, offset)
        assert draws.dtype == np.float64
        assert draws.tolist() == _uniforms_reference(key & _M64, count, offset)
        rows = uniforms(np.array(keys, dtype=np.uint64), count, offset)
        assert rows.shape == (len(keys), count)
        assert rows.tolist() == [_uniforms_reference(k, count, offset) for k in keys]


class TestDistribution:
    def test_range_mean_variance(self):
        u = uniforms(derive_key(2024), 200_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        # mean 1/2 and variance 1/12, each within 5 standard errors
        assert abs(u.mean() - 0.5) < 5 * np.sqrt(1 / 12 / u.size)
        assert abs(u.var() - 1 / 12) < 5e-4

    def test_streams_uncorrelated(self):
        a = uniforms(derive_key(9, 0), 100_000)
        b = uniforms(derive_key(9, 1), 100_000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.01
