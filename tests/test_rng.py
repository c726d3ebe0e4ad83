"""Counter-based generator: determinism, split independence, distribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_mix64_is_64_bit(self):
        for x in (0, 1, 2**63, 2**64 - 1, 0xDEADBEEF):
            assert 0 <= mix64(x) < 2**64

    def test_count_validation(self):
        with pytest.raises(ValueError):
            uniforms(1, -1)
        assert uniforms(1, 0).size == 0


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
