"""Tests for the counter-based Gaussian increment generator."""

import re

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from uvpricer import rng
from uvpricer.rng import chunk_ranges, normal_increments

BLOCK = rng._BLOCK_CELLS


def reference_increments(seed, n_paths, n_steps, first_path=0):
    """The addressing contract drawn with one ``random_raw`` call: words 0
    and 1 of counter block ``path * n_steps + step``, top 53 bits, ndtri."""
    raw = Philox(key=seed, counter=first_path * n_steps).random_raw(
        n_paths * n_steps * 4
    )
    raw = raw.reshape(n_paths, n_steps, 4)[:, :, :2]
    return ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)


class TestNormalIncrements:
    def test_shape_and_dtype(self):
        """Output is (n_paths, n_steps, 2) float64."""
        z = normal_increments(seed=123, n_paths=7, n_steps=5)
        assert z.shape == (7, 5, 2)
        assert z.dtype == np.float64
        assert np.all(np.isfinite(z))

    def test_deterministic_in_seed(self):
        """Same seed gives identical draws; different seeds differ."""
        a = normal_increments(seed=42, n_paths=16, n_steps=8)
        b = normal_increments(seed=42, n_paths=16, n_steps=8)
        c = normal_increments(seed=43, n_paths=16, n_steps=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_batch_extension_keeps_existing_paths(self):
        """Growing the batch never changes previously generated paths."""
        small = normal_increments(seed=9, n_paths=5, n_steps=12)
        large = normal_increments(seed=9, n_paths=50, n_steps=12)
        assert np.array_equal(large[:5], small)

    def test_chunked_generation_matches_monolithic(self):
        """Concatenating chunks reproduces the single-shot batch exactly."""
        full = normal_increments(seed=2024, n_paths=23, n_steps=9)
        parts = [
            normal_increments(seed=2024, n_paths=n, n_steps=9, first_path=i0)
            for i0, n in chunk_ranges(23, 7)
        ]
        assert np.array_equal(np.concatenate(parts, axis=0), full)

    def test_disjoint_ranges_do_not_overlap(self):
        """Different path indices consume different counter blocks."""
        a = normal_increments(seed=5, n_paths=4, n_steps=6, first_path=0)
        b = normal_increments(seed=5, n_paths=4, n_steps=6, first_path=4)
        assert not np.array_equal(a, b)

    def test_moments_are_standard_normal(self):
        """Sample mean, variance, skew, kurtosis match N(0,1) within MC error."""
        z = normal_increments(seed=77, n_paths=2000, n_steps=32).ravel()
        n = z.size
        assert z.mean() == pytest.approx(0.0, abs=4.0 / np.sqrt(n))
        assert z.var() == pytest.approx(1.0, abs=6.0 / np.sqrt(n))
        assert np.mean(z**3) == pytest.approx(0.0, abs=10.0 / np.sqrt(n))
        assert np.mean(z**4) == pytest.approx(3.0, abs=20.0 / np.sqrt(n))

    def test_components_uncorrelated(self):
        """The two increment channels are uncorrelated."""
        z = normal_increments(seed=31, n_paths=4000, n_steps=16)
        z1 = z[:, :, 0].ravel()
        z2 = z[:, :, 1].ravel()
        corr = np.corrcoef(z1, z2)[0, 1]
        assert corr == pytest.approx(0.0, abs=4.0 / np.sqrt(z1.size))

    @pytest.mark.parametrize("bad", [dict(n_paths=0), dict(n_steps=0), dict(first_path=-1)])
    def test_invalid_arguments_rejected(self, bad):
        """Non-positive sizes and negative offsets raise ValueError."""
        kwargs = dict(seed=1, n_paths=3, n_steps=3)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            normal_increments(**kwargs)


class TestSeedCheck:
    @pytest.mark.parametrize("seed", [True, False, 1.5, 1.0, -1, 2**128,
                                      np.int64(-3), "7", None])
    def test_bad_seed_is_named(self, seed):
        """A bool, a non-integer, a negative seed or one of 2**128 or
        more raises ValueError naming it, not numpy's key message."""
        with pytest.raises(ValueError, match=re.escape(f"got {seed!r}")):
            rng._check_seed(seed)
        with pytest.raises(ValueError,
                           match=re.escape("seed must be an integer in [0, 2**128)")):
            normal_increments(seed, 2, 3)

    @pytest.mark.parametrize("seed", [0, 2**128 - 1, np.int64(5),
                                      np.uint64(2**64 - 1)])
    def test_integer_seeds_are_kept(self, seed):
        """Python and numpy integers in range draw what Philox keyed with
        them draws."""
        rng._check_seed(seed)
        assert np.array_equal(normal_increments(seed, 3, 4),
                              reference_increments(int(seed), 3, 4))


class TestBlockedDraw:
    @pytest.mark.parametrize(
        "n_paths, n_steps, first_path",
        [
            (1, 1, 0),
            (BLOCK + 3, 1, 0),
            (BLOCK + 3, 1, 11),
            (2 * (BLOCK // 150) + 7, 150, 0),
            (2 * (BLOCK // 150) + 7, 150, 1234),
            (BLOCK // 150, 150, 5),
            (3, BLOCK + 5, 0),
            (3, BLOCK + 5, 2),
        ],
    )
    def test_matches_single_draw_reference(self, n_paths, n_steps, first_path):
        """Blocked, step-major drawing gives exactly the single-draw values."""
        z = normal_increments(31, n_paths, n_steps, first_path=first_path)
        assert np.array_equal(z, reference_increments(31, n_paths, n_steps, first_path))

    def test_step_rows_are_contiguous(self):
        """Each channel's draws for one step are one contiguous row."""
        z = normal_increments(4, 50, 7)
        assert z[:, :, 0].T.flags.c_contiguous
        assert z[:, :, 1].T.flags.c_contiguous

    @pytest.mark.parametrize("n_steps", [1, 150, BLOCK + 5])
    def test_raw_draws_stay_within_the_block_budget(self, monkeypatch, n_steps):
        """No single Philox draw holds more than one block of raw words."""
        sizes = []

        class Recording:
            def __init__(self, **kwargs):
                self._inner = Philox(**kwargs)

            def random_raw(self, size):
                sizes.append(size)
                return self._inner.random_raw(size)

        monkeypatch.setattr(rng, "Philox", Recording)
        n_paths = 3 * max(1, BLOCK // n_steps) + 1
        normal_increments(8, n_paths, n_steps)
        assert sum(sizes) == 4 * n_paths * n_steps
        assert max(sizes) <= 4 * max(BLOCK, n_steps)


class TestOutBuffer:
    @pytest.mark.parametrize("n_paths, n_steps, first_path",
                             [(1, 1, 0), (37, 5, 3), (2 * (BLOCK // 150) + 7, 150, 9)])
    def test_writes_into_the_buffer(self, n_paths, n_steps, first_path):
        """``out=`` is filled in place and the returned view reads it."""
        buf = np.empty((2, n_steps, n_paths))
        z = normal_increments(5, n_paths, n_steps, first_path=first_path, out=buf)
        assert z.shape == (n_paths, n_steps, 2)
        assert z.base is buf or np.shares_memory(z, buf)
        want = normal_increments(5, n_paths, n_steps, first_path=first_path)
        assert np.array_equal(z, want)
        assert np.array_equal(buf.T, want)

    def test_strided_path_slice(self):
        """A path slice of a wider buffer is filled and its neighbours kept."""
        n_paths, n_steps = 2 * (BLOCK // 40) + 3, 40
        wide = np.full((2, n_steps, n_paths + 7), np.nan)
        view = wide[:, :, 4 : 4 + n_paths]
        z = normal_increments(6, n_paths, n_steps, first_path=11, out=view)
        assert np.array_equal(z, normal_increments(6, n_paths, n_steps, first_path=11))
        assert np.isnan(wide[:, :, :4]).all() and np.isnan(wide[:, :, 4 + n_paths:]).all()

    @pytest.mark.parametrize("buf", [np.empty((2, 5, 6)), np.empty((5, 7, 2)),
                                     np.empty((2, 5, 7), dtype=np.float32)])
    def test_wrong_buffer_rejected(self, buf):
        """A buffer of another shape or dtype is refused."""
        with pytest.raises(ValueError, match="out must be"):
            normal_increments(1, 7, 5, out=buf)


class TestChunkRanges:
    def test_covers_exactly(self):
        """Chunks tile the path range without gaps or overlap."""
        ranges = list(chunk_ranges(10, 4))
        assert ranges == [(0, 4), (4, 4), (8, 2)]

    def test_single_chunk_when_large(self):
        """A chunk size above the total yields one range."""
        assert list(chunk_ranges(5, 100)) == [(0, 5)]
