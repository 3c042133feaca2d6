"""Tests for context scaling, tokenization, and the roundtrip bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprobe.errors import InvalidArgumentError
from isoprobe.kernels import RBF, kernelsynth_sample
from isoprobe.numerics import RngStream
from isoprobe.tokenizer import (
    TokenizerConfig,
    _scaled_windows,
    detokenize,
    tokenize,
    tokenize_windows,
)


def fit_scale(context):
    """Mean absolute value of one context, 1 for all zeros: the per-window
    reference for the scales tokenize_windows fits in one array pass."""
    scale = float(np.mean(np.abs(np.asarray(context, dtype=np.float64))))
    return scale if scale > 0.0 else 1.0


def context_scale(context):
    """The scale the library fits on one context window."""
    window = np.asarray(context, dtype=np.float64)[None]
    return float(_scaled_windows(window, [0], TokenizerConfig(), window.shape[1])[1][0])


class TestContextScale:
    def test_alternating_units(self):
        assert context_scale([1.0, -1.0, 1.0, -1.0]) == 1.0

    def test_all_zero_fallback(self):
        assert context_scale(np.zeros(10)) == 1.0

    def test_half_normal_mean(self):
        # mean |x| of N(0, sigma) is sigma * sqrt(2/pi)
        x = RngStream(1, 0).gaussians(10_000) * 2.0
        assert context_scale(x) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=0.03)
        assert context_scale(x) == fit_scale(x)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidArgumentError, match="context_length"):
            tokenize_windows([1.0, 2.0], TokenizerConfig(), 0)
        with pytest.raises(InvalidArgumentError, match="index 2"):
            context_scale([1.0, 2.0, np.inf])


class TestTokenize:
    def test_boundary_convention_midpoint(self):
        cfg = TokenizerConfig(vocab_size=4, low=-2.0, high=2.0)
        ids = tokenize([0.0], cfg, 1.0)
        assert ids[0] == 2  # first bin at/above the midpoint

    def test_clipping(self):
        cfg = TokenizerConfig(vocab_size=512)
        ids = tokenize([100.0, -100.0], cfg, 1.0)
        assert ids[0] == 511
        assert ids[1] == 0

    def test_top_edge_inclusive(self):
        cfg = TokenizerConfig(vocab_size=4, low=-2.0, high=2.0)
        assert tokenize([2.0], cfg, 1.0)[0] == 3
        assert tokenize([-2.0], cfg, 1.0)[0] == 0

    def test_roundtrip_error_bound(self):
        cfg = TokenizerConfig(vocab_size=512)
        scale = 0.73
        stream = RngStream(3, 0)
        x = (stream.uniforms(10_000) * 2.0 - 1.0) * 15.0 * scale  # in-range values
        back = detokenize(tokenize(x, cfg, scale), scale, cfg)
        binwidth = (cfg.high - cfg.low) / cfg.vocab_size
        assert np.max(np.abs(back - x)) <= scale * binwidth / 2 + 1e-12

    def test_monotonicity(self):
        cfg = TokenizerConfig(vocab_size=64)
        x = np.sort(RngStream(5, 0).gaussians(1000) * 20.0)
        ids = tokenize(x, cfg, 1.3)
        assert np.all(np.diff(ids) >= 0)

    def test_scale_equivariance(self):
        cfg = TokenizerConfig(vocab_size=128)
        x = RngStream(6, 0).gaussians(500)
        base = tokenize(x, cfg, 0.8)
        for alpha in (0.5, 2.0, 17.0):
            np.testing.assert_array_equal(
                tokenize(alpha * x, cfg, alpha * 0.8), base
            )

    def test_rejects_nonfinite(self):
        cfg = TokenizerConfig(vocab_size=8)
        with pytest.raises(InvalidArgumentError, match="index 1"):
            tokenize([0.0, np.nan], cfg, 1.0)


class TestDetokenize:
    def test_bin_center(self):
        cfg = TokenizerConfig(vocab_size=2, low=-1.0, high=1.0)
        assert detokenize(np.array([0]), 1.0, cfg)[0] == -0.5

    def test_token_fixed_point(self):
        cfg = TokenizerConfig(vocab_size=32)
        ids = np.arange(32)
        back = tokenize(detokenize(ids, 2.5, cfg), cfg, 2.5)
        np.testing.assert_array_equal(back, ids)

    def test_rejects_out_of_range(self):
        cfg = TokenizerConfig(vocab_size=4)
        with pytest.raises(InvalidArgumentError):
            detokenize(np.array([4]), 1.0, cfg)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.array([1.0, 0.0])])
    def test_rejects_non_positive_scale(self, scale):
        cfg = TokenizerConfig(vocab_size=4)
        with pytest.raises(InvalidArgumentError, match="scale must be positive"):
            detokenize(np.array([1, 2]), scale, cfg)

    def test_quantization_noise_floor(self):
        # Pure quantization NMSE should sit at the uniform-noise floor
        # binwidth^2/12 relative to the series variance.
        series = kernelsynth_sample(
            (RBF(0.3),), 1, 4096, RngStream(9, 0)
        )
        x = series.values
        cfg = TokenizerConfig(vocab_size=512)
        scale = fit_scale(x)
        back = detokenize(tokenize(x, cfg, scale), scale, cfg)
        nmse = float(np.sum((back - x) ** 2) / np.sum(x**2))
        binwidth = (cfg.high - cfg.low) / cfg.vocab_size * scale
        floor = binwidth**2 / 12.0 / x.var()
        assert 0.8 * floor <= nmse <= 1.2 * floor


def windows_oracle(values, cfg, context_length, horizon, stride, limit):
    """Per-window tokenization: each window scaled by its own context."""
    span = context_length + horizon
    starts = range(0, len(values) - span + 1, stride)[:limit]
    rows = [
        tokenize(values[s : s + span], cfg, fit_scale(values[s : s + context_length]))
        for s in starts
    ]
    return np.array(rows, dtype=np.int64).reshape(len(rows), span)


# all-zero contexts, exact bin edges at scale 1, values far beyond
# +-15 * scale, and ordinary floats
WINDOW_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e6, -1e6]),
    st.sampled_from(np.linspace(-15.0, 15.0, 9).tolist()),
    st.floats(-1e3, 1e3),
)


class TestTokenizeWindows:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        values=st.lists(WINDOW_VALUES, max_size=40),
        vocab_size=st.sampled_from([2, 8, 13]),
        context_length=st.integers(1, 6),
        horizon=st.integers(0, 3),
        stride=st.integers(1, 12),
        limit=st.none() | st.integers(0, 8),
    )
    def test_matches_per_window_oracle(
        self, values, vocab_size, context_length, horizon, stride, limit
    ):
        cfg = TokenizerConfig(vocab_size=vocab_size)
        x = np.array(values, dtype=np.float64)
        got = tokenize_windows(x, cfg, context_length, horizon, stride, limit)
        want = windows_oracle(x, cfg, context_length, horizon, stride, limit)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_non_finite_value_names_its_index(self):
        cfg = TokenizerConfig(vocab_size=8)
        x = np.arange(12.0)
        x[7] = np.nan
        with pytest.raises(InvalidArgumentError, match="index 7"):
            tokenize_windows(x, cfg, 3, 1, stride=2)
        # span 3 every 5 steps takes values 0-2 and 5-7: 7 is used
        with pytest.raises(InvalidArgumentError, match="index 7"):
            tokenize_windows(x, cfg, 2, 1, stride=5)
        # span 2 takes 0-1, 5-6 and 10-11, skipping the NaN
        assert tokenize_windows(x, cfg, 2, 0, stride=5).shape == (3, 2)
