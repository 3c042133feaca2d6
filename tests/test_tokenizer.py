"""Tests for scale fitting, tokenization, and the roundtrip bound."""

import math

import numpy as np
import pytest

from isoprobe.errors import InvalidArgumentError
from isoprobe.kernels import RBF, kernelsynth_sample
from isoprobe.numerics import RngStream
from isoprobe.tokenizer import (
    TokenizerConfig,
    TokenSequence,
    detokenize,
    fit_scale,
    tokenize,
)


class TestFitScale:
    def test_alternating_units(self):
        assert fit_scale([1.0, -1.0, 1.0, -1.0]) == 1.0

    def test_all_zero_fallback(self):
        assert fit_scale(np.zeros(10)) == 1.0

    def test_half_normal_mean(self):
        # mean |x| of N(0, sigma) is sigma * sqrt(2/pi)
        x = RngStream(1, 0).gaussians(10_000) * 2.0
        assert fit_scale(x) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=0.03)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            fit_scale([])
        with pytest.raises(InvalidArgumentError, match="index 2"):
            fit_scale([1.0, 2.0, np.inf])


class TestTokenize:
    def test_boundary_convention_midpoint(self):
        cfg = TokenizerConfig(vocab_size=4, low=-2.0, high=2.0)
        seq = tokenize([0.0], cfg, 1.0)
        assert seq.tokens[0] == 2  # first bin at/above the midpoint

    def test_clipping(self):
        cfg = TokenizerConfig(vocab_size=512)
        seq = tokenize([100.0, -100.0], cfg, 1.0)
        assert seq.tokens[0] == 511
        assert seq.tokens[1] == 0

    def test_top_edge_inclusive(self):
        cfg = TokenizerConfig(vocab_size=4, low=-2.0, high=2.0)
        assert tokenize([2.0], cfg, 1.0).tokens[0] == 3
        assert tokenize([-2.0], cfg, 1.0).tokens[0] == 0

    def test_roundtrip_error_bound(self):
        cfg = TokenizerConfig(vocab_size=512)
        scale = 0.73
        stream = RngStream(3, 0)
        x = (stream.uniforms(10_000) * 2.0 - 1.0) * 15.0 * scale  # in-range values
        back = detokenize(tokenize(x, cfg, scale), cfg)
        binwidth = (cfg.high - cfg.low) / cfg.vocab_size
        assert np.max(np.abs(back - x)) <= scale * binwidth / 2 + 1e-12

    def test_monotonicity(self):
        cfg = TokenizerConfig(vocab_size=64)
        x = np.sort(RngStream(5, 0).gaussians(1000) * 20.0)
        ids = tokenize(x, cfg, 1.3).tokens
        assert np.all(np.diff(ids) >= 0)

    def test_scale_equivariance(self):
        cfg = TokenizerConfig(vocab_size=128)
        x = RngStream(6, 0).gaussians(500)
        base = tokenize(x, cfg, 0.8).tokens
        for alpha in (0.5, 2.0, 17.0):
            np.testing.assert_array_equal(
                tokenize(alpha * x, cfg, alpha * 0.8).tokens, base
            )

    def test_rejects_nonfinite(self):
        cfg = TokenizerConfig(vocab_size=8)
        with pytest.raises(InvalidArgumentError, match="index 1"):
            tokenize([0.0, np.nan], cfg, 1.0)


class TestDetokenize:
    def test_bin_center(self):
        cfg = TokenizerConfig(vocab_size=2, low=-1.0, high=1.0)
        seq = TokenSequence(np.array([0]), 1.0)
        assert detokenize(seq, cfg)[0] == -0.5

    def test_token_fixed_point(self):
        cfg = TokenizerConfig(vocab_size=32)
        ids = np.arange(32)
        seq = TokenSequence(ids, 2.5)
        back = tokenize(detokenize(seq, cfg), cfg, 2.5)
        np.testing.assert_array_equal(back.tokens, ids)

    def test_rejects_out_of_range(self):
        cfg = TokenizerConfig(vocab_size=4)
        with pytest.raises(InvalidArgumentError):
            detokenize(TokenSequence(np.array([4]), 1.0), cfg)

    def test_quantization_noise_floor(self):
        # Pure quantization NMSE should sit at the uniform-noise floor
        # binwidth^2/12 relative to the series variance.
        series = kernelsynth_sample(
            (RBF(0.3),), max_kernels=1, length=4096, stream=RngStream(9, 0)
        )
        x = series.values
        cfg = TokenizerConfig(vocab_size=512)
        scale = fit_scale(x)
        back = detokenize(tokenize(x, cfg, scale), cfg)
        nmse = float(np.sum((back - x) ** 2) / np.sum(x**2))
        binwidth = (cfg.high - cfg.low) / cfg.vocab_size * scale
        floor = binwidth**2 / 12.0 / x.var()
        assert 0.8 * floor <= nmse <= 1.2 * floor
