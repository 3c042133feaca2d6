"""Quantization-and-scaling tokenizer for real-valued series.

Values are divided by a mean-absolute scale fitted on the context window,
clipped to a fixed range, and binned into a vocabulary of N tokens.  Bins
are half-open [edge_i, edge_{i+1}) with the top edge inclusive, so
tokenization is monotone and the roundtrip error is at most half a bin
width times the scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError


@dataclass
class TokenizerConfig:
    """Vocabulary layout: N equal bins spanning [low, high] in scaled space."""

    vocab_size: int = 512
    low: float = -15.0
    high: float = 15.0
    bin_edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.vocab_size < 2:
            raise InvalidArgumentError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if not self.low < self.high:
            raise InvalidArgumentError("clip range must satisfy low < high")
        self.bin_edges = np.linspace(self.low, self.high, self.vocab_size + 1)

    @property
    def bin_centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def to_dict(self):
        return {
            "vocab_size": self.vocab_size,
            "low": self.low,
            "high": self.high,
        }


def _bin(scaled, cfg):
    """Token ids of scaled values, any shape; clips ``scaled`` in place."""
    np.clip(scaled, cfg.low, cfg.high, out=scaled)
    ids = np.searchsorted(cfg.bin_edges, scaled, side="right")
    ids -= 1
    return np.clip(ids, 0, cfg.vocab_size - 1, out=ids)


def tokenize(series, cfg, scale):
    """Map values to token ids at the given scale."""
    if scale <= 0:
        raise InvalidArgumentError(f"scale must be positive, got {scale}")
    x = np.asarray(series, dtype=np.float64)
    if x.size and not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        raise InvalidArgumentError(f"non-finite series value at index {bad}")
    return _bin(x / scale, cfg)


def tokenize_windows(values, cfg, context_length, horizon=0, stride=1, limit=None):
    """Token ids of the sliding windows of ``context_length + horizon``
    values, one every ``stride`` steps, the first ``limit`` only when
    given, as one (windows, span) int64 array.

    Each window is divided by the mean absolute value of its first
    ``context_length`` values, its context (1 when they are all zero),
    and binned as ``tokenize`` bins it, in one array pass over all
    windows.  A non-finite value in a window raises
    InvalidArgumentError naming its index in ``values``.
    """
    if context_length < 1:
        raise InvalidArgumentError(f"context_length must be >= 1, got {context_length}")
    x = np.asarray(values, dtype=np.float64)
    span = context_length + horizon
    if x.size < span:
        return np.empty((0, span), dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(x, span)[::stride][:limit]
    return _scaled_windows(windows, range(0, x.size, stride), cfg, context_length)[0]


def _scaled_windows(windows, starts, cfg, context_length):
    """Token ids and scales of a (B, span) stack of series windows, row
    b starting at index starts[b] of the series: each row is divided by
    the mean absolute value of its first ``context_length`` values (1
    when they are all zero) and binned as ``tokenize`` bins it, in one
    array pass.  A non-finite value raises
    InvalidArgumentError naming its index in the series."""
    bad = ~np.isfinite(windows)
    if bad.any():
        row, col = divmod(int(np.argmax(bad)), windows.shape[1])
        raise InvalidArgumentError(f"non-finite series value at index {starts[row] + col}")
    scales = np.mean(np.abs(windows[:, :context_length]), axis=1)
    scales[scales == 0.0] = 1.0
    return _bin(windows / scales[:, None], cfg).astype(np.int64, copy=False), scales


def detokenize(ids, scale, cfg):
    """Map token ids back to real values: bin centers times the scale,
    one float or an array of them that broadcasts against the ids."""
    if np.any(np.asarray(scale) <= 0):
        raise InvalidArgumentError(f"scale must be positive, got {scale}")
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise InvalidArgumentError(
            f"token id out of range [0, {cfg.vocab_size}): "
            f"{int(ids.min())}..{int(ids.max())}"
        )
    return cfg.bin_centers[ids] * scale
