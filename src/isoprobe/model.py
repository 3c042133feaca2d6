"""Minimal autoregressive self-attention forecaster.

The network is exactly stacked attention g(X) = softmax(X @ L @ X.T) @ X
with a weight-tied inner-product softmax head: no value projection, no
MLP, no layer norm, no residual.  Attention is causal for training and
forecasting; gradients are exact reverse-mode, written out by hand.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dumps import EmbeddingDump
from .errors import (
    InvalidArgumentError,
    NumericFailureError,
    TrainingFailureError,
)
from .numerics import RngStream
from .tokenizer import TokenSequence, detokenize

CHECKPOINT_MAGIC = b"ISOP"
CHECKPOINT_VERSION = 1


def softmax(logits):
    """Numerically stable softmax of a 1-D logit vector."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


@dataclass
class AttentionLayer:
    w_q: np.ndarray  # (D, m)
    w_k: np.ndarray  # (D, m)

    @property
    def score_matrix(self):
        """The bilinear score matrix W_Q @ W_K.T (rank <= m)."""
        return self.w_q @ self.w_k.T


@dataclass
class ModelParams:
    embed: np.ndarray  # (N, D), rows are token embeddings
    layers: list

    @property
    def vocab_size(self):
        return self.embed.shape[0]

    @property
    def dim(self):
        return self.embed.shape[1]

    @property
    def rank(self):
        return self.layers[0].w_q.shape[1] if self.layers else self.dim

    @property
    def layer_count(self):
        return len(self.layers)

    def copy(self):
        return ModelParams(
            self.embed.copy(),
            [AttentionLayer(l.w_q.copy(), l.w_k.copy()) for l in self.layers],
        )


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    steps: int = 5000
    batch_size: int = 32
    context_length: int = 16
    horizon: int = 4
    seed: int = 0
    log_every: int = 50

    def __post_init__(self):
        for name in ("learning_rate", "steps", "batch_size", "context_length", "horizon"):
            if getattr(self, name) <= 0:
                raise InvalidArgumentError(f"TrainConfig.{name} must be positive")

    @property
    def window_length(self):
        return self.context_length + self.horizon


@dataclass
class ForwardTrace:
    """Activations and the next-token head output for one sequence."""

    activations: list  # [(n, D)] embedding input plus each layer output
    encoding: np.ndarray  # (D,) last position of the final layer
    logits: np.ndarray  # (N,)
    probabilities: np.ndarray  # (N,)


@dataclass
class Gradients:
    embed: np.ndarray
    layers: list  # [(d_w_q, d_w_k)]


def init_params(vocab_size, dim, rank, layer_count, stream):
    """Gaussian init scaled so initial logits are near zero."""
    if rank > dim:
        raise InvalidArgumentError(f"rank {rank} exceeds dim {dim}")
    scale = 1.0 / np.sqrt(dim)
    embed = stream.gaussians(vocab_size, dim) * scale
    layers = [
        AttentionLayer(
            stream.gaussians(dim, rank) * scale,
            stream.gaussians(dim, rank) * scale,
        )
        for _ in range(layer_count)
    ]
    return ModelParams(embed, layers)


def attention_weights(rows, score_matrix, causal):
    """Row-stochastic attention matrix softmax(rows @ score_matrix @ rows.T).

    Rows use max-subtraction before exponentiation; with `causal` the
    normalization runs over positions j <= i only.
    """
    x = np.asarray(rows, dtype=np.float64)
    scores = x @ score_matrix @ x.T
    if causal:
        scores = np.where(np.tril(np.ones(scores.shape, dtype=bool)), scores, -np.inf)
    stable = scores - scores.max(axis=1, keepdims=True)
    weights = np.exp(stable)
    norm = weights.sum(axis=1, keepdims=True)
    weights = weights / norm
    if not np.all(np.isfinite(weights)):
        raise NumericFailureError("attention weights are non-finite after stabilization")
    return weights


def self_attention(rows, score_matrix, causal=False):
    """One attention application: convex recombination of input rows."""
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2 or score_matrix.shape != (x.shape[1], x.shape[1]):
        raise InvalidArgumentError(
            f"shape mismatch: rows {x.shape} vs score matrix {np.shape(score_matrix)}"
        )
    return attention_weights(x, score_matrix, causal) @ x


def _check_tokens(ids, vocab_size):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise InvalidArgumentError("token sequence must be non-empty and 1-D")
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise InvalidArgumentError(
            f"token id out of range [0, {vocab_size}): {int(ids.min())}..{int(ids.max())}"
        )
    return ids


def window_forward(tokens, params):
    """Causal forward over a whole window.

    Returns (activations, logits) where logits[i] is the next-token logit
    row for the prefix ending at position i; by causality it equals the
    head output of a forward pass on tokens[: i + 1].
    """
    ids = _check_tokens(tokens, params.vocab_size)
    activations = [params.embed[ids]]
    for layer in params.layers:
        activations.append(
            self_attention(activations[-1], layer.score_matrix, causal=True)
        )
    logits = activations[-1] @ params.embed.T
    return activations, logits


def forward(tokens, params):
    """Next-token prediction after the last position of `tokens`."""
    ids = tokens.tokens if isinstance(tokens, TokenSequence) else tokens
    activations, logits_all = window_forward(ids, params)
    logits = logits_all[-1]
    return ForwardTrace(
        activations=activations,
        encoding=activations[-1][-1],
        logits=logits,
        probabilities=softmax(logits),
    )


def _nll(logits, target):
    z = logits - logits.max()
    return float(np.log(np.sum(np.exp(z))) - z[target])


def loss(traces, targets):
    """Mean negative log probability of one target per trace."""
    traces = list(traces)
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (len(traces),):
        raise InvalidArgumentError("need exactly one target per trace")
    total = 0.0
    for trace, target in zip(traces, targets):
        if not 0 <= target < trace.logits.size:
            raise InvalidArgumentError(f"target {int(target)} out of range")
        total += _nll(trace.logits, int(target))
    return total / len(traces)


def grad(params, windows, context_length, horizon):
    """Exact gradients of the mean window loss.

    Each window of length context_length + horizon contributes `horizon`
    prediction positions; the tied embedding accumulates both its head
    and its lookup role.
    """
    windows = np.asarray(windows, dtype=np.int64)
    if windows.ndim == 1:
        windows = windows[None, :]
    if windows.shape[1] != context_length + horizon:
        raise InvalidArgumentError(
            f"window length {windows.shape[1]} != context {context_length} + horizon {horizon}"
        )
    embed = params.embed
    n_preds = windows.shape[0] * horizon
    d_embed = np.zeros_like(embed)
    d_layers = [
        (np.zeros_like(l.w_q), np.zeros_like(l.w_k)) for l in params.layers
    ]
    score_matrices = [l.score_matrix for l in params.layers]
    pred_rows = np.arange(context_length - 1, context_length + horizon - 1)
    total_loss = 0.0
    for window in windows:
        ids = _check_tokens(window, params.vocab_size)
        acts = [embed[ids]]
        probs_per_layer = []
        for score_matrix in score_matrices:
            p = attention_weights(acts[-1], score_matrix, causal=True)
            probs_per_layer.append(p)
            acts.append(p @ acts[-1])
        hidden = acts[-1]
        logits = hidden @ embed.T
        targets = ids[context_length:]

        d_logits = np.zeros_like(logits)
        for row, target in zip(pred_rows, targets):
            z = logits[row] - logits[row].max()
            e = np.exp(z)
            denom = e.sum()
            total_loss += float(np.log(denom) - z[target])
            p = e / denom
            p[target] -= 1.0
            d_logits[row] = p / n_preds

        d_hidden = d_logits @ embed
        d_embed += d_logits.T @ hidden  # head role of the tied table
        for idx in range(params.layer_count - 1, -1, -1):
            x = acts[idx]
            p = probs_per_layer[idx]
            score_matrix = score_matrices[idx]
            d_p = d_hidden @ x.T
            d_x = p.T @ d_hidden
            d_scores = p * (d_p - np.sum(d_p * p, axis=1, keepdims=True))
            d_x += d_scores @ x @ score_matrix.T + d_scores.T @ x @ score_matrix
            d_lambda = x.T @ d_scores @ x
            w_q, w_k = params.layers[idx].w_q, params.layers[idx].w_k
            dwq, dwk = d_layers[idx]
            dwq += d_lambda @ w_k
            dwk += d_lambda.T @ w_q
            d_hidden = d_x
        np.add.at(d_embed, ids, d_hidden)  # lookup role of the tied table

    for name, grad_arr in [("embed", d_embed)] + [
        (f"layer{idx}", g) for idx, pair in enumerate(d_layers) for g in pair
    ]:
        if not np.all(np.isfinite(grad_arr)):
            raise NumericFailureError(
                f"non-finite gradient for parameter {name}", parameter=name
            )
    return Gradients(d_embed, d_layers), total_loss / n_preds


@dataclass
class TrainResult:
    params: ModelParams
    loss_curve: np.ndarray


def train(windows, cfg, *, dim=64, rank=16, layer_count=2, vocab_size=512):
    """Plain fixed-rate SGD over sampled window batches.

    Deterministic given cfg.seed; raises TrainingFailureError when the
    loss exceeds 1000x its initial value.
    """
    windows = np.asarray(windows, dtype=np.int64)
    if windows.ndim != 2 or windows.shape[0] == 0:
        raise InvalidArgumentError("training needs a non-empty 2-D window array")
    if windows.shape[1] != cfg.window_length:
        raise InvalidArgumentError(
            f"windows have length {windows.shape[1]}, config wants {cfg.window_length}"
        )
    init_stream = RngStream(cfg.seed, 0)
    batch_stream = RngStream(cfg.seed, 1)
    params = init_params(vocab_size, dim, rank, layer_count, init_stream)
    curve = np.empty(cfg.steps)
    initial = None
    n_windows = windows.shape[0]
    for step in range(cfg.steps):
        # Batches are sampled without replacement; asking for the whole
        # dataset turns a step into deterministic full-batch descent.
        if cfg.batch_size >= n_windows:
            idx = np.arange(n_windows)
        else:
            idx = batch_stream.generator.choice(n_windows, size=cfg.batch_size, replace=False)
        grads, step_loss = grad(params, windows[idx], cfg.context_length, cfg.horizon)
        curve[step] = step_loss
        if initial is None:
            initial = max(step_loss, 1e-12)
        elif step_loss > 1e3 * initial:
            raise TrainingFailureError(
                f"training diverged at step {step}: loss {step_loss:g} "
                f"vs initial {initial:g}",
                iterations=step,
            )
        params.embed -= cfg.learning_rate * grads.embed
        for layer, (dwq, dwk) in zip(params.layers, grads.layers):
            layer.w_q -= cfg.learning_rate * dwq
            layer.w_k -= cfg.learning_rate * dwk
    return TrainResult(params, curve)


def _sample_token(probabilities, stream):
    cdf = np.cumsum(probabilities)
    idx = int(np.searchsorted(cdf, stream.uniform() * cdf[-1], side="right"))
    return min(idx, len(cdf) - 1)


def forecast(params, context_tokens, horizon, sample_count=20, *, stream, tok_cfg, scale):
    """Autoregressive sampling of `horizon` future tokens.

    Returns (trajectories, point_forecast): sample_count token paths and
    the mean of their detokenized values.  The default of 20 paths sits
    on the flat part of the point-forecast variance curve.
    """
    if horizon < 1 or sample_count < 1:
        raise InvalidArgumentError("horizon and sample_count must be >= 1")
    ids = context_tokens.tokens if isinstance(context_tokens, TokenSequence) else context_tokens
    ids = _check_tokens(ids, params.vocab_size)
    trajectories = np.empty((sample_count, horizon), dtype=np.int64)
    for s in range(sample_count):
        current = list(ids)
        for step in range(horizon):
            trace = forward(np.asarray(current), params)
            token = _sample_token(trace.probabilities, stream)
            trajectories[s, step] = token
            current.append(token)
    values = np.stack(
        [
            detokenize(TokenSequence(traj, scale), tok_cfg)
            for traj in trajectories
        ]
    )
    return trajectories, values.mean(axis=0)


def context_hash(tokens):
    """Stable 64-bit id for a token context."""
    ids = np.asarray(tokens, dtype=np.int64)
    digest = hashlib.sha256(ids.astype("<i8").tobytes()).digest()
    return int.from_bytes(digest[:8], "little")


def dump_embeddings(params, windows, layer_ids=None):
    """Record every position's activation row for the selected layers.

    Layer 0 is the embedding lookup; layers 1..layer_count are attention
    outputs.  Default: all attention layers.
    """
    if layer_ids is None:
        layer_ids = list(range(1, params.layer_count + 1))
    for lid in layer_ids:
        if not 0 <= lid <= params.layer_count:
            raise InvalidArgumentError(f"layer id {lid} out of range")
    layers_col, tokens_col, ctx_col, vecs = [], [], [], []
    for window in windows:
        ids = _check_tokens(window, params.vocab_size)
        acts, _ = window_forward(ids, params)
        chash = context_hash(ids)
        for lid in layer_ids:
            for pos in range(ids.size):
                layers_col.append(lid)
                tokens_col.append(int(ids[pos]))
                ctx_col.append(chash)
                vecs.append(acts[lid][pos])
    return EmbeddingDump(
        dim=params.dim,
        layers=np.array(layers_col, dtype=np.uint32),
        token_ids=np.array(tokens_col, dtype=np.uint32),
        context_ids=np.array(ctx_col, dtype=np.uint64),
        vectors=np.array(vecs) if vecs else np.empty((0, params.dim)),
    )


def save_checkpoint(params, path, meta=None):
    """ISOP binary: magic, version, dims, then row-major f64 LE tensors
    (embed, then per layer W_Q, W_K) plus a JSON hyperparameter sidecar."""
    path = Path(path)
    header = (
        CHECKPOINT_MAGIC
        + np.uint32(CHECKPOINT_VERSION).tobytes()
        + np.uint32(params.vocab_size).tobytes()
        + np.uint32(params.dim).tobytes()
        + np.uint32(params.rank).tobytes()
        + np.uint32(params.layer_count).tobytes()
    )
    blobs = [params.embed.astype("<f8").tobytes()]
    for layer in params.layers:
        blobs.append(layer.w_q.astype("<f8").tobytes())
        blobs.append(layer.w_k.astype("<f8").tobytes())
    path.write_bytes(header + b"".join(blobs))
    sidecar = Path(str(path) + ".json")
    hyper = {
        "vocab_size": params.vocab_size,
        "dim": params.dim,
        "rank": params.rank,
        "layer_count": params.layer_count,
    }
    if meta:
        hyper.update(meta)
    sidecar.write_text(json.dumps(hyper, indent=2, sort_keys=True) + "\n")
    return path, sidecar


def load_checkpoint(path):
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise InvalidArgumentError(f"{path} is not a checkpoint (bad magic)")
    off = 24
    if len(raw) < off:
        raise InvalidArgumentError(
            f"{path}: truncated, {len(raw)} bytes is shorter than the header"
        )
    version = int(np.frombuffer(raw, "<u4", count=1, offset=4)[0])
    if version != CHECKPOINT_VERSION:
        raise InvalidArgumentError(f"unsupported checkpoint version {version}")
    n, d, m, n_layers = (
        int(v) for v in np.frombuffer(raw, "<u4", count=4, offset=8)
    )
    expected = 8 * (n * d + n_layers * 2 * d * m)
    if len(raw) - off != expected:
        raise InvalidArgumentError(
            f"{path}: payload is {len(raw) - off} bytes, expected {expected}"
        )

    def take(rows, cols):
        nonlocal off
        arr = np.frombuffer(raw, "<f8", count=rows * cols, offset=off).reshape(rows, cols)
        off += 8 * rows * cols
        return arr.copy()

    embed = take(n, d)
    layers = [AttentionLayer(take(d, m), take(d, m)) for _ in range(n_layers)]
    sidecar = Path(str(path) + ".json")
    meta = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    return ModelParams(embed, layers), meta
