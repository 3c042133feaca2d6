"""Minimal autoregressive self-attention forecaster.

The network is exactly stacked attention g(X) = softmax(X @ L @ X.T) @ X
with a weight-tied inner-product softmax head: no value projection, no
MLP, no layer norm, no residual.  Attention is causal for training and
forecasting; gradients are exact reverse-mode, written out by hand.

The rank-m score matrix L = W_Q @ W_K.T is never formed: a layer scores
its rows through queries X @ W_Q and keys X @ W_K, (n, m) each, and the
backward pass runs through the same two factors.

Every pass over token windows is one batched causal pass over a (B, n)
stack (`causal_pass`): `grad` (whose backward is batched the same way),
`forward`, `dump_embeddings` and the theory checks' logit rows.  `grad`
computes only the rows its loss reads.  A window's last position is a
target and never an input, so the pass runs over the first n - 1
positions; and the last layer queries only the `horizon` prediction
rows, since no other row of its output reaches the head.

`forecast` decodes from a cache instead of re-running the pass per
token.  That cache is exact, not an approximation: attention is causal
and there is no residual, norm or value projection, so output row i of
a layer depends on that layer's input rows 0..i alone.  Appending a
token therefore leaves every earlier row of every layer unchanged and
adds exactly one new row per layer, computed from the cached input rows
and keys of that layer and the new row's one query (the KV cache of
Pope et al. 2022, "Efficiently Scaling Transformer Inference", reduced
to this model, whose values are its input rows).  The sample paths of
one context share that context's cached rows and keys, as the parallel
samples of one prompt share its cache in PagedAttention (Kwon et al.
2023); each path keeps only the rows it appends.
"""

from __future__ import annotations

import functools
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
from .manifest import read_json
from .numerics import RngStream
from .tokenizer import detokenize

CHECKPOINT_MAGIC = b"ISOP"
CHECKPOINT_VERSION = 1


def _normalize(shifted):
    """Softmax of max-shifted logits, in place in their own buffer:
    (probabilities, row sums of the exponentials)."""
    np.exp(shifted, out=shifted)
    total = shifted.sum(axis=-1, keepdims=True)
    shifted /= total
    return shifted, total


def mean_nll(logits, targets):
    """Mean negative log-likelihood of one target per logit row.

    Returns (loss, probabilities): the rows' softmax probabilities come
    out of the same max-shifted buffer the loss is read from, and they
    are what the loss gradient needs (probabilities minus the one-hot
    targets, over the row count).
    """
    z = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if z.ndim != 2 or z.shape[0] == 0 or targets.shape != (z.shape[0],):
        raise InvalidArgumentError("need exactly one target per logit row")
    if targets.min() < 0 or targets.max() >= z.shape[1]:
        raise InvalidArgumentError(
            f"target out of range [0, {z.shape[1]}): {int(targets.min())}..{int(targets.max())}"
        )
    shifted = z - z.max(axis=1, keepdims=True)
    picked = shifted[np.arange(targets.size), targets]
    probs, total = _normalize(shifted)
    return float(np.mean(np.log(total[:, 0]) - picked)), probs


@dataclass
class AttentionLayer:
    """One layer's rank-m factors of the score matrix W_Q @ W_K.T, which
    the model attends through and never forms."""

    w_q: np.ndarray  # (D, m)
    w_k: np.ndarray  # (D, m)


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
        for name in (
            "learning_rate", "steps", "batch_size", "context_length", "horizon", "log_every"
        ):
            if getattr(self, name) <= 0:
                raise InvalidArgumentError(f"TrainConfig.{name} must be positive")

    @property
    def window_length(self):
        return self.context_length + self.horizon


@dataclass
class ForwardTrace:
    """Activations and the next-token head output for a (C, n) stack."""

    activations: list  # [(C, n, D)] embedding input plus each layer output
    logits: np.ndarray  # (C, N)
    probabilities: np.ndarray  # (C, N)


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


def softmax(logits, what):
    """Numerically stable softmax along the last axis of a fresh float64
    logit buffer, in place, refusing a non-finite result (``what`` names
    the values in the error): an overflow upstream leaves inf - inf = NaN
    rows, which would sample as token 0.  After the max-shift every entry
    is NaN or at most 1, and the row maximum is 1, so a row's
    probabilities are all finite exactly when its sum is."""
    with np.errstate(invalid="ignore"):  # the sum check below refuses the NaN
        logits -= logits.max(axis=-1, keepdims=True)
    probs, total = _normalize(logits)
    if not np.all(np.isfinite(total)):
        raise NumericFailureError(f"{what} are non-finite after stabilization")
    return probs


def _project(rows, weight):
    """rows @ weight as one flat (rows, D) @ (D, m) product over a stack."""
    flat = rows.reshape(-1, rows.shape[-1]) @ weight
    return flat.reshape(rows.shape[:-1] + weight.shape[1:])


def attention_weights(queries, keys, causal):
    """Row-stochastic attention matrix softmax(queries @ keys.T).

    `queries` is (..., q, m) and `keys` (..., n, m) with q <= n.  Rows
    use max-subtraction before exponentiation; with `causal`, query row
    i stands for position n - q + i and normalizes over keys j <= n - q + i
    only, so q < n queries the last q positions.
    """
    queries = np.asarray(queries, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    scores = queries @ np.swapaxes(keys, -1, -2)
    if causal:
        scores[..., _future_mask(*scores.shape[-2:])] = -np.inf
    return softmax(scores, "attention weights")


@functools.lru_cache(maxsize=64)
def _future_mask(q, n):
    """Keys after each query row i's position n - q + i; shared, so read-only."""
    mask = ~np.tril(np.ones((q, n), dtype=bool), n - q)
    mask.flags.writeable = False
    return mask


def causal_pass(params, windows, *, last_queries=None):
    """One causal pass over a (B, n) batch of token windows.

    Returns (activations, attention): activations[0] is the (B, n, D)
    embedding lookup and activations[l + 1] the output of attention layer
    l, whose (queries, keys, weights) are attention[l]: (B, n, m) rows
    X @ W_Q and X @ W_K of its input X and the (B, n, n) attention
    matrices.  Row i of every output depends on positions <= i only, so
    it is the row a pass over the prefix ending at i gives.

    `last_queries` (for `grad`) makes the last layer query its final
    `last_queries` positions only; its output, queries and weights then
    hold those rows alone.
    """
    ids = np.asarray(windows, dtype=np.int64)
    if ids.ndim != 2 or ids.size == 0:
        raise InvalidArgumentError("token windows must be a non-empty (B, n) array")
    if ids.min() < 0 or ids.max() >= params.vocab_size:
        raise InvalidArgumentError(
            f"token id out of range [0, {params.vocab_size}): {int(ids.min())}..{int(ids.max())}"
        )
    activations, attention = [params.embed[ids]], []
    for index, layer in enumerate(params.layers):
        x = activations[-1]
        last = last_queries is not None and index + 1 == params.layer_count
        queries = _project(x[:, -last_queries:] if last else x, layer.w_q)
        keys = _project(x, layer.w_k)
        weights = attention_weights(queries, keys, causal=True)
        attention.append((queries, keys, weights))
        activations.append(weights @ x)
    return activations, attention


def forward(tokens, params):
    """Next-token prediction after the last position of each context of
    a (C, n) stack: (C, n, D) activations and (C, N) logits.

    Each context's head logits are its own (1, D) @ (D, N) product, a
    stacked matmul, so they carry the bits a forward over that context
    alone gives: BLAS rounds a one-row product differently from the same
    row inside a wider one.
    """
    activations, _ = causal_pass(params, tokens)
    with np.errstate(over="ignore", invalid="ignore"):  # softmax refuses an overflow
        logits = (activations[-1][:, -1:] @ params.embed.T)[:, 0]
    return ForwardTrace(activations, logits, softmax(logits.copy(), "head probabilities"))


def grad(params, windows, context_length, horizon):
    """Exact gradients of the mean window loss over a (B, n) batch.

    Each window of length context_length + horizon contributes `horizon`
    prediction positions; the tied embedding accumulates both its head
    and its lookup role.  Forward and backward each run once over the
    whole batch, over the rows the loss reads: the first n - 1 positions,
    and the last layer's prediction rows.
    """
    windows = np.asarray(windows, dtype=np.int64)
    if windows.shape[-1] != context_length + horizon:
        raise InvalidArgumentError(
            f"window length {windows.shape[-1]} != context {context_length} + horizon {horizon}"
        )
    acts, attention = causal_pass(params, windows[..., :-1], last_queries=horizon)
    embed = params.embed
    batch, n, dim = acts[0].shape
    # the softmax head runs on the batch * horizon prediction rows only
    hidden = acts[-1][:, -horizon:].reshape(-1, dim)
    targets = windows[:, context_length:].ravel()
    total_loss, d_logits = mean_nll(hidden @ embed.T, targets)
    d_logits[np.arange(targets.size), targets] -= 1.0
    d_logits /= targets.size
    d_embed = d_logits.T @ hidden  # head role of the tied table
    # d_out: the gradient of the rows a layer outputs, the last layer's
    # `horizon` query rows first
    d_out = (d_logits @ embed).reshape(batch, horizon, dim)
    d_layers = []
    for layer, x, (queries, keys, p) in reversed(list(zip(params.layers, acts, attention))):
        d_p = d_out @ np.swapaxes(x, 1, 2)
        d_x = np.swapaxes(p, 1, 2) @ d_out
        d_scores = p * (d_p - np.sum(d_p * p, axis=2, keepdims=True))
        d_queries = d_scores @ keys
        d_keys = np.swapaxes(d_scores, 1, 2) @ queries
        # the factors are shared by every window: flat (rows, D) products
        queried = slice(n - queries.shape[1], n)
        d_layers.append((
            x[:, queried].reshape(-1, dim).T @ d_queries.reshape(-1, d_queries.shape[-1]),
            x.reshape(-1, dim).T @ d_keys.reshape(-1, d_keys.shape[-1]),
        ))
        d_x += _project(d_keys, layer.w_k.T)
        d_x[:, queried] += _project(d_queries, layer.w_q.T)
        d_out = d_x
    d_layers.reverse()
    # lookup role: one scatter-add over the (token, coordinate) cells of
    # the rows d_out covers (all n once an attention layer ran)
    ids = windows[:, n - d_out.shape[1] : n]
    cells = (ids.reshape(-1, 1) * dim + np.arange(dim)).ravel()
    d_embed += np.bincount(cells, d_out.ravel(), embed.size).reshape(embed.shape)

    for name, grad_arr in [("embed", d_embed)] + [
        (f"layer{idx}", g) for idx, pair in enumerate(d_layers) for g in pair
    ]:
        if not np.all(np.isfinite(grad_arr)):
            raise NumericFailureError(f"non-finite gradient for parameter {name}")
    return Gradients(d_embed, d_layers), total_loss


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
                f"vs initial {initial:g}"
            )
        params.embed -= cfg.learning_rate * grads.embed
        for layer, (dwq, dwk) in zip(params.layers, grads.layers):
            layer.w_q -= cfg.learning_rate * dwq
            layer.w_k -= cfg.learning_rate * dwk
    return TrainResult(params, curve)


def _sample_tokens(probabilities, uniforms):
    """Inverse-CDF draw of one token per probability row, for uniforms
    that broadcast against the rows.  The cdf is taken in place, in the
    probabilities' own buffer."""
    cdf = np.cumsum(probabilities, axis=-1, out=probabilities)
    idx = np.sum(cdf <= (uniforms * cdf[..., -1])[..., None], axis=-1)
    return np.minimum(idx, cdf.shape[-1] - 1)


def forecast(params, trace, horizon, sample_count=20, *, stream, tok_cfg, scale):
    """Autoregressive sampling of `horizon` future tokens after each
    context of the ForwardTrace of `forward` over a (C, n) stack, with
    one scale per context.

    Returns (trajectories, point_forecast): (C, sample_count, horizon)
    token paths and the (C, horizon) means of their detokenized values.
    The default of 20 paths sits on the flat part of the point-forecast
    variance curve.  Path s of context c draws its uniforms in step
    order, after those of contexts 0..c-1 and of paths 0..s-1, as C
    forecasts one after another would.

    All C * sample_count paths decode as one batch, each step adding one
    row per layer from the cached input rows and keys of that layer and
    the new row's query (exact, see the module docstring).  A context's
    n rows and keys are cached once and shared by its paths; a path
    caches only the horizon - 1 rows it appends.  A new query scores the
    shared rows with one (S, m) @ (m, n) product per context and weights
    them with one (S, n) @ (n, D) product, so a stack decodes each
    context as a forecast of it alone would.

    A step holds one (C, S, N) probability buffer: step 0 samples from
    the (C, 1, N) head rows of the trace, and each later step normalizes
    its fresh head logits in place, takes the cdf in the same buffer and
    drops it before the next head.  Non-finite head probabilities raise
    NumericFailureError.
    """
    if horizon < 1 or sample_count < 1:
        raise InvalidArgumentError("horizon and sample_count must be >= 1")
    contexts, n = trace.activations[0].shape[:2]
    uniforms = stream.uniforms(contexts, sample_count, horizon)
    # cache[l]: attention layer l's (C, n, D) context rows, their keys
    # transposed to (C, m, n), and each path's appended rows and keys
    cache = []
    for layer, context_rows in zip(params.layers, trace.activations):
        shared_keys = np.swapaxes(_project(context_rows, layer.w_k), 1, 2)
        rows = np.empty((contexts, sample_count, horizon - 1, params.dim))
        keys = np.empty(rows.shape[:-1] + layer.w_k.shape[1:])
        cache.append((context_rows, shared_keys, rows, keys))
    # step 0 samples every path of a context from its (1, N) head row
    probs = trace.probabilities[:, None].copy()
    trajectories = np.empty((contexts, sample_count, horizon), dtype=np.int64)
    for step in range(horizon):
        trajectories[..., step] = _sample_tokens(probs, uniforms[..., step])
        probs = None  # the step's cdf; released before the next head
        if step + 1 == horizon:
            break
        row = params.embed[trajectories[..., step]]
        for layer, (context_rows, shared_keys, rows, keys) in zip(params.layers, cache):
            rows[:, :, step] = row
            keys[:, :, step] = row @ layer.w_k
            query = row @ layer.w_q
            own = np.einsum("csjm,csm->csj", keys[:, :, : step + 1], query)
            weights = softmax(
                np.concatenate([query @ shared_keys, own], axis=-1), "attention weights"
            )
            row = weights[..., :n] @ context_rows
            row += np.einsum("csj,csjd->csd", weights[..., n:], rows[:, :, : step + 1])
        with np.errstate(over="ignore", invalid="ignore"):  # softmax refuses an overflow
            logits = row @ params.embed.T
        probs = softmax(logits, "head probabilities")
    values = detokenize(trajectories, np.reshape(scale, (-1, 1, 1)), tok_cfg)
    return trajectories, values.mean(axis=1)


def context_hash(tokens):
    """Stable 64-bit id for a token context."""
    ids = np.asarray(tokens, dtype=np.int64)
    digest = hashlib.sha256(ids.astype("<i8").tobytes()).digest()
    return int.from_bytes(digest[:8], "little")


def dump_embeddings(params, windows, layer_ids=None):
    """Record every position's activation row for the selected layers.

    Layer 0 is the embedding lookup; layers 1..layer_count are attention
    outputs.  Default: all attention layers.  Records run window by
    window, then layer by layer, then position by position.
    """
    if layer_ids is None:
        layer_ids = list(range(1, params.layer_count + 1))
    for i, lid in enumerate(layer_ids):
        if not 0 <= lid <= params.layer_count:
            raise InvalidArgumentError(f"layer id {lid} out of range")
        if lid in layer_ids[:i]:
            raise InvalidArgumentError(f"layer id {lid} is repeated")
    if len(windows) == 0 or not layer_ids:
        return EmbeddingDump(dim=params.dim)
    ids = np.asarray(windows, dtype=np.int64)
    acts, _ = causal_pass(params, ids)
    per_window = len(layer_ids) * ids.shape[1]
    vectors = np.stack([acts[lid] for lid in layer_ids], axis=1)
    return EmbeddingDump(
        dim=params.dim,
        layers=np.tile(np.repeat(layer_ids, ids.shape[1]), len(ids)),
        token_ids=np.tile(ids, len(layer_ids)).ravel(),
        context_ids=np.repeat(np.array([context_hash(w) for w in ids], dtype=np.uint64), per_window),
        vectors=vectors.reshape(-1, params.dim),
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
    """(params, sidecar meta) of a checkpoint.  A malformed file, or a
    non-finite weight, raises InvalidArgumentError naming the file."""
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
        raise InvalidArgumentError(f"{path}: unsupported checkpoint version {version}")
    n, d, m, n_layers = (
        int(v) for v in np.frombuffer(raw, "<u4", count=4, offset=8)
    )
    if min(n, d, m) < 1:
        # a zero dim would make any layer count fit an empty payload
        raise InvalidArgumentError(
            f"{path}: header declares vocab {n}, dim {d}, rank {m}; each must be positive"
        )
    expected = 8 * (n * d + n_layers * 2 * d * m)
    if len(raw) - off != expected:
        raise InvalidArgumentError(
            f"{path}: payload is {len(raw) - off} bytes, expected {expected}"
        )

    def take(rows, cols, name):
        nonlocal off
        arr = np.frombuffer(raw, "<f8", count=rows * cols, offset=off).reshape(rows, cols)
        off += 8 * rows * cols
        if not np.all(np.isfinite(arr)):
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
            raise InvalidArgumentError(f"{path}: tensor {name} holds {arr[bad]} at {bad}")
        return arr.copy()

    embed = take(n, d, "embed")
    layers = [
        AttentionLayer(take(d, m, f"layer {i} w_q"), take(d, m, f"layer {i} w_k"))
        for i in range(n_layers)
    ]
    sidecar = Path(str(path) + ".json")
    meta = read_json(sidecar) if sidecar.exists() else {}
    return ModelParams(embed, layers), meta
