"""Tests for attention, the forward pass, gradients, training, and dumps."""

import copy
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoprobe import dumps, model
from isoprobe.dumps import EmbeddingDump
from isoprobe.errors import InvalidArgumentError, IsoprobeError, NumericFailureError
from isoprobe.kernels import Periodic, kernelsynth_sample
from isoprobe.model import (
    AttentionLayer,
    Gradients,
    ModelParams,
    TrainConfig,
    attention_weights,
    causal_pass,
    context_hash,
    dump_embeddings,
    forecast,
    forward,
    grad,
    init_params,
    load_checkpoint,
    mean_nll,
    save_checkpoint,
    train,
)
from isoprobe.numerics import RngStream
from isoprobe.tokenizer import TokenizerConfig, detokenize, tokenize
from test_tokenizer import fit_scale


def softmax(logits):
    """Numerically stable softmax along the last axis, in one new buffer:
    the reference for the model's in-place `model.softmax`."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def full_score_matrix(layer):
    """A layer's D x D score matrix W_Q @ W_K.T, which the model never forms."""
    return layer.w_q @ layer.w_k.T


def random_params(rng, vocab_size, dim, rank, layer_count, scale=0.5):
    embed = rng.normal(size=(vocab_size, dim)) * scale
    layers = [
        AttentionLayer(
            rng.normal(size=(dim, rank)) * scale, rng.normal(size=(dim, rank)) * scale
        )
        for _ in range(layer_count)
    ]
    return ModelParams(embed, layers)


def seasonality_windows(tok_cfg, context_length, horizon, length=512, stride=4, seed=5):
    series = kernelsynth_sample(
        (Periodic(period=0.25, length_scale=1.0),),
        max_kernels=1,
        length=length,
        stream=RngStream(seed, 0),
    )
    x = series.values
    window = context_length + horizon
    out = []
    for start in range(0, len(x) - window, stride):
        scale = fit_scale(x[start : start + context_length])
        out.append(tokenize(x[start : start + window], tok_cfg, scale))
    return np.array(out)


def attention_weights_oracle(rows, score_matrix, causal):
    """The D x D attention of the unfactored model, softmax(rows @ L @ rows.T),
    kept as the reference for the factored `attention_weights`."""
    x = np.asarray(rows, dtype=np.float64)
    projected = (x.reshape(-1, x.shape[-1]) @ score_matrix).reshape(x.shape)
    scores = projected @ np.swapaxes(x, -1, -2)
    if causal:
        scores[..., ~np.tril(np.ones(scores.shape[-2:], dtype=bool))] = -np.inf
    return softmax(scores)


def causal_pass_oracle(params, windows):
    """Every layer's output rows through the D x D score matrices."""
    acts = [params.embed[np.asarray(windows)]]
    for layer in params.layers:
        acts.append(attention_weights_oracle(acts[-1], full_score_matrix(layer), True) @ acts[-1])
    return acts


def grad_oracle(params, windows, context_length, horizon):
    """The per-window looped gradient, kept as the reference for `grad`."""
    windows = np.asarray(windows, dtype=np.int64)
    embed = params.embed
    n_preds = windows.shape[0] * horizon
    d_embed = np.zeros_like(embed)
    d_layers = [
        (np.zeros_like(l.w_q), np.zeros_like(l.w_k)) for l in params.layers
    ]
    score_matrices = [full_score_matrix(l) for l in params.layers]
    pred_rows = np.arange(context_length - 1, context_length + horizon - 1)
    total_loss = 0.0
    for window in windows:
        ids = np.asarray(window, dtype=np.int64)
        acts = [embed[ids]]
        probs_per_layer = []
        for score_matrix in score_matrices:
            p = attention_weights_oracle(acts[-1], score_matrix, causal=True)
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
    return Gradients(d_embed, d_layers), total_loss / n_preds


def _sample_token(probabilities, stream):
    cdf = np.cumsum(probabilities)
    idx = int(np.searchsorted(cdf, stream.uniform() * cdf[-1], side="right"))
    return min(idx, len(cdf) - 1)


def forecast_oracle(params, context_tokens, horizon, sample_count, *, stream, tok_cfg, scale):
    """Uncached decoding, kept as the reference for `forecast`: a full
    forward over the growing sequence for every token of every path."""
    trajectories = np.empty((sample_count, horizon), dtype=np.int64)
    for s in range(sample_count):
        current = list(context_tokens)
        for step in range(horizon):
            trace = forward(np.asarray(current)[None], params)
            token = _sample_token(trace.probabilities[0], stream)
            trajectories[s, step] = token
            current.append(token)
    values = np.stack([detokenize(traj, scale, tok_cfg) for traj in trajectories])
    return trajectories, values.mean(axis=0)


# (vocab, dim, rank, batch) of the readme_smoke and paper_shape models,
# both with 2 layers, context 16 and horizon 4
BENCHMARK_SHAPES = [(64, 16, 8, 16), (512, 64, 16, 32)]


class TestSelfAttention:
    def test_zero_queries_give_prefix_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 4))
        zeros = np.zeros((6, 2))
        out = attention_weights(zeros, x[:, :2], causal=True) @ x
        for i in range(6):
            np.testing.assert_allclose(out[i], x[: i + 1].mean(axis=0), atol=1e-12)
        out_full = attention_weights(zeros, x[:, :2], causal=False) @ x
        np.testing.assert_allclose(out_full, np.tile(x.mean(axis=0), (6, 1)), atol=1e-12)

    def test_single_row_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        w = np.ones((3, 2))
        np.testing.assert_allclose(attention_weights(x @ w, x @ w, causal=True) @ x, x)
        np.testing.assert_allclose(attention_weights(x @ w, x @ w, causal=False) @ x, x)

    def test_rows_stochastic_and_match_direct_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 4))
        w_q, w_k = rng.normal(size=(2, 4, 3)) * 0.7
        lam = w_q @ w_k.T
        for causal in (False, True):
            p = attention_weights(x @ w_q, x @ w_k, causal)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(p >= 0)
            # direct recomputation without stabilization tricks
            want = np.zeros((5, 4))
            for i in range(5):
                limit = i + 1 if causal else 5
                ws = [math.exp(float(x[i] @ lam @ x[j])) for j in range(limit)]
                tot = sum(ws)
                for j in range(limit):
                    want[i] += ws[j] / tot * x[j]
            np.testing.assert_allclose(p @ x, want, atol=1e-12)

    def test_convex_combination_of_prefix_rows(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 3))
        p = attention_weights(x @ rng.normal(size=(3, 2)), x @ rng.normal(size=(3, 2)), True)
        assert np.all(p >= 0) and np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.triu(p, k=1) == 0.0)  # no weight on future rows

    @pytest.mark.parametrize("q", [1, 3, 7])
    def test_last_queries_are_the_last_rows_of_the_full_matrix(self, q):
        rng = np.random.default_rng(q)
        queries, keys = rng.normal(size=(2, 4, 7, 3))
        full = attention_weights(queries, keys, causal=True)
        last = attention_weights(queries[:, -q:], keys, causal=True)
        assert last.shape == (4, q, 7)
        np.testing.assert_allclose(last, full[:, -q:], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("vocab, dim, rank, batch", BENCHMARK_SHAPES)
    def test_factored_pass_matches_score_matrix_oracle(self, vocab, dim, rank, batch):
        params = init_params(vocab, dim, rank, 2, RngStream(rank, 4))
        wins = np.random.default_rng(dim).integers(0, vocab, size=(batch, 20))
        want = causal_pass_oracle(params, wins)
        for got, ref in zip(causal_pass(params, wins)[0], want):
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        logits = forward(wins, params).logits
        want_logits = want[-1][:, -1] @ params.embed.T
        assert np.linalg.norm(logits - want_logits) <= 1e-13 * np.linalg.norm(want_logits)


class TestForward:
    def test_zero_embedding_uniform_head(self):
        params = ModelParams(np.zeros((8, 4)), [AttentionLayer(np.zeros((4, 2)), np.zeros((4, 2)))])
        trace = forward(np.array([[1, 2, 3]]), params)
        np.testing.assert_allclose(trace.probabilities, 1.0 / 8, atol=1e-15)

    def test_single_token_zero_lambda_lookup_products(self):
        rng = np.random.default_rng(3)
        embed = rng.normal(size=(6, 3))
        params = ModelParams(embed.copy(), [AttentionLayer(np.zeros((3, 2)), np.zeros((3, 2)))])
        trace = forward(np.array([[4]]), params)
        np.testing.assert_allclose(trace.logits[0], embed @ embed[4], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, 12, 5, 3, 2)
        trace = forward(rng.integers(0, 12, size=(1, 9)), params)
        assert abs(trace.probabilities.sum() - 1.0) <= 1e-12
        assert np.all(np.isfinite(trace.logits))

    def test_causality(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 10, 4, 2, 2)
        w = rng.integers(0, 10, size=7)

        def all_logits(window):
            activations, _ = causal_pass(params, window[None])
            return activations[-1][0] @ params.embed.T

        logits_all = all_logits(w)
        # each row equals a fresh forward on the prefix
        for t in range(7):
            np.testing.assert_allclose(
                logits_all[t], forward(w[None, : t + 1], params).logits[0], atol=1e-12
            )
        # perturbing a later token leaves earlier rows untouched
        w2 = w.copy()
        w2[-1] = (w2[-1] + 1) % 10
        np.testing.assert_allclose(all_logits(w2)[:-1], logits_all[:-1], atol=1e-12)
        # perturbing the first token changes the last row
        w3 = w.copy()
        w3[0] = (w3[0] + 1) % 10
        assert np.max(np.abs(all_logits(w3)[-1] - logits_all[-1])) > 1e-8

    def test_batch_rows_match_single_windows(self):
        rng = np.random.default_rng(22)
        params = random_params(rng, 10, 4, 2, 2)
        wins = rng.integers(0, 10, size=(5, 6))
        batched, weights = causal_pass(params, wins)
        assert len(batched) == 3 and len(weights) == 2
        for b, w in enumerate(wins):
            for layer, rows in enumerate(forward(w[None], params).activations):
                np.testing.assert_allclose(batched[layer][b], rows[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("vocab, dim, rank", [s[:3] for s in BENCHMARK_SHAPES] + [(512, 16, 8)])
    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    def test_stacked_forward_matches_each_context_bit_for_bit(self, vocab, dim, rank, n):
        params = init_params(vocab, dim, rank, 2, RngStream(dim, 1))
        contexts = np.random.default_rng(n).integers(0, vocab, size=(32, n))
        stacked = forward(contexts, params)
        assert stacked.activations[-1].shape == (32, n, dim)
        assert stacked.logits.shape == stacked.probabilities.shape == (32, vocab)
        for c, context in enumerate(contexts):
            single = forward(context[None], params)
            # a context's head logits are its own one-row product
            head = single.activations[-1][0, -1] @ params.embed.T
            assert single.logits[0].tobytes() == head.tobytes()
            for got, want in zip(stacked.activations, single.activations):
                assert got[c].tobytes() == want[0].tobytes()
            assert stacked.logits[c].tobytes() == single.logits[0].tobytes()
            assert stacked.probabilities[c].tobytes() == single.probabilities[0].tobytes()

    def test_out_of_range_token_rejected(self):
        params = random_params(np.random.default_rng(0), 4, 2, 1, 1)
        with pytest.raises(InvalidArgumentError, match="out of range"):
            causal_pass(params, np.array([[0, 4]]))

    def test_empty_sequence_rejected(self):
        params = random_params(np.random.default_rng(0), 4, 2, 1, 1)
        with pytest.raises(InvalidArgumentError):
            forward(np.empty((1, 0), dtype=np.int64), params)

    def test_one_dimensional_sequence_rejected(self):
        # forward and grad take a (C, n) stack only; one context is [None]
        params = random_params(np.random.default_rng(0), 4, 2, 1, 1)
        with pytest.raises(InvalidArgumentError, match=r"\(B, n\)"):
            forward(np.array([0, 1, 2]), params)
        with pytest.raises(InvalidArgumentError, match=r"\(B, n\)"):
            grad(params, np.array([0, 1, 2]), 2, 1)


class TestLoss:
    def test_uniform_is_log_vocab(self):
        value, probs = mean_nll(np.zeros((1, 512)), [7])
        assert value == pytest.approx(math.log(512), rel=1e-12)
        np.testing.assert_allclose(probs, 1.0 / 512, rtol=1e-15)

    def test_certain_prediction_is_zero(self):
        # logit gap large enough that softmax saturates exactly
        logits = np.zeros((1, 4))
        logits[0, 2] = 1600.0
        value, probs = mean_nll(logits, [2])
        assert probs[0, 2] == 1.0
        assert value == 0.0

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 9, 4, 2, 1)
        rows, targets, direct = [], [], []
        for _ in range(20):
            w = rng.integers(0, 9, size=5)
            t = int(rng.integers(0, 9))
            trace = forward(w[None], params)
            rows.append(trace.logits[0])
            targets.append(t)
            probs = [math.exp(v) for v in trace.logits[0]]
            direct.append(-math.log(probs[t] / sum(probs)))
        value, probs = mean_nll(np.array(rows), targets)
        assert value == pytest.approx(float(np.mean(direct)), abs=1e-12)
        np.testing.assert_allclose(probs, softmax(np.array(rows)), rtol=1e-14)

    def test_target_range_checked(self):
        with pytest.raises(InvalidArgumentError):
            mean_nll(np.zeros((1, 4)), [4])
        with pytest.raises(InvalidArgumentError):
            mean_nll(np.zeros((2, 4)), [1])


class TestGrad:
    def test_zero_loss_gives_zero_gradient(self):
        embed = np.zeros((4, 1))
        embed[1, 0] = 40.0  # saturated softmax: p(target) == 1 exactly
        params = ModelParams(embed, [AttentionLayer(np.zeros((1, 1)), np.zeros((1, 1)))])
        grads, value = grad(params, np.array([[1, 1]]), 1, 1)
        assert value == 0.0
        assert np.all(grads.embed == 0.0)
        assert all(np.all(g == 0.0) for pair in grads.layers for g in pair)

    def test_finite_difference_all_parameters(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        for case in range(10):
            vocab = int(rng.integers(4, 17))
            dim = int(rng.integers(2, 9))
            rank = int(rng.integers(1, dim + 1))
            n_layers = int(rng.integers(1, 3))
            t_ctx = int(rng.integers(1, 5))
            horizon = int(rng.integers(1, 3))
            params = random_params(rng, vocab, dim, rank, n_layers)
            wins = rng.integers(0, vocab, size=(2, t_ctx + horizon))
            grads, _ = grad(params, wins, t_ctx, horizon)

            def loss_at(p):
                _, value = grad(p, wins, t_ctx, horizon)
                return value

            tensors = [(grads.embed, lambda p: p.embed)]
            for li in range(n_layers):
                tensors.append((grads.layers[li][0], lambda p, li=li: p.layers[li].w_q))
                tensors.append((grads.layers[li][1], lambda p, li=li: p.layers[li].w_k))
            for analytic, selector in tensors:
                fd = np.zeros_like(analytic)
                for idx in np.ndindex(*analytic.shape):
                    plus = copy.deepcopy(params)
                    selector(plus)[idx] += h
                    minus = copy.deepcopy(params)
                    selector(minus)[idx] -= h
                    fd[idx] = (loss_at(plus) - loss_at(minus)) / (2 * h)
                num = np.linalg.norm(fd - analytic)
                den = np.linalg.norm(fd) + np.linalg.norm(analytic) + 1e-12
                assert num / den <= 1e-5, f"case {case}: rel err {num / den:g}"

    def test_tied_embedding_combines_both_roles(self):
        # Zeroing either role breaks the FD match; the sum is exact.
        rng = np.random.default_rng(8)
        params = random_params(rng, 6, 3, 2, 1)
        wins = rng.integers(0, 6, size=(1, 4))
        grads, _ = grad(params, wins, 2, 2)
        h = 1e-5
        fd = np.zeros_like(params.embed)
        for idx in np.ndindex(*params.embed.shape):
            plus = copy.deepcopy(params)
            plus.embed[idx] += h
            minus = copy.deepcopy(params)
            minus.embed[idx] -= h
            fd[idx] = (grad(plus, wins, 2, 2)[1] - grad(minus, wins, 2, 2)[1]) / (2 * h)
        np.testing.assert_allclose(grads.embed, fd, atol=1e-7)

    # the pass drops the final position and the last layer queries only
    # the prediction rows: context 1 (horizon n - 1) queries every input
    # row, horizon 1 only the last one
    @pytest.mark.parametrize(
        "context_length, horizon", [(16, 4), (1, 4), (16, 1), (1, 19), (1, 1)]
    )
    @pytest.mark.parametrize("layer_count", [1, 2, 3])
    @pytest.mark.parametrize("shape", BENCHMARK_SHAPES + [(64, 16, 8, 1)])
    def test_batched_matches_looped_oracle(self, shape, layer_count, context_length, horizon):
        vocab, dim, rank, batch = shape
        rng = np.random.default_rng(vocab + batch + 7 * layer_count + context_length)
        params = init_params(vocab, dim, rank, layer_count, RngStream(batch, horizon))
        wins = rng.integers(0, vocab, size=(batch, context_length + horizon))
        grads, value = grad(params, wins, context_length, horizon)
        want, want_value = grad_oracle(params, wins, context_length, horizon)
        assert value == pytest.approx(want_value, rel=1e-14)
        pairs = [(grads.embed, want.embed)] + [
            (g, w) for got, ref in zip(grads.layers, want.layers) for g, w in zip(got, ref)
        ]
        for got, ref in pairs:
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_nonfinite_attention_is_numeric_failure(self):
        params = random_params(np.random.default_rng(0), 4, 2, 1, 1)
        params.layers[0].w_q[:] = np.inf
        with pytest.raises(NumericFailureError):
            grad(params, np.array([[0, 1, 2]]), 2, 1)


class TestTrain:
    def test_memorizes_single_window(self):
        wins = np.repeat(np.array([[3, 7, 1, 12, 5, 9]]), 4, axis=0)
        cfg = TrainConfig(
            learning_rate=0.5, steps=1500, batch_size=4, context_length=4, horizon=2, seed=1
        )
        res = train(wins, cfg, dim=8, rank=4, layer_count=1, vocab_size=16)
        assert res.loss_curve[-1] < 0.01

    def test_moving_average_nonincreasing_on_seasonality(self):
        tok_cfg = TokenizerConfig(vocab_size=32)
        wins = seasonality_windows(tok_cfg, context_length=8, horizon=2)
        cfg = TrainConfig(
            learning_rate=0.2,
            steps=300,
            batch_size=len(wins),  # full-batch descent
            context_length=8,
            horizon=2,
            seed=2,
        )
        res = train(wins, cfg, dim=8, rank=4, layer_count=1, vocab_size=32)
        ma = np.convolve(res.loss_curve, np.ones(50) / 50, mode="valid")
        assert np.max(np.diff(ma)) <= 0.0

    def test_same_seed_bit_identical(self):
        tok_cfg = TokenizerConfig(vocab_size=16)
        wins = seasonality_windows(tok_cfg, context_length=4, horizon=2, length=128)
        cfg = TrainConfig(
            learning_rate=0.1, steps=40, batch_size=8, context_length=4, horizon=2, seed=3
        )
        a = train(wins, cfg, dim=4, rank=2, layer_count=2, vocab_size=16)
        b = train(wins, cfg, dim=4, rank=2, layer_count=2, vocab_size=16)
        assert a.params.embed.tobytes() == b.params.embed.tobytes()
        for la, lb in zip(a.params.layers, b.params.layers):
            assert la.w_q.tobytes() == lb.w_q.tobytes()
            assert la.w_k.tobytes() == lb.w_k.tobytes()
        np.testing.assert_array_equal(a.loss_curve, b.loss_curve)


class TestForecast:
    def test_deterministic_head(self):
        embed = np.zeros((4, 1))
        embed[1, 0] = 40.0
        params = ModelParams(embed, [AttentionLayer(np.zeros((1, 1)), np.zeros((1, 1)))])
        tok_cfg = TokenizerConfig(vocab_size=4)
        traj, point = forecast(
            params, forward(np.array([[1]]), params), horizon=3, sample_count=10,
            stream=RngStream(0, 0), tok_cfg=tok_cfg, scale=1.0,
        )
        np.testing.assert_array_equal(traj, np.ones((1, 10, 3)))
        np.testing.assert_allclose(point, np.full((1, 3), tok_cfg.bin_centers[1]))

    def test_first_token_distribution_matches_head(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, 8, 4, 2, 1)
        trace = forward(np.array([[2, 5, 1]]), params)
        head = trace.probabilities[0]
        tok_cfg = TokenizerConfig(vocab_size=8)
        draws = 100_000
        traj, _ = forecast(
            params, trace, horizon=1, sample_count=draws,
            stream=RngStream(1, 0), tok_cfg=tok_cfg, scale=1.0,
        )
        counts = np.bincount(traj[0, :, 0], minlength=8)
        expected = head * draws
        chi2 = float(np.sum((counts - expected) ** 2 / np.maximum(expected, 1e-12)))
        assert chi2 < 18.475  # chi-square 99% critical value, 7 dof

    def test_default_sample_count_sits_on_variance_plateau(self):
        # point-forecast variance decays like 1/S: going 5 -> 20 paths
        # buys much more than 20 -> 80, so 20 is past the knee
        rng = np.random.default_rng(21)
        params = random_params(rng, 12, 6, 3, 1)
        trace = forward(rng.integers(0, 12, size=(1, 6)), params)
        tok_cfg = TokenizerConfig(vocab_size=12)
        repeats = 40

        def point_variance(sample_count):
            points = [
                forecast(
                    params, trace, horizon=2, sample_count=sample_count,
                    stream=RngStream(100 + r, sample_count),
                    tok_cfg=tok_cfg, scale=1.0,
                )[1]
                for r in range(repeats)
            ]
            return float(np.var(np.stack(points), axis=0).mean())

        v5, v20, v80 = point_variance(5), point_variance(20), point_variance(80)
        assert v20 < v5 / 2.0
        assert (v5 - v20) > 2.0 * (v20 - v80)

    # horizon 1 appends no row to the decode cache, horizon 2 one row
    @pytest.mark.parametrize("horizon, sample_count", [(4, 20), (1, 20), (2, 20), (4, 1)])
    @pytest.mark.parametrize("vocab, dim, rank", [s[:3] for s in BENCHMARK_SHAPES])
    def test_cached_decoding_matches_uncached_oracle(
        self, monkeypatch, vocab, dim, rank, horizon, sample_count
    ):
        rng = np.random.default_rng(dim)
        params = init_params(vocab, dim, rank, 2, RngStream(dim, 0))
        tok_cfg = TokenizerConfig(vocab_size=vocab)
        for case in range(64):
            context = rng.integers(0, vocab, size=16)
            cached, oracle = RngStream(case, 3), RngStream(case, 3)
            trace = forward(context[None], params)
            with monkeypatch.context() as patched:
                # decoding reads the trace's rows and runs no causal pass
                patched.setattr(model, "causal_pass", None)
                traj, point = forecast(
                    params, trace, horizon=horizon, sample_count=sample_count,
                    stream=cached, tok_cfg=tok_cfg, scale=1.5,
                )
            want_traj, want_point = forecast_oracle(
                params, context, horizon, sample_count, stream=oracle, tok_cfg=tok_cfg, scale=1.5
            )
            np.testing.assert_array_equal(traj[0], want_traj)
            np.testing.assert_array_equal(point[0], want_point)
            # both consumed sample_count * horizon uniforms
            assert cached.uniform() == oracle.uniform()

    def test_overflowing_head_logits_are_numeric_failure(self):
        # finite weights whose head logits overflow: inf - inf leaves NaN
        # probabilities, which would sample token 0 on every path
        params = random_params(np.random.default_rng(22), 8, 4, 2, 2)
        params.embed *= 1e160
        for layer in params.layers:
            layer.w_q *= 1e-200
            layer.w_k *= 1e-200
        with pytest.raises(NumericFailureError, match="head probabilities"):
            forward(np.array([[1, 2, 3]]), params)

    def test_overflow_at_a_decode_step_is_numeric_failure(self):
        # token 1 is sampled with certainty; once it is in the cache the
        # next head logits overflow
        params = ModelParams(
            np.array([[1.0], [1e160]]), [AttentionLayer(np.zeros((1, 1)), np.zeros((1, 1)))]
        )
        trace = forward(np.array([[0]]), params)
        tok_cfg = TokenizerConfig(vocab_size=2)
        forecast(params, trace, 1, 3, stream=RngStream(0, 0), tok_cfg=tok_cfg, scale=1.0)
        with pytest.raises(NumericFailureError, match="head probabilities"):
            forecast(params, trace, 2, 3, stream=RngStream(0, 0), tok_cfg=tok_cfg, scale=1.0)

    @pytest.mark.parametrize("vocab, dim, rank", [s[:3] for s in BENCHMARK_SHAPES])
    def test_stacked_forecast_matches_consecutive_forecasts(self, vocab, dim, rank):
        params = init_params(vocab, dim, rank, 2, RngStream(dim, 2))
        tok_cfg = TokenizerConfig(vocab_size=vocab)
        rng = np.random.default_rng(vocab)
        contexts = rng.integers(0, vocab, size=(8, 16))
        scales = rng.uniform(0.5, 2.0, size=8)
        stacked, looped = RngStream(5, 1), RngStream(5, 1)
        traj, points = forecast(
            params, forward(contexts, params), 4, 20, stream=stacked, tok_cfg=tok_cfg,
            scale=scales,
        )
        assert traj.shape == (8, 20, 4) and points.shape == (8, 4)
        # context c draws its uniforms after contexts 0..c-1
        for c in range(8):
            want_traj, want_point = forecast(
                params, forward(contexts[c][None], params), 4, 20, stream=looped,
                tok_cfg=tok_cfg, scale=scales[c],
            )
            np.testing.assert_array_equal(traj[c], want_traj[0])
            assert points[c].tobytes() == want_point[0].tobytes()
        assert stacked.uniform() == looped.uniform()


class TestDecodeBuffers:
    """A decode step holds one (C, S, N) probability buffer."""

    def test_readme_shape_peak_beyond_the_cache(self):
        # an eval point of the README pipeline: 32 contexts of 16 tokens,
        # 20 paths, horizon 4, at V64/D16/m8 with 2 layers.  Beyond the
        # decode cache, the peak is 2.2 head buffers; a broadcast step-0
        # cdf and a three-buffer softmax take it to 5.1
        vocab, dim, rank, layers = 64, 16, 8, 2
        contexts, n, paths, horizon = 32, 16, 20, 4
        params = init_params(vocab, dim, rank, layers, RngStream(3, 0))
        tokens = np.random.default_rng(4).integers(0, vocab, size=(contexts, n))
        trace = forward(tokens, params)
        tok_cfg = TokenizerConfig(vocab_size=vocab)
        tracemalloc.start()
        try:
            forecast(
                params, trace, horizon, paths, stream=RngStream(5, 0), tok_cfg=tok_cfg,
                scale=np.ones(contexts),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # each path's appended rows and keys, and each context's keys
        cache = 8 * layers * (contexts * paths * (horizon - 1) * (dim + rank) + contexts * n * rank)
        head = 8 * contexts * paths * vocab
        assert peak - cache < 3 * head

    def test_softmax_normalizes_its_own_buffer(self):
        logits = np.random.default_rng(6).normal(size=(5, 7))
        want = softmax(logits)
        probs = model.softmax(logits, "logits")
        assert np.shares_memory(probs, logits)
        assert probs.tobytes() == want.tobytes()

    def test_softmax_refuses_an_overflowed_row_without_a_warning(self):
        # inf - inf in the max-shift reads NaN; only the typed error reports it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailureError, match="head probabilities"):
                model.softmax(np.array([[np.inf, 1.0]]), "head probabilities")

    def test_forward_keeps_its_logits(self):
        params = random_params(np.random.default_rng(7), 8, 4, 2, 2)
        trace = forward(np.array([[1, 2, 3], [4, 5, 6]]), params)
        head = (trace.activations[-1][:, -1:] @ params.embed.T)[:, 0]
        assert trace.logits.tobytes() == head.tobytes()
        assert trace.probabilities.tobytes() == softmax(head).tobytes()


class TestInvariants:
    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(10)
        params = random_params(rng, 16, 5, 3, 2)
        for _ in range(5):
            trace = forward(rng.integers(0, 16, size=(1, 6)), params)
            for shift in (-10.0, 3.7, 100.0):
                np.testing.assert_allclose(
                    softmax(trace.logits + shift), trace.probabilities, atol=1e-12
                )

    def test_partition_function_positive(self):
        rng = np.random.default_rng(11)
        params = random_params(rng, 16, 5, 3, 2)
        for _ in range(5):
            trace = forward(rng.integers(0, 16, size=(1, 6)), params)
            zmax = trace.logits.max()
            log_z = zmax + math.log(np.sum(np.exp(trace.logits - zmax)))
            assert math.isfinite(log_z)

    def test_vocabulary_relabeling_symmetry(self):
        rng = np.random.default_rng(12)
        params = random_params(rng, 12, 4, 2, 2)
        wins = rng.integers(0, 12, size=(3, 6))
        _, base = grad(params, wins, 4, 2)
        perm = rng.permutation(12)
        new_embed = np.empty_like(params.embed)
        new_embed[perm] = params.embed
        permuted = ModelParams(new_embed, params.layers)
        _, relabeled = grad(permuted, perm[wins], 4, 2)
        assert relabeled == pytest.approx(base, abs=1e-12)


class TestDumpAndCheckpoint:
    def test_record_counting(self):
        params = random_params(np.random.default_rng(13), 8, 3, 2, 2)
        dump = dump_embeddings(params, [np.array([1, 2, 3, 4, 5])])
        assert dump.record_count == 10  # 5 positions x 2 layers
        assert dump.layer_ids() == [1, 2]

    def test_identical_windows_identical_vectors(self):
        params = random_params(np.random.default_rng(14), 8, 3, 2, 1)
        w = np.array([3, 1, 4])
        dump = dump_embeddings(params, [w, w])
        half = dump.record_count // 2
        np.testing.assert_array_equal(dump.vectors[:half], dump.vectors[half:])
        assert len(set(dump.context_ids.tolist())) == 1

    def test_batched_dump_keeps_record_order(self):
        rng = np.random.default_rng(17)
        params = random_params(rng, 8, 3, 2, 2)
        wins = rng.integers(0, 8, size=(4, 5))
        dump = dump_embeddings(params, list(wins), layer_ids=[2, 0])
        records = [
            (lid, int(w[pos]), context_hash(w), forward(w[None], params).activations[lid][0, pos])
            for w in wins
            for lid in (2, 0)
            for pos in range(len(w))
        ]
        assert dump.layers.tolist() == [r[0] for r in records]
        assert dump.token_ids.tolist() == [r[1] for r in records]
        assert dump.context_ids.tolist() == [r[2] for r in records]
        np.testing.assert_allclose(dump.vectors, [r[3] for r in records], rtol=0, atol=1e-12)
        assert dump_embeddings(params, []).record_count == 0

    @pytest.mark.parametrize(
        "layer_ids, message",
        [([3], "layer id 3 out of range"), ([2, 0, 2], "layer id 2 is repeated")],
        ids=["out-of-range", "repeated"],
    )
    def test_bad_layer_ids_rejected(self, layer_ids, message):
        # a repeated id would write every record of that layer twice
        params = random_params(np.random.default_rng(19), 8, 3, 2, 2)
        with pytest.raises(InvalidArgumentError, match=message):
            dump_embeddings(params, [np.array([1, 2, 3])], layer_ids=layer_ids)

    def test_last_layer_rows_equal_dump_layer_matrix(self):
        # evaluate_point takes the final layer's rows and token ids from
        # causal_pass directly, in place of a one-layer dump
        rng = np.random.default_rng(18)
        params = random_params(rng, 8, 3, 2, 2)
        windows = [rng.integers(0, 8, size=6) for _ in range(4)]
        last = params.layer_count
        dump = dump_embeddings(params, windows, [last])
        rows = causal_pass(params, windows)[0][-1].reshape(-1, params.dim)
        assert rows.tobytes() == dump.layer_matrix(last).tobytes()
        tokens = np.ravel(windows)
        assert tokens.tobytes() == dump.layer_token_ids(last).tobytes()

    def test_dump_file_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(15)
        params = random_params(rng, 8, 3, 2, 2)
        wins = [rng.integers(0, 8, size=5) for _ in range(3)]
        dump = dump_embeddings(params, wins, layer_ids=[0, 1, 2])
        path = dump.write(tmp_path / "emb.bin")
        loaded = EmbeddingDump.read(path)
        assert loaded.vectors.tobytes() == dump.vectors.tobytes()
        np.testing.assert_array_equal(loaded.layers, dump.layers)
        np.testing.assert_array_equal(loaded.token_ids, dump.token_ids)
        np.testing.assert_array_equal(loaded.context_ids, dump.context_ids)

    def test_checkpoint_roundtrip(self, tmp_path):
        params = random_params(np.random.default_rng(16), 10, 6, 3, 2)
        path, sidecar = save_checkpoint(params, tmp_path / "model.isop", meta={"note": "t"})
        loaded, meta = load_checkpoint(path)
        assert meta["note"] == "t"
        assert meta["vocab_size"] == 10
        assert loaded.embed.tobytes() == params.embed.tobytes()
        for la, lb in zip(loaded.layers, params.layers):
            assert la.w_q.tobytes() == lb.w_q.tobytes()
            assert la.w_k.tobytes() == lb.w_k.tobytes()

    @pytest.mark.parametrize(
        "tensor, cell, value",
        [("embed", (3, 2), np.nan), ("layer 1 w_k", (0, 1), np.inf),
         ("layer 0 w_q", (5, 0), -np.inf)],
    )
    def test_non_finite_weight_is_typed_error_naming_the_tensor(
        self, tmp_path, tensor, cell, value
    ):
        params = random_params(np.random.default_rng(16), 10, 6, 3, 2)
        if tensor == "embed":
            params.embed[cell] = value
        else:
            _, index, name = tensor.split()
            getattr(params.layers[int(index)], name)[cell] = value
        path, _ = save_checkpoint(params, tmp_path / "model.isop")
        with pytest.raises(InvalidArgumentError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: tensor {tensor} holds {value} at {cell}"

    def test_truncated_checkpoint_is_typed_error(self, tmp_path):
        path = tmp_path / "model.isop"
        path.write_bytes(b"ISOP" + bytes(5))
        with pytest.raises(InvalidArgumentError, match="truncated") as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_truncated_dump_is_typed_error(self, tmp_path):
        path = tmp_path / "embeddings.isoemb"
        path.write_bytes(b"ISOEMB1" + bytes(2))
        with pytest.raises(InvalidArgumentError, match="truncated") as info:
            EmbeddingDump.read(path)
        assert str(path) in str(info.value)


U32 = st.integers(0, 2**32 - 1)


def loads_or_raises_typed(reader, path, raw):
    path.write_bytes(raw)
    try:
        reader(path)
    except IsoprobeError:
        pass


class TestBinaryReadersFuzz:
    """Every input either loads or raises a typed error: the right magic
    with arbitrary header integers and payload, or arbitrary bytes."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        raw=st.builds(
            lambda version, layers, dim, n, payload: dumps.MAGIC
            + struct.pack("<IIIQ", version, layers, dim, n)
            + payload,
            st.just(dumps.VERSION) | U32,
            U32,
            U32,
            st.integers(0, 2**64 - 1),
            st.binary(max_size=256),
        )
        | st.binary(max_size=64)
    )
    @example(raw=dumps.MAGIC + struct.pack("<IIIQ", dumps.VERSION, 0, 2**32 - 1, 0))
    def test_embedding_dump_read(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz.isoemb"
        loads_or_raises_typed(EmbeddingDump.read, path, raw)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        raw=st.builds(
            lambda version, dims, payload: model.CHECKPOINT_MAGIC
            + struct.pack("<5I", version, *dims)
            + payload,
            st.just(model.CHECKPOINT_VERSION) | U32,
            st.tuples(U32, U32, U32, U32),
            st.binary(max_size=256),
        )
        | st.binary(max_size=64)
    )
    @example(raw=model.CHECKPOINT_MAGIC + struct.pack("<5I", 1, 1, 0, 1, 2**32 - 1))
    def test_load_checkpoint(self, tmp_path_factory, raw):
        # no sidecar sits next to the file, so only the binary is read
        path = tmp_path_factory.getbasetemp() / "fuzz.isop"
        loads_or_raises_typed(load_checkpoint, path, raw)
