"""Tests for attention, the forward pass, gradients, training, and dumps."""

import math

import numpy as np
import pytest

from isoprobe.dumps import EmbeddingDump
from isoprobe.errors import InvalidArgumentError
from isoprobe.kernels import Periodic, kernelsynth_sample
from isoprobe.model import (
    AttentionLayer,
    ModelParams,
    TrainConfig,
    attention_weights,
    dump_embeddings,
    forecast,
    forward,
    grad,
    load_checkpoint,
    loss,
    save_checkpoint,
    self_attention,
    softmax,
    train,
    window_forward,
)
from isoprobe.numerics import RngStream
from isoprobe.tokenizer import TokenizerConfig, fit_scale, tokenize


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
        out.append(tokenize(x[start : start + window], tok_cfg, scale).tokens)
    return np.array(out)


class TestSelfAttention:
    def test_zero_lambda_is_prefix_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 4))
        out = self_attention(x, np.zeros((4, 4)), causal=True)
        for i in range(6):
            np.testing.assert_allclose(out[i], x[: i + 1].mean(axis=0), atol=1e-12)
        out_full = self_attention(x, np.zeros((4, 4)), causal=False)
        np.testing.assert_allclose(out_full, np.tile(x.mean(axis=0), (6, 1)), atol=1e-12)

    def test_single_row_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        lam = np.ones((3, 3))
        np.testing.assert_allclose(self_attention(x, lam, causal=True), x)
        np.testing.assert_allclose(self_attention(x, lam, causal=False), x)

    def test_rows_stochastic_and_match_direct_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 4))
        lam = rng.normal(size=(4, 4)) * 0.7
        for causal in (False, True):
            p = attention_weights(x, lam, causal)
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
            np.testing.assert_allclose(self_attention(x, lam, causal), want, atol=1e-12)

    def test_convex_combination_of_prefix_rows(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 3))
        lam = rng.normal(size=(3, 3))
        p = attention_weights(x, lam, causal=True)
        assert np.all(p >= 0) and np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.triu(p, k=1) == 0.0)  # no weight on future rows

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            self_attention(np.ones((3, 2)), np.ones((3, 3)))


class TestForward:
    def test_zero_embedding_uniform_head(self):
        params = ModelParams(np.zeros((8, 4)), [AttentionLayer(np.zeros((4, 2)), np.zeros((4, 2)))])
        trace = forward(np.array([1, 2, 3]), params)
        np.testing.assert_allclose(trace.probabilities, 1.0 / 8, atol=1e-15)

    def test_single_token_zero_lambda_lookup_products(self):
        rng = np.random.default_rng(3)
        embed = rng.normal(size=(6, 3))
        params = ModelParams(embed.copy(), [AttentionLayer(np.zeros((3, 2)), np.zeros((3, 2)))])
        trace = forward(np.array([4]), params)
        np.testing.assert_allclose(trace.logits, embed @ embed[4], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, 12, 5, 3, 2)
        trace = forward(rng.integers(0, 12, size=9), params)
        assert abs(trace.probabilities.sum() - 1.0) <= 1e-12
        assert np.all(np.isfinite(trace.logits))

    def test_causality(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 10, 4, 2, 2)
        w = rng.integers(0, 10, size=7)
        _, logits_all = window_forward(w, params)
        # each row equals a fresh forward on the prefix
        for t in range(7):
            np.testing.assert_allclose(
                logits_all[t], forward(w[: t + 1], params).logits, atol=1e-12
            )
        # perturbing a later token leaves earlier rows untouched
        w2 = w.copy()
        w2[-1] = (w2[-1] + 1) % 10
        _, logits_all2 = window_forward(w2, params)
        np.testing.assert_allclose(logits_all2[:-1], logits_all[:-1], atol=1e-12)
        # perturbing the first token changes the last row
        w3 = w.copy()
        w3[0] = (w3[0] + 1) % 10
        _, logits_all3 = window_forward(w3, params)
        assert np.max(np.abs(logits_all3[-1] - logits_all[-1])) > 1e-8

    def test_empty_sequence_rejected(self):
        params = random_params(np.random.default_rng(0), 4, 2, 1, 1)
        with pytest.raises(InvalidArgumentError):
            forward(np.array([], dtype=np.int64), params)


class TestLoss:
    def test_uniform_is_log_vocab(self):
        params = ModelParams(np.zeros((512, 4)), [])
        trace = forward(np.array([0]), params)
        assert loss([trace], [7]) == pytest.approx(math.log(512), rel=1e-12)

    def test_certain_prediction_is_zero(self):
        # logit gap large enough that softmax saturates exactly
        embed = np.zeros((4, 1))
        embed[2, 0] = 40.0
        params = ModelParams(embed, [])
        trace = forward(np.array([2]), params)
        assert trace.probabilities[2] == 1.0
        assert loss([trace], [2]) == 0.0

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, 9, 4, 2, 1)
        traces, targets, direct = [], [], []
        for _ in range(20):
            w = rng.integers(0, 9, size=5)
            t = int(rng.integers(0, 9))
            trace = forward(w, params)
            traces.append(trace)
            targets.append(t)
            probs = [math.exp(v) for v in trace.logits]
            direct.append(-math.log(probs[t] / sum(probs)))
        assert loss(traces, targets) == pytest.approx(float(np.mean(direct)), abs=1e-12)

    def test_target_range_checked(self):
        params = random_params(np.random.default_rng(0), 4, 2, 1, 1)
        trace = forward(np.array([1]), params)
        with pytest.raises(InvalidArgumentError):
            loss([trace], [4])


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
                    plus = params.copy()
                    selector(plus)[idx] += h
                    minus = params.copy()
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
            plus = params.copy()
            plus.embed[idx] += h
            minus = params.copy()
            minus.embed[idx] -= h
            fd[idx] = (grad(plus, wins, 2, 2)[1] - grad(minus, wins, 2, 2)[1]) / (2 * h)
        np.testing.assert_allclose(grads.embed, fd, atol=1e-7)


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
            params, np.array([1]), horizon=3, sample_count=10,
            stream=RngStream(0, 0), tok_cfg=tok_cfg, scale=1.0,
        )
        np.testing.assert_array_equal(traj, np.ones((10, 3)))
        np.testing.assert_allclose(point, np.full(3, tok_cfg.bin_centers[1]))

    def test_first_token_distribution_matches_head(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, 8, 4, 2, 1)
        context = np.array([2, 5, 1])
        head = forward(context, params).probabilities
        tok_cfg = TokenizerConfig(vocab_size=8)
        draws = 100_000
        traj, _ = forecast(
            params, context, horizon=1, sample_count=draws,
            stream=RngStream(1, 0), tok_cfg=tok_cfg, scale=1.0,
        )
        counts = np.bincount(traj[:, 0], minlength=8)
        expected = head * draws
        chi2 = float(np.sum((counts - expected) ** 2 / np.maximum(expected, 1e-12)))
        assert chi2 < 18.475  # chi-square 99% critical value, 7 dof

    def test_default_sample_count_sits_on_variance_plateau(self):
        # point-forecast variance decays like 1/S: going 5 -> 20 paths
        # buys much more than 20 -> 80, so 20 is past the knee
        rng = np.random.default_rng(21)
        params = random_params(rng, 12, 6, 3, 1)
        context = rng.integers(0, 12, size=6)
        tok_cfg = TokenizerConfig(vocab_size=12)
        repeats = 40

        def point_variance(sample_count):
            points = [
                forecast(
                    params, context, horizon=2, sample_count=sample_count,
                    stream=RngStream(100 + r, sample_count),
                    tok_cfg=tok_cfg, scale=1.0,
                )[1]
                for r in range(repeats)
            ]
            return float(np.var(np.stack(points), axis=0).mean())

        v5, v20, v80 = point_variance(5), point_variance(20), point_variance(80)
        assert v20 < v5 / 2.0
        assert (v5 - v20) > 2.0 * (v20 - v80)


class TestInvariants:
    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(10)
        params = random_params(rng, 16, 5, 3, 2)
        for _ in range(5):
            trace = forward(rng.integers(0, 16, size=6), params)
            for shift in (-10.0, 3.7, 100.0):
                np.testing.assert_allclose(
                    softmax(trace.logits + shift), trace.probabilities, atol=1e-12
                )

    def test_partition_function_positive(self):
        rng = np.random.default_rng(11)
        params = random_params(rng, 16, 5, 3, 2)
        for _ in range(5):
            trace = forward(rng.integers(0, 16, size=6), params)
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
