"""Tests for the shift attack, Jacobian bound, optimal score matrix,
small-score approximation, and partition-function isotropy."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from isoprobe.errors import (
    InvalidArgumentError,
    RankDeficiencyError,
)
from isoprobe.model import TrainConfig, attention_weights, mean_nll, softmax, train
from isoprobe.numerics import RngStream, spectral_norm
from isoprobe import theory
from isoprobe.theory import (
    ApproxSweepRow,
    center_rows,
    check_shift_attack,
    check_small_score_approximation,
    collect_window_logits,
    isotropy_partition,
    jacobian_fd,
    attention_jacobian_bound,
    rank_m_descent,
    reconstruction_objective,
    small_score_approximation,
    shift_attack,
    optimal_score_matrix_solution,
)


def shift_attack_oracle(logits, targets, heads, stream):
    """The shift-attack check row by row: per head, two 1-D softmaxes
    and one readout over the active units of each logit row."""
    z = np.asarray(logits, dtype=np.float64)
    drawn = [
        (stream.gaussians(z.shape[1]), stream.gaussians(z.shape[1])) for _ in range(heads)
    ]
    loss_before = mean_nll(z, targets)[0]
    records = []
    for coefficients, thresholds in drawn:
        shifted = z + float(thresholds.min() - z.max() - 1.0)
        max_tv = max_down = 0.0
        for row, srow in zip(z, shifted):
            max_tv = max(max_tv, 0.5 * float(np.sum(np.abs(softmax(row) - softmax(srow)))))
            active = np.flatnonzero(srow > thresholds)
            value = float(np.sum(coefficients[active] * (srow[active] - thresholds[active])))
            max_down = max(max_down, abs(value))
        loss_delta = abs(mean_nll(shifted, targets)[0] - loss_before)
        margin = float((shifted - thresholds[None, :]).max())
        passed = max_tv <= 1e-12 and loss_delta <= 1e-12 and max_down == 0.0 and margin < 0.0
        records.append((max_tv, loss_delta, max_down, passed))
    return {
        "name": "shift_attack",
        "passed": all(r[3] for r in records),
        "details": {
            "heads": heads,
            "positions": int(z.shape[0]),
            "max_tv_distance": max(r[0] for r in records),
            "max_loss_delta": max(r[1] for r in records),
            "max_downstream_abs": max(r[2] for r in records),
        },
    }


def reconstruction_objective_oracle(centered_rows, score_matrix):
    """The objective of one 2-D score matrix, as a float."""
    x = np.asarray(centered_rows, dtype=np.float64)
    corr = x.T @ x
    resid = x - x @ (corr @ score_matrix).T
    return float(np.sum(resid * resid))


def rank_m_descent_oracle(rows, rank, *, starts, iters, stream, stops=None):
    """The descent one restart at a time, each projection one 2-D eigh;
    appends to ``stops``, if given, the step count each restart ran."""

    def project(score_matrix):
        sym = 0.5 * (score_matrix + score_matrix.T)
        vals, vecs = np.linalg.eigh(sym)
        order = np.argsort(-np.abs(vals))[:rank]
        keep = vecs[:, order]
        return (keep * vals[order]) @ keep.T

    x = center_rows(rows)
    d = x.shape[1]
    corr = x.T @ x
    top = float(np.linalg.eigvalsh(corr)[-1])
    step = 0.45 / top**3
    best = math.inf
    for _ in range(starts):
        w = stream.gaussians(d, rank)
        score_matrix = w @ w.T
        score_matrix *= 1.0 / (top * max(float(np.linalg.norm(score_matrix)), 1e-12))
        score_matrix = project(score_matrix)
        prev = reconstruction_objective_oracle(x, score_matrix)
        for ran in range(1, iters + 1):
            grad = -2.0 * corr @ (np.eye(d) - corr @ score_matrix) @ corr
            score_matrix = project(score_matrix - step * grad)
            value = reconstruction_objective_oracle(x, score_matrix)
            if prev - value < 1e-14 * max(prev, 1.0):
                prev = value
                break
            prev = value
        if stops is not None:
            stops.append(ran)
        best = min(best, prev)
    return best


def criterion_3_instances():
    """The (rows, rank, descent stream id) of criterion 3's 100 instances,
    as ``check_optimal_score_matrix`` draws them from RngStream(2026, 0)."""
    stream = RngStream(2026, 0)
    gen = stream.generator
    for index in range(100):
        n = int(gen.integers(6, 25))
        d = int(gen.integers(2, 6))
        m = int(gen.integers(1, d + 1))
        yield stream.gaussians(n, d).reshape(n, d), m, 1000 + index


class TestPartitionFunction:
    """log Z(u) = log sum_i exp(<row_i, u>) at the isotropy probes u."""

    def test_zero_encoding_is_isotropic(self):
        # every logit is 0, so Z = n at every probe
        res = isotropy_partition(np.zeros((64, 3)))
        assert res.value == 1.0 and res.degenerate

    def test_two_token_hand_value(self):
        # probes +/-1: Z(+1) = 1 + 3 and Z(-1) = 1 + 1/3
        res = isotropy_partition(np.array([[0.0], [math.log(3.0)]]))
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_matches_extended_precision_oracle(self):
        mpmath.mp.dps = 50
        rng = np.random.default_rng(0)
        for _ in range(10):
            rows = rng.normal(size=(40, 6)) * 3.0
            value = isotropy_partition(rows).value
            probes = np.linalg.eigh(rows.T @ rows)[1]
            log_zs = [
                mpmath.log(mpmath.fsum(mpmath.e ** mpmath.mpf(float(v)) for v in logits))
                for logits in np.hstack([rows @ probes, -rows @ probes]).T
            ]
            assert value == pytest.approx(float(mpmath.exp(min(log_zs) - max(log_zs))), rel=1e-10)


class TestIsotropyPartition:
    def test_cross_polytope_is_perfectly_isotropic(self):
        rows = np.vstack([np.eye(4), -np.eye(4)])
        res = isotropy_partition(rows)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert not res.degenerate

    def test_single_direction_hand_value(self):
        # All rows equal to v: probes +/- v/|v| give Z = n e^{+/-|v|}, every
        # orthogonal probe gives Z = n, so I = e^{-2 |v|}.
        v = np.array([0.6, -0.8, 0.3])
        rows = np.tile(v, (5, 1))
        res = isotropy_partition(rows)
        assert res.value == pytest.approx(math.exp(-2.0 * np.linalg.norm(v)), rel=1e-10)
        assert res.value < 1.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(30, 5))
        base = isotropy_partition(rows).value
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            rotated = isotropy_partition(rows @ q).value
            assert rotated == pytest.approx(base, abs=1e-10)

    def test_degenerate_all_zero(self):
        res = isotropy_partition(np.zeros((4, 3)))
        assert res.value == 1.0
        assert res.degenerate

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            value = isotropy_partition(rng.normal(size=(12, 4))).value
            assert 0.0 < value <= 1.0


class TestShiftAttack:
    def test_direct_arithmetic(self):
        logits = np.array([[0.0, 1.0]])
        targets = np.array([0])
        tv, loss_after, readout, margin = shift_attack(
            logits, softmax(logits), targets, np.ones(2), np.zeros(2)
        )
        # tau = 0 - 1 - 1 shifts the logits to [-2, -1]
        assert margin == -1.0
        assert loss_after == pytest.approx(mean_nll(logits, targets)[0], abs=1e-15)
        assert readout == 0.0
        assert tv <= 1e-12

    def test_relu_inactivity_guarantee(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 10)) * 5.0
        targets = rng.integers(0, 10, size=6)
        tv, loss_after, readout, margin = shift_attack(
            logits, softmax(logits), targets, rng.normal(size=10), rng.normal(size=10)
        )
        assert margin <= -1.0 + 1e-9
        assert readout == 0.0
        assert loss_after == pytest.approx(mean_nll(logits, targets)[0], abs=1e-12)

    def test_rounded_shift_leaves_a_unit_active(self):
        # tau = -5 - 1e17 - 1 rounds to -1e17 (the spacing there is 16), so
        # the top logit lands on 0 > -5 and the readout is 1 * (0 + 5)
        logits = np.array([[1e17, 0.0]])
        _, _, readout, margin = shift_attack(
            logits, softmax(logits), np.array([0]), np.ones(2), np.full(2, -5.0)
        )
        assert readout == 5.0 and margin == 5.0
        record = check_shift_attack(logits, np.array([0]), 20, RngStream(3, 0))
        assert not record["passed"]
        assert record == shift_attack_oracle(logits, np.array([0]), 20, RngStream(3, 0))

    @pytest.mark.parametrize("seed", range(5))
    def test_check_matches_oracle_on_random_logits(self, seed):
        rng = np.random.default_rng(seed)
        rows, vocab = int(rng.integers(1, 40)), int(rng.integers(2, 65))
        logits = rng.normal(size=(rows, vocab)) * 5.0
        targets = rng.integers(0, vocab, size=rows)
        record = check_shift_attack(logits, targets, 12, RngStream(seed, 1))
        assert record == shift_attack_oracle(logits, targets, 12, RngStream(seed, 1))
        assert record["passed"]

    def test_trained_model_traces_all_pass(self):
        rng = np.random.default_rng(5)
        windows = rng.integers(0, 16, size=(24, 6))
        cfg = TrainConfig(
            learning_rate=0.2, steps=60, batch_size=8, context_length=4, horizon=2, seed=6
        )
        result = train(windows, cfg, dim=8, rank=4, layer_count=1, vocab_size=16)
        logits, targets = collect_window_logits(result.params, windows[:8])
        record = check_shift_attack(logits, targets, 5, RngStream(7, 0))
        assert record["passed"], record
        assert record == shift_attack_oracle(logits, targets, 5, RngStream(7, 0))

    def test_check_keeps_no_shifted_logits_per_head(self):
        # paper shape: 152 positions of 512 logits (623 KB) against 50
        # heads; a record that kept each head's shifted copy peaks at 31 MB
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(152, 512)) * 3.0
        targets = rng.integers(0, 512, size=152)
        tracemalloc.start()
        try:
            record = check_shift_attack(logits, targets, 50, RngStream(9, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record["passed"]
        assert peak < 4 << 20

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            check_shift_attack(np.array([[np.inf, 0.0]]), np.array([0]), 1, RngStream(0, 0))


def complex_attention(x, score):
    scores = x @ score @ x.T
    weights = np.exp(scores)
    weights = weights / weights.sum(axis=1, keepdims=True)
    return weights @ x


def complex_step_jacobian(x, score, h=1e-30):
    n, d = x.shape
    jac = np.empty((n * d, n * d))
    for j in range(n):
        for e in range(d):
            xc = x.astype(complex)
            xc[j, e] += 1j * h
            jac[:, j * d + e] = np.imag(complex_attention(xc, score)).ravel() / h
    return jac


def jacobian_fd_oracle(x, score_matrix, h):
    """The central-difference Jacobian one perturbed entry at a time."""
    n, d = x.shape
    jac = np.empty((n * d, n * d))
    for j in range(n):
        for e in range(d):
            plus = x.copy()
            plus[j, e] += h
            minus = x.copy()
            minus[j, e] -= h
            diff = (
                attention_weights(plus @ score_matrix, plus, False) @ plus
                - attention_weights(minus @ score_matrix, minus, False) @ minus
            )
            jac[:, j * d + e] = diff.ravel() / (2.0 * h)
    return jac


class TestJacobianFd:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_per_entry_oracle(self, n):
        rng = np.random.default_rng(60 + n)
        for d in range(1, 7):
            x = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0)
            x[rng.integers(n)] = -0.0  # a row of negative zeros
            score = rng.normal(size=(d, d))
            h = float(rng.uniform(1e-7, 1e-3))
            want = jacobian_fd_oracle(x, score, h)
            assert jacobian_fd(x, score, h=h).tobytes() == want.tobytes()
            default_h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
            want = jacobian_fd_oracle(x, score, default_h)
            assert jacobian_fd(x, score).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_input_gives_empty_jacobian(self, shape):
        score = np.zeros((shape[1], shape[1]))
        assert jacobian_fd(np.zeros(shape), score).shape == (0, 0)

    def test_fixed_weights_linear_map_kronecker(self):
        # a zero score matrix fixes the weights at 1/n: a linear map
        rng = np.random.default_rng(6)
        n, d = 4, 3
        x0 = rng.normal(size=(n, d))
        jac = jacobian_fd(x0, np.zeros((d, d)), h=1e-6)
        np.testing.assert_allclose(jac, np.kron(np.full((n, n), 1.0 / n), np.eye(d)), atol=1e-6)

    def test_richardson_quadratic_convergence(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3)) * 0.6
        score = rng.normal(size=(3, 3)) * 0.4
        exact = complex_step_jacobian(x, score)
        h = 1e-3
        err_h = np.linalg.norm(jacobian_fd(x, score, h=h) - exact)
        err_h2 = np.linalg.norm(jacobian_fd(x, score, h=h / 2) - exact)
        assert err_h / err_h2 == pytest.approx(4.0, rel=0.3)

    def test_zero_input_uniform_attention(self):
        score = np.ones((3, 3)) * 0.8
        n, d = 5, 3
        jac = jacobian_fd(np.zeros((n, d)), score)
        np.testing.assert_allclose(jac, np.kron(np.full((n, n), 1.0 / n), np.eye(d)), atol=1e-6)


class TestAttentionJacobianBound:
    def test_zero_lambda_uniform_attention(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(5, 3))
        zero = np.zeros((3, 3))
        weights = attention_weights(rows @ zero, rows, causal=False)
        np.testing.assert_allclose(weights, 1.0 / 5, atol=1e-14)
        assert attention_jacobian_bound(rows, zero).margin >= 0.0
        # uniform attention is mean-pooling; its Jacobian norm is exactly 1
        assert spectral_norm(jacobian_fd(rows, zero)) == pytest.approx(1.0, abs=1e-5)

    def test_single_row_identity_map(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(1, 4))
        score = rng.normal(size=(4, 4))
        assert spectral_norm(jacobian_fd(rows, score)) == pytest.approx(1.0, abs=1e-6)
        assert attention_jacobian_bound(rows, score).margin >= -1e-6


class TestOptimalScoreMatrix:
    def test_diagonal_spectrum_hand_case(self):
        # centered rows with correlation exactly diag(4, 1)
        rows = np.array(
            [
                [math.sqrt(2.0), 0.0],
                [-math.sqrt(2.0), 0.0],
                [0.0, math.sqrt(0.5)],
                [0.0, -math.sqrt(0.5)],
            ]
        )
        sol = optimal_score_matrix_solution(rows, 1)
        np.testing.assert_allclose(sol.matrix, [[0.25, 0.0], [0.0, 0.0]], atol=1e-12)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-10)
        assert sol.trailing_eigsum == pytest.approx(1.0, abs=1e-12)

    def test_full_rank_objective_vanishes(self):
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(20, 5))
        sol = optimal_score_matrix_solution(rows, 5)
        assert sol.objective_value <= 1e-10

    def test_descent_never_beats_closed_form(self):
        stream = RngStream(11, 0)
        for trial in range(5):
            rows = stream.gaussians(20, 5).reshape(20, 5)
            sol = optimal_score_matrix_solution(rows, 2)
            best = rank_m_descent(rows, 2, starts=20, iters=300, stream=stream.child(100 + trial))
            assert best >= sol.objective_value - 1e-6

    @pytest.mark.parametrize(
        "n, d, m, starts, iters, staggered",
        [
            (12, 4, 2, 1, 300, False),  # one restart
            (15, 5, 1, 6, 300, True),  # m = 1; the restarts converge at steps 255..282
            (15, 5, 1, 6, 268, True),  # the step cap stops three of those restarts
            (9, 3, 3, 4, 300, False),  # m = d; every restart runs to the cap
        ],
    )
    def test_descent_matches_oracle(self, n, d, m, starts, iters, staggered):
        stream = RngStream(17, 0)
        rows = stream.gaussians(n, d).reshape(n, d)
        stops = []
        want = rank_m_descent_oracle(
            rows, m, starts=starts, iters=iters, stream=stream.child(1), stops=stops
        )
        assert (len(set(stops)) > 1) == staggered  # restarts leave the stack at different steps
        assert rank_m_descent(rows, m, starts=starts, iters=iters, stream=stream.child(1)) == want

    @pytest.mark.slow
    def test_descent_matches_oracle_on_criterion_3_instances(self):
        for rows, m, child in criterion_3_instances():
            want = rank_m_descent_oracle(rows, m, starts=20, iters=300, stream=RngStream(2026, child))
            got = rank_m_descent(rows, m, starts=20, iters=300, stream=RngStream(2026, child))
            assert got == want

    @pytest.mark.parametrize("starts", [1, 20])
    def test_stacked_objective_matches_per_matrix_oracle(self, starts):
        stream = RngStream(19, starts)
        for n, d in [(6, 2), (13, 3), (24, 5)]:
            x = center_rows(stream.gaussians(n, d).reshape(n, d))
            x[0] = -0.0
            stack = stream.gaussians(starts, d, d)
            got = reconstruction_objective(x, stack)
            want = np.array([reconstruction_objective_oracle(x, s) for s in stack])
            assert got.shape == (starts,) and got.tobytes() == want.tobytes()

    def test_closed_form_objective_matches_oracle(self):
        stream = RngStream(20, 0)
        for n, d, m in [(6, 2, 1), (13, 4, 2), (24, 5, 5)]:
            rows = stream.gaussians(n, d).reshape(n, d)
            sol = optimal_score_matrix_solution(rows, m)
            assert type(sol.objective_value) is float
            assert sol.objective_value == reconstruction_objective_oracle(
                center_rows(rows), sol.matrix
            )

    @pytest.mark.parametrize("rank", [0, 4])
    def test_descent_rejects_rank_outside_1_to_d(self, rank):
        rows = np.random.default_rng(18).normal(size=(8, 3))
        with pytest.raises(InvalidArgumentError):
            rank_m_descent(rows, rank, starts=2, iters=5, stream=RngStream(18, 0))

    def test_identity_matches_trailing_sum_on_random_instances(self):
        stream = RngStream(12, 0)
        gen = stream.generator
        for _ in range(25):
            n = int(gen.integers(6, 30))
            d = int(gen.integers(2, 7))
            m = int(gen.integers(1, d + 1))
            rows = stream.gaussians(n, d).reshape(n, d) + gen.normal() * 2.0
            sol = optimal_score_matrix_solution(rows, m)
            tol = 1e-8 * max(sol.trailing_eigsum, 1e-6)
            assert abs(sol.objective_value - sol.trailing_eigsum) <= tol

    def test_rank_deficiency_detected(self):
        rows = np.zeros((6, 3))
        rows[:, 0] = np.arange(6.0)
        with pytest.raises(RankDeficiencyError):
            optimal_score_matrix_solution(rows, 2)

    def test_invalid_rank(self):
        with pytest.raises(InvalidArgumentError):
            optimal_score_matrix_solution(np.random.default_rng(0).normal(size=(5, 3)), 4)


class TestSmallScoreApproximation:
    def test_zero_lambda_exact_uniform(self):
        rng = np.random.default_rng(13)
        rows = rng.normal(size=(6, 4))
        weights = attention_weights(rows @ np.zeros((4, 4)), rows, causal=False)
        np.testing.assert_allclose(weights, 1.0 / 6, atol=1e-15)

    def test_errors_shrink_with_rho(self):
        rng = np.random.default_rng(14)
        embeddings = rng.normal(size=(8, 4))
        direction = rng.normal(size=(4, 4))
        sweep = small_score_approximation(embeddings, direction)
        for smaller, larger in zip(sweep[:-1], sweep[1:]):  # rho ascending
            assert smaller.max_prob_error <= larger.max_prob_error / 2.0
            assert smaller.substitution_error <= larger.substitution_error / 2.0

    def test_check_passes_every_seed_and_fails_without_one_over_n(self, monkeypatch):
        seeds = range(2000)
        assert all(check_small_score_approximation(RngStream(s, 0))["passed"] for s in seeds)

        def dropped_one_over_n(rows, direction):
            # substitute (11^T + X L X^T) X: an order-rho gap
            x = rows - rows.mean(axis=0)
            sweep = []
            for row in small_score_approximation(rows, direction):
                score = direction * (row.rho / np.linalg.norm(direction))
                weights = attention_weights(x @ score, x, causal=False)
                gap = np.linalg.norm(weights @ x - (1.0 + x @ score @ x.T) @ x)
                sweep.append(ApproxSweepRow(row.rho, row.max_prob_error, gap))
            return sweep

        monkeypatch.setattr(theory, "small_score_approximation", dropped_one_over_n)
        assert not any(check_small_score_approximation(RngStream(s, 0))["passed"] for s in seeds)

    def test_centering_reduces_substitution_error(self):
        stream = RngStream(15, 0)
        wins = 0
        for _ in range(50):
            rows = stream.gaussians(10, 4).reshape(10, 4) + 1.5  # deliberately off-center
            direction = stream.gaussians(4, 4).reshape(4, 4)
            centered = small_score_approximation(rows, direction, rhos=(0.1,), center=True)
            raw = small_score_approximation(rows, direction, rhos=(0.1,), center=False)
            wins += centered[0].substitution_error < raw[0].substitution_error
        assert wins >= 45  # >= 90% of cases


def test_solver_internal_assertion_guard():
    # reconstruction_objective is the same quantity the solver asserts on
    rng = np.random.default_rng(16)
    rows = rng.normal(size=(12, 3))
    rows -= rows.mean(axis=0)
    sol = optimal_score_matrix_solution(rows, 2)
    assert reconstruction_objective(rows, sol.matrix) == pytest.approx(
        sol.objective_value, rel=1e-12
    )
