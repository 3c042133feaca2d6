"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import copy
import math
import time

import numpy as np
import pytest

from isoprobe.evalharness import SweepConfig, run_sweep, sweep_verdicts
from isoprobe.isotropy import (
    Clustering,
    adjusted_inter_token_cos,
    effective_dimension,
    kmeans,
    silhouette,
)
from isoprobe.kernels import (
    RBF,
    CompositeKernel,
    Periodic,
    RationalQuadratic,
    White,
    gram_matrix,
    kernelsynth_sample,
    sample_gp,
    uniform_grid,
)
from isoprobe.model import grad, train, TrainConfig
from isoprobe.numerics import RngStream
from isoprobe.theory import (
    check_jacobian_bound,
    check_optimal_score_matrix,
    check_shift_attack,
    collect_window_logits,
)
from isoprobe.tokenizer import TokenizerConfig, tokenize_windows

from test_model import random_params


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.mark.slow
def test_criterion_1_shift_attack(smoke_model, seasonality_series):
    params, tok_cfg, train_cfg = smoke_model
    assert params.vocab_size == 64 and params.dim == 16
    windows = tokenize_windows(
        seasonality_series.values,
        tok_cfg,
        train_cfg.context_length,
        train_cfg.horizon,
        stride=32,
    )
    started = time.time()
    logits, targets = collect_window_logits(params, windows)
    check = check_shift_attack(logits, targets, 50, RngStream(2024, 0))
    elapsed = time.time() - started
    got = check["details"]
    passed = (
        check["passed"]
        and got["max_tv_distance"] <= 1e-12
        and got["max_loss_delta"] <= 1e-12
        and got["max_downstream_abs"] == 0.0
        and elapsed < 10.0
    )
    report(1, passed, f"shift attack on trained smoke model: {got}, {elapsed:.1f}s")


def test_criterion_2_jacobian_bound():
    started = time.time()
    check = check_jacobian_bound(200, RngStream(2025, 0))
    elapsed = time.time() - started
    got = check["details"]
    # the additive row-count term matters: the main-text form alone
    # fails on some instances
    passed = check["passed"] and got["main_text_violations"] > 0 and elapsed < 120.0
    report(2, passed, f"FD Jacobian norm within proven bound: {got}, {elapsed:.1f}s")


def test_criterion_3_optimal_score_matrix():
    started = time.time()
    check = check_optimal_score_matrix(100, 20, 300, RngStream(2026, 0))
    elapsed = time.time() - started
    got = check["details"]
    passed = check["passed"] and elapsed < 120.0
    report(3, passed, f"closed form matches and beats descent: {got}, {elapsed:.1f}s")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(2027)
    h = 1e-5
    worst = 0.0
    for _ in range(10):
        vocab = int(rng.integers(4, 17))
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        n_layers = int(rng.integers(1, 3))
        t_ctx = int(rng.integers(1, 5))
        horizon = int(rng.integers(1, 3))
        params = random_params(rng, vocab, dim, rank, n_layers)
        wins = rng.integers(0, vocab, size=(2, t_ctx + horizon))
        grads, _ = grad(params, wins, t_ctx, horizon)
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
                fd[idx] = (
                    grad(plus, wins, t_ctx, horizon)[1]
                    - grad(minus, wins, t_ctx, horizon)[1]
                ) / (2 * h)
            rel = np.linalg.norm(fd - analytic) / (
                np.linalg.norm(fd) + np.linalg.norm(analytic) + 1e-12
            )
            worst = max(worst, rel)
    passed = worst <= 1e-5
    report(
        4,
        passed,
        f"reverse-mode vs central differences on all parameters of 10 "
        f"instances: worst relative error {worst:.2e}",
    )


def test_criterion_5_kernelsynth_statistics():
    white = kernelsynth_sample(
        (White(1.0),),
        max_kernels=1,
        length=10_000,
        stream=RngStream(2028, 0),
        standardize_output=False,
    )
    var = float(white.values.var())
    var_ok = abs(var - 1.0) <= 0.05

    kernel = CompositeKernel.combine(
        "add",
        CompositeKernel.leaf(RBF(0.2)),
        CompositeKernel.combine(
            "multiply",
            CompositeKernel.leaf(Periodic(period=0.3, length_scale=1.0)),
            CompositeKernel.leaf(RationalQuadratic(alpha=2.0, length_scale=0.5)),
        ),
    )
    length = 16
    gram = gram_matrix(kernel, uniform_grid(length))
    n_samples = 5000
    samples = np.empty((n_samples, length))
    for i in range(n_samples):
        samples[i], _ = sample_gp(kernel, length, RngStream(2029, i))
    pairs = [(0, 5), (3, 12), (8, 8)]
    cov_ok = True
    worst_se = 0.0
    for a, b in pairs:
        emp = float(np.mean(samples[:, a] * samples[:, b]))
        se = math.sqrt((gram[a, a] * gram[b, b] + gram[a, b] ** 2) / n_samples)
        deviation = abs(emp - gram[a, b]) / se
        worst_se = max(worst_se, deviation)
        cov_ok &= deviation <= 3.0
    passed = var_ok and cov_ok
    report(
        5,
        passed,
        f"white-noise sample variance {var:.4f} (within 5% of 1), composite "
        f"covariance at 3 probe pairs within 3 MC standard errors "
        f"(worst {worst_se:.2f} SE)",
    )


def test_criterion_6_effective_dimension():
    rng = np.random.default_rng(2030)
    iso = effective_dimension(rng.normal(size=(100_000, 10)), 0.8)
    iso_ok = abs(iso - 8) <= 1
    stds = np.sqrt(np.array([0.21] * 4 + [0.16 / 6] * 6))
    planted = effective_dimension(rng.normal(size=(100_000, 10)) * stds, 0.8)
    planted_ok = planted == 4
    passed = iso_ok and planted_ok
    report(
        6,
        passed,
        f"isotropic Gaussian d(0.8) = {iso} (want 8 +- 1), planted "
        f"4-direction data d(0.8) = {planted} (want exactly 4)",
    )


def test_criterion_7_isotropy_calibration():
    stream = RngStream(2031, 0)
    vectors = stream.gaussians(2000, 64)
    single = Clustering(
        k=1,
        assignment=np.zeros(2000, dtype=np.int64),
        centroids=vectors.mean(axis=0, keepdims=True),
        inertia=0.0,
        iterations=0,
    )
    gauss = adjusted_inter_token_cos(
        vectors, np.arange(2000) % 100, single, 10000, RngStream(2032, 0)
    )
    gauss_ok = abs(gauss.value) < 0.05

    n, dim = 400, 16
    direction = np.zeros(dim)
    direction[0] = 1.0
    signs = np.where(stream.uniforms(n) < 0.9, 1.0, -1.0)
    aniso_vectors = 3.0 * signs[:, None] * direction + 0.05 * stream.gaussians(n, dim)
    aniso_cluster = Clustering(
        k=1,
        assignment=np.zeros(n, dtype=np.int64),
        centroids=aniso_vectors.mean(axis=0, keepdims=True),
        inertia=0.0,
        iterations=0,
    )
    aniso = adjusted_inter_token_cos(
        aniso_vectors, np.arange(n) % 50, aniso_cluster, 10000, RngStream(2033, 0)
    )
    aniso_ok = abs(aniso.value) > 0.5

    rng = np.random.default_rng(2034)
    x = rng.normal(size=(500, 4))
    clustering = kmeans(x, 5, RngStream(2035, 0))
    scores, mean_score = silhouette(x, [clustering])[0]
    assign = clustering.assignment
    worst = 0.0
    for p in range(len(x)):
        same = [q for q in range(len(x)) if assign[q] == assign[p] and q != p]
        if not same:
            oracle = 0.0
        else:
            a = float(np.mean([np.linalg.norm(x[p] - x[q]) for q in same]))
            bs = [
                float(np.mean([np.linalg.norm(x[p] - x[q]) for q in range(len(x)) if assign[q] == c]))
                for c in range(clustering.k)
                if c != assign[p]
            ]
            b = min(bs)
            oracle = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
        worst = max(worst, abs(scores[p] - oracle))
    sil_ok = worst <= 1e-12
    passed = gauss_ok and aniso_ok and sil_ok
    report(
        7,
        passed,
        f"i.i.d. Gaussian |zeta'| = {abs(gauss.value):.4f} (< 0.05), "
        f"shared-offset |zeta'| = {abs(aniso.value):.3f} (> 0.5), silhouette "
        f"vs O(n^2) oracle max diff {worst:.2e} (<= 1e-12)",
    )


@pytest.mark.slow
def test_criterion_8_directional_sweeps(sweep_model, seasonality_series):
    params, tok_cfg = sweep_model
    datasets = {"seasonality_2": seasonality_series.values}
    started = time.time()
    noise_cfg = SweepConfig(
        variable="noise_sigma",
        values=(0.0, 0.05),
        seeds=tuple(range(20)),
        horizon=4,
        windows=64,
        sample_count=20,
        context_length=16,
    )
    noise_verdict = sweep_verdicts(run_sweep(params, tok_cfg, datasets, noise_cfg))
    ctx_cfg = SweepConfig(
        variable="context_length",
        values=(4, 16),
        seeds=tuple(range(20)),
        horizon=4,
        windows=64,
        sample_count=20,
    )
    ctx_verdict = sweep_verdicts(run_sweep(params, tok_cfg, datasets, ctx_cfg))
    elapsed = time.time() - started
    passed = (
        noise_verdict["anisotropy_increase_fraction"] >= 0.6
        and noise_verdict["nmse_increase_fraction"] >= 0.8
        and ctx_verdict["coupling_fraction"] >= 0.6
        and elapsed < 1800.0
    )
    report(
        8,
        passed,
        f"noise sigma 0 -> 0.05 over 20 seeds: |zeta'| up in "
        f"{noise_verdict['anisotropy_increase_fraction']:.0%} (need >= 60%), "
        f"NMSE up in {noise_verdict['nmse_increase_fraction']:.0%} (need >= 80%); "
        f"context {{4, 16}}: larger |zeta'| has larger NMSE in "
        f"{ctx_verdict['coupling_fraction']:.0%} (need >= 60%); {elapsed:.0f}s",
    )


def test_criterion_9_end_to_end_determinism(tmp_path):
    import json

    from test_cli import build_pipeline
    from isoprobe.manifest import RunManifest

    first = build_pipeline(tmp_path / "one")
    second = build_pipeline(tmp_path / "two")
    stages = ("synth", "train", "embed", "analyze", "verify", "eval")
    mismatches = []
    for stage in stages:
        a = RunManifest.read(first[stage])
        b = RunManifest.read(second[stage])
        if a.outputs != b.outputs:
            mismatches.append(stage)
    verify_doc = json.loads((first["verify"] / "verification_report.json").read_text())
    passed = not mismatches and verify_doc["all_passed"]
    report(
        9,
        passed,
        f"pipeline rerun reproduces every output hash across {len(stages)} "
        f"stages (mismatches: {mismatches or 'none'}); verify exits 0: "
        f"{verify_doc['all_passed']}",
    )
