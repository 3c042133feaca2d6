"""Tests for NMSE, the naive-forecast comparison, and the sweep machinery."""

import numpy as np
import pytest

from isoprobe.errors import InvalidArgumentError, NumericFailureError, UndefinedMetricError
from isoprobe.evalharness import (
    SWEEP_CSV_HEADER,
    SweepConfig,
    evaluate_point,
    nmse,
    run_sweep,
    sweep_rows_to_csv,
    sweep_verdicts,
)
from isoprobe.isotropy import adjusted_inter_token_cos, effective_dimension, select_cluster_count
from isoprobe.kernels import add_noise
from isoprobe.model import causal_pass, forecast, forward, init_params
from isoprobe.numerics import RngStream
from isoprobe.theory import isotropy_partition
from isoprobe.tokenizer import TokenizerConfig, detokenize, tokenize
from test_tokenizer import fit_scale


def evaluate_point_oracle(
    params,
    tok_cfg,
    series_values,
    *,
    context_length,
    noise_sigma,
    horizon,
    windows,
    sample_count,
    stream,
    window_stream,
    anchor_floor=None,
    pair_budget=10000,
    k_max=10,
):
    """evaluate_point one context at a time: fit_scale, tokenize and a
    forecast per anchor, then a causal pass over the contexts for the
    isotropy matrix.  The reference for the batched point."""
    x = np.asarray(series_values, dtype=np.float64)
    noisy = add_noise(x, noise_sigma, stream)
    floor = context_length if anchor_floor is None else int(anchor_floor)
    n_anchors = x.size - horizon - floor + 1
    anchors = floor + np.sort(
        window_stream.generator.choice(n_anchors, size=min(windows, n_anchors), replace=False)
    )
    preds, truths, token_windows = [], [], []
    for anchor in anchors:
        ctx = noisy[anchor - context_length : anchor]
        scale = fit_scale(ctx)
        toks = tokenize(ctx, tok_cfg, scale)
        _, point = forecast(
            params, forward(toks[None], params), horizon, sample_count,
            stream=stream, tok_cfg=tok_cfg, scale=scale,
        )
        preds.append(point[0])
        truths.append(x[anchor : anchor + horizon])
        token_windows.append(toks)
    error = nmse(np.concatenate(preds), np.concatenate(truths))
    matrix = causal_pass(params, token_windows)[0][-1].reshape(-1, params.dim)
    k_range = range(2, min(k_max, matrix.shape[0] - 1) + 1)
    selection = select_cluster_count(matrix, k_range, stream)
    adjusted = adjusted_inter_token_cos(
        matrix, np.ravel(token_windows), selection.clustering, pair_budget, stream
    )
    d08 = effective_dimension(matrix, 0.8)
    iso = isotropy_partition(matrix)
    return error, adjusted.value, d08, iso.value


class TestBatchedPoint:
    @pytest.mark.parametrize("shape", ["readme_smoke", "paper_shape"])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
    @pytest.mark.parametrize("context_length", [2, 4, 16])
    def test_matches_per_context_oracle(
        self, smoke_model, seasonality_series, shape, noise_sigma, context_length
    ):
        if shape == "readme_smoke":
            params, tok_cfg, _ = smoke_model
        else:  # the paper's V512/D64/m16 model at its initial parameters
            params = init_params(512, 64, 16, 2, RngStream(0, 0))
            tok_cfg = TokenizerConfig(vocab_size=512)
        streams = [(RngStream(9, 1), RngStream(9, 2)) for _ in range(2)]
        got, want = (
            point(
                params,
                tok_cfg,
                seasonality_series.values,
                context_length=context_length,
                noise_sigma=noise_sigma,
                horizon=4,
                windows=32,
                sample_count=20,
                stream=stream,
                window_stream=window_stream,
                anchor_floor=16,
                k_max=4,
            )
            for point, (stream, window_stream) in zip(
                (evaluate_point, evaluate_point_oracle), streams
            )
        )
        assert got == want
        for batched, oracle in zip(*streams):
            assert batched.uniform() == oracle.uniform()

    def test_anchor_floor_below_context_length_rejected(self, smoke_model):
        # the contexts are gathered by index: a start before the series
        # must be an error, not a wrap to its end
        params, tok_cfg, _ = smoke_model
        with pytest.raises(InvalidArgumentError, match="anchor_floor"):
            evaluate_point(
                params, tok_cfg, np.sin(np.arange(64.0)), context_length=16, noise_sigma=0.0,
                horizon=4, windows=8, sample_count=2, stream=RngStream(0, 0),
                window_stream=RngStream(0, 0), anchor_floor=4,
            )

    def test_non_finite_context_names_its_series_index(self, smoke_model):
        params, tok_cfg, _ = smoke_model
        x = np.sin(np.arange(64.0))
        x[10] = np.nan
        with pytest.raises(InvalidArgumentError, match="index 10"):
            evaluate_point(
                params, tok_cfg, x, context_length=16, noise_sigma=0.0, horizon=4,
                windows=48, sample_count=2, stream=RngStream(0, 0),
                window_stream=RngStream(0, 0),
            )


class TestNmse:
    def test_perfect_prediction(self):
        assert nmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_zero_prediction_is_one(self):
        assert nmse(np.zeros(4), [1.0, -2.0, 3.0, 0.5]) == pytest.approx(1.0)

    def test_constant_offset_arithmetic(self):
        truth = np.array([1.0, 2.0, -1.0, 0.5])
        eps = 0.3
        s = float(np.sum(truth**2))
        want = len(truth) * eps**2 / s
        assert nmse(truth + eps, truth) == pytest.approx(want, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        pred, truth = rng.normal(size=10), rng.normal(size=10)
        base = nmse(pred, truth)
        for alpha in (0.1, -3.0, 42.0):
            assert nmse(alpha * pred, alpha * truth) == pytest.approx(base, rel=1e-12)

    def test_all_zero_truth_undefined(self):
        with pytest.raises(UndefinedMetricError):
            nmse([1.0], [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            nmse([1.0, 2.0], [1.0])


class TestNaiveBaseline:
    def test_trained_model_beats_naive_on_seasonality(self, smoke_model, seasonality_series):
        params, tok_cfg, train_cfg = smoke_model
        x = seasonality_series.values
        stream = RngStream(3, 0)
        t_ctx, horizon = train_cfg.context_length, train_cfg.horizon
        err, _, _, _ = evaluate_point(
            params,
            tok_cfg,
            x,
            context_length=t_ctx,
            noise_sigma=0.0,
            horizon=horizon,
            windows=32,
            sample_count=20,
            stream=stream,
            window_stream=stream,  # anchors first, then the forecasts
        )
        picker = RngStream(3, 0)
        n_anchors = x.size - horizon - t_ctx + 1
        anchors = t_ctx + np.sort(
            picker.generator.choice(n_anchors, size=32, replace=False)
        )
        # the naive forecast repeats the last context value
        naive_preds = [np.full(horizon, x[a - 1]) for a in anchors]
        truths = [x[a : a + horizon] for a in anchors]
        naive_err = nmse(np.concatenate(naive_preds), np.concatenate(truths))
        assert err < naive_err

    def test_random_forecast_control(self, seasonality_series):
        # predictions drawn from the series marginal give NMSE near
        # 2 var(x) / E[x^2], independent of context length
        x = seasonality_series.values  # standardized: E[x^2] ~ var ~ 1
        gen = np.random.default_rng(4)
        for _ in range(2):
            preds = x[gen.integers(0, x.size, size=4000)]
            truth = x[gen.integers(0, x.size, size=4000)]
            assert nmse(preds, truth) == pytest.approx(2.0, rel=0.15)


class TestSweeps:
    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            SweepConfig(variable="bogus", values=(1, 2))
        with pytest.raises(InvalidArgumentError):
            SweepConfig(variable="noise_sigma", values=(0.05,))
        with pytest.raises(InvalidArgumentError):
            SweepConfig(variable="context_length", values=(1, 16))
        SweepConfig(variable="noise_sigma", values=(0.0, 0.05))  # sigma 0 fine
        SweepConfig(variable="context_length", values=(4, 16.0))  # an integral float is a length

    @pytest.mark.parametrize(
        "variable, values, message",
        [
            ("noise_sigma", (0.05, 0.05), "sweep value 0.05 is repeated"),
            ("noise_sigma", (0.0, 0.05, 0.05), "sweep value 0.05 is repeated"),
            ("context_length", (4, 16, 4.0), "sweep value 4.0 is repeated"),
            ("context_length", (4, 4.5), "context_length sweep value 4.5 is not an integer"),
        ],
    )
    def test_values_checked_up_front(self, variable, values, message):
        with pytest.raises(InvalidArgumentError, match=message):
            SweepConfig(variable=variable, values=values)

    def test_context_sweep_rows_populated(self, smoke_model, seasonality_series):
        params, tok_cfg, _ = smoke_model
        cfg = SweepConfig(
            variable="context_length",
            values=(8, 16),
            seeds=(0, 1),
            windows=8,
            sample_count=5,
            k_max=4,
        )
        rows = run_sweep(params, tok_cfg, {"seasonality_2": seasonality_series.values}, cfg)
        assert len(rows) == 4  # 2 values x 1 dataset x 2 seeds
        assert {r.value for r in rows} == {8.0, 16.0}
        assert {r.seed for r in rows} == {0, 1}
        for row in rows:
            assert row.nmse >= 0.0
            assert -1.0 <= row.zeta_prime <= 1.0
            assert row.d08 >= 1
            assert 0.0 < row.iso_i <= 1.0

    def test_noise_zero_equals_clean_evaluation(self, smoke_model, seasonality_series):
        params, tok_cfg, _ = smoke_model
        x = seasonality_series.values
        cfg = SweepConfig(
            variable="noise_sigma",
            values=(0.0, 0.05),
            seeds=(0,),
            windows=8,
            sample_count=5,
            context_length=16,
            k_max=4,
        )
        rows = run_sweep(params, tok_cfg, {"seasonality_2": x}, cfg)
        zero_row = next(r for r in rows if r.value == 0.0)
        # the sigma=0 row must be bit-identical to a direct clean evaluation
        # under the same streams
        from isoprobe.evalharness import _row_stream

        stream = _row_stream("noise_sigma", 0.0, "seasonality_2", 0)
        window_stream = _row_stream("noise_sigma", "windows", "seasonality_2", 0)
        err, zp, d08, iso = evaluate_point(
            params,
            tok_cfg,
            x,
            context_length=16,
            noise_sigma=0.0,
            horizon=cfg.horizon,
            windows=8,
            sample_count=5,
            stream=stream,
            window_stream=window_stream,
            pair_budget=cfg.pair_budget,
            k_max=4,
        )
        assert (zero_row.nmse, zero_row.zeta_prime, zero_row.d08, zero_row.iso_i) == (
            err,
            zp,
            d08,
            iso,
        )

    def test_sweep_reproducible_bit_for_bit(self, smoke_model, seasonality_series):
        params, tok_cfg, _ = smoke_model
        cfg = SweepConfig(
            variable="noise_sigma",
            values=(0.0, 0.1),
            seeds=(0, 1),
            windows=6,
            sample_count=4,
            context_length=16,
            k_max=3,
        )
        datasets = {"seasonality_2": seasonality_series.values}
        a = run_sweep(params, tok_cfg, datasets, cfg)
        b = run_sweep(params, tok_cfg, datasets, cfg)
        assert a == b
        assert sweep_rows_to_csv(a) == sweep_rows_to_csv(b)

    def test_sweep_independent_of_worker_count(self, smoke_model, seasonality_series):
        params, tok_cfg, _ = smoke_model
        cfg = SweepConfig(
            variable="noise_sigma",
            values=(0.0, 0.05),
            seeds=(0,),
            windows=6,
            sample_count=4,
            context_length=16,
            k_max=3,
        )
        datasets = {"seasonality_2": seasonality_series.values}
        serial = run_sweep(params, tok_cfg, datasets, cfg, workers=1)
        pooled = run_sweep(params, tok_cfg, datasets, cfg, workers=2)
        assert serial == pooled

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_row_names_variable_value_dataset_and_seed(
        self, smoke_model, seasonality_series, monkeypatch, workers
    ):
        def failing(*args, **kwargs):
            raise NumericFailureError("attention weights are non-finite")

        monkeypatch.setattr("isoprobe.evalharness.adjusted_inter_token_cos", failing)
        params, tok_cfg, _ = smoke_model
        cfg = SweepConfig(
            variable="context_length",
            values=(4, 16),
            seeds=(14,),
            windows=4,
            sample_count=2,
            k_max=3,
        )
        datasets = {"nonlinear_2": seasonality_series.values}
        with pytest.raises(NumericFailureError) as err:
            run_sweep(params, tok_cfg, datasets, cfg, workers=workers)
        assert str(err.value) == (
            "context_length = 4, dataset nonlinear_2, seed 14: "
            "attention weights are non-finite"
        )
        assert err.value.exit_code == 5

    def test_undefined_metric_row_is_skipped_and_listed(
        self, smoke_model, seasonality_series, monkeypatch
    ):
        import isoprobe.evalharness as harness

        real = harness.evaluate_point

        def undefined_at_4(*args, **kwargs):
            if kwargs["context_length"] == 4 and kwargs["stream"].seed == 1:
                raise UndefinedMetricError("every cluster lacks two distinct tokens")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "evaluate_point", undefined_at_4)
        params, tok_cfg, _ = smoke_model
        cfg = SweepConfig(
            variable="context_length", values=(4, 16), seeds=(0, 1), windows=4,
            sample_count=2, k_max=3,
        )
        datasets = {"nonlinear_2": seasonality_series.values}
        rows = run_sweep(params, tok_cfg, datasets, cfg)
        assert [(r.value, r.seed) for r in rows] == [(4.0, 0), (16.0, 0), (16.0, 1)]
        assert rows.skipped == [{
            "value": 4.0, "dataset": "nonlinear_2", "seed": 1,
            "message": "every cluster lacks two distinct tokens",
        }]
        # the incomplete (dataset, seed) pair is left out of the verdicts
        assert sweep_verdicts(rows)["pairs"] == 1

    def test_csv_header_and_shape(self, smoke_model, seasonality_series):
        params, tok_cfg, _ = smoke_model
        cfg = SweepConfig(
            variable="noise_sigma",
            values=(0.0, 0.05),
            seeds=(0,),
            windows=6,
            sample_count=4,
            context_length=16,
            k_max=3,
        )
        rows = run_sweep(params, tok_cfg, {"seasonality_2": seasonality_series.values}, cfg)
        text = sweep_rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + len(rows)
        parsed = lines[1].split(",")
        assert parsed[0] == "noise_sigma"
        float(parsed[4])  # nmse parses back

    def test_verdict_structure(self):
        from isoprobe.evalharness import SweepRow

        rows = []
        for seed in range(10):
            rows.append(SweepRow("noise_sigma", 0.0, "d", seed, 0.1, 0.01, 3, 0.5))
            rows.append(
                SweepRow(
                    "noise_sigma",
                    0.05,
                    "d",
                    seed,
                    0.2 if seed < 9 else 0.05,
                    0.05 if seed < 7 else 0.001,
                    3,
                    0.5,
                )
            )
        verdict = sweep_verdicts(rows)
        assert verdict["pairs"] == 10
        assert verdict["anisotropy_increase_fraction"] == 0.7
        assert verdict["nmse_increase_fraction"] == 0.9
        assert verdict["anisotropy_increase_pass"]
        assert verdict["nmse_increase_pass"]

    def test_noise_never_beats_quantization_floor(self, seasonality_series):
        # pure tokenize/detokenize roundtrip error never shrinks when the
        # input is noisier
        x = seasonality_series.values[:512]
        tok_cfg = TokenizerConfig(vocab_size=128)
        errs = []
        for sigma in (0.0, 0.05, 0.1):
            noisy = x + sigma * RngStream(5, 0).gaussians(x.size)
            scale = fit_scale(noisy)
            back = detokenize(tokenize(noisy, tok_cfg, scale), scale, tok_cfg)
            errs.append(nmse(back, x))
        assert errs[0] <= errs[1] <= errs[2]
