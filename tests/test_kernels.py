"""Tests for GP kernel evaluation, composition, and series generation."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprobe.errors import GenerationFailureError, InvalidArgumentError, IsoprobeError
from isoprobe.kernels import (
    RBF,
    CompositeKernel,
    DotProduct,
    Periodic,
    RationalQuadratic,
    TimeSeries,
    White,
    add_noise,
    default_bank,
    gram_matrix,
    kernelsynth_sample,
    load_series,
    sample_gp,
    sample_kernel_tree,
    save_series,
    single_kernel_series,
    table_dataset_specs,
    uniform_grid,
)
from isoprobe.numerics import RngStream, cholesky_psd

CHI2_99_DF4 = 13.2767


class TestKernelEval:
    def test_rbf_zero_distance(self):
        assert RBF(1.0)(0.3, 0.3) == 1.0

    def test_dot_product_closed_form(self):
        assert DotProduct(0.0)(0.5, 0.5) == 0.25
        assert DotProduct(1.0)(0.5, 0.5) == 1.25

    def test_rational_quadratic_large_alpha_limits_to_rbf(self):
        for s, t in [(0.1, 0.9), (0.0, 0.5), (0.25, 0.3)]:
            rq = RationalQuadratic(alpha=1e6, length_scale=0.3)(s, t)
            rbf = RBF(0.3)(s, t)
            assert rq == pytest.approx(rbf, abs=1e-3)

    def test_periodic_closed_form(self):
        got = Periodic(period=0.4, length_scale=0.7)(0.2, 0.5)
        want = math.exp(-2.0 * math.sin(math.pi * 0.3 / 0.4) ** 2 / 0.7**2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_white_is_diagonal_indicator(self):
        assert White(0.7)(0.5, 0.5) == 0.7
        assert White(0.7)(0.5, 0.6) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidArgumentError):
            RBF(length_scale=0.0)
        with pytest.raises(InvalidArgumentError):
            Periodic(period=-1.0)
        with pytest.raises(InvalidArgumentError):
            DotProduct(c=-0.1)


class TestGramMatrix:
    def test_white_gives_identity(self):
        grid = uniform_grid(17)
        np.testing.assert_array_equal(
            gram_matrix(CompositeKernel.leaf(White(1.0)), grid), np.eye(17)
        )

    def test_rbf_narrow_conditioning(self):
        gram = gram_matrix(CompositeKernel.leaf(RBF(0.1)), uniform_grid(64))
        res = cholesky_psd(gram)
        assert res.jitter <= 1e-7

    def test_additive_diagonal(self):
        k = CompositeKernel.combine(
            "add", CompositeKernel.leaf(RBF(1.0)), CompositeKernel.leaf(White(0.5))
        )
        gram = gram_matrix(k, uniform_grid(10))
        np.testing.assert_allclose(np.diag(gram), 1.5)

    def test_grid_validation(self):
        k = CompositeKernel.leaf(RBF(1.0))
        with pytest.raises(InvalidArgumentError):
            gram_matrix(k, [0.0, 0.5, 0.5])
        with pytest.raises(InvalidArgumentError):
            gram_matrix(k, [0.0, 1.5])

    def test_mirror_equals_symmetrized_full_evaluation(self):
        stream = RngStream(12, 0)
        kernels = [CompositeKernel.leaf(spec) for _, spec in table_dataset_specs()]
        kernels += [sample_kernel_tree(default_bank(), 5, stream) for _ in range(20)]
        for length in (2, 3, 127, 128, 129, 256, 1024):
            grid = uniform_grid(length)
            for kernel in kernels:
                full = kernel(grid[:, None], grid[None, :])
                want = 0.5 * (full + full.T)
                assert gram_matrix(kernel, grid).tobytes() == want.tobytes()

    def test_table_datasets_factor_each_dense_gram_once(self, monkeypatch):
        orders = []
        potrf = np.linalg.cholesky

        def recording(m):
            orders.append(len(m))
            return potrf(m)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        for i, (_, spec) in enumerate(table_dataset_specs()):
            single_kernel_series(spec, 1024, RngStream(0, i))
        # each dense kernel fails the rung-0 probe and factors at rung 1:
        # 8 full-size factorizations, where a full-matrix ladder makes 16
        assert orders == [64, 64, 1024] * 8

    def test_composition_preserves_symmetry_and_sampleability(self):
        stream = RngStream(5, 0)
        bank = default_bank()
        grid = uniform_grid(32)
        for _ in range(20):
            tree = sample_kernel_tree(bank, 5, stream)
            gram = gram_matrix(tree, grid)
            np.testing.assert_allclose(gram, gram.T, atol=1e-12)
            cholesky_psd(gram)  # must not raise


class TestCompositeKernel:
    def test_is_diagonal_rules(self):
        white = CompositeKernel.leaf(White(1.0))
        rbf = CompositeKernel.leaf(RBF(1.0))
        assert white.is_diagonal
        assert not rbf.is_diagonal
        assert CompositeKernel.combine("add", white, white).is_diagonal
        assert not CompositeKernel.combine("add", white, rbf).is_diagonal
        assert CompositeKernel.combine("multiply", white, rbf).is_diagonal

    def test_symmetry_of_evaluation(self):
        stream = RngStream(9, 0)
        tree = sample_kernel_tree(default_bank(), 5, stream)
        for s, t in [(0.1, 0.7), (0.0, 1.0), (0.42, 0.13)]:
            assert tree(np.float64(s), np.float64(t)) == pytest.approx(
                tree(np.float64(t), np.float64(s)), rel=1e-14
            )


class TestKernelSynthSample:
    def test_white_noise_moments(self):
        series = kernelsynth_sample(
            (White(1.0),),
            max_kernels=1,
            length=10_000,
            stream=RngStream(11, 0),
            standardize_output=False,
        )
        assert abs(series.values.mean()) <= 0.05
        assert series.values.var() == pytest.approx(1.0, rel=0.05)

    def test_periodic_autocorrelation(self):
        length = 1024
        series = kernelsynth_sample(
            (Periodic(period=0.1, length_scale=1.0),),
            max_kernels=1,
            length=length,
            stream=RngStream(21, 0),
        )
        x = series.values

        def acf(lag):
            return float(np.corrcoef(x[:-lag], x[lag:])[0, 1])

        assert acf(int(0.1 * length)) > acf(int(0.05 * length))

    def test_fixed_seed_byte_identical(self):
        a = kernelsynth_sample(default_bank(), 5, 128, RngStream(7, 3))
        b = kernelsynth_sample(default_bank(), 5, 128, RngStream(7, 3))
        assert a.values.tobytes() == b.values.tobytes()
        assert a.origin == b.origin

    def test_leaf_count_uniform(self):
        def leaf_count(tree):
            return 1 if tree.op is None else leaf_count(tree.left) + leaf_count(tree.right)

        stream = RngStream(13, 0)
        bank = default_bank()
        counts = np.zeros(5)
        draws = 100_000
        for _ in range(draws):
            counts[leaf_count(sample_kernel_tree(bank, 5, stream)) - 1] += 1
        expected = draws / 5.0
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < CHI2_99_DF4

    def test_composite_covariance_matches_gram(self):
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
            samples[i], _ = sample_gp(kernel, length, RngStream(1000, i))
        pairs = [(0, 5), (3, 12), (8, 8)]
        for a, b in pairs:
            emp = float(np.mean(samples[:, a] * samples[:, b]))
            se = math.sqrt((gram[a, a] * gram[b, b] + gram[a, b] ** 2) / n_samples)
            assert abs(emp - gram[a, b]) <= 3.0 * se

    def test_standardize_default(self):
        series = kernelsynth_sample(default_bank(), 5, 256, RngStream(2, 0))
        assert series.values.mean() == pytest.approx(0.0, abs=1e-12)
        assert series.values.std() == pytest.approx(1.0, rel=1e-10)
        assert series.origin["standardized"] is True

    def test_generation_failure_names_the_factorization(self, monkeypatch):
        def boom(_):
            raise RuntimeError("forced")

        monkeypatch.setattr("isoprobe.kernels.cholesky_psd", boom)
        with pytest.raises(GenerationFailureError, match="factorization failed: forced") as err:
            kernelsynth_sample((RBF(1.0),), max_kernels=1, length=8, stream=RngStream(0, 0))
        assert err.value.exit_code == 5

    def test_context_keeps_type_and_message_across_pickling(self):
        # a worker pool pickles the error raised in a worker
        exc = GenerationFailureError("forced")
        exc.add_context("dataset nonlinear_1 (seed 3, stream id 6)")
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is GenerationFailureError and clone.exit_code == 5
        assert str(clone) == "dataset nonlinear_1 (seed 3, stream id 6): forced"


class TestNoiseAndIO:
    def test_add_noise_zero_sigma_copies(self):
        x = np.arange(5.0)
        y = add_noise(x, 0.0, RngStream(0, 0))
        np.testing.assert_array_equal(x, y)
        assert y is not x

    def test_add_noise_scale(self):
        x = np.zeros(200_000)
        y = add_noise(x, 0.05, RngStream(1, 0))
        assert y.std() == pytest.approx(0.05, rel=0.02)

    def test_save_load_roundtrip(self, tmp_path):
        series = kernelsynth_sample(default_bank(), 5, 64, RngStream(4, 2))
        csv_path, sidecar = save_series(series, tmp_path / "ds.csv")
        assert sidecar.exists()
        loaded = load_series(csv_path)
        np.testing.assert_array_equal(loaded.values, series.values)
        assert loaded.origin == series.origin

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        raw=st.binary(max_size=64)
        | st.binary(max_size=32).map(lambda b: b"index,value\n0,1.5\n" + b)
    )
    def test_load_arbitrary_bytes_parses_or_raises_typed(self, tmp_path_factory, raw):
        csv_path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        csv_path.write_bytes(raw)
        try:
            load_series(csv_path)
        except IsoprobeError as exc:
            assert str(csv_path) in str(exc) or "time series" in str(exc)

    def test_table_specs_cover_ten_datasets(self):
        specs = table_dataset_specs()
        assert len(specs) == 10
        names = [n for n, _ in specs]
        assert len(set(names)) == 10

    def test_single_kernel_series_metadata(self):
        series = single_kernel_series(White(0.1), 64, RngStream(8, 0))
        assert series.origin["kernel_tree"] == {"kernel": "white", "noise_level": 0.1}

    def test_time_series_validation(self):
        with pytest.raises(InvalidArgumentError):
            TimeSeries(np.array([1.0]), {})
        with pytest.raises(InvalidArgumentError):
            TimeSeries(np.array([1.0, np.nan]), {})
