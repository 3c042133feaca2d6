"""Tests for the dense linear algebra and RNG primitives."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from isoprobe.errors import (
    InvalidArgumentError,
    NotPositiveSemidefiniteError,
    NumericFailureError,
)
from isoprobe.kernels import (
    CompositeKernel,
    default_bank,
    sample_kernel_tree,
    table_dataset_specs,
    uniform_grid,
)
from isoprobe import numerics
from isoprobe.numerics import (
    RngStream,
    cholesky_psd,
    pca,
    spectral_norm,
    sym_eigendecompose,
)

from test_kernels import full_gram


def qr_iteration_eigenvalues(a, iterations=5000):
    """Independent oracle: eigenvalues of a symmetric matrix by plain
    (unshifted) QR iteration, a different algorithm from the LAPACK
    eigensolver under test (it uses only QR factorizations)."""
    m = np.array(a, dtype=float)
    for _ in range(iterations):
        q, r = np.linalg.qr(m)
        m = r @ q
        off = np.linalg.norm(m - np.diag(np.diag(m)))
        if off < 1e-12 * max(1.0, np.linalg.norm(m)):
            break
    return np.sort(np.diag(m))[::-1]


class TestSymEigendecompose:
    def test_diagonal(self):
        eig = sym_eigendecompose(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [4.0, 1.0])
        # Eigenvectors are the axes, positive by the sign convention.
        np.testing.assert_allclose(np.abs(eig.eigenvectors), np.eye(2), atol=1e-14)
        assert np.all(eig.eigenvectors[np.argmax(np.abs(eig.eigenvectors), 0), [0, 1]] > 0)

    def test_analytic_2x2(self):
        eig = sym_eigendecompose([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)

    def test_random_8x8_matches_qr_oracle(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(8, 8))
        m = m + m.T
        eig = sym_eigendecompose(m)
        oracle = qr_iteration_eigenvalues(m)
        np.testing.assert_allclose(eig.eigenvalues, oracle, atol=1e-8 * np.linalg.norm(m))

    def test_reconstruction_property(self):
        rng = np.random.default_rng(99)
        for n in (1, 2, 3, 5, 9, 16, 33):
            scale = float(rng.uniform(1e-3, 1e6))
            m = rng.normal(size=(n, n))
            m = scale * (m + m.T) / np.linalg.norm(m + m.T)
            eig = sym_eigendecompose(m)
            err = np.linalg.norm((eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T - m)
            assert err <= 1e-8 * np.linalg.norm(m)

    def test_eigenpair_residuals_and_orthonormality(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(12, 12))
        m = m + m.T
        eig = sym_eigendecompose(m)
        mnorm = np.linalg.norm(m)
        for lam, gamma in zip(eig.eigenvalues, eig.eigenvectors.T):
            assert np.linalg.norm(m @ gamma - lam * gamma) <= 1e-8 * mnorm
        gram = eig.eigenvectors.T @ eig.eigenvectors
        np.testing.assert_allclose(gram, np.eye(12), atol=1e-8)

    def test_descending_order_and_tie_stability(self):
        eig = sym_eigendecompose(np.diag([2.0, 5.0, 2.0]))
        np.testing.assert_allclose(eig.eigenvalues, [5.0, 2.0, 2.0])

    def test_odd_and_paper_sizes_match_eigvalsh(self):
        rng = np.random.default_rng(64)
        for n in (7, 15, 64):
            m = rng.normal(size=(n, n))
            m = m + m.T
            eig = sym_eigendecompose(m)
            want = np.linalg.eigvalsh(m)[::-1]
            np.testing.assert_allclose(eig.eigenvalues, want, atol=1e-12 * np.linalg.norm(m))
            lead = np.argmax(np.abs(eig.eigenvectors), axis=0)
            assert np.all(eig.eigenvectors[lead, np.arange(n)] > 0)

    def test_rank_deficient_covariance(self):
        # rank 8 in dimension 16: an 8-dimensional null space
        rng = np.random.default_rng(16)
        x = rng.normal(size=(200, 8)) @ rng.normal(size=(8, 16))
        cov = np.cov(x.T)
        eig = sym_eigendecompose(cov)
        cnorm = np.linalg.norm(cov)
        want = np.linalg.eigvalsh(cov)[::-1]
        np.testing.assert_allclose(eig.eigenvalues, want, atol=1e-12 * cnorm)
        assert np.linalg.norm((eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T - cov) <= 1e-8 * cnorm
        for lam, gamma in zip(eig.eigenvalues, eig.eigenvectors.T):
            assert np.linalg.norm(cov @ gamma - lam * gamma) <= 1e-8 * cnorm
        gram = eig.eigenvectors.T @ eig.eigenvectors
        np.testing.assert_allclose(gram, np.eye(16), atol=1e-8)

    def test_repeated_eigenvalue_conventions(self):
        # Q diag(3, 1, 1) Q^T: a two-dimensional eigenspace for 1
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m = (q * [3.0, 1.0, 1.0]) @ q.T
        eig = sym_eigendecompose(m)
        vecs = eig.eigenvectors
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0, 1.0], atol=1e-14)
        assert np.all(np.diff(eig.eigenvalues) <= 0.0)
        assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(3)] > 0.0)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-14)
        for lam, gamma in zip(eig.eigenvalues, vecs.T):
            assert np.linalg.norm(m @ gamma - lam * gamma) <= 1e-14
        # the top eigenvector is q's first column up to the sign convention
        assert abs(vecs[:, 0] @ q[:, 0]) == pytest.approx(1.0, abs=1e-14)

    def test_lapack_failure_is_numeric_failure(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(NumericFailureError, match="did not converge"):
            sym_eigendecompose(np.eye(2))

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(InvalidArgumentError):
            sym_eigendecompose(np.ones((2, 3)))
        with pytest.raises(InvalidArgumentError):
            sym_eigendecompose([[1.0, 2.0], [0.5, 1.0]])


class TestExactSymmetry:
    @pytest.mark.parametrize(
        "row, col", [(3, 64), (299, 270), (127, 128), (128, 127), (266, 5)]
    )
    def test_one_flipped_entry_is_caught_anywhere(self, row, col):
        g = np.random.default_rng(80).normal(size=(300, 300))
        a = g + g.T
        assert numerics._require_symmetric(a, "matrix") is a
        flipped = a.copy()
        flipped[row, col] += 1.0
        with pytest.raises(InvalidArgumentError, match="asymmetric"):
            numerics._require_symmetric(flipped, "matrix")
        # within the 1e-10 tolerance: a symmetrized copy comes back
        nudged = a.copy()
        nudged[row, col] += 1e-12 * np.max(np.abs(a))
        out = numerics._require_symmetric(nudged, "matrix")
        assert out.tobytes() == (0.5 * (nudged + nudged.T)).tobytes()
        assert np.array_equal(out, out.T)

    def test_nan_is_not_symmetric(self):
        a = np.eye(300)
        a[131, 131] = np.nan
        assert numerics._require_symmetric(a, "matrix") is not a
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            sym_eigendecompose(a)
        empty = np.zeros((0, 0))
        assert numerics._require_symmetric(empty, "matrix") is empty


def cholesky_oracle(a):
    """Column Cholesky; returns None when a pivot is non-positive.

    The pure-Python factorization that LAPACK's ``potrf`` replaced in
    ``cholesky_psd``, kept unchanged as the reference.  It reads the
    lower triangle, so it takes a full symmetric matrix."""
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    # Diagonal matrices (e.g. white-noise Gram) factor elementwise.
    if np.count_nonzero(a) == np.count_nonzero(np.diag(a)) and np.all(
        a == np.diag(np.diag(a))
    ):
        d = np.diag(a)
        if np.any(d < 0.0):
            return None
        return np.diag(np.sqrt(d))
    lower = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - lower[j, :j] @ lower[j, :j]
        if not (d > 0.0) or not np.isfinite(d):
            return None
        ljj = math.sqrt(d)
        lower[j, j] = ljj
        if j + 1 < n:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / ljj
    return lower


def oracle_jitter(a):
    """The jitter rung at which the column oracle first factors ``a``."""
    mean_diag = float(np.mean(np.diag(a)))
    base = 1e-9 * (mean_diag if mean_diag > 0.0 else 1.0)
    for jit in [0.0] + [base * 10.0**k for k in range(6)]:
        if cholesky_oracle(a + jit * np.eye(len(a)) if jit else a) is not None:
            return jit
    return None


def dense_grams(length=256, trees=20):
    """Full symmetric Gram matrices of the non-diagonal table kernels and
    of the first ``trees`` non-diagonal random KernelSynth trees."""
    table = (CompositeKernel.leaf(spec) for _, spec in table_dataset_specs())
    sampled = (sample_kernel_tree(default_bank(), 5, RngStream(s, 0)) for s in itertools.count())
    dense = (k for k in itertools.chain(table, sampled) if not k.is_diagonal)
    return [full_gram(k, uniform_grid(length)) for k in itertools.islice(dense, 8 + trees)]


def potrf_ladder_oracle(a):
    """The ladder ``cholesky_psd`` ran before its leading-block probe, kept
    unchanged as the reference: one full-matrix ``np.linalg.cholesky``
    per rung, which reads the lower triangle of a full symmetric matrix.
    Returns (lower, jitter), or (None, None) once the ladder is
    exhausted."""

    def attempt(m):
        try:
            return np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return None

    lower = attempt(a)
    if lower is not None:
        return lower, 0.0
    diag = np.diag(a)
    mean_diag = float(np.mean(diag))
    base = 1e-9 * (mean_diag if mean_diag > 0.0 else 1.0)
    jittered = a.copy()
    for jit in [base * 10.0**k for k in range(6)]:
        np.fill_diagonal(jittered, diag + jit)
        lower = attempt(jittered)
        if lower is not None:
            return lower, jit
    return None, None


def dense_table_grams(length):
    return [
        full_gram(k, uniform_grid(length))
        for k in (CompositeKernel.leaf(spec) for _, spec in table_dataset_specs())
        if not k.is_diagonal
    ]


class TestLeadingBlockProbe:
    """``cholesky_psd`` against the full-matrix ladder it replaced: the
    probe may skip attempts, never change a factor or a rung, and the
    upper triangle alone gives the full matrix's factor."""

    @staticmethod
    def assert_matches_ladder(a):
        lower, jitter = potrf_ladder_oracle(a)
        for m in (a, np.triu(a)):
            res = cholesky_psd(m)
            assert res.jitter == jitter
            assert res.lower.shape == lower.shape
            assert res.lower.tobytes() == lower.tobytes()
        return res

    def test_kernel_grams(self):
        for gram in dense_grams():
            self.assert_matches_ladder(gram)

    def test_table_kernels_at_paper_length(self):
        grams = dense_table_grams(1024)
        assert len(grams) == 8
        for gram in grams:
            assert self.assert_matches_ladder(gram).jitter > 0.0

    @pytest.mark.parametrize("n", [64, 65, 129])
    def test_sizes_around_the_probe(self, n):
        x = np.random.default_rng(n).normal(size=(n, n))
        spd = x @ x.T + n * np.eye(n)
        spd = 0.5 * (spd + spd.T)
        assert self.assert_matches_ladder(spd).jitter == 0.0
        for gram in dense_table_grams(n):
            self.assert_matches_ladder(gram)

    def test_leading_block_factors_but_full_matrix_does_not(self, monkeypatch):
        v = np.arange(1.0, 9.0)
        a = np.zeros((72, 72))
        a[:64, :64] = np.eye(64)
        a[64:, 64:] = np.outer(v, v)  # rank one: singular
        orders = []
        potrf = np.linalg.cholesky

        def recording(m):
            orders.append(len(m))
            return potrf(m)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        res = cholesky_psd(a)
        monkeypatch.undo()
        # the identity block passes the probe, so the full call runs and fails
        assert orders[:2] == [64, 72]
        assert res.jitter > 0.0
        self.assert_matches_ladder(a)

    @pytest.mark.parametrize("a", [np.zeros((0, 0)), [[4.0]], [[0.0]], [[1e-300]]])
    def test_empty_and_one_by_one(self, a):
        self.assert_matches_ladder(np.array(a, dtype=np.float64))

    def test_negative_one_by_one_exhausts_both(self):
        assert potrf_ladder_oracle(np.array([[-1.0]])) == (None, None)
        with pytest.raises(NotPositiveSemidefiniteError):
            cholesky_psd([[-1.0]])


class TestInPlaceLadder:
    """The jitter rungs borrow the input's diagonal: the input, a full
    symmetric matrix or the upper triangle ``gram_matrix`` returns, ends
    bit for bit unchanged, and the ladder holds no n x n copy of it."""

    def test_input_unchanged_after_jittered_success(self):
        grams = dense_table_grams(1024)
        assert len(grams) == 8
        for gram in grams:
            for a in (gram, np.triu(gram)):
                before = a.tobytes()
                assert cholesky_psd(a).jitter > 0.0
                assert a.tobytes() == before

    def test_input_unchanged_after_exhausted_ladder(self):
        a = np.diag([1.0, -1.0])
        before = a.tobytes()
        with pytest.raises(NotPositiveSemidefiniteError):
            cholesky_psd(a)
        assert a.tobytes() == before

    @pytest.mark.parametrize("triangle", [False, True], ids=["full", "triangle"])
    @pytest.mark.parametrize("layout", ["read_only", "fortran"])
    def test_other_layouts_match_a_writable_copy(self, layout, triangle):
        gram = dense_table_grams(256)[0]
        if triangle:
            gram = np.triu(gram)
        want = cholesky_psd(gram.copy())
        assert want.jitter > 0.0
        if layout == "read_only":
            a = gram.copy()
            a.flags.writeable = False
        else:
            a = np.asfortranarray(gram)
        res = cholesky_psd(a)
        assert res.jitter == want.jitter
        assert res.lower.tobytes() == want.lower.tobytes()
        assert a.tobytes() == gram.tobytes()

    @pytest.mark.parametrize("triangle", [False, True], ids=["full", "triangle"])
    def test_ladder_allocates_only_the_factor(self, triangle):
        # numpy's LAPACK work buffer is malloc'd outside tracemalloc, so
        # the factor is the only n x n allocation it can see
        gram = dense_table_grams(1024)[0]
        if triangle:
            gram = np.triu(gram)
        tracemalloc.start()
        try:
            assert cholesky_psd(gram).jitter > 0.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * gram.nbytes


class TestCholeskyPsd:
    def test_matches_column_oracle_on_kernel_grams(self):
        grams = dense_grams()
        assert len(grams) == 28
        for gram in grams:
            before = gram.copy()
            jitter = oracle_jitter(gram)
            for a in (gram, np.triu(gram)):  # the column oracle reads the full matrix
                a_before = a.tobytes()
                res = cholesky_psd(a)
                assert a.tobytes() == a_before
                assert res.jitter == jitter
                assert np.array_equal(res.lower, np.tril(res.lower))
                target = gram + res.jitter * np.eye(len(gram))
                err = np.linalg.norm(res.lower @ res.lower.T - target)
                assert err <= 1e-12 * np.linalg.norm(gram)
            sym_eigendecompose(gram)
            assert gram.tobytes() == before.tobytes()

    def test_empty_matrix(self):
        res = cholesky_psd(np.zeros((0, 0)))
        assert res.lower.shape == (0, 0) and res.jitter == 0.0

    def test_entries_below_the_diagonal_are_not_read(self):
        gram = dense_grams(length=32, trees=0)[0]
        want = cholesky_psd(gram)
        junk = np.triu(gram) + np.tril(np.random.default_rng(3).normal(size=gram.shape), -1)
        for a in (junk, np.triu(gram)):
            res = cholesky_psd(a)
            assert res.jitter == want.jitter
            assert res.lower.tobytes() == want.lower.tobytes()

    def test_nearly_symmetric_input_is_symmetrized(self):
        gram = dense_grams(length=32, trees=0)[0]
        a = gram.copy()
        a[1, 0] += 1e-11 * np.max(np.abs(a))  # within the 1e-10 tolerance
        sym = 0.5 * (a + a.T)
        assert not np.array_equal(sym, a)
        eig = sym_eigendecompose(a)
        assert np.array_equal(eig.eigenvalues, sym_eigendecompose(sym).eigenvalues)

    def test_zero_pivot_takes_the_ladder(self):
        # PSD but singular: LAPACK rejects the zero pivot, jitter fixes it
        res = cholesky_psd(np.diag([1.0, 0.0]))
        assert res.jitter == 0.5e-9
        want = np.diag([math.sqrt(1.0 + 0.5e-9), math.sqrt(0.5e-9)])
        np.testing.assert_allclose(res.lower, want, rtol=1e-15)

    def test_identity(self):
        res = cholesky_psd(np.eye(3))
        np.testing.assert_allclose(res.lower, np.eye(3))
        assert res.jitter == 0.0

    def test_hand_checkable_2x2(self):
        res = cholesky_psd([[4.0, 2.0], [2.0, 2.0]])
        np.testing.assert_allclose(res.lower, [[2.0, 0.0], [1.0, 1.0]], atol=1e-15)

    def test_rbf_gram_reconstruction(self):
        t = np.linspace(0.0, 1.0, 64)
        gram = np.exp(-((t[:, None] - t[None, :]) ** 2) / (2 * 0.1**2))
        res = cholesky_psd(gram)
        rec = res.lower @ res.lower.T
        target = gram + res.jitter * np.eye(64)
        assert np.linalg.norm(rec - target) <= 1e-8 * np.linalg.norm(target)

    def test_jitter_reported_for_singular_input(self):
        # Rank-1 PSD matrix needs jitter to factor.
        v = np.array([1.0, 2.0, 3.0])
        res = cholesky_psd(np.outer(v, v))
        assert res.jitter > 0.0

    def test_indefinite_fails_after_policy(self):
        with pytest.raises(NotPositiveSemidefiniteError):
            cholesky_psd(np.diag([1.0, -1.0]))


class TestPca:
    def test_rank_one_line(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=200)
        direction = np.array([1.0, -2.0, 0.5])
        pts = np.outer(t, direction) + 3.0
        res = pca(pts)
        assert res.explained_ratio[0] >= 0.999999

    def test_isotropic_gaussian_eigenvalues(self):
        rng = np.random.default_rng(42)
        res = pca(rng.normal(size=(100_000, 10)))
        np.testing.assert_allclose(res.eigenvalues, 1.0, rtol=0.05)

    def test_four_dominant_directions(self):
        # Mirrors the effective-dimension construction: 4 directions carry
        # 84% of variance, the other 6 share the rest.
        rng = np.random.default_rng(7)
        stds = np.sqrt(np.array([0.21] * 4 + [0.16 / 6] * 6))
        data = rng.normal(size=(100_000, 10)) * stds
        res = pca(data)
        cum = np.cumsum(res.explained_ratio)
        assert int(np.argmax(cum >= 0.8)) + 1 == 4

    def test_ratio_properties(self):
        rng = np.random.default_rng(3)
        res = pca(rng.normal(size=(300, 7)) * np.arange(1, 8))
        r = res.explained_ratio
        assert np.all(r >= 0)
        assert np.all(np.diff(r) <= 1e-15)
        assert abs(r.sum() - 1.0) <= 1e-10

    def test_null_space_ratios_are_exact_zeros(self):
        # rank 8 in dimension 16: the null-space entries are solver
        # rounding noise unless clamped, and would move with row order
        rng = np.random.default_rng(8)
        data = rng.normal(size=(512, 8)) @ rng.normal(size=(8, 16))
        for rows in (data, data[rng.permutation(len(data))]):
            res = pca(rows)
            assert res.explained_ratio[8:].tolist() == [0.0] * 8
            assert res.eigenvalues[8:].tolist() == [0.0] * 8
            assert np.all(res.explained_ratio[:8] > 1e-6)

    def test_needs_two_rows(self):
        with pytest.raises(InvalidArgumentError):
            pca(np.ones((1, 4)))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_signs(self):
        assert spectral_norm(np.diag([3.0, -7.0])) == pytest.approx(7.0, rel=1e-9)

    def test_random_vs_svd_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = rng.normal(size=(6, 6))
            want = np.linalg.svd(a, compute_uv=False)[0]
            assert spectral_norm(a) == pytest.approx(want, rel=1e-6)

    def test_close_top_singular_values_match_svd(self):
        # a relative gap of 1e-6 between the top two singular values
        rng = np.random.default_rng(23)
        u, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        v, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        a = (u[:, :5] * [2.0, 2.0 - 2e-6, 1.0, 0.5, 0.1]) @ v.T
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(spectral_norm(a) - want) <= 1e-12 * want

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 3))) == 0.0

    def test_bounded_by_frobenius_with_rank1_equality(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(5, 4))
            assert spectral_norm(a) <= np.linalg.norm(a) + 1e-12
        u, v = rng.normal(size=5), rng.normal(size=4)
        r1 = np.outer(u, v)
        assert spectral_norm(r1) == pytest.approx(np.linalg.norm(r1), rel=1e-8)


class TestRngStream:
    def test_determinism(self):
        a = RngStream(123, 7).gaussians(100)
        b = RngStream(123, 7).gaussians(100)
        np.testing.assert_array_equal(a, b)

    def test_uniform_choice_frequencies(self):
        stream = RngStream(2024, 0)
        draws = stream.generator.integers(0, 5, size=1_000_000)
        freq = np.bincount(draws, minlength=5) / draws.size
        np.testing.assert_allclose(freq, 0.2, atol=0.005)

    def test_stream_independence(self):
        a = RngStream(1, 0).gaussians(100_000)
        b = RngStream(1, 1).gaussians(100_000)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.01

    def test_uniform_choice_bounds(self):
        stream = RngStream(0, 0)
        assert all(0 <= stream.uniform_choice(3) < 3 for _ in range(100))
        with pytest.raises(InvalidArgumentError):
            stream.uniform_choice(0)
