"""Deterministic dense linear algebra and seeded randomness.

All routines work on 64-bit float numpy arrays and are pure functions of
their inputs, with one exception: ``cholesky_psd`` borrows its input's
diagonal for its jitter rungs and restores it before it returns, so a
matrix must not be shared with another thread during that call (the
worker pool forks processes, so no caller in this package does).  The
eigendecomposition is LAPACK's symmetric solver with pinned order and
sign conventions.  Like the BLAS products that feed it, its bits depend
on the numpy and BLAS build, so the invariant is per machine: the same
config gives the same hashes on one machine, whatever the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    NotPositiveSemidefiniteError,
    NumericFailureError,
)

_MASK64 = (1 << 64) - 1


def as_matrix(m, name="matrix", square=False):
    """Coerce to a finite 2-D float64 array, square if ``square``, raising on bad input."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidArgumentError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    if square and a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"{name} must be square, got {a.shape}")
    return a


def _require_symmetric(a, name):
    if np.array_equal(a, a.T):
        return a  # 0.5 * (a + a.T) would equal it bit for bit
    asym = float(np.max(np.abs(a - a.T)))
    if asym > 1e-10 * float(np.max(np.abs(a))):
        raise InvalidArgumentError(
            f"{name} is asymmetric: max |a - a.T| = {asym:g} "
            f"exceeds 1e-10 relative tolerance"
        )
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum of a symmetric matrix, eigenvalues sorted descending.

    ``eigenvectors`` holds unit-norm eigenvectors as columns, matching
    the eigenvalue order.  Sign convention: the largest-magnitude entry
    of every eigenvector is positive.  Equal eigenvalues keep LAPACK's
    output order (a stable sort); their eigenvectors are an orthonormal
    basis of the shared eigenspace, fixed by the input bits.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigendecompose(m):
    """Full eigendecomposition of a symmetric matrix by LAPACK's ``eigh``.

    Raises InvalidArgumentError for non-square or asymmetric input and
    NumericFailureError if LAPACK reports no convergence.
    """
    a = _require_symmetric(as_matrix(m, square=True), "matrix")
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    if a.size:
        # Sign convention: largest-magnitude entry of each column positive.
        lead = np.argmax(np.abs(vecs), axis=0)
        vecs[:, vecs[lead, np.arange(a.shape[0])] < 0.0] *= -1.0
    return EigenDecomposition(vals, vecs)


@dataclass(frozen=True)
class CholeskyResult:
    lower: np.ndarray
    jitter: float


_PROBE = 64  # order of the leading block factored before the full matrix


def _cholesky_lower(a):
    """LAPACK Cholesky (``potrf``) of the symmetric matrix with ``a``'s
    upper triangle, after the leading-block probe ``cholesky_psd``
    describes; returns None when a pivot is not positive.  Both calls
    take the transposed view, whose lower triangle numpy's Cholesky reads,
    in the column order numpy copies to LAPACK contiguously."""
    try:
        if len(a) > _PROBE:
            np.linalg.cholesky(a[:_PROBE, :_PROBE].T)
        return np.linalg.cholesky(a.T)
    except np.linalg.LinAlgError:
        return None


def cholesky_psd(m):
    """Lower-triangular factor of a (nearly) PSD symmetric matrix.

    Only the upper triangle and diagonal are read; entries below need
    only be finite.  Each attempt is one LAPACK ``potrf`` call of the
    full matrix, preceded on matrices larger than 64 x 64 by a ``potrf``
    probe of the leading 64 x 64 block.  A failed probe fails the
    attempt without the full call, and the factor of an attempt that
    runs is the full call's own.  The probe skips only attempts bound to
    fail: a matrix whose leading principal submatrix is not positive
    definite is not positive definite either (Sylvester's criterion).
    LAPACK may order the probe's operations differently from the full
    call's leading columns, so the tests hold every rung to a probe-free
    ladder on the kernel Gram matrices.  The jitter ladder: no jitter
    first, then 1e-9 * mean(diag) added to the diagonal, growing tenfold
    per retry, six retries.  A zero pivot fails an attempt like a
    negative one, so a singular PSD matrix, diagonal or not, factors
    only with jitter.  Returns a CholeskyResult reporting the jitter
    added.  The rungs rewrite the input's own diagonal and restore it
    before returning or raising, so the input ends bit for bit unchanged
    without an n x n copy; only a read-only input is copied.  Raises
    NotPositiveSemidefiniteError once the ladder is exhausted.
    """
    a = as_matrix(m, square=True)
    lower = _cholesky_lower(a)
    if lower is not None:
        return CholeskyResult(lower, 0.0)
    if not a.flags.writeable:
        a = a.copy()
    diag = a.diagonal().copy()
    mean_diag = float(np.mean(diag))
    base = 1e-9 * (mean_diag if mean_diag > 0.0 else 1.0)
    jitters = [base * 10.0**k for k in range(6)]
    try:
        for jit in jitters:
            np.fill_diagonal(a, diag + jit)
            lower = _cholesky_lower(a)
            if lower is not None:
                return CholeskyResult(lower, jit)
    finally:
        np.fill_diagonal(a, diag)
    raise NotPositiveSemidefiniteError(
        f"matrix is not positive semidefinite within the jitter ladder "
        f"(max jitter tried {jitters[-1]:g})"
    )


@dataclass(frozen=True)
class PCAResult:
    """Principal axes of mean-centered rows.

    ``components`` holds eigenvectors of the sample covariance as
    columns; ``explained_ratio`` sums to 1 for non-degenerate input, and
    its partial sums give the variance fraction captured by the leading
    components.  An eigenvalue at or below ``1e-14 * ||cov||_F`` is
    rounding noise of the null space and reads exactly 0 in
    ``eigenvalues`` and ``explained_ratio``: LAPACK's ``eigh`` is
    backward stable, so its eigenvalues err by a small multiple of
    ``eps * ||cov||_2`` (``eps`` = 2.2e-16), below the clamp and far
    below any variance a report reads.
    """

    components: np.ndarray
    eigenvalues: np.ndarray
    explained_ratio: np.ndarray


def pca(a):
    """PCA of an n-by-D data matrix (rows are observations)."""
    x = as_matrix(a, "data")
    n = x.shape[0]
    if n < 2:
        raise InvalidArgumentError(f"pca needs at least 2 rows, got {n}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    eig = sym_eigendecompose(cov)
    vals = np.where(eig.eigenvalues > 1e-14 * np.linalg.norm(cov), eig.eigenvalues, 0.0)
    total = float(vals.sum())
    ratio = vals / total if total > 0.0 else np.zeros_like(vals)
    return PCAResult(eig.eigenvectors, vals, ratio)


def spectral_norm(m):
    """Largest singular value (the matrix 2-norm), from LAPACK's SVD."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


class RngStream:
    """Counter-based random stream keyed by (seed, stream_id).

    Wraps a Philox 4x64 generator whose 128-bit key is exactly the
    (seed, stream_id) pair, so the same key reproduces the same sequence
    on every platform and worker count.  Gaussians come from numpy's
    ziggurat sampler on that stream.  A stream is single-owner: parallel
    work must use distinct stream ids, never share one instance.
    """

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"

    @property
    def generator(self):
        """The underlying numpy Generator (advances this stream)."""
        return self._gen

    def child(self, stream_id):
        """Fresh stream with the same seed and a different stream id."""
        return RngStream(self.seed, stream_id)

    def gaussians(self, *shape):
        return self._gen.standard_normal(shape if len(shape) > 1 else shape[0])

    def uniform(self):
        return float(self._gen.random())

    def uniforms(self, *shape):
        return self._gen.random(shape if len(shape) > 1 else shape[0])

    def uniform_choice(self, k):
        """Uniform index in [0, k)."""
        if k < 1:
            raise InvalidArgumentError(f"uniform_choice needs k >= 1, got {k}")
        return int(self._gen.integers(0, k))


def ordered_map(fn, tasks, workers=1):
    """Map fn over tasks, preserving order; fork a process pool when workers > 1.

    Each task carries its own seed and stream id, so the pool can change
    only the wall time, never a result.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    # imported here, so a one-worker run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))
