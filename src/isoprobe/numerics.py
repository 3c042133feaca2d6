"""Deterministic dense linear algebra and seeded randomness.

All routines work on 64-bit float numpy arrays and are pure functions of
their inputs, so they are safe to call from multiple threads.  The
eigendecomposition is a round-robin Jacobi iteration implemented here
rather than delegated to LAPACK, which keeps results bit-identical across
platforms and lets us pin the tie-break and sign conventions.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    NotPositiveSemidefiniteError,
    NumericFailureError,
)

_MASK64 = (1 << 64) - 1


def as_matrix(m, name="matrix"):
    """Coerce to a finite 2-D float64 array, raising on bad input."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidArgumentError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return a


def _require_symmetric(a, name):
    if a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"{name} must be square, got {a.shape}")
    amax = float(np.max(np.abs(a))) if a.size else 0.0
    if amax > 0.0:
        asym = float(np.max(np.abs(a - a.T)))
        if asym > 1e-10 * amax:
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
    of every eigenvector is positive.  Equal eigenvalues keep the order of
    their diagonal positions after the round-robin sweeps (a stable sort).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _round_robin_pairs(n):
    """Brent-Luk round-robin ordering: n - 1 rounds (n rounded up to even)
    of disjoint index pairs, as arrays (p, q) with p < q, that pair every
    index with every other once.  Index 0 stays put while the others
    rotate; for odd n, the index drawn against the phantom n sits out."""
    m = n + n % 2
    rounds = []
    for r in range(m - 1):
        order = [0] + [1 + (i + r) % (m - 1) for i in range(m - 1)]
        pairs = sorted(
            (min(i, j), max(i, j)) for i, j in zip(order[: m // 2], order[::-1]) if max(i, j) < n
        )
        rounds.append(np.array(pairs).T)
    return rounds


def sym_eigendecompose(m, *, max_sweeps=60):
    """Full eigendecomposition of a symmetric matrix via Jacobi rotations.

    Each sweep visits every off-diagonal pivot once, in round-robin
    order: a round rotates floor(n/2) disjoint (p, q) planes at once.
    Raises InvalidArgumentError for non-square or asymmetric input and
    NumericFailureError (with the sweep count) if the off-diagonal mass
    has not vanished after ``max_sweeps`` sweeps.
    """
    a = _require_symmetric(as_matrix(m), "matrix")
    n = a.shape[0]
    v = np.eye(n)
    if n <= 1:
        return EigenDecomposition(np.diag(a).copy(), v)

    fro = float(np.linalg.norm(a))
    if fro == 0.0:
        return EigenDecomposition(np.zeros(n), v)
    tol = 1e-14 * fro
    # Pivots below this leave the total off-diagonal mass under tol even
    # if every one of them is skipped.
    small = tol / (n * n)
    rounds = _round_robin_pairs(n)

    converged = False
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= tol:
            converged = True
            break
        for p, q in rounds:
            live = np.abs(a[p, q]) > small
            p, q = p[live], q[live]
            if not p.size:
                continue
            apq, app, aqq = a[p, q], a[p, p], a[q, q]
            tau = (aqq - app) / (2.0 * apq)
            # hypot keeps t = 1/(2 tau) finite for huge tau
            t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            # The planes are disjoint, so rotating all their columns and then
            # all their rows (the columns of a.T) is one orthogonal similarity.
            # The 2x2 blocks then take the exact annihilation formulas, and
            # averaging with the transpose restores the symmetry that
            # rounding broke.
            for x in (a, a.T, v):
                xp, xq = x[:, p], x[:, q]
                x[:, p], x[:, q] = c * xp - s * xq, s * xp + c * xq
            a[p, p] = app - t * apq
            a[q, q] = aqq + t * apq
            a[p, q] = 0.0
            a[q, p] = 0.0
            a = 0.5 * (a + a.T)
    else:
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        converged = off <= tol
    if not converged:
        raise NumericFailureError(
            f"Jacobi eigendecomposition did not converge in {max_sweeps} sweeps "
            f"(off-diagonal norm {off:g})",
            iterations=max_sweeps,
        )

    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = v[:, order]
    # Sign convention: largest-magnitude entry of each column positive.
    lead = np.argmax(np.abs(vecs), axis=0)
    flip = vecs[lead, np.arange(n)] < 0.0
    vecs[:, flip] *= -1.0
    return EigenDecomposition(vals, vecs)


@dataclass(frozen=True)
class JitterPolicy:
    """Diagonal-jitter escalation for nearly-PSD Cholesky inputs.

    The first attempt uses no jitter; each retry scales
    ``initial_relative * mean(diag)`` by another factor of ``growth``.
    """

    initial_relative: float = 1e-9
    growth: float = 10.0
    max_attempts: int = 6


@dataclass(frozen=True)
class CholeskyResult:
    lower: np.ndarray
    jitter: float


def _cholesky_lower(a):
    """Column Cholesky; returns None when a pivot is non-positive."""
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


def cholesky_psd(m, policy=JitterPolicy()):
    """Lower-triangular factor of a (nearly) PSD symmetric matrix.

    Returns a CholeskyResult reporting the jitter actually added to the
    diagonal.  Raises NotPositiveSemidefiniteError after the policy's
    attempts are exhausted.
    """
    a = _require_symmetric(as_matrix(m), "matrix")
    n = a.shape[0]
    mean_diag = float(np.mean(np.diag(a))) if n else 0.0
    base = policy.initial_relative * (mean_diag if mean_diag > 0.0 else 1.0)
    jitters = [0.0] + [base * policy.growth**k for k in range(policy.max_attempts)]
    for jit in jitters:
        lower = _cholesky_lower(a + jit * np.eye(n) if jit else a)
        if lower is not None:
            return CholeskyResult(lower, jit)
    raise NotPositiveSemidefiniteError(
        f"matrix is not positive semidefinite within jitter policy "
        f"(max jitter tried {jitters[-1]:g})"
    )


@dataclass(frozen=True)
class PCAResult:
    """Principal axes of mean-centered rows.

    ``components`` holds eigenvectors of the sample covariance as
    columns; ``explained_ratio`` sums to 1 for non-degenerate input, and
    its partial sums give the variance fraction captured by the leading
    components.  An eigenvalue at or below ``1e-14 * ||cov||_F``, the
    tolerance at which ``sym_eigendecompose`` stops, is rounding noise of
    the null space and reads exactly 0 in ``eigenvalues`` and
    ``explained_ratio``.
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
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))
