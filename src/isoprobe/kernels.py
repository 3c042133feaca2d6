"""Synthetic time series from Gaussian-process priors with composed kernels.

A series is drawn by picking 1..J kernels from a bank, folding them
left-to-right with random add/multiply operators, and sampling the zero-mean
GP prior on a uniform grid over [0, 1].  Kernel parameters use the standard
GP closed forms; periods are expressed as fractions of the grid span.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GenerationFailureError, InvalidArgumentError
from .manifest import read_json
from .numerics import cholesky_psd

_GRAM_BLOCK = 128  # rows of the upper triangle evaluated per kernel call


def _require_positive(value, name):
    if not (math.isfinite(value) and value > 0):
        raise InvalidArgumentError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class DotProduct:
    """k(s, t) = c + s*t (linear trends)."""

    c: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c >= 0):
            raise InvalidArgumentError(f"DotProduct c must be >= 0, got {self.c}")

    def __call__(self, s, t):
        return self.c + s * t


@dataclass(frozen=True)
class RBF:
    """k(s, t) = exp(-(s-t)^2 / (2 l^2)) (smooth non-linear)."""

    length_scale: float = 1.0

    def __post_init__(self):
        _require_positive(self.length_scale, "RBF length_scale")

    def __call__(self, s, t):
        d = s - t
        return np.exp(-(d * d) / (2.0 * self.length_scale**2))


@dataclass(frozen=True)
class Periodic:
    """k(s, t) = exp(-2 sin^2(pi |s-t| / p) / l^2) (seasonality)."""

    period: float
    length_scale: float = 1.0

    def __post_init__(self):
        _require_positive(self.period, "Periodic period")
        _require_positive(self.length_scale, "Periodic length_scale")

    def __call__(self, s, t):
        arg = np.sin(np.pi * np.abs(s - t) / self.period)
        return np.exp(-2.0 * arg * arg / self.length_scale**2)


@dataclass(frozen=True)
class RationalQuadratic:
    """k(s, t) = (1 + (s-t)^2 / (2 a l^2))^(-a) (multi-scale trends)."""

    alpha: float = 1.0
    length_scale: float = 1.0

    def __post_init__(self):
        _require_positive(self.alpha, "RationalQuadratic alpha")
        _require_positive(self.length_scale, "RationalQuadratic length_scale")

    def __call__(self, s, t):
        d = s - t
        return (1.0 + (d * d) / (2.0 * self.alpha * self.length_scale**2)) ** (
            -self.alpha
        )


@dataclass(frozen=True)
class White:
    """k(s, t) = noise_level * [s == t] (i.i.d. Gaussian noise)."""

    noise_level: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.noise_level) and self.noise_level >= 0):
            raise InvalidArgumentError(
                f"White noise_level must be >= 0, got {self.noise_level}"
            )

    def __call__(self, s, t):
        return self.noise_level * np.asarray(s == t, dtype=np.float64)


KERNEL_NAMES = {
    DotProduct: "dot_product",
    RBF: "rbf",
    Periodic: "periodic",
    RationalQuadratic: "rational_quadratic",
    White: "white",
}


@dataclass(frozen=True)
class CompositeKernel:
    """Binary expression tree over kernel leaves with add/multiply nodes."""

    op: str | None = None  # None marks a leaf
    spec: object | None = None
    left: "CompositeKernel | None" = None
    right: "CompositeKernel | None" = None

    @classmethod
    def leaf(cls, spec):
        return cls(op=None, spec=spec)

    @classmethod
    def combine(cls, op, left, right):
        if op not in ("add", "multiply"):
            raise InvalidArgumentError(f"unknown kernel operator {op!r}")
        return cls(op=op, left=left, right=right)

    def __call__(self, s, t):
        if self.op is None:
            return self.spec(s, t)
        lhs, rhs = self.left(s, t), self.right(s, t)
        return lhs + rhs if self.op == "add" else lhs * rhs

    @property
    def is_diagonal(self):
        """True when k(s, t) = 0 for every s != t, so the Gram matrix is
        diagonal and sampling never needs a dense factorization."""
        if self.op is None:
            return isinstance(self.spec, White)
        if self.op == "add":
            return self.left.is_diagonal and self.right.is_diagonal
        return self.left.is_diagonal or self.right.is_diagonal

    def to_dict(self):
        if self.op is None:
            d = {"kernel": KERNEL_NAMES[type(self.spec)]}
            d.update(vars(self.spec))
            return d
        return {"op": self.op, "left": self.left.to_dict(), "right": self.right.to_dict()}


@dataclass(frozen=True)
class TimeSeries:
    """A generated series plus the metadata needed to regenerate it."""

    values: np.ndarray
    origin: dict

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 2:
            raise InvalidArgumentError("time series needs >= 2 values")
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("time series contains non-finite values")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size


def uniform_grid(length):
    return np.linspace(0.0, 1.0, length)


def gram_matrix(kernel, grid):
    """Covariance matrix of a (composite) kernel on a grid in [0, 1], as
    its upper triangle and diagonal with 0 below: the part ``cholesky_psd``
    reads, so nothing is mirrored.  Blocks of 128 rows are evaluated from
    the diagonal rightward, their entries below it reset to 0.  Every
    kernel in the bank is symmetric in IEEE arithmetic
    (``s - t == -(t - s)``, ``|s - t| == |t - s|``, sums and products
    commute), so the triangle is that of the full evaluation, and of its
    symmetrization, bit for bit.  A matrix too large to allocate raises
    GenerationFailureError."""
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim != 1 or g.size < 2:
        raise InvalidArgumentError("grid must be 1-D with >= 2 points")
    if g[0] < 0.0 or g[-1] > 1.0 or np.any(np.diff(g) <= 0.0):
        raise InvalidArgumentError("grid must be strictly increasing within [0, 1]")
    try:
        gram = np.zeros((g.size, g.size))
    except MemoryError:
        raise GenerationFailureError(
            f"cannot allocate the Gram matrix of length {g.size}: {8 * g.size**2} bytes"
        ) from None
    for i in range(0, g.size, _GRAM_BLOCK):
        rows = gram[i : i + _GRAM_BLOCK, i:]
        rows[...] = kernel(g[i : i + _GRAM_BLOCK, None], g[None, i:])
        rows[np.tril_indices(len(rows), -1)] = 0.0
    return gram


def sample_kernel_tree(bank, max_kernels, stream):
    """Draw a composite kernel: j ~ U{1..J} leaves from the bank, folded
    left-to-right with uniformly random add/multiply operators."""
    if not bank:
        raise InvalidArgumentError("kernel bank is empty")
    if max_kernels < 1:
        raise InvalidArgumentError(f"max_kernels must be >= 1, got {max_kernels}")
    j = 1 + stream.uniform_choice(max_kernels)
    tree = CompositeKernel.leaf(bank[stream.uniform_choice(len(bank))])
    for _ in range(j - 1):
        op = ("add", "multiply")[stream.uniform_choice(2)]
        nxt = CompositeKernel.leaf(bank[stream.uniform_choice(len(bank))])
        tree = CompositeKernel.combine(op, tree, nxt)
    return tree


def sample_gp(kernel, length, stream):
    """One zero-mean GP sample of the kernel on the uniform grid.

    Returns (values, jitter_used).  Diagonal kernels skip the dense
    factorization; both paths consume the stream identically.  A dense
    kernel's Gram matrix is the full evaluation's upper triangle, bit for
    bit (see ``gram_matrix``), which ``cholesky_psd`` reads alone, after a
    leading-block probe that only skips jitter rungs bound to fail: the
    factor and jitter are those of the full matrix's ladder.
    """
    grid = uniform_grid(length)
    z = stream.gaussians(length)
    if kernel.is_diagonal:
        var = np.asarray(kernel(grid, grid), dtype=np.float64)
        return np.sqrt(np.maximum(var, 0.0)) * z, 0.0
    gram = gram_matrix(kernel, grid)
    try:
        chol = cholesky_psd(gram)
    except Exception as exc:
        raise GenerationFailureError(f"GP covariance factorization failed: {exc}") from exc
    return chol.lower @ z, chol.jitter


def standardize(values):
    """Zero-mean, unit-variance rescaling (mean-only when degenerate)."""
    centered = values - values.mean()
    std = float(centered.std())
    return centered / std if std > 1e-12 else centered


def kernelsynth_sample(bank, max_kernels, length, stream, *, standardize_output=True):
    """Generate one synthetic series via random kernel composition.

    Stream consumption order is frozen: kernel count, leaf picks and
    operators, then the Gaussian vector; a given (seed, stream_id)
    therefore reproduces the series byte-for-byte.
    """
    if length < 2:
        raise InvalidArgumentError(f"length must be >= 2, got {length}")
    tree = sample_kernel_tree(bank, max_kernels, stream)
    return _gp_series(tree, length, stream, standardize_output, max_kernels)


def single_kernel_series(spec, length, stream, *, standardize_output=True):
    """GP sample of one fixed kernel (the named-dataset generation path)."""
    return _gp_series(CompositeKernel.leaf(spec), length, stream, standardize_output, 1)


def _gp_series(tree, length, stream, standardize_output, max_kernels):
    """One GP sample of the kernel tree, with the origin its sidecar records."""
    raw, jitter = sample_gp(tree, length, stream)
    origin = {
        "kernel_tree": tree.to_dict(),
        "seed": stream.seed,
        "stream_id": stream.stream_id,
        "max_kernels": max_kernels,
        "length": length,
        "standardized": standardize_output,
        "jitter": jitter,
    }
    return TimeSeries(standardize(raw) if standardize_output else raw, origin)


def add_noise(values, sigma, stream):
    """Additive i.i.d. Gaussian observation noise (sigma may be 0)."""
    if sigma < 0:
        raise InvalidArgumentError(f"noise sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return np.array(values, dtype=np.float64, copy=True)
    return np.asarray(values, dtype=np.float64) + sigma * stream.gaussians(len(values))


def default_bank():
    """The ten-kernel bank behind the named synthetic datasets."""
    return tuple(spec for _, spec in table_dataset_specs())


def table_dataset_specs():
    """(name, kernel) pairs for the ten standard synthetic datasets.

    Two datasets per pattern family: linear, seasonality, trend,
    non-linear, and stochastic.  Periods are fractions of the grid span:
    the week-scale seasonality assumes 30-minute sampling (half a week =
    168 steps of the 1024-step series) and the hour-scale one 1-minute
    sampling (a quarter hour = 15 steps), so the fast pattern repeats
    within a 16-step forecasting context.
    """
    return [
        ("linear_1", DotProduct(c=0.0)),
        ("linear_2", DotProduct(c=1.0)),
        ("seasonality_1", Periodic(period=168.0 / 1024.0, length_scale=1.0)),
        ("seasonality_2", Periodic(period=15.0 / 1024.0, length_scale=1.0)),
        ("trend_1", RationalQuadratic(alpha=1.0, length_scale=1.0)),
        ("trend_2", RationalQuadratic(alpha=10.0, length_scale=1.0)),
        ("nonlinear_1", RBF(length_scale=0.1)),
        ("nonlinear_2", RBF(length_scale=1.0)),
        ("stochastic_1", White(noise_level=0.1)),
        ("stochastic_2", White(noise_level=1.0)),
    ]


def save_series(series, csv_path):
    """Write `index,value` CSV plus a JSON sidecar with the origin."""
    path = Path(csv_path)
    lines = ["index,value"]
    lines.extend(f"{i},{v!r}" for i, v in enumerate(series.values.tolist()))
    path.write_text("\n".join(lines) + "\n")
    sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps(series.origin, indent=2, sort_keys=True) + "\n")
    return path, sidecar


def load_series(csv_path):
    path = Path(csv_path)
    try:
        rows = path.read_text().strip().splitlines()
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path} is not a dataset CSV ({exc})") from None
    if not rows or rows[0] != "index,value":
        raise InvalidArgumentError(f"{path} is not a dataset CSV (bad header)")
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        try:  # exactly two fields, the first the row's own position
            index, value = row.split(",")
            if int(index) != lineno - 2:
                raise ValueError
            values.append(float(value))
        except ValueError:
            raise InvalidArgumentError(
                f"{path}:{lineno}: expected 'index,value', got {row!r}"
            ) from None
        if not math.isfinite(values[-1]):
            raise InvalidArgumentError(f"{path}:{lineno}: value is not finite, got {row!r}")
    sidecar = path.with_suffix(".json")
    origin = read_json(sidecar) if sidecar.exists() else {}
    return TimeSeries(np.array(values), origin)
