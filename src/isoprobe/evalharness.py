"""Forecast evaluation and the qualitative sweeps.

NMSE scores point forecasts; the two sweeps rerun evaluation across
input context lengths and input noise levels, joining forecast error
with the isotropy diagnostics of the final layer's contextual
embeddings.  Every row is a pure function of (model, dataset, sweep
value, seed), so tables reproduce bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, IsoprobeError, UndefinedMetricError
from .isotropy import (
    adjusted_inter_token_cos,
    effective_dimension,
    select_cluster_count,
)
from .kernels import add_noise
from .model import forecast, forward
from .numerics import RngStream, ordered_map
from .theory import isotropy_partition
from .tokenizer import _scaled_windows

SWEEP_CSV_HEADER = "sweep_var,value,dataset,seed,nmse,zeta_prime,d08,iso_I"


def nmse(pred, truth):
    """Normalized mean squared error: sum((p - t)^2) / sum(t^2)."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.size == 0:
        raise InvalidArgumentError("pred and truth must be equal-length, non-empty")
    denom = float(np.sum(t * t))
    if denom == 0.0:
        raise UndefinedMetricError("NMSE undefined for all-zero truth")
    return float(np.sum((p - t) ** 2)) / denom


@dataclass(frozen=True)
class SweepRow:
    variable: str
    value: float
    dataset: str
    seed: int
    nmse: float
    zeta_prime: float
    d08: int
    iso_i: float

    def __post_init__(self):
        if self.nmse < 0:
            raise InvalidArgumentError("NMSE cannot be negative")


@dataclass
class SweepConfig:
    """One qualitative sweep: a variable, its values, datasets, seeds."""

    variable: str  # "context_length" or "noise_sigma"
    values: tuple
    seeds: tuple = tuple(range(20))
    horizon: int = 4
    windows: int = 32
    sample_count: int = 20
    context_length: int = 16  # fixed context for noise sweeps
    k_max: int = 10

    def __post_init__(self):
        if self.variable not in ("context_length", "noise_sigma"):
            raise InvalidArgumentError(f"unknown sweep variable {self.variable!r}")
        if len(self.values) < 2:
            raise InvalidArgumentError("a sweep needs at least 2 values")
        low = 2 if self.variable == "context_length" else 0
        if any(v < low for v in self.values):
            raise InvalidArgumentError(f"sweep values must be >= {low}")
        for i, v in enumerate(self.values):
            if v in self.values[:i]:
                raise InvalidArgumentError(f"sweep value {v} is repeated")
            if self.variable == "context_length" and v != int(v):
                raise InvalidArgumentError(f"context_length sweep value {v} is not an integer")


def _row_stream(variable, value, dataset, seed):
    """Stream keyed by the row's identity, not its enumeration order."""
    tag = f"{variable}|{value!r}|{dataset}".encode()
    stream_id = int.from_bytes(hashlib.sha256(tag).digest()[:8], "little")
    return RngStream(seed, stream_id)


def evaluate_point(
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
    k_max=10,
):
    """Forecast error plus isotropy metrics for one sweep point.

    Noise (if any) corrupts the evaluation series once, before windows
    are cut and tokenized; forecasts are always scored against the clean
    series.  Evaluation windows are anchored at the start of the
    forecast region and drawn from ``window_stream``, so paired sweep
    values forecast the same targets (common random numbers);
    ``anchor_floor`` reserves room for the largest context length in
    the sweep.

    The contexts are one (C, n) batch: one array pass scales and bins
    them, and one causal pass over them (`forward`) gives both the
    decoder's starting rows and head logits and the isotropy matrix,
    the final attention layer's rows, one per context position, with
    the position's token id.  All C * sample_count paths then decode as
    one batch.  Every batched product is a stacked matmul whose slices
    have the shapes of one context's own products, so the point equals
    C forecasts run one after another, bit for bit.
    """
    if context_length < 2:
        raise InvalidArgumentError(f"context_length must be >= 2, got {context_length}")
    x = np.asarray(series_values, dtype=np.float64)
    noisy = add_noise(x, noise_sigma, stream)
    floor = context_length if anchor_floor is None else int(anchor_floor)
    if floor < context_length:
        raise InvalidArgumentError(f"anchor_floor {floor} is below context_length {context_length}")
    n_anchors = x.size - horizon - floor + 1
    if n_anchors < 1:
        raise InvalidArgumentError(
            f"series of length {x.size} too short for context {floor} "
            f"+ horizon {horizon}"
        )
    n_windows = min(windows, n_anchors)
    anchors = floor + np.sort(
        window_stream.generator.choice(n_anchors, size=n_windows, replace=False)
    )
    starts = anchors - context_length
    contexts = noisy[starts[:, None] + np.arange(context_length)]
    tokens, scales = _scaled_windows(contexts, starts, tok_cfg, context_length)
    trace = forward(tokens, params)
    _, points = forecast(
        params, trace, horizon, sample_count, stream=stream, tok_cfg=tok_cfg, scale=scales
    )
    error = nmse(points.ravel(), x[anchors[:, None] + np.arange(horizon)].ravel())
    matrix = trace.activations[-1].reshape(-1, params.dim)
    k_range = range(2, min(k_max, matrix.shape[0] - 1) + 1)
    selection = select_cluster_count(matrix, k_range, stream)
    adjusted = adjusted_inter_token_cos(matrix, tokens.ravel(), selection.clustering)
    d08 = effective_dimension(matrix, 0.8)
    iso = isotropy_partition(matrix)
    return error, adjusted.value, d08, iso.value


def _sweep_row_task(task):
    """One sweep row; top-level so a process pool can run it.

    A context-length row evaluates clean inputs, with anchors that leave
    room for the sweep's longest context; a noise row evaluates a noisy
    copy of the dataset (one noise draw per row, applied to the whole
    series) at the config's fixed context length.  Targets stay clean.
    A point whose metric is undefined gives its skip record (value,
    dataset, seed and message) in place of a row; any other
    IsoprobeError it raises names the row's variable, value, dataset and
    seed."""
    params, tok_cfg, series, cfg, value, name, seed = task
    if cfg.variable == "context_length":
        context_length, noise_sigma, floor = int(value), 0.0, int(max(cfg.values))
    else:
        context_length, noise_sigma, floor = cfg.context_length, float(value), None
    stream = _row_stream(cfg.variable, value, name, seed)
    # window starts are shared across the sweep values of a
    # (dataset, seed) pair for a paired comparison
    window_stream = _row_stream(cfg.variable, "windows", name, seed)
    try:
        error, zeta_prime, d08, iso_i = evaluate_point(
            params,
            tok_cfg,
            series,
            context_length=context_length,
            noise_sigma=noise_sigma,
            horizon=cfg.horizon,
            windows=cfg.windows,
            sample_count=cfg.sample_count,
            stream=stream,
            window_stream=window_stream,
            anchor_floor=floor,
            k_max=cfg.k_max,
        )
    except UndefinedMetricError as exc:
        return {"value": float(value), "dataset": name, "seed": int(seed), "message": str(exc)}
    except IsoprobeError as exc:
        exc.add_context(f"{cfg.variable} = {value}, dataset {name}, seed {seed}")
        raise
    return SweepRow(
        variable=cfg.variable,
        value=float(value),
        dataset=name,
        seed=int(seed),
        nmse=error,
        zeta_prime=zeta_prime,
        d08=d08,
        iso_i=iso_i,
    )


class SweepRows(list):
    """A sweep's rows, plus ``skipped``: the skip records of the points
    left out because a metric is undefined on them."""

    skipped: list


def run_sweep(params, tok_cfg, datasets, cfg, workers=1):
    """Evaluate every (value, dataset, seed) of a sweep, in that order.

    A skipped point leaves its (dataset, seed) pair incomplete, and
    verdicts count complete pairs only."""
    tasks = [
        (params, tok_cfg, series, cfg, value, name, seed)
        for value in cfg.values
        for name, series in datasets.items()
        for seed in cfg.seeds
    ]
    # rows are keyed by (variable, value, dataset, seed), so the pool
    # cannot change any result, only the wall time
    results = ordered_map(_sweep_row_task, tasks, workers)
    rows = SweepRows(r for r in results if isinstance(r, SweepRow))
    rows.skipped = [r for r in results if not isinstance(r, SweepRow)]
    return rows


def sweep_verdicts(rows):
    """Directional summary for a two-value sweep.

    For noise: fractions of (dataset, seed) pairs where the higher sigma
    has larger |zeta'| and larger NMSE.  For context length: fraction
    where the length with larger |zeta'| also has the larger NMSE.
    """
    if not rows:
        raise InvalidArgumentError("no sweep rows")
    variable = rows[0].variable
    values = sorted({row.value for row in rows})
    if len(values) != 2:
        raise InvalidArgumentError("verdicts need exactly 2 sweep values")
    lo, hi = values
    grouped = {}
    for row in rows:
        grouped.setdefault((row.dataset, row.seed), {})[row.value] = row
    pairs = [g for g in grouped.values() if len(g) == 2]
    n = len(pairs)
    if n == 0:
        raise InvalidArgumentError("no complete (dataset, seed) pairs")
    if variable == "noise_sigma":
        aniso_up = sum(abs(g[hi].zeta_prime) > abs(g[lo].zeta_prime) for g in pairs)
        nmse_up = sum(g[hi].nmse > g[lo].nmse for g in pairs)
        return {
            "variable": variable,
            "values": [lo, hi],
            "pairs": n,
            "anisotropy_increase_fraction": aniso_up / n,
            "nmse_increase_fraction": nmse_up / n,
            "anisotropy_increase_pass": aniso_up / n >= 0.6,
            "nmse_increase_pass": nmse_up / n >= 0.8,
        }
    coupled = sum(
        (abs(g[hi].zeta_prime) - abs(g[lo].zeta_prime)) * (g[hi].nmse - g[lo].nmse) > 0
        for g in pairs
    )
    return {
        "variable": variable,
        "values": [lo, hi],
        "pairs": n,
        "coupling_fraction": coupled / n,
        "coupling_pass": coupled / n >= 0.6,
    }


def sweep_rows_to_csv(rows):
    """Render rows under the fixed sweep CSV header."""
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.variable},{row.value!r},{row.dataset},{row.seed},"
            f"{row.nmse!r},{row.zeta_prime!r},{row.d08},{row.iso_i!r}"
        )
    return "\n".join(lines) + "\n"
