"""Machine checks of the model's structural guarantees.

Covers the logit shift attack (training loss and predictive distributions
are invariant to a constant logit shift while any thresholded readout of
the logits is zeroed), the finite-difference verification of the
attention Jacobian bound, the closed-form rank-m score matrix that
minimizes the reconstruction objective, the small-score-matrix attention
approximation, and the partition-function isotropy ratio.

The ``check_*`` functions are the verify suite: each draws its instances
from a caller-supplied ``RngStream`` and returns the
``{"name", "passed", "details"}`` record of ``verification_report.json``;
``run_checks`` runs all five on one stream, in report order.  The hot
checks are array code: the shift attack takes the unshifted softmax and
loss once and then each head in one pass over every logit row; the
descent steps all its restarts as one stack of score matrices, scored by
one objective call per step; and the finite-difference Jacobian moves
every entry of its input in one stacked attention pass.

Attention here is deliberately the unmasked map used in the bound
statements; the trained model applies the same map causally.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    CheckFailureError,
    InvalidArgumentError,
    RankDeficiencyError,
)
from .model import attention_weights, causal_pass, mean_nll, softmax
from .numerics import as_matrix, spectral_norm, sym_eigendecompose


@dataclass(frozen=True)
class IsotropyPartition:
    """min/max partition-function ratio over the eigenvector probe set;
    degenerate when every row is zero (the ratio is then 1)."""

    value: float
    degenerate: bool


def isotropy_partition(rows):
    """Partition-function stability ratio I in (0, 1].

    Probes are the +/- unit eigenvectors of rows.T @ rows; using both signs
    makes the ratio invariant under orthogonal rotation of the rows.
    """
    x = as_matrix(rows, "rows")
    if x.shape[0] < 2:
        raise InvalidArgumentError("isotropy needs at least 2 embedding rows")
    if not np.any(x):
        return IsotropyPartition(1.0, True)
    corr = x.T @ x
    eig = sym_eigendecompose(corr)
    logits = x @ eig.eigenvectors
    logits = np.hstack([logits, -logits])  # one column per probe
    peak = logits.max(axis=0)
    log_zs = peak + np.log(np.sum(np.exp(logits - peak), axis=0))
    return IsotropyPartition(math.exp(float(log_zs.min()) - float(log_zs.max())), False)


def shift_attack(logits, probs, targets, coefficients, thresholds):
    """One head's shift attack on every logit row at once.

    The head is the thresholded readout sum_j a_j relu(z_j - b_j); the
    shift tau = min_j b_j - max logits - 1 moves every row alike.
    ``probs`` is softmax(logits).  Returns the largest total-variation
    distance between a row's softmax before and after the shift, the
    mean NLL after it, the largest |readout| of a shifted row, and the
    ReLU margin max (shifted z_j - b_j), which is < 0 when the shift
    forces every readout to 0.
    """
    shifted = logits + float(thresholds.min() - logits.max() - 1.0)
    loss_after, moved = mean_nll(shifted, targets)
    moved -= probs
    tv = 0.5 * float(np.abs(moved, out=moved).sum(axis=1).max())
    gap = np.subtract(shifted, thresholds, out=shifted)
    relu_margin = float(gap.max())
    readout = float(np.abs(np.maximum(gap, 0.0, out=gap) @ coefficients).max())
    return tv, loss_after, readout, relu_margin


def collect_window_logits(params, windows):
    """Stack next-token logit rows and targets over whole windows."""
    ids = np.asarray(windows, dtype=np.int64)
    activations, _ = causal_pass(params, ids)
    rows = activations[-1][:, :-1].reshape(-1, params.dim)
    return rows @ params.embed.T, ids[:, 1:].ravel()


def jacobian_fd(rows, score_matrix, h=None):
    """Central-difference Jacobian of unmasked attention at rows,
    flattened row-major on both sides.  The n d copies of x with +h in one
    entry, then the n d with -h, pass through attention as one stack."""
    x = as_matrix(rows, "rows")
    size = x.size
    if not size:
        return np.empty((0, 0))  # no entry to move
    if h is None:
        h = 1e-6 * (1.0 + float(np.max(np.abs(x))))
    moved = np.repeat(x[None], 2 * size, axis=0)
    entry = np.arange(size)
    moved.reshape(2, size, size)[:, entry, entry] += np.array([[h], [-h]])
    out = attention_weights(moved @ score_matrix, moved, False) @ moved
    return ((out[:size] - out[size:]).reshape(size, size) / (2.0 * h)).T


@dataclass(frozen=True)
class BoundReport:
    """Attention-Jacobian norm bound versus its measured value.

    ``margin`` is the proven form (main term + residual + row count)
    minus the measured norm; ``main_text_violated`` says whether the
    measured norm exceeds the form without the additive row count.
    """

    margin: float
    main_text_violated: bool


def attention_jacobian_bound(rows, score_matrix, *, fd_step=None):
    """Evaluate the spectral-norm bound on the attention Jacobian and
    measure the actual norm by central differences."""
    x = as_matrix(rows, "rows")
    score_matrix = as_matrix(score_matrix, "lambda")
    n = x.shape[0]
    weights = attention_weights(x @ score_matrix, x, causal=False)
    lam2 = spectral_norm(score_matrix)
    centers = weights @ x  # row i holds sum_j p_ij psi_j
    resid = x - centers
    resid_sq = np.sum(resid * resid, axis=1)
    main = lam2 * float(np.sum((np.diag(weights) + 0.5) * resid_sq))
    # |psi_j - center_i|^2 for every (i, j)
    dists = (
        np.sum(x * x, axis=1)[None, :]
        - 2.0 * centers @ x.T
        + np.sum(centers * centers, axis=1)[:, None]
    )
    cross = float(np.sum(weights * dists) - np.sum(np.diag(weights) * resid_sq))
    delta = lam2 * cross + 0.5 * lam2 * float(np.sum(x * x))
    bound = main + delta + n
    measured = spectral_norm(jacobian_fd(x, score_matrix, fd_step))
    return BoundReport(margin=bound - measured, main_text_violated=measured > main + delta)


@dataclass(frozen=True)
class ScoreMatrixSolution:
    """Closed-form rank-m minimizer of the reconstruction objective."""

    matrix: np.ndarray
    objective_value: float
    trailing_eigsum: float


def center_rows(rows):
    x = as_matrix(rows, "rows")
    return x - x.mean(axis=0)


def reconstruction_objective(centered_rows, score_matrix):
    """sum_i |psi_i - (rows.T @ rows) @ score_matrix @ psi_i|^2 on centered
    rows, for one (d, d) score matrix (a float) or an (S, d, d) stack (S
    values, each from the products and sum of its own 2-D call)."""
    x = np.asarray(centered_rows, dtype=np.float64)
    corr = x.T @ x
    resid = x - x @ (corr @ score_matrix).swapaxes(-1, -2)
    value = np.sum(resid * resid, axis=(-2, -1))
    return float(value) if value.ndim == 0 else value


def optimal_score_matrix_solution(rows, rank):
    """Closed-form optimum score_matrix* = sum_{i<=m} (1/eig_i) v_i v_i^T.

    Rows are centered first; requires the top m eigenvalues of the
    correlation matrix to be strictly positive.  The objective at the
    optimum must equal the trailing eigenvalue sum, which is asserted.
    """
    x = center_rows(rows)
    d = x.shape[1]
    m = int(rank)
    if not 1 <= m <= d:
        raise InvalidArgumentError(f"rank m must be in [1, {d}], got {m}")
    corr = x.T @ x
    eig = sym_eigendecompose(corr)
    vals, vecs = eig.eigenvalues, eig.eigenvectors
    if vals[0] <= 0.0 or vals[m - 1] <= 1e-12 * vals[0]:
        raise RankDeficiencyError(
            f"correlation matrix lacks {m} strictly positive eigenvalues "
            f"(lambda_1 = {vals[0]:g}, lambda_m = {vals[m - 1]:g})"
        )
    best_matrix = (vecs[:, :m] / vals[:m]) @ vecs[:, :m].T
    objective = reconstruction_objective(x, best_matrix)
    trailing = float(np.sum(vals[m:]))
    tol = max(1e-8 * trailing, 1e-12 * float(np.sum(vals)), 1e-10)
    if abs(objective - trailing) > tol:
        raise CheckFailureError(
            f"optimal objective {objective:g} does not match trailing "
            f"eigenvalue sum {trailing:g}"
        )
    return ScoreMatrixSolution(best_matrix, objective, trailing)


def _project_rank_m_symmetric(score_matrices, rank):
    # The closed form and this projection both reach LAPACK's eigh; the
    # descent stays an independent check because it searches by gradient
    # steps and never uses the trailing-eigenvalue identity it tests.
    sym = 0.5 * (score_matrices + score_matrices.swapaxes(-1, -2))
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(-np.abs(vals), axis=-1)[..., :rank]
    keep = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    return (keep * np.take_along_axis(vals, order, axis=-1)[..., None, :]) @ keep.swapaxes(-1, -2)


def rank_m_descent(rows, rank, *, starts=20, iters=300, stream):
    """Projected gradient descent over rank-m symmetric score matrices.

    Independent competitor search for the closed-form optimum; returns
    the best objective value found across random restarts.  The restarts
    step as one (starts, d, d) stack, each dropping out of it once its
    objective stops falling.
    """
    x = center_rows(rows)
    d = x.shape[1]
    m = int(rank)
    if not 1 <= m <= d:
        raise InvalidArgumentError(f"rank m must be in [1, {d}], got {m}")
    corr = x.T @ x
    top = float(np.linalg.eigvalsh(corr)[-1])
    if top <= 0.0:
        raise RankDeficiencyError("correlation matrix is zero")
    step = 0.45 / top**3
    w = stream.gaussians(starts, d, m)  # the stream order of one (d, m) draw per restart
    score = w @ w.swapaxes(-1, -2)
    flat = score.reshape(starts, 1, d * d)
    # each Frobenius norm as the dot product np.linalg.norm takes of one matrix
    norms = np.sqrt(flat @ flat.swapaxes(-1, -2))
    score *= 1.0 / (top * np.maximum(norms, 1e-12))
    score = _project_rank_m_symmetric(score, m)
    objective = reconstruction_objective(x, score)
    live = np.arange(starts)  # the restarts still in the stack
    eye = np.eye(d)
    for _ in range(iters):
        if not live.size:
            break
        grad = -2.0 * corr @ (eye - corr @ score) @ corr
        score = _project_rank_m_symmetric(score - step * grad, m)
        value = reconstruction_objective(x, score)
        prev = objective[live]
        objective[live] = value
        # `not <` rather than `>=`: a NaN objective does not stop its restart
        moving = ~(prev - value < 1e-14 * np.maximum(prev, 1.0))
        live, score = live[moving], score[moving]
    return float(objective.min(initial=math.inf))


@dataclass(frozen=True)
class ApproxSweepRow:
    rho: float
    max_prob_error: float
    substitution_error: float


def small_score_approximation(rows, direction, rhos=(1e-3, 1e-2, 1e-1, 1.0), *, center=True):
    """Error table of the first-order attention approximation across
    score-matrix norms rho (score_matrix = rho * direction / |direction|_F).

    With s_ij = psi_i.T score_matrix psi_j = O(rho), expanding the softmax
    gives p_ij = 1/n + (s_ij - mean_k s_ik)/n + O(rho^2), and on centered
    rows mean_k s_ik = psi_i.T score_matrix mean_k psi_k = 0.  So
    ``max_prob_error`` = max_ij |p_ij - (1 + s_ij)/n| is O(rho^2), and so
    is ``substitution_error``, the Frobenius gap
    |P X - (1/n)(11^T + X score_matrix X^T) X|_F <= |P - (11^T + S)/n|_F |X|_2
    between the attention output and its substitute.  Both shrink about
    100x per decade of rho while rho is small.  A substitute without the
    1/n leaves a gap of (1 - 1/n)|X score_matrix X^T X|_F + O(rho^2),
    which is order rho and shrinks only about 10x per decade.  Uncentered
    rows keep the mean_k s_ik term, so their gap is order rho too.
    """
    x = center_rows(rows) if center else as_matrix(rows, "rows")
    base = as_matrix(direction, "direction")
    base_norm = float(np.linalg.norm(base))
    if base_norm == 0.0:
        raise InvalidArgumentError("direction matrix must be nonzero")
    n = x.shape[0]
    rows = []
    for rho in rhos:
        score_matrix = base * (rho / base_norm)
        projected = x @ score_matrix
        weights = attention_weights(projected, x, causal=False)
        approx = 1.0 / n + (projected @ x.T) / n
        max_err = float(np.max(np.abs(weights - approx)))
        gap = float(np.linalg.norm((weights - approx) @ x))
        rows.append(ApproxSweepRow(float(rho), max_err, gap))
    return rows


def _record(name, passed, **details):
    return {"name": name, "passed": bool(passed), "details": details}


def check_shift_attack(logits, targets, heads, stream):
    """Shift attack against ``heads`` random heads, each drawn as its
    standard-normal coefficients then thresholds: every readout is
    zeroed while softmax and loss stay put."""
    z = as_matrix(logits, "logits")
    loss_before, probs = mean_nll(z, targets)
    tv, loss_delta, readout, margin = np.empty((4, heads))
    for h in range(heads):
        coefficients = stream.gaussians(z.shape[1])
        thresholds = stream.gaussians(z.shape[1])
        tv[h], loss_after, readout[h], margin[h] = shift_attack(
            z, probs, targets, coefficients, thresholds
        )
        loss_delta[h] = abs(loss_after - loss_before)
    return _record(
        "shift_attack",
        np.all(tv <= 1e-12) and np.all(loss_delta <= 1e-12) and np.all(readout == 0.0)
        and np.all(margin < 0.0),
        heads=heads,
        positions=int(z.shape[0]),
        max_tv_distance=float(tv.max()),
        max_loss_delta=float(loss_delta.max()),
        max_downstream_abs=float(readout.max()),
    )


def check_softmax_shift(logits):
    """Softmax of (at most 64 of) the logit rows ignores constant shifts."""
    rows = logits[:64, None, :]
    shifted = softmax(rows + np.array([-10.0, 3.7, 100.0])[:, None])
    max_tv = 0.5 * float(np.abs(shifted - softmax(rows)).sum(axis=-1).max())
    return _record("softmax_shift_invariance", max_tv <= 1e-12, max_tv_distance=max_tv)


def check_jacobian_bound(instances, stream):
    """The proven Jacobian bound on random instances: up to 8 rows in up to
    6 dimensions, score matrices of spectral norm uniform in [0, 2)."""
    gen = stream.generator
    min_margin = np.inf
    main_text_violations = 0
    for _ in range(instances):
        n = int(gen.integers(1, 9))
        d = int(gen.integers(1, 7))
        x = stream.gaussians(n, d).reshape(n, d)
        score = stream.gaussians(d, d).reshape(d, d)
        target = float(gen.uniform(0.0, 2.0))
        norm = spectral_norm(score)
        if norm > 0:
            score *= target / norm
        rep = attention_jacobian_bound(x, score)
        min_margin = min(min_margin, rep.margin)
        main_text_violations += rep.main_text_violated
    return _record(
        "jacobian_bound",
        min_margin >= -1e-6,
        instances=instances,
        rows_max=8,
        dim_max=6,
        score_norm_max=2.0,
        min_margin=float(min_margin),
        main_text_violations=int(main_text_violations),
    )


def check_optimal_score_matrix(instances, starts, iters, stream):
    """The closed form on random instances: its objective is the trailing
    eigenvalue sum, and a ``starts``-restart descent (instance i on stream
    child 1000 + i) never beats it."""
    gen = stream.generator
    worst_rel = 0.0
    worst_gap = np.inf
    for index in range(instances):
        n = int(gen.integers(6, 25))
        d = int(gen.integers(2, 6))
        m = int(gen.integers(1, d + 1))
        x = stream.gaussians(n, d).reshape(n, d)
        sol = optimal_score_matrix_solution(x, m)
        if sol.trailing_eigsum > 1e-12:
            rel = abs(sol.objective_value - sol.trailing_eigsum) / sol.trailing_eigsum
            worst_rel = max(worst_rel, rel)
        best = rank_m_descent(x, m, starts=starts, iters=iters, stream=stream.child(1000 + index))
        worst_gap = min(worst_gap, best - sol.objective_value)
    return _record(
        "optimal_score_matrix",
        worst_rel <= 1e-8 and worst_gap >= -1e-6,
        instances=instances,
        max_identity_rel_err=float(worst_rel),
        min_descent_gap=float(worst_gap),
        descent_starts=starts,
    )


def check_small_score_approximation(stream):
    """The small-score sweep on one random 8x4 instance and 4x4 direction.

    Both errors are O(rho^2) (see ``small_score_approximation``), so each
    must shrink at least 20x over a decade of rho ending at rho <= 0.1;
    on the decade up to rho = 1, where the higher-order terms are no
    longer small, each must still halve.  An order-rho error (such as the
    substitute without its 1/n) shrinks only about 10x and fails.
    """
    x = stream.gaussians(8, 4).reshape(8, 4)
    direction = stream.gaussians(4, 4).reshape(4, 4)
    rows = small_score_approximation(x, direction)

    def shrinks(a, b):
        bar = 20.0 if b.rho <= 0.1 else 2.0
        return (
            a.max_prob_error * bar <= b.max_prob_error
            and a.substitution_error * bar <= b.substitution_error
        )

    passed = all(shrinks(a, b) for a, b in zip(rows[:-1], rows[1:]))
    return _record("small_score_approximation", passed, rows=[asdict(r) for r in rows])


def run_checks(
    params, windows, stream, *, heads, bound_instances, score_matrix_instances,
    descent_starts, descent_iters,
):
    """Every check on one stream, in report order; the first two run on
    the model's next-token logits over the windows."""
    logits, targets = collect_window_logits(params, windows)
    return [
        check_shift_attack(logits, targets, heads, stream),
        check_softmax_shift(logits),
        check_jacobian_bound(bound_instances, stream),
        check_optimal_score_matrix(score_matrix_instances, descent_starts, descent_iters, stream),
        check_small_score_approximation(stream),
    ]
