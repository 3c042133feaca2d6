"""Embedding-space isotropy diagnostics.

Effective dimension from the PCA spectrum, expected inter-token cosine
similarity (globally and after per-cluster mean removal), and k-means
clustering with silhouette-based selection of the cluster count.  All
sampling draws from caller-provided RngStreams, so every metric is a
pure function of (data, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError, UndefinedMetricError
from .numerics import PCAResult, as_matrix, pca
from .theory import isotropy_partition


@dataclass(frozen=True)
class EffectiveDimension:
    value: int
    degenerate: bool


def effective_dimension(a, eps):
    """Smallest m whose leading PCA components capture fraction eps of
    the variance; rows are centered first."""
    return _captured_dimension(pca(a), eps)


def _captured_dimension(res, eps):
    """Effective dimension at eps from an existing PCA."""
    if not 0.0 < eps <= 1.0:
        raise InvalidArgumentError(f"eps must be in (0, 1], got {eps}")
    if float(res.eigenvalues.sum()) <= 0.0:
        return EffectiveDimension(1, True)
    cum = np.cumsum(res.explained_ratio)
    hits = np.flatnonzero(cum >= eps - 1e-12)
    value = int(hits[0]) + 1 if hits.size else cum.size
    return EffectiveDimension(value, False)


@dataclass(frozen=True)
class CosineStat:
    value: float
    pair_count: int
    exhaustive: bool
    zero_vectors_excluded: int


def _token_rows(vectors, tokens):
    """One layer's rows and their token ids, one id per row."""
    vectors = as_matrix(vectors, "vectors")
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.shape != (vectors.shape[0],):
        raise InvalidArgumentError(
            f"{tokens.size} token ids for {vectors.shape[0]} embedding rows"
        )
    return vectors, tokens


def _instances(vectors, tokens):
    """token id -> that token's nonzero rows in record order, plus the
    number of zero rows dropped (their cosine is undefined)."""
    nonzero = np.linalg.norm(vectors, axis=1) > 0.0
    rows, kept = vectors[nonzero], tokens[nonzero]
    instances = {int(t): rows[kept == t] for t in np.unique(kept)}
    return instances, int(nonzero.size - np.count_nonzero(nonzero))


def _pair_expectation(instances, pair_budget, stream):
    """Expected cosine over pairs of distinct tokens, one freshly sampled
    instance per token per pair.  Enumerates every token pair when that
    is within budget (drawing every instance index at once: i's then j's
    per pair, none for a one-instance token), otherwise Monte-Carlo
    samples pair_budget pairs one draw at a time.  The cosines are one
    row-wise operation either way."""
    tokens = sorted(instances)
    k = len(tokens)
    exhaustive = k * (k - 1) // 2 <= pair_budget
    sizes = np.array([len(instances[t]) for t in tokens])
    if exhaustive:
        pairs = np.stack(np.triu_indices(k, 1), axis=1).ravel()
        highs = sizes[pairs]
        picks = np.zeros(pairs.size, dtype=np.int64)
        picks[highs > 1] = stream.generator.integers(0, highs[highs > 1])
    else:
        pairs, picks = [], []
        for _ in range(pair_budget):
            i = stream.uniform_choice(k)
            j = stream.uniform_choice(k - 1)
            if j >= i:
                j += 1
            for t in (i, j):
                pairs.append(t)
                picks.append(stream.uniform_choice(sizes[t]) if sizes[t] > 1 else 0)
    flat = np.concatenate([instances[t] for t in tokens])
    starts = np.cumsum(sizes) - sizes
    rows = flat[starts[pairs] + np.asarray(picks, dtype=np.int64)]
    u, v = rows[0::2], rows[1::2]
    cos = np.einsum("ij,ij->i", u, v) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
    return float(cos.mean()), len(cos), exhaustive


def inter_token_cos(vectors, tokens, pair_budget, stream):
    """Expected cosine similarity between distinct tokens' embedding
    instances, given one layer's rows and their token ids."""
    instances, dropped = _instances(*_token_rows(vectors, tokens))
    if len(instances) < 2:
        raise InvalidArgumentError(
            f"{len(instances)} distinct tokens with nonzero vectors; need at least 2"
        )
    value, count, exhaustive = _pair_expectation(instances, pair_budget, stream)
    return CosineStat(value, count, exhaustive, dropped)


@dataclass
class Clustering:
    """K-means output; mean_silhouette is attached after selection."""

    k: int
    assignment: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    inertia_history: np.ndarray
    mean_silhouette: float | None = None


def _dist_sq(x, x_sq, centroids):
    """Squared distances of the rows x to one (k, D) set of centroids, or
    to each set of an (R, k, D) stack, as (n, k) or (R, n, k)."""
    d2 = 2.0 * x @ np.swapaxes(centroids, -1, -2)
    np.subtract(x_sq[:, None], d2, out=d2)
    d2 += np.sum(centroids * centroids, axis=-1)[..., None, :]
    return np.maximum(d2, 0.0, out=d2)


def _kmeans_pp_init(rows, inverse, rows_sq, k, stream):
    """k-means++ seeding (Arthur and Vassilvitskii 2007) of the full rows
    rows[inverse], from the distinct rows and their squared norms.

    Each pick indexes the full rows and draws what a seeding on them
    draws; the distances run on the distinct rows and are gathered by
    `inverse` for the pick.  A distance is the expanded rows_sq -
    2 rows @ c + c_sq; one within its round-off bound of 0 is recomputed
    from the difference, so a row reads exactly 0 where the difference
    form does, and the all-zero fallback fires where it would."""
    n = inverse.size
    # the expanded form's round-off is at most slack * (|x|^2 + |c|^2),
    # plus subnormal rounding far below the smallest normal float
    slack = (2 * rows.shape[1] + 8) * np.finfo(np.float64).eps
    largest, tiny = rows_sq.max(), np.finfo(np.float64).tiny

    def dist_sq(j):
        d2 = rows @ (-2.0 * rows[j])
        d2 += rows_sq + rows_sq[j]
        near = np.flatnonzero(d2 <= slack * (largest + rows_sq[j]) + tiny)
        d2[near] = np.sum((rows[near] - rows[j]) ** 2, axis=1)
        return d2

    picks = [inverse[stream.uniform_choice(n)]]
    d2 = dist_sq(picks[0])
    for _ in range(1, k):
        full = d2[inverse]
        total = float(full.sum())
        if total <= 0.0:
            idx = stream.uniform_choice(n)
        else:
            u = stream.uniform() * total
            idx = min(int(np.searchsorted(np.cumsum(full), u, side="right")), n - 1)
        picks.append(inverse[idx])
        np.minimum(d2, dist_sq(picks[-1]), out=d2)
    return rows[picks]


def _distinct_rows(x):
    """The byte-equal rows of x collapsed: the distinct rows in order of
    first occurrence, and each row's index among them.  Rows are keyed
    by their bytes, so +0.0 and -0.0 entries make different rows."""
    x = np.ascontiguousarray(x)
    if x.shape[1] == 0:  # zero-width rows are all the same row
        return x[:1], np.zeros(x.shape[0], dtype=np.int64)
    keys = x.view(np.dtype((np.void, x.dtype.itemsize * x.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return x[first[order]], rank[inverse]


def _selection_rows(data):
    """The distinct rows of a matrix, each full row's index among them
    (`_distinct_rows`) and their squared norms: what k-means and the
    silhouette of one selection share.  Two rows are at most 4 * max
    squared norm apart, so every distance sum they form over the n rows
    stays below 4 n max; past the float range it raises
    NumericFailureError, as the expanded distances would read
    inf - inf = NaN."""
    rows, inverse = _distinct_rows(data)
    with np.errstate(over="ignore"):
        rows_sq = np.sum(rows * rows, axis=1)
    largest = float(rows_sq.max(initial=0.0))
    if not np.isfinite(4.0 * inverse.size * largest):
        raise NumericFailureError(
            f"rows too large for k-means distances: squared norm {largest:.3g} "
            f"over {inverse.size} rows overflows"
        )
    return rows, inverse, rows_sq


def _lloyd(rows, inverse, inits, max_iter, tol):
    """Lloyd iteration of every restart at once, on the byte-equal
    distinct rows, each weighted by its copies (full row p is
    rows[inverse[p]]), from an (R, k, D) stack of centroids that the
    caller seeded on the full rows.  Returns one Clustering per restart,
    with the full rows' assignment.

    Per iteration: one one-hot product, (members.T @ rows) / counts,
    whose one-hot columns carry the multiplicities.  An empty cluster is
    reseeded with one copy of the farthest row whose cluster survives
    losing it; later repairs may take more copies of that row.  Ties go
    to the copy with the lowest full-row index, as on the full rows.  A
    restart leaves the active stack once its centroids move less than
    tol, or after max_iter iterations.

    Every product is a stacked matmul whose slices have the shapes of
    one restart's own products, (m, D) @ (D, k) and (k, m) @ (m, D),
    so each restart's bits are those of a run on its own: BLAS may
    round a row differently inside one wide concatenated product."""
    restarts, k = inits.shape[:2]
    m = rows.shape[0]
    weights = np.bincount(inverse, minlength=m)
    rows_sq = np.sum(rows * rows, axis=1)
    copies = np.argsort(inverse, kind="stable")  # full rows by distinct row
    starts = np.cumsum(weights) - weights
    final = inits.copy()
    histories = [[] for _ in range(restarts)]
    active = np.arange(restarts)
    centroids = inits
    for _ in range(max_iter):
        d2 = _dist_sq(rows, rows_sq, centroids)
        assignment = np.argmin(d2, axis=2)
        stack = np.arange(active.size)[:, None]
        own = d2[stack, np.arange(m), assignment]
        left = np.repeat(weights[None], active.size, axis=0)  # copies still in their nearest cluster
        counts = np.bincount(
            (stack * k + assignment).ravel(), weights=left.ravel(), minlength=active.size * k
        ).reshape(-1, k)
        members = np.zeros((active.size, m, k))
        # each restart with an empty cluster repairs it on its own
        empty = [] if counts.all() else np.flatnonzero((counts == 0).any(axis=1))
        for a in empty:
            r_own, r_assign, r_counts, r_left = own[a], assignment[a], counts[a], left[a]
            for c in np.flatnonzero(r_counts == 0):
                eligible = np.flatnonzero((r_left > 0) & (r_counts[r_assign] >= 2))
                tied = eligible[r_own[eligible] == r_own[eligible].max()]
                # the next copy of each tied row, by its full-row index
                far = tied[np.argmin(copies[starts[tied] + weights[tied] - r_left[tied]])]
                r_counts[r_assign[far]] -= 1
                r_left[far] -= 1
                r_counts[c] = 1
                members[a, far, c] = 1.0
        for a, inertia in zip(active, (own * left).sum(axis=1)):
            histories[a].append(float(inertia))
        members[stack, np.arange(m), assignment] = left
        new_centroids = (np.swapaxes(members, 1, 2) @ rows) / counts[:, :, None]
        shift = np.max(np.linalg.norm(new_centroids - centroids, axis=2), axis=1)
        final[active] = new_centroids
        moving = ~(shift < tol)  # a NaN shift keeps iterating, as one restart alone would
        active, centroids = active[moving], new_centroids[moving]
        if not active.size:
            break
    d2 = _dist_sq(rows, rows_sq, final)
    assignment = np.argmin(d2, axis=2)
    own = d2[np.arange(restarts)[:, None], np.arange(m), assignment]
    inertias = (own * weights).sum(axis=1)
    return [
        Clustering(
            k, assignment[r][inverse], final[r], float(inertias[r]), len(history), np.asarray(history)
        )
        for r, history in enumerate(histories)
    ]


def kmeans(x, k, stream, *, restarts=5, max_iter=300, tol=1e-8, distinct=None):
    """Best-of-restarts k-means++ with Lloyd iteration.

    Every restart's k-means++ init is drawn first, picking full rows in
    restart order (Lloyd draws nothing); then one Lloyd runs them all
    on the byte-equal distinct rows weighted by their multiplicity.
    Empty clusters are repaired by reseeding to the farthest point; the
    winner is the restart with the lowest within-cluster sum of squares,
    the first one on ties.  `distinct` is `_selection_rows(x)`, passed
    by a caller that clusters the same rows more than once.
    """
    data = as_matrix(x, "data")
    n = data.shape[0]
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise InvalidArgumentError(f"restarts must be >= 1, got {restarts}")
    rows, inverse, rows_sq = _selection_rows(data) if distinct is None else distinct
    inits = np.stack(
        [_kmeans_pp_init(rows, inverse, rows_sq, k, stream) for _ in range(restarts)]
    )
    best = None
    for clustering in _lloyd(rows, inverse, inits, max_iter, tol):
        if best is None or clustering.inertia < best.inertia:
            best = clustering
    return best


# Bytes of silhouette's largest temporary, a row block's difference
# vectors: a few MB, so a block stays in cache without a loop per point.
_SILHOUETTE_BLOCK_BYTES = 1 << 21


def silhouette(x, clusterings, *, distinct=None):
    """Per-point silhouette scores and their mean (Euclidean distances),
    as one (scores, mean) pair per clustering of the same rows.

    a(p): mean distance to the rest of p's cluster (singletons score 0);
    b(p): smallest mean distance to another non-empty cluster;
    s = (b-a)/max(a,b).  The distances run over the byte-equal distinct
    rows only: every clustering's member columns, stacked, count each
    distinct row's copies per cluster (copies of one row may sit in
    different clusters), so one blocked pass serves them all, and each
    full row reads its distinct row's sums.  `distinct` is as in kmeans.
    """
    data = as_matrix(x, "data")
    n = data.shape[0]
    if min((c.k for c in clusterings), default=0) < 2:
        raise InvalidArgumentError("silhouette needs at least 2 clusters")
    rows, inverse, _ = _selection_rows(data) if distinct is None else distinct
    m, dim = rows.shape
    assignments = [np.asarray(c.assignment) for c in clusterings]
    offsets = np.cumsum([0] + [c.k for c in clusterings])
    columns = np.stack([offset + a for a, offset in zip(assignments, offsets)], axis=1)
    cells = (inverse[:, None] * offsets[-1] + columns).ravel()
    members = np.bincount(cells, minlength=m * offsets[-1]).reshape(m, -1).astype(np.float64)
    # Per-cluster distance sums over the upper triangle of the distance
    # matrix in row blocks; a block also counts, mirrored, for the later
    # rows.  Difference-based distances avoid the cancellation of the
    # expanded quadratic form.
    sums = np.zeros_like(members)
    block = max(1, _SILHOUETTE_BLOCK_BYTES // (8 * m * max(dim, 1)))
    for start in range(0, m, block):
        stop = min(start + block, m)
        diff = rows[start:stop, None, :] - rows[None, start:, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        sums[start:stop] += dist @ members[start:]
        sums[stop:] += dist[:, stop - start :].T @ members[start:stop]
    sums = sums[inverse]
    results = []
    for assignment, lo, hi in zip(assignments, offsets, offsets[1:]):
        counts = members[:, lo:hi].sum(axis=0)
        if np.count_nonzero(counts) < 2:
            raise InvalidArgumentError("silhouette needs at least 2 non-empty clusters")
        own = counts[assignment]
        a = sums[np.arange(n), lo + assignment] / np.maximum(own - 1, 1)
        means = np.where(counts > 0, sums[:, lo:hi] / np.maximum(counts, 1), np.inf)
        means[np.arange(n), assignment] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        # singletons score 0
        scores = np.divide(b - a, denom, out=np.zeros(n), where=(own > 1) & (denom > 0))
        results.append((scores, float(scores.mean())))
    return results


@dataclass
class ClusterSelection:
    best_k: int
    clustering: Clustering
    scores: dict
    low_silhouette: bool


def select_cluster_count(x, k_range, stream):
    """Pick the cluster count with the highest mean silhouette.

    k-means runs for every feasible k first, in k order on the stream;
    then one silhouette pass scores them all.  The rows are collapsed to
    their distinct rows once, for every k and the silhouette.  Ties
    resolve to the smallest k; a winning silhouette below 0.3 sets the
    low_silhouette flag (weak cluster structure)."""
    data = as_matrix(x, "data")
    candidates = [k for k in k_range if 2 <= k <= data.shape[0]]
    if not candidates:
        raise InvalidArgumentError("no feasible cluster counts in range")
    distinct = _selection_rows(data)
    clusterings = [kmeans(data, k, stream, distinct=distinct) for k in candidates]
    scored = silhouette(data, clusterings, distinct=distinct)
    for clustering, (_, mean_score) in zip(clusterings, scored):
        clustering.mean_silhouette = mean_score
    best = max(clusterings, key=lambda c: (c.mean_silhouette, -c.k))
    return ClusterSelection(
        best_k=best.k,
        clustering=best,
        scores={c.k: c.mean_silhouette for c in clusterings},
        low_silhouette=best.mean_silhouette < 0.3,
    )


@dataclass(frozen=True)
class AdjustedCosineStat:
    value: float
    cluster_values: dict
    skipped_clusters: int
    pair_count: int
    zero_vectors_excluded: int


def adjusted_inter_token_cos(vectors, tokens, clustering, pair_budget, stream):
    """Expected inter-token cosine after subtracting each cluster's mean.

    Clusters with fewer than two distinct tokens are skipped (and
    counted); the result is the unweighted mean over the remaining
    clusters.  Values near 0 indicate isotropy within clusters.  Takes
    one layer's rows and their token ids, like inter_token_cos."""
    vectors, tokens = _token_rows(vectors, tokens)
    assignment = np.asarray(clustering.assignment)
    if assignment.shape[0] != vectors.shape[0]:
        raise InvalidArgumentError(
            "clustering does not match the layer's record count"
        )
    cluster_values = {}
    skipped = 0
    pair_count = 0
    dropped = 0
    for c in range(clustering.k):
        members = np.flatnonzero(assignment == c)
        if members.size == 0:
            skipped += 1
            continue
        centered = vectors[members] - vectors[members].mean(axis=0)
        instances, zeros = _instances(centered, tokens[members])
        dropped += zeros
        if len(instances) < 2:
            skipped += 1
            continue
        value, count, _ = _pair_expectation(instances, pair_budget, stream)
        cluster_values[c] = value
        pair_count += count
    if not cluster_values:
        raise UndefinedMetricError(
            "every cluster lacks two distinct tokens; adjusted cosine undefined"
        )
    mean_value = float(np.mean(list(cluster_values.values())))
    return AdjustedCosineStat(
        value=mean_value,
        cluster_values=cluster_values,
        skipped_clusters=skipped,
        pair_count=pair_count,
        zero_vectors_excluded=dropped,
    )


@dataclass
class LayerIsotropyReport:
    """One layer's isotropy diagnostics, JSON-ready via to_dict."""

    layer: int
    record_count: int
    distinct_tokens: int
    effective_dim: dict
    zeta_cos: float
    chosen_k: int
    mean_silhouette: float
    low_silhouette: bool
    zeta_prime_cos: float
    skipped_clusters: int
    partition_isotropy: float
    degenerate_partition: bool
    explained_ratio: list
    # not serialized; reused for the plot rows
    clustering: Clustering | None = None
    pca: PCAResult | None = None
    rows: np.ndarray | None = None
    token_ids: np.ndarray | None = None

    def to_dict(self):
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("clustering", "pca", "rows", "token_ids")
        }


def layer_report(
    dump,
    layer,
    stream,
    *,
    pair_budget=10000,
    k_range=range(2, 11),
    eps_values=(0.8, 0.9),
):
    """Assemble the full diagnostic row for one layer of a dump."""
    matrix = dump.layer_matrix(layer)
    tokens = dump.layer_token_ids(layer)
    if matrix.shape[0] < 2:
        raise InvalidArgumentError(f"layer {layer} has fewer than 2 records")
    res = pca(matrix)
    eff = {f"{eps:g}": _captured_dimension(res, eps).value for eps in eps_values}
    zeta = inter_token_cos(matrix, tokens, pair_budget, stream)
    selection = select_cluster_count(matrix, k_range, stream)
    adjusted = adjusted_inter_token_cos(matrix, tokens, selection.clustering, pair_budget, stream)
    iso = isotropy_partition(matrix)
    return LayerIsotropyReport(
        layer=int(layer),
        record_count=int(matrix.shape[0]),
        distinct_tokens=int(np.unique(tokens).size),
        effective_dim=eff,
        zeta_cos=zeta.value,
        chosen_k=selection.best_k,
        mean_silhouette=selection.clustering.mean_silhouette,
        low_silhouette=selection.low_silhouette,
        zeta_prime_cos=adjusted.value,
        skipped_clusters=adjusted.skipped_clusters,
        partition_isotropy=iso.value,
        degenerate_partition=iso.degenerate,
        explained_ratio=[float(r) for r in res.explained_ratio],
        clustering=selection.clustering,
        pca=res,
        rows=matrix,
        token_ids=tokens,
    )


def pca_plot_rows(report):
    """Top-3 principal-component coordinates per record, for plot CSVs,
    from the rows, token ids, PCA and clustering a layer report holds."""
    centered = report.rows - report.rows.mean(axis=0)
    take = min(3, report.pca.components.shape[1])
    proj = np.zeros((report.rows.shape[0], 3))
    proj[:, :take] = centered @ report.pca.components[:, :take]
    assignment = np.asarray(report.clustering.assignment)
    return [
        (report.layer, float(p[0]), float(p[1]), float(p[2]), int(c), int(t))
        for p, c, t in zip(proj, assignment, report.token_ids)
    ]
