"""Embedding-space isotropy diagnostics.

Effective dimension from the PCA spectrum, expected inter-token cosine
similarity (globally and after per-cluster mean removal), and k-means
clustering with silhouette-based selection of the cluster count.  All
sampling draws from caller-provided RngStreams, so every metric is a
pure function of (data, seed).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError, UndefinedMetricError
from .numerics import PCAResult, as_matrix, pca
from .theory import isotropy_partition


def effective_dimension(a, eps):
    """Smallest m whose leading PCA components capture fraction eps of
    the variance; rows are centered first."""
    return _captured_dimension(pca(a), eps)


def _captured_dimension(res, eps):
    """Effective dimension at eps from an existing PCA; rows without
    variance have dimension 1."""
    if not 0.0 < eps <= 1.0:
        raise InvalidArgumentError(f"eps must be in (0, 1], got {eps}")
    if float(res.eigenvalues.sum()) <= 0.0:
        return 1
    cum = np.cumsum(res.explained_ratio)
    hits = np.flatnonzero(cum >= eps - 1e-12)
    return int(hits[0]) + 1 if hits.size else cum.size


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
    """token id -> that token's nonzero rows in record order; zero rows
    are dropped, as their cosine is undefined."""
    nonzero = np.linalg.norm(vectors, axis=1) > 0.0
    rows, kept = vectors[nonzero], tokens[nonzero]
    return {int(t): rows[kept == t] for t in np.unique(kept)}


def _pair_expectation(instances, pair_budget, stream):
    """Expected cosine over pairs of distinct tokens, one freshly sampled
    instance per token per pair.  Enumerates every token pair when that
    is within budget (drawing every instance index at once: i's then j's
    per pair, none for a one-instance token), otherwise Monte-Carlo
    samples pair_budget pairs one draw at a time.  The cosines are one
    row-wise operation either way.  Returns (mean cosine, pair count)."""
    tokens = sorted(instances)
    k = len(tokens)
    sizes = np.array([len(instances[t]) for t in tokens])
    if k * (k - 1) // 2 <= pair_budget:
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
    return float(cos.mean()), len(cos)


def inter_token_cos(vectors, tokens, pair_budget, stream):
    """Expected cosine similarity (a float) between distinct tokens'
    embedding instances, given one layer's rows and their token ids."""
    instances = _instances(*_token_rows(vectors, tokens))
    if len(instances) < 2:
        raise InvalidArgumentError(
            f"{len(instances)} distinct tokens with nonzero vectors; need at least 2"
        )
    return _pair_expectation(instances, pair_budget, stream)[0]


@dataclass
class Clustering:
    """K-means output; mean_silhouette is attached after selection."""

    k: int
    assignment: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    mean_silhouette: float | None = None


def _dist_sq(twice, x_sq, centroids):
    """Squared distances of the rows x, given as 2x and |x|^2 tiled to
    (n, k), to each set of an (R, k, D) stack of centroids, as (R, n, k)."""
    d2 = twice @ np.swapaxes(centroids, -1, -2)
    np.subtract(x_sq, d2, out=d2)
    d2 += np.sum(centroids * centroids, axis=-1)[..., None, :]
    return np.maximum(d2, 0.0, out=d2)


def _pair_dist_sq(left, left_sq, right, right_sq):
    """Squared distances of the rows of left, (..., p, D), to the rows of
    right, as (..., p, len(right)), from their squared norms: the
    expanded -2 L R^T + (|l|^2 + |r|^2), with each entry within its
    round-off bound of 0 recomputed from the difference, so it reads
    exactly 0 where the difference form does.  Each (p, D) slice of a
    stacked left gets the bits of a call on its own."""
    # the expanded form's round-off is at most slack * (|l|^2 + |r|^2),
    # plus subnormal rounding far below the smallest normal float
    slack = (2 * right.shape[1] + 8) * np.finfo(np.float64).eps
    d2 = (-2.0 * left) @ right.T
    d2 += right_sq + left_sq[..., None]
    bound = slack * (right_sq.max() + left_sq[..., None]) + np.finfo(np.float64).tiny
    near = np.nonzero(d2 <= bound)
    d2[near] = np.sum((left[near[:-1]] - right[near[-1]]) ** 2, axis=1)
    return d2


def _kmeans_pp_init(rows, inverse, rows_sq, k, stream):
    """k-means++ seeding of one init, drawing as it picks: the all-zero
    fallback of `_kmeans_pp_seeds`."""
    n = inverse.size
    picks = [inverse[stream.uniform_choice(n)]]
    d2 = np.full(rows.shape[0], np.inf)
    for _ in range(1, k):
        j = picks[-1]
        np.minimum(d2, _pair_dist_sq(rows[j : j + 1], rows_sq[j : j + 1], rows, rows_sq)[0], out=d2)
        full = d2[inverse]
        total = float(full.sum())
        if total <= 0.0:
            idx = stream.uniform_choice(n)
        else:
            u = stream.uniform() * total
            idx = min(int(np.searchsorted(np.cumsum(full), u, side="right")), n - 1)
        picks.append(inverse[idx])
    return rows[picks]


def _kmeans_pp_seeds(prep, ks, restarts, stream):
    """k-means++ seeding (Arthur and Vassilvitskii 2007) of `restarts`
    inits per k in ks on the full rows prep.rows[prep.inverse], as one
    (restarts, k, D) stack per k.

    Every init's draws come first, in k then restart order: one
    uniform_choice(n), then k - 1 uniform()s.  Then every init with
    picks left takes its next one at once: one stacked `_pair_dist_sq`
    of the picked rows, gathered by inverse for the full rows, and each
    draw u picks the first full row whose distance cumsum exceeds
    u * total.  Where an init's distances sum to 0, k-means++ draws a
    uniform pick instead; then the stream is restored and every init
    runs `_kmeans_pp_init` in turn."""
    rows, inverse, rows_sq = prep.rows, prep.inverse, prep.sq
    n, most = inverse.size, max(ks)
    state = stream.generator.bit_generator.state
    sizes = np.repeat(ks, restarts)
    picks, draws = np.empty((sizes.size, most), dtype=np.int64), np.empty((sizes.size, most - 1))
    for i, k in enumerate(sizes):
        picks[i, 0] = inverse[stream.uniform_choice(n)]
        draws[i, : k - 1] = stream.uniforms(k - 1)
    d2 = np.full((sizes.size, rows.shape[0]), np.inf)
    for step in range(1, most):
        live = sizes > step
        j = picks[live, step - 1]
        dist = _pair_dist_sq(rows[j, None], rows_sq[j, None], rows, rows_sq)[:, 0]
        d2[live] = np.minimum(dist, d2[live], out=dist)
        full = dist[:, inverse]
        total = full.sum(axis=1)
        if (total <= 0.0).any():
            stream.generator.bit_generator.state = state
            inits = [_kmeans_pp_init(*prep[:3], k, stream) for k in sizes]
            return [np.stack(inits[i : i + restarts]) for i in range(0, len(inits), restarts)]
        cdf = np.cumsum(full, axis=1, out=full)
        below = np.count_nonzero(cdf <= (draws[live, step - 1] * total)[:, None], axis=1)
        picks[live, step] = inverse[np.minimum(below, n - 1)]
    stacks = picks.reshape(len(ks), restarts, most)
    return [rows[stack[:, :k]] for k, stack in zip(ks, stacks)]


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


# distinct rows, each full row's index among them, squared norms, copy counts,
# the full rows grouped by distinct row (each group at starts) and 2 * rows
_SelectionRows = namedtuple("_SelectionRows", "rows inverse sq weights copies starts twice")


def _selection_rows(data):
    """The distinct rows of a matrix (`_distinct_rows`) and what every k
    and the silhouette of one selection share.  Two rows are at most
    4 * max squared norm apart, so every distance sum they form over the
    n rows stays below 4 n max; past the float range it raises
    NumericFailureError, as the expanded distances would read NaN."""
    rows, inverse = _distinct_rows(data)
    with np.errstate(over="ignore"):
        rows_sq = np.sum(rows * rows, axis=1)
    largest = float(rows_sq.max(initial=0.0))
    if not np.isfinite(4.0 * inverse.size * largest):
        raise NumericFailureError(
            f"rows too large for k-means distances: squared norm {largest:.3g} "
            f"over {inverse.size} rows overflows"
        )
    weights = np.bincount(inverse, minlength=rows.shape[0])
    copies, starts = np.argsort(inverse, kind="stable"), np.cumsum(weights) - weights
    return _SelectionRows(rows, inverse, rows_sq, weights, copies, starts, 2.0 * rows)


def _lloyd(prep, inits, max_iter, tol):
    """Lloyd iteration of every restart at once, on the byte-equal
    distinct rows of `_selection_rows`, each weighted by its copies
    (full row p is rows[inverse[p]]), from an (R, k, D) stack of
    centroids seeded on the full rows.  Returns one Clustering per
    restart, with the full rows' assignment.

    Per iteration: one one-hot product, (members.T @ rows) / counts,
    whose one-hot columns carry the multiplicities.  An empty cluster is
    reseeded with one copy of the farthest row whose cluster survives
    losing it; later repairs may take more copies of that row.  Ties go
    to the copy with the lowest full-row index, as on the full rows.  A
    restart leaves the active stack once its centroids move less than
    tol, or after max_iter iterations; the stack's flat indices are
    built once, and again only when a restart leaves it.

    Every product is a stacked matmul whose slices have the shapes of
    one restart's own products, (m, D) @ (D, k) and (k, m) @ (m, D),
    so each restart's bits are those of a run on its own: BLAS may
    round a row differently inside one wide concatenated product."""
    restarts, k = inits.shape[:2]
    rows, weights, copies, starts = prep.rows, prep.weights, prep.copies, prep.starts
    m = rows.shape[0]
    sq = np.repeat(prep.sq[:, None], k, axis=1)  # tiled, so each subtraction is one long run
    final, iterations = inits.copy(), np.full(restarts, max_iter)
    active, centroids = np.arange(restarts), inits
    for it in range(max_iter):
        if it == 0 or not moving.all():  # the stack's flat bincount and one-hot indices
            size, stack = active.size, np.arange(active.size)[:, None]
            cells, one_hot, tiled = stack * k, (stack * m + np.arange(m)) * k, np.tile(weights, size)
        d2 = _dist_sq(prep.twice, sq, centroids)
        assignment = np.argmin(d2, axis=2)
        counts = np.bincount((cells + assignment).ravel(), tiled, size * k).reshape(size, k)
        members = np.zeros((size, m, k))
        members.ravel()[one_hot + assignment] = weights
        # each restart with an empty cluster repairs it on its own
        for a in [] if counts.all() else np.flatnonzero((counts == 0).any(axis=1)):
            r_assign, r_counts, r_left = assignment[a], counts[a], weights.copy()
            r_own = d2[a, np.arange(m), r_assign]
            for c in np.flatnonzero(r_counts == 0):
                eligible = np.flatnonzero((r_left > 0) & (r_counts[r_assign] >= 2))
                tied = eligible[r_own[eligible] == r_own[eligible].max()]
                # the next copy of each tied row, by its full-row index
                far = tied[np.argmin(copies[starts[tied] + weights[tied] - r_left[tied]])]
                r_counts[r_assign[far]] -= 1
                r_left[far] -= 1
                r_counts[c] = 1
                members[a, far, c] = 1.0
            members[a, np.arange(m), r_assign] = r_left  # copies still in their nearest cluster
        new_centroids = (np.swapaxes(members, 1, 2) @ rows) / counts[:, :, None]
        step = new_centroids - centroids
        shift = np.sqrt(np.max(np.sum(step * step, axis=2), axis=1))  # the largest centroid move
        centroids = new_centroids
        moving = ~(shift < tol)  # a NaN shift keeps iterating, as one restart alone would
        if not moving.all():
            final[active[~moving]] = centroids[~moving]
            iterations[active[~moving]] = it + 1
            active, centroids = active[moving], centroids[moving]
            if not active.size:
                break
    final[active] = centroids
    d2 = _dist_sq(prep.twice, sq, final)
    assignment = np.argmin(d2, axis=2)
    own = d2[np.arange(restarts)[:, None], np.arange(m), assignment]
    inertias = (own * weights).sum(axis=1)
    assignment = assignment[:, prep.inverse]
    return [
        Clustering(k, assignment[r], final[r], float(inertias[r]), int(iterations[r]))
        for r in range(restarts)
    ]


_RESTARTS = 5  # k-means++ restarts per k, in kmeans and in a selection


def kmeans(x, k, stream, *, restarts=_RESTARTS, max_iter=300, tol=1e-8, distinct=None, inits=None):
    """Best-of-restarts k-means++ with Lloyd iteration.

    Every restart's k-means++ init is drawn first, in one
    `_kmeans_pp_seeds` pass (Lloyd draws nothing); then one Lloyd runs
    them all on the byte-equal distinct rows weighted by their
    multiplicity.  Empty clusters are repaired by reseeding to the
    farthest point; the winner is the restart with the lowest
    within-cluster sum of squares, the first one on ties.  `distinct` is
    `_selection_rows(x)`, and `inits` an (R, k, D) stack of seeds, from
    a caller that clusters the same rows for several k.
    """
    data = as_matrix(x, "data")
    n = data.shape[0]
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise InvalidArgumentError(f"restarts must be >= 1, got {restarts}")
    prep = _selection_rows(data) if distinct is None else distinct
    if inits is None:
        (inits,) = _kmeans_pp_seeds(prep, [k], restarts, stream)
    best = None
    for clustering in _lloyd(prep, inits, max_iter, tol):
        if best is None or clustering.inertia < best.inertia:
            best = clustering
    return best


# Bytes of one of silhouette's (rows, m) distance blocks, which bound its
# transient memory at eval-point sizes.
_SILHOUETTE_BLOCK_BYTES = 1 << 17


def silhouette(x, clusterings, *, distinct=None):
    """Per-point silhouette scores and their mean (Euclidean distances),
    as one (scores, mean) pair per clustering of the same rows.

    a(p): mean distance to the rest of p's cluster (singletons score 0);
    b(p): smallest mean distance to another non-empty cluster;
    s = (b-a)/max(a,b).  The distances run over the byte-equal distinct
    rows only: every clustering's member columns, stacked, count each
    distinct row's copies per cluster (copies of one row may sit in
    different clusters), so one pass serves them all, and each full row
    reads its distinct row's sums.  `distinct` is as in kmeans.

    The distinct rows are centered first: distances do not change under
    a shift, and centering keeps the expanded form's round-off at the
    scale of the rows' spread, not of an offset they share.  Then each
    block of rows, `_SILHOUETTE_BLOCK_BYTES` of distances to all m rows,
    is one `_pair_dist_sq` GEMM, its square root and one product with
    the member columns.
    """
    data = as_matrix(x, "data")
    n = data.shape[0]
    if min((c.k for c in clusterings), default=0) < 2:
        raise InvalidArgumentError("silhouette needs at least 2 clusters")
    rows, inverse = (_selection_rows(data) if distinct is None else distinct)[:2]
    m = rows.shape[0]
    assignments = [np.asarray(c.assignment) for c in clusterings]
    offsets = np.cumsum([0] + [c.k for c in clusterings])
    columns = np.stack([offset + a for a, offset in zip(assignments, offsets)], axis=1)
    cells = (inverse[:, None] * offsets[-1] + columns).ravel()
    members = np.bincount(cells, minlength=m * offsets[-1]).reshape(m, -1).astype(np.float64)
    centered = rows - rows.mean(axis=0)
    centered_sq = np.einsum("ij,ij->i", centered, centered)
    sums = np.empty_like(members)  # per-cluster distance sums of each distinct row
    block = max(1, _SILHOUETTE_BLOCK_BYTES // (8 * m))
    for start in range(0, m, block):
        stop = min(start + block, m)
        dist = _pair_dist_sq(centered[start:stop], centered_sq[start:stop], centered, centered_sq)
        np.sqrt(dist, out=dist)
        np.matmul(dist, members, out=sums[start:stop])
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

    The rows are collapsed to their distinct rows and set up once, for
    every k and the silhouette.  One k-means++ pass seeds every (k,
    restart) in k order on the stream; then kmeans runs each k's Lloyd
    from its seeds, and one silhouette pass scores them all.  Ties
    resolve to the smallest k; a winning silhouette below 0.3 sets the
    low_silhouette flag (weak cluster structure)."""
    data = as_matrix(x, "data")
    candidates = [k for k in k_range if 2 <= k <= data.shape[0]]
    if not candidates:
        raise InvalidArgumentError("no feasible cluster counts in range")
    distinct = _selection_rows(data)
    seeds = _kmeans_pp_seeds(distinct, candidates, _RESTARTS, stream)
    clusterings = [
        kmeans(data, k, stream, distinct=distinct, inits=s) for k, s in zip(candidates, seeds)
    ]
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
    skipped_clusters: int
    pair_count: int


def adjusted_inter_token_cos(vectors, tokens, clustering, pair_budget, stream):
    """Expected inter-token cosine after subtracting each cluster's mean.

    Clusters with fewer than two distinct tokens are skipped (and
    counted); the result is the unweighted mean over the remaining
    clusters, with the pair count summed over them.  Values near 0
    indicate isotropy within clusters.  Takes one layer's rows and their
    token ids, like inter_token_cos."""
    vectors, tokens = _token_rows(vectors, tokens)
    assignment = np.asarray(clustering.assignment)
    if assignment.shape[0] != vectors.shape[0]:
        raise InvalidArgumentError(
            "clustering does not match the layer's record count"
        )
    values = []
    skipped = 0
    pair_count = 0
    for c in range(clustering.k):
        members = np.flatnonzero(assignment == c)
        if members.size == 0:
            skipped += 1
            continue
        centered = vectors[members]
        centered -= centered.mean(axis=0)
        instances = _instances(centered, tokens[members])
        if len(instances) < 2:
            skipped += 1
            continue
        value, count = _pair_expectation(instances, pair_budget, stream)
        values.append(value)
        pair_count += count
    if not values:
        raise UndefinedMetricError(
            "every cluster lacks two distinct tokens; adjusted cosine undefined"
        )
    return AdjustedCosineStat(float(np.mean(values)), skipped, pair_count)


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
    eff = {f"{eps:g}": _captured_dimension(res, eps) for eps in eps_values}
    zeta = inter_token_cos(matrix, tokens, pair_budget, stream)
    selection = select_cluster_count(matrix, k_range, stream)
    adjusted = adjusted_inter_token_cos(matrix, tokens, selection.clustering, pair_budget, stream)
    iso = isotropy_partition(matrix)
    return LayerIsotropyReport(
        layer=int(layer),
        record_count=int(matrix.shape[0]),
        distinct_tokens=int(np.unique(tokens).size),
        effective_dim=eff,
        zeta_cos=zeta,
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
