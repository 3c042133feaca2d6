"""Tests for effective dimension, token cosines, k-means, and silhouette."""

import copy
import tracemalloc

import numpy as np
import pytest

from isoprobe import evalharness, isotropy, numerics, theory
from isoprobe.dumps import EmbeddingDump
from isoprobe.errors import InvalidArgumentError, NumericFailureError, UndefinedMetricError
from isoprobe.isotropy import (
    Clustering,
    adjusted_inter_token_cos,
    effective_dimension,
    inter_token_cos,
    kmeans,
    layer_report,
    pca_plot_rows,
    select_cluster_count,
    silhouette,
)
from isoprobe.numerics import RngStream


def make_dump(vectors, token_ids, layer=1):
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    return EmbeddingDump(
        dim=vectors.shape[1],
        layers=np.full(n, layer, dtype=np.uint32),
        token_ids=np.asarray(token_ids, dtype=np.uint32),
        context_ids=np.arange(n, dtype=np.uint64),
        vectors=vectors,
    )


def rng_state(stream):
    """The stream's full generator state (counter, key and buffers)."""
    return repr(stream.generator.bit_generator.state)


def axis_cross(dim, scale=1.0):
    return np.vstack([np.eye(dim), -np.eye(dim)]) * scale


class TestEffectiveDimension:
    def test_equal_eigenvalues(self):
        # covariance is a multiple of the identity, so r_m = m / 10
        data = axis_cross(10, scale=3.0)
        assert effective_dimension(data, 0.8) == 8

    def test_two_direction_spectrum(self):
        rows = np.vstack(
            [
                np.array([np.sqrt(0.81), 0.0, 0.0]),
                -np.array([np.sqrt(0.81), 0.0, 0.0]),
                np.array([0.0, np.sqrt(0.19), 0.0]),
                -np.array([0.0, np.sqrt(0.19), 0.0]),
            ]
        )
        assert effective_dimension(rows, 0.8) == 1

    def test_planted_four_directions(self):
        rng = np.random.default_rng(7)
        stds = np.sqrt(np.array([0.21] * 4 + [0.16 / 6] * 6))
        data = rng.normal(size=(100_000, 10)) * stds
        assert effective_dimension(data, 0.8) == 4

    def test_isotropic_gaussian(self):
        rng = np.random.default_rng(42)
        d = effective_dimension(rng.normal(size=(100_000, 10)), 0.8)
        assert abs(d - 8) <= 1

    def test_monotone_in_eps_and_rank_bound(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(50, 6)) @ np.diag([5.0, 3.0, 1.0, 0.5, 0.1, 0.01])
        values = [effective_dimension(data, e) for e in (0.2, 0.5, 0.8, 0.9, 1.0)]
        assert values == sorted(values)
        rank = np.linalg.matrix_rank(data - data.mean(axis=0))
        assert effective_dimension(data, 1.0) <= rank

    def test_degenerate_zero_variance(self):
        assert effective_dimension(np.ones((5, 3)), 0.8) == 1

    def test_eps_validation(self):
        with pytest.raises(InvalidArgumentError):
            effective_dimension(np.eye(3), 0.0)


class TestInterTokenCos:
    def test_orthogonal_tokens(self):
        value = inter_token_cos(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1])
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_identical_vectors(self):
        value = inter_token_cos(np.tile([2.0, 1.0], (6, 1)), np.arange(6))
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_one_instance_per_token_is_the_gram_mean(self):
        rng = np.random.default_rng(3)
        n = 60
        vectors = rng.normal(size=(n, 8))
        unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        gram = unit @ unit.T
        exact = (gram.sum() - n) / (n * (n - 1))
        assert inter_token_cos(vectors, np.arange(n)) == pytest.approx(exact, abs=1e-12)

    def test_zero_vectors_excluded(self):
        value = inter_token_cos(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), [0, 0, 1])
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_added_zero_rows_leave_zeta_and_zeta_prime_unchanged(self):
        # integer rows whose columns sum to 0 in each cluster: both cluster
        # means are exactly 0 with or without the zero rows, so the zero
        # rows stay zero after centering
        rng = np.random.default_rng(41)
        vectors = rng.integers(-5, 6, size=(40, 4)).astype(np.float64)
        vectors[[19, 39]] = 0.0
        vectors[19] = -vectors[:20].sum(axis=0)
        vectors[39] = -vectors[20:].sum(axis=0)
        assert np.all(np.linalg.norm(vectors, axis=1) > 0.0)
        tokens = np.arange(40) % 13
        assignment = np.repeat([0, 1], 20)
        # one zero row of a token with other rows, one of a token with none
        padded = np.vstack([vectors, np.zeros((2, 4))])
        padded_tokens = np.append(tokens, [3, 99])
        padded_assignment = np.append(assignment, [0, 1])

        def both(rows, token_ids, labels):
            zeta = inter_token_cos(rows, token_ids)
            return zeta, adjusted_inter_token_cos(rows, token_ids, clustering_of(labels, 2))

        zeta, adjusted = both(vectors, tokens, assignment)
        padded_zeta, padded_adjusted = both(padded, padded_tokens, padded_assignment)
        assert padded_zeta == zeta
        assert padded_adjusted == adjusted

    @pytest.mark.parametrize(
        "vectors, tokens",
        [([[1.0, 0.0]], [0]), ([[1.0, 0.0], [0.0, 0.0]], [0, 1]), (np.zeros((3, 2)), [0, 1, 2])],
        ids=["one-token", "one-nonzero-token", "all-zero"],
    )
    def test_needs_two_tokens(self, vectors, tokens):
        with pytest.raises(InvalidArgumentError, match="need at least 2"):
            inter_token_cos(np.array(vectors), tokens)

    def test_rotation_and_scale_invariance(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(20, 4))
        tokens = np.arange(20)
        base = inter_token_cos(vectors, tokens)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        assert inter_token_cos(vectors @ q, tokens) == pytest.approx(base, abs=1e-12)
        scaled = vectors * rng.uniform(0.1, 10.0, size=(20, 1))
        assert inter_token_cos(scaled, tokens) == pytest.approx(base, abs=1e-12)

    def test_cosines_reject_mismatched_token_count(self):
        vectors = np.eye(3)
        clustering = Clustering(
            k=1,
            assignment=np.zeros(3, dtype=np.int64),
            centroids=vectors.mean(axis=0, keepdims=True),
            inertia=0.0,
            iterations=0,
        )
        with pytest.raises(InvalidArgumentError, match="2 token ids for 3"):
            inter_token_cos(vectors, [0, 1])
        with pytest.raises(InvalidArgumentError, match="4 token ids for 3"):
            adjusted_inter_token_cos(vectors, [0, 1, 2, 3], clustering)


def instances_oracle(vectors, tokens):
    """Per-token grouping as two passes: every token's rows in record
    order, then each token's zero rows dropped, and a token left with no
    rows dropped too."""
    vectors = np.asarray(vectors, dtype=np.float64)
    tokens = np.asarray(tokens)
    grouped = {int(t): vectors[tokens == t] for t in np.unique(tokens)}
    clean = {}
    for token, vecs in grouped.items():
        keep = vecs[np.linalg.norm(vecs, axis=1) > 0.0]
        if keep.shape[0]:
            clean[token] = keep
    return clean


class TestMeanDirections:
    def test_matches_two_pass_grouping_oracle(self):
        rng = np.random.default_rng(40)
        vectors = rng.normal(size=(30, 3))
        tokens = rng.permutation(np.arange(30) % 7) + 3  # unsorted ids 3..9
        vectors[[2, 11, 17]] = 0.0
        vectors[tokens == 5] = 0.0  # every row of token 5 is zero
        got = isotropy._mean_directions(vectors, tokens)
        want = instances_oracle(vectors, tokens)
        assert 5 in tokens and 5 not in want
        # one row per token with a nonzero row, in token id order
        assert got.shape == (len(want), 3)
        for row, token in zip(got, sorted(want)):
            rows = want[token]
            unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
            assert row == pytest.approx(unit.mean(axis=0), abs=1e-15)


def pair_expectation_oracle(vectors, tokens):
    """The expected cosine written out: the mean over every pair of
    distinct tokens of the mean cosine over every pair of their nonzero
    instances.  Returns (mean cosine, token pair count)."""
    instances = instances_oracle(vectors, tokens)
    ids = sorted(instances)
    means = []
    for a, i in enumerate(ids):
        for j in ids[a + 1 :]:
            cosines = [
                u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
                for u in instances[i]
                for v in instances[j]
            ]
            means.append(sum(cosines) / len(cosines))
    return sum(means) / len(means), len(means)


def random_token_rows(rng):
    """2..7 tokens of 1..3 instances each, some rows zero and some
    tokens with nothing but zero rows, in shuffled record order."""
    while True:
        sizes = rng.integers(1, 4, size=rng.integers(2, 8))
        tokens = rng.permutation(np.repeat(rng.choice(50, size=sizes.size, replace=False), sizes))
        vectors = rng.normal(size=(tokens.size, int(rng.integers(1, 7))))
        vectors[rng.random(tokens.size) < 0.15] = 0.0
        if np.unique(tokens[vectors.any(axis=1)]).size >= 2:
            return vectors, tokens


class TestPairExpectation:
    def test_matches_brute_force_oracle_on_random_cases(self):
        rng = np.random.default_rng(50)
        for _ in range(300):
            vectors, tokens = random_token_rows(rng)
            value, count = isotropy._pair_expectation(isotropy._mean_directions(vectors, tokens))
            want, want_count = pair_expectation_oracle(vectors, tokens)
            assert count == want_count
            assert abs(value - want) <= 1e-12
            assert inter_token_cos(vectors, tokens) == value

    def test_one_instance_tokens_and_zero_rows(self):
        # tokens 0 and 2 have one instance each, token 1 three, one of
        # them zero, and token 3 only a zero row
        vectors = np.array(
            [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0],
             [0.0, 0.0, 5.0], [0.0, 0.0, 0.0]]
        )
        tokens = [0, 1, 1, 1, 2, 3]
        # mu_0 = e1, mu_1 = (0.3, 0.9, 0), mu_2 = e3: pairs 0.3, 0 and 0
        assert inter_token_cos(vectors, tokens) == pytest.approx(0.1, abs=1e-15)
        assert pair_expectation_oracle(vectors, tokens) == (pytest.approx(0.1, abs=1e-15), 3)

    def test_two_tokens_is_the_mean_instance_cosine(self):
        rng = np.random.default_rng(52)
        vectors = rng.normal(size=(7, 5))
        tokens = [4, 9, 4, 4, 9, 9, 9]
        want, count = pair_expectation_oracle(vectors, tokens)
        assert count == 1
        assert inter_token_cos(vectors, tokens) == pytest.approx(want, abs=1e-12)

    def test_adjusted_matches_oracle_per_cluster(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            vectors, tokens = random_token_rows(rng)
            assignment = rng.integers(0, 3, size=tokens.size)
            values, counts, skipped = [], 0, 0
            for c in range(3):
                members = assignment == c
                rows = vectors[members]
                centered = rows - rows.mean(axis=0) if members.any() else rows
                if len(instances_oracle(centered, tokens[members])) < 2:
                    skipped += 1
                    continue
                value, count = pair_expectation_oracle(centered, tokens[members])
                values.append(value)
                counts += count
            if not values:
                continue
            stat = adjusted_inter_token_cos(vectors, tokens, clustering_of(assignment, 3))
            assert stat.value == pytest.approx(np.mean(values), abs=1e-12)
            assert (stat.skipped_clusters, stat.pair_count) == (skipped, counts)

    def test_cosines_draw_nothing_from_the_layer_stream(self):
        # ζ and ζ' are exact: a layer report leaves its stream where the
        # cluster-count selection alone leaves it
        rng = np.random.default_rng(54)
        vectors = rng.normal(size=(60, 4))
        tokens = rng.integers(0, 12, size=60)
        stream, selection_stream = RngStream(55, 0), RngStream(55, 0)
        report = layer_report(make_dump(vectors, tokens), 1, stream, k_range=range(2, 5))
        selection = select_cluster_count(vectors, range(2, 5), selection_stream)
        assert rng_state(stream) == rng_state(selection_stream)
        assert report.zeta_cos == inter_token_cos(vectors, tokens)
        assert report.zeta_prime_cos == adjusted_inter_token_cos(
            vectors, tokens, selection.clustering
        ).value


class TestKmeans:
    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(8)
        x = np.vstack(
            [rng.normal(size=(200, 3)) * 0.4, rng.normal(size=(200, 3)) * 0.4 + 8.0]
        )
        truth = np.repeat([0, 1], 200)
        clustering = kmeans(x, 2, RngStream(9, 0))
        agree = (clustering.assignment == truth).mean()
        assert max(agree, 1.0 - agree) >= 0.99

    def test_k_equals_n(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(12, 2))
        clustering = kmeans(x, 12, RngStream(11, 0))
        assert clustering.inertia == pytest.approx(0.0, abs=1e-20)
        assert len(set(clustering.assignment.tolist())) == 12

    def test_duplication_invariance(self):
        rng = np.random.default_rng(12)
        x = np.vstack(
            [rng.normal(size=(80, 2)) * 0.3, rng.normal(size=(80, 2)) * 0.3 + 6.0]
        )
        a = kmeans(x, 2, RngStream(13, 0))
        b = kmeans(np.vstack([x, x]), 2, RngStream(13, 1))
        ca = a.centroids[np.lexsort(a.centroids.T)]
        cb = b.centroids[np.lexsort(b.centroids.T)]
        np.testing.assert_allclose(ca, cb, atol=1e-8)

    def test_inertia_nonincreasing_over_iterations(self):
        # Lloyd draws nothing, so each max_iter starts from the same inits
        rng = np.random.default_rng(14)
        x = rng.normal(size=(200, 5))
        inertias = [kmeans(x, 6, RngStream(15, 0), max_iter=t).inertia for t in (1, 2, 3)]
        assert np.all(np.diff(inertias) <= 1e-9)
        assert inertias[-1] < inertias[0]

    def test_k_validation(self):
        with pytest.raises(InvalidArgumentError):
            kmeans(np.eye(3), 4, RngStream(0, 0))

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_validation(self, restarts):
        with pytest.raises(InvalidArgumentError, match="restarts"):
            kmeans(np.eye(3), 2, RngStream(0, 0), restarts=restarts)


def silhouette_oracle(x, clustering):
    """Silhouette scores straight from the definition, one pair at a time."""
    assign = clustering.assignment

    def score(p):
        same = [q for q in range(len(x)) if assign[q] == assign[p] and q != p]
        if not same:
            return 0.0
        a = float(np.mean([np.linalg.norm(x[p] - x[q]) for q in same]))
        bs = []
        for c in range(clustering.k):
            if c == assign[p]:
                continue
            others = [q for q in range(len(x)) if assign[q] == c]
            if others:
                bs.append(float(np.mean([np.linalg.norm(x[p] - x[q]) for q in others])))
        b = min(bs)
        return (b - a) / max(a, b) if max(a, b) > 0 else 0.0

    return np.array([score(p) for p in range(len(x))])


class TestSilhouette:
    def test_separated_blobs_score_high(self):
        rng = np.random.default_rng(16)
        x = np.vstack(
            [rng.normal(size=(100, 2)) * 0.2, rng.normal(size=(100, 2)) * 0.2 + 50.0]
        )
        clustering = kmeans(x, 2, RngStream(17, 0))
        _, mean_score = silhouette(x, [clustering])[0]
        assert mean_score > 0.9

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(500, 4))
        clustering = kmeans(x, 5, RngStream(19, 0))
        scores, mean_score = silhouette(x, [clustering])[0]
        direct = silhouette_oracle(x, clustering)
        np.testing.assert_allclose(scores, direct, atol=1e-12)
        assert mean_score == pytest.approx(direct.mean(), abs=1e-12)

    def test_row_blocks_singleton_and_empty_cluster_match_oracle(self):
        n, dim = 200, 256
        rows = isotropy._SILHOUETTE_BLOCK_BYTES // (8 * n)
        assert 1 < rows < n // 2 and n % rows  # several blocks, a partial last one
        rng = np.random.default_rng(28)
        x = rng.normal(size=(n, dim))
        assignment = kmeans(x, 3, RngStream(29, 0)).assignment
        assignment[7] = 3  # a singleton; cluster 4 stays empty
        clustering = Clustering(
            k=5,
            assignment=assignment,
            centroids=np.zeros((5, dim)),
            inertia=0.0,
            iterations=0,
        )
        scores, mean_score = silhouette(x, [clustering])[0]
        direct = silhouette_oracle(x, clustering)
        assert scores[7] == 0.0
        np.testing.assert_allclose(scores, direct, atol=1e-12)
        assert mean_score == pytest.approx(direct.mean(), abs=1e-12)

    def test_shared_offset_matches_direct_oracle(self):
        # rows far from the origin, as anisotropic embeddings are: the
        # expanded distances of the uncentered rows miss here by about 3e-9
        rng = np.random.default_rng(36)
        x = rng.normal(size=(400, 16)) * 0.01 + 100.0
        clustering = kmeans(x, 3, RngStream(37, 0))
        scores, mean_score = silhouette(x, [clustering])[0]
        direct = silhouette_oracle(x, clustering)
        np.testing.assert_allclose(scores, direct, atol=1e-12)
        assert mean_score == pytest.approx(direct.mean(), abs=1e-12)

    def test_identical_points_cluster(self):
        x = np.vstack([np.zeros((5, 2)), np.ones((5, 2)) * 4.0])
        clustering = Clustering(
            k=2,
            assignment=np.repeat([0, 1], 5),
            centroids=np.array([[0.0, 0.0], [4.0, 4.0]]),
            inertia=0.0,
            iterations=0,
        )
        scores, mean_score = silhouette(x, [clustering])[0]
        np.testing.assert_allclose(scores, 1.0)  # a=0, b>0 for every point
        assert mean_score == 1.0

    def test_bounds_on_random_data(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(100, 3))
        clustering = kmeans(x, 4, RngStream(21, 0))
        scores, _ = silhouette(x, [clustering])[0]
        assert np.all(scores >= -1.0) and np.all(scores <= 1.0)

    def test_single_cluster_rejected(self):
        x = np.eye(3)
        clustering = kmeans(x, 1, RngStream(0, 0))
        with pytest.raises(InvalidArgumentError):
            silhouette(x, [clustering])


def silhouette_block_oracle(x, clusterings):
    """Silhouette in difference form on the distinct rows, with a bound
    on how far silhouette may read from it: one (scores, mean,
    score_bound, mean_bound) per clustering.

    The bound is derived, with eps the unit round-off, gamma_j =
    j eps / (1 - j eps), D the width and n the row count, on the rows
    centered as silhouette centers them (by the distinct rows' mean):
    - per pair, silhouette's squared distance is within delta =
      (2D + 8) eps (|x|^2 + |y|^2) + tiny of the exact one (the round-off
      of the expanded form, and more than that of its difference-form
      recompute near 0), so its distance is within
      delta / (d_hat + d) <= min(sqrt(delta), delta / d) of it;
    - the centering moves a distance by at most eps (|x| + |y|), each
      square root rounds by eps d, and the oracle's own difference form
      is within gamma_{D+2} d / 2 of d;
    - a sum of those distances over one cluster adds each pair's bound
      and gamma_n of the sum on each side; a mean divides it by the
      count and rounds once more on each side;
    - a and b move by at most da and db (b is a minimum of means, each
      within db), so s = (b - a) / max(a, b) moves by at most
      (da + db + |s| max(da, db)) / (max(a, b) - max(da, db)), plus
      4 eps for its subtraction and division on both sides, and by at
      most 2 where that denominator is not positive;
    - the mean score moves by the mean bound plus gamma_n on each side.
    """
    data = np.asarray(x, dtype=np.float64)
    n, dim = data.shape
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny

    def gamma(j):
        return j * eps / (1 - j * eps)

    distinct, inverse = isotropy._distinct_rows(data)
    m = distinct.shape[0]
    centered = distinct - distinct.mean(axis=0)
    sq = np.sum(centered * centered, axis=1)
    norms = np.sqrt(sq)
    columns = np.ascontiguousarray(distinct.T)
    dist = np.zeros((m, m))
    for p in range(0, m, 32):  # the upper triangle, then mirrored
        diff = columns[:, p : p + 32, None] - columns[:, None, p:]
        diff *= diff
        dist[p : p + 32, p:] = np.sqrt(diff.sum(axis=0))
    dist = np.maximum(dist, dist.T)
    # min(sqrt(delta), delta / d), with d at its lowest
    delta = sq[:, None] + sq
    delta *= (2 * dim + 8) * eps
    delta += tiny
    d_low = norms[:, None] + norms
    d_low *= -eps
    d_low += dist * (1 - gamma(dim + 2))
    err = np.divide(delta, np.maximum(d_low, np.sqrt(delta), out=d_low), out=delta)
    linear = gamma(dim + 2) / 2 + 2 * eps  # the square roots' share, per unit of distance
    results = []
    at = np.arange(n)
    for clustering in clusterings:
        assignment = np.asarray(clustering.assignment)
        members = np.zeros((m, clustering.k))
        np.add.at(members, (inverse, assignment), 1.0)
        sums = dist @ members
        # each pair's shift and square roots, summed per cluster
        sum_err = err @ members + eps * (norms[:, None] * members.sum(axis=0) + norms @ members)
        sum_err += linear * sums
        sums, sum_err = sums[inverse], sum_err[inverse] + 2 * gamma(n) * sums[inverse]
        counts = members.sum(axis=0)
        own = counts[assignment]
        a = sums[at, assignment] / np.maximum(own - 1, 1)
        da = sum_err[at, assignment] / np.maximum(own - 1, 1) * (1 + eps) + 2 * eps * a
        filled = counts > 0
        means = np.where(filled, sums / np.maximum(counts, 1), np.inf)
        mean_err = sum_err / np.maximum(counts, 1) * (1 + eps) + 2 * eps * means
        mean_err[:, ~filled] = 0.0
        means[at, assignment] = np.inf
        mean_err[at, assignment] = 0.0
        b, db = means.min(axis=1), mean_err.max(axis=1)
        denom = np.maximum(a, b)
        scores = np.divide(b - a, denom, out=np.zeros(n), where=(own > 1) & (denom > 0))
        worst = np.maximum(da, db)
        room = denom - worst
        bound = np.full(n, 2.0)
        np.divide(da + db + np.abs(scores) * worst, room, out=bound, where=room > 0)
        bound[room > 0] += 4 * eps
        bound[own <= 1] = 0.0  # singletons score exactly 0 on both sides
        results.append((scores, float(scores.mean()), bound, float(bound.mean()) + 2 * gamma(n)))
    return results


def assert_silhouettes_within_bound(got, want):
    assert len(got) == len(want)
    for (scores, mean), (want_scores, want_mean, bound, mean_bound) in zip(got, want):
        assert np.all(np.abs(scores - want_scores) <= bound)
        assert abs(mean - want_mean) <= mean_bound


def clustering_of(assignment, k):
    return Clustering(
        k=k,
        assignment=np.asarray(assignment),
        centroids=np.zeros((k, 1)),
        inertia=0.0,
        iterations=0,
    )


def blocked_rows():
    """151 distinct rows of width 256: a 108-row block and a partial one."""
    return np.random.default_rng(28).normal(size=(151, 256))


def split_copy_rows():
    """Copies of one row in different clusters, at a width of 16."""
    rng = np.random.default_rng(31)
    base = rng.normal(size=(97, 16))
    return np.vstack([base, base[::3], base[:5]])


class TestChunkedSilhouette:
    """Silhouette's row blocks stay within the derived bound of the
    difference-form oracle on awkward inputs."""

    @staticmethod
    def clusterings(x):
        assignment = kmeans(x, 3, RngStream(29, 0)).assignment.copy()
        assignment[7] = 3  # a singleton; cluster 4 stays empty
        return [clustering_of(assignment, 5), kmeans(x, 2, RngStream(30, 0))]

    @pytest.mark.parametrize("rows", [blocked_rows, split_copy_rows])
    def test_blocks_within_bound_of_oracle(self, rows):
        x = rows()
        m = isotropy._distinct_rows(x)[0].shape[0]
        block = isotropy._SILHOUETTE_BLOCK_BYTES // (8 * m)
        assert 1 <= block and (block >= m or m % block)  # a partial last block, if several
        clusterings = self.clusterings(x)
        got = silhouette(x, clusterings)
        assert got[0][0][7] == 0.0
        assert_silhouettes_within_bound(got, silhouette_block_oracle(x, clusterings))

    def test_zero_width_rows(self):
        x = np.zeros((6, 0))
        clusterings = [clustering_of([0, 0, 1, 1, 2, 2], 3)]
        scores, mean = silhouette(x, clusterings)[0]
        assert mean == 0.0
        assert scores.tobytes() == np.zeros(6).tobytes()
        assert_silhouettes_within_bound([(scores, mean)], silhouette_block_oracle(x, clusterings))

    def test_readme_shape_peak_stays_below_2_mib(self):
        # an eval point of the README pipeline: 32 contexts of 16 rows at
        # D = 16, scored for k = 2..10 at once
        x = np.random.default_rng(33).normal(size=(512, 16))
        distinct = isotropy._selection_rows(x)
        clusterings = [kmeans(x, k, RngStream(34, 0), distinct=distinct) for k in range(2, 11)]
        tracemalloc.start()
        try:
            got = silhouette(x, clusterings, distinct=distinct)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert_silhouettes_within_bound(got, silhouette_block_oracle(x, clusterings))


def dist_sq_oracle(x, x_sq, centroids):
    """Squared distances of the rows x to the (k, D) centroids, as
    (n, k), in the expanded form Lloyd uses."""
    d2 = 2.0 * x @ centroids.T
    np.subtract(x_sq[:, None], d2, out=d2)
    d2 += np.sum(centroids * centroids, axis=-1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def lloyd_oracle(x, centroids, max_iter, tol):
    """Lloyd iteration on every full row (no deduplication)."""
    n, k = x.shape[0], centroids.shape[0]
    x_sq = np.sum(x * x, axis=1)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = dist_sq_oracle(x, x_sq, centroids)
        assignment = np.argmin(d2, axis=1)
        own = d2[np.arange(n), assignment]
        counts = np.bincount(assignment, minlength=k)
        for c in np.flatnonzero(counts == 0):
            # reseed an empty cluster at the farthest point whose own
            # cluster survives losing it
            eligible = np.flatnonzero(counts[assignment] >= 2)
            far = eligible[np.argmax(own[eligible])]
            counts[assignment[far]] -= 1
            assignment[far] = c
            counts[c] = 1
            own[far] = 0.0
        members = np.zeros((n, k))
        members[np.arange(n), assignment] = 1.0
        new_centroids = (members.T @ x) / counts[:, None]
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break
    d2 = dist_sq_oracle(x, x_sq, centroids)
    assignment = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), assignment].sum())
    return assignment, centroids, inertia, iterations


def lloyd_restart_oracle(rows, inverse, centroids, max_iter, tol):
    """One restart's distinct-row Lloyd run on its own, the loop that the
    stacked `_lloyd` runs for every restart at once: its reference, bit
    for bit.  Returns (assignment, centroids, inertia, iterations)."""
    m, k = rows.shape[0], centroids.shape[0]
    weights = np.bincount(inverse, minlength=m)
    rows_sq = np.sum(rows * rows, axis=1)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        d2 = dist_sq_oracle(rows, rows_sq, centroids)
        assignment = np.argmin(d2, axis=1)
        own = d2[np.arange(m), assignment]
        counts = np.bincount(assignment, weights=weights, minlength=k)
        members = np.zeros((m, k))
        left = weights  # copies still in their nearest cluster
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            left = weights.copy()
            copies = np.argsort(inverse, kind="stable")  # full rows by distinct row
            starts = np.cumsum(weights) - weights
            for c in empty:
                eligible = np.flatnonzero((left > 0) & (counts[assignment] >= 2))
                tied = eligible[own[eligible] == own[eligible].max()]
                # the next copy of each tied row, by its full-row index
                far = tied[np.argmin(copies[starts[tied] + weights[tied] - left[tied]])]
                counts[assignment[far]] -= 1
                left[far] -= 1
                counts[c] = 1
                members[far, c] = 1.0
        members[np.arange(m), assignment] = left
        new_centroids = (members.T @ rows) / counts[:, None]
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        if shift < tol:
            break
    d2 = dist_sq_oracle(rows, rows_sq, centroids)
    assignment = np.argmin(d2, axis=1)
    inertia = float((d2[np.arange(m), assignment] * weights).sum())
    return assignment[inverse], centroids, inertia, iterations


def kmeans_pp_init_oracle(x, k, stream):
    """k-means++ seeding with difference-form distances over every full
    row, the reference for the expanded distinct-row seeding pass
    `_kmeans_pp_seeds`.  A step whose distances sum to 0 picks full row
    floor(u * n) with its own draw u."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[stream.uniform_choice(n)]
    d2 = np.sum((x - centroids[0]) ** 2, axis=1)
    for c in range(1, k):
        total = float(d2.sum())
        u = stream.uniform()
        if total <= 0.0:
            idx = int(u * n)
        else:
            idx = int(np.searchsorted(np.cumsum(d2), u * total, side="right"))
        idx = min(idx, n - 1)
        centroids[c] = x[idx]
        d2 = np.minimum(d2, np.sum((x - centroids[c]) ** 2, axis=1))
    return centroids


def kmeans_oracle(x, k, stream, *, restarts=5, max_iter=300, tol=1e-8):
    """kmeans with the difference-form init and lloyd_oracle in place of
    the distinct-row init and Lloyd."""
    x = np.asarray(x, dtype=np.float64)
    best = None
    for _ in range(restarts):
        init = kmeans_pp_init_oracle(x, k, stream)
        assignment, centroids, inertia, iters = lloyd_oracle(x, init, max_iter, tol)
        if best is None or inertia < best.inertia:
            best = Clustering(k, assignment, centroids, inertia, iters)
    return best


def select_oracle(x, k_range, stream):
    """The per-k selection loop: full-row k-means, then a one-pair-at-a-
    time silhouette, for each k in turn."""
    clusterings, scores = {}, {}
    for k in k_range:
        clusterings[k] = kmeans_oracle(x, k, stream)
        scores[k] = float(silhouette_oracle(x, clusterings[k]).mean())
    best_k = max(scores, key=lambda k: (scores[k], -k))
    return best_k, clusterings, scores


def near_tie_rows():
    # four blobs on a 4.265 x 10 rectangle: two columns (k = 2) and four
    # corners (k = 4) score within 1e-3 of each other
    rng = np.random.default_rng(40)
    centers = np.array([[0.0, 0.0], [4.265, 0.0], [0.0, 10.0], [4.265, 10.0]])
    return np.vstack([rng.normal(size=(30, 2)) * 0.6 + c for c in centers])


def repeated_rows():
    # 4 distinct rows, 3 copies each: every k >= 5 starts with coincident
    # centroids, so Lloyd must reseed an empty cluster
    return np.repeat(np.random.default_rng(42).normal(size=(4, 3)), 3, axis=0)


def interleaved_rows():
    # repeated_rows' 4 distinct rows, copies spread apart: a second repair
    # in one iteration must take the copy with the lowest row index
    return np.tile(np.random.default_rng(42).normal(size=(4, 3)), (3, 1))


def signed_zero_rows():
    # equal values, different bytes: -0.0 copies are distinct rows
    x = repeated_rows()
    x[:, 1] = 0.0
    x[[1, 5, 10], 1] = -0.0
    return x


def blob_rows():
    rng = np.random.default_rng(44)
    centers = np.array([[0.0, 0.0, 0.0], [6.0, 0.0, 1.0], [0.0, 6.0, -1.0]])
    return np.vstack([rng.normal(size=(50, 3)) + c for c in centers])


class TestFusedSelection:
    @pytest.mark.parametrize(
        "rows, k_range",
        [
            (blob_rows, range(2, 11)),
            (near_tie_rows, range(2, 7)),
            (repeated_rows, range(2, 12)),
            (interleaved_rows, range(2, 12)),
            (signed_zero_rows, range(2, 12)),
        ],
        ids=["blobs", "near_tie", "k_near_n", "interleaved_copies", "signed_zeros"],
    )
    def test_matches_per_k_oracle(self, rows, k_range):
        x = rows()
        fused_stream, oracle_stream = RngStream(45, 0), RngStream(45, 0)
        sel = select_cluster_count(x, k_range, fused_stream)
        best_k, clusterings, scores = select_oracle(x, k_range, oracle_stream)
        assert sel.best_k == best_k
        assert sel.scores.keys() == scores.keys()
        for k, score in scores.items():
            assert sel.scores[k] == pytest.approx(score, abs=1e-12)
        np.testing.assert_array_equal(sel.clustering.assignment, clusterings[best_k].assignment)
        assert sel.clustering.iterations == clusterings[best_k].iterations
        np.testing.assert_allclose(
            sel.clustering.centroids, clusterings[best_k].centroids, rtol=0, atol=1e-12
        )
        assert rng_state(fused_stream) == rng_state(oracle_stream)

    def test_near_tie_is_near(self):
        scores = sorted(select_oracle(near_tie_rows(), range(2, 7), RngStream(45, 0))[2].values())
        assert scores[-1] - scores[-2] < 1e-3

    def test_scores_every_clustering_in_one_pass(self):
        rng = np.random.default_rng(46)
        x = rng.normal(size=(90, 5))
        clusterings = [kmeans(x, k, RngStream(47, k)) for k in (2, 3, 7)]
        fused = silhouette(x, clusterings)
        assert len(fused) == 3
        for clustering, (scores, mean_score) in zip(clusterings, fused):
            direct = silhouette_oracle(x, clustering)
            np.testing.assert_allclose(scores, direct, atol=1e-12)
            assert mean_score == pytest.approx(direct.mean(), abs=1e-12)

    def test_one_hot_centroids_match_mask_means(self):
        # 100 distinct rows, each one to five times: the weighted one-hot
        # product over distinct rows gives the full rows' cluster means
        rng = np.random.default_rng(48)
        base = rng.normal(size=(100, 6)) + 3.0
        x = base[rng.permutation(np.repeat(np.arange(100), rng.integers(1, 6, size=100)))]
        init = base[rng.choice(100, size=7, replace=False)]
        prep = isotropy._selection_rows(x)
        assert prep.rows.shape[0] == 100 < x.shape[0]
        centroids = isotropy._lloyd(prep, init[None], 1, 0.0)[0].centroids
        d2 = ((x[:, None, :] - init[None, :, :]) ** 2).sum(axis=2)
        first = np.argmin(d2, axis=1)
        means = np.array([x[first == c].mean(axis=0) for c in range(7)])
        np.testing.assert_allclose(centroids, means, rtol=0, atol=1e-12)


def assert_same_clustering(got, want, exact):
    np.testing.assert_array_equal(got.assignment, want.assignment)
    assert got.iterations == want.iterations
    if exact:
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.inertia == want.inertia
    else:
        np.testing.assert_allclose(got.centroids, want.centroids, rtol=0, atol=1e-12)
        assert got.inertia == pytest.approx(want.inertia, rel=1e-12, abs=1e-12)


def wide_rows():
    # D = 64, the paper's embedding width: at k 2 and 3 a concatenated
    # (m, R * k) product rounds many entries differently from the
    # restarts' own (m, k) products
    rng = np.random.default_rng(64)
    return np.vstack([rng.normal(size=(64, 64)) + 3.0 * c for c in range(4)])


def far_off_rows():
    # no repeats; a stack whose second init holds two far-off centroids
    # that start empty, so only that restart runs the repair
    return np.random.default_rng(62).normal(size=(120, 3))


class TestStackedLloyd:
    @pytest.mark.parametrize(
        "rows",
        [blob_rows, repeated_rows, interleaved_rows, signed_zero_rows, wide_rows, far_off_rows],
    )
    @pytest.mark.parametrize("k", [2, 3, 6, 9])
    @pytest.mark.parametrize("max_iter, tol", [(300, 1e-8), (1, 0.0), (2, 0.0), (3, 0.0), (300, 0.0)])
    def test_every_restart_matches_its_own_run_bit_for_bit(self, rows, k, max_iter, tol):
        x = rows()
        stream = RngStream(70, k)
        inits = np.stack([kmeans_pp_init_oracle(x, k, stream) for _ in range(5)])
        if rows is far_off_rows:
            inits[1, :2] = 50.0 + np.arange(2)[:, None]
        distinct, inverse = isotropy._distinct_rows(x)
        stacked = isotropy._lloyd(isotropy._selection_rows(x), inits, max_iter, tol)
        assert len(stacked) == 5
        for init, got in zip(inits, stacked):
            want = lloyd_restart_oracle(distinct, inverse, init, max_iter, tol)
            np.testing.assert_array_equal(got.assignment, want[0])
            assert got.centroids.tobytes() == want[1].tobytes()
            assert (got.inertia, got.iterations) == want[2:]

    def test_restarts_leave_the_stack_at_their_own_iteration(self):
        # the restarts converge after different iteration counts, so the
        # active stack shrinks while the rest keep iterating
        x = np.random.default_rng(71).normal(size=(300, 4))
        stream = RngStream(72, 0)
        inits = np.stack([kmeans_pp_init_oracle(x, 7, stream) for _ in range(5)])
        stacked = isotropy._lloyd(isotropy._selection_rows(x), inits, 300, 1e-8)
        assert len({c.iterations for c in stacked}) > 1
        for init, got in zip(inits, stacked):
            want = lloyd_restart_oracle(x, np.arange(300), init, 300, 1e-8)
            assert got.centroids.tobytes() == want[1].tobytes()
            assert got.iterations == want[3]

    def test_winner_is_first_lowest_inertia(self, monkeypatch):
        # restarts 1 and 3 tie at the lowest inertia: the first one wins
        real = isotropy._lloyd

        def tied(prep, inits, max_iter, tol):
            out = real(prep, inits, max_iter, tol)
            for r, inertia in enumerate([3.0, 1.0, 2.0, 1.0, 1.5]):
                out[r].inertia, out[r].iterations = inertia, r
            return out

        monkeypatch.setattr(isotropy, "_lloyd", tied)
        assert kmeans(blob_rows(), 3, RngStream(73, 0)).iterations == 1


def underflow_rows():
    # distinct rows whose differences square to 0: the difference form
    # reads 0 between them, so k-means++ takes uniform picks
    x = np.repeat(np.random.default_rng(43).normal(size=(3, 3)), 4, axis=0)
    x[:, 2] = np.tile([0.0, 1e-170, -1e-170, 3e-171], 3)
    return x


def assert_same_picks(x, ks, stream, oracle_stream, restarts=5):
    """The seeding pass of every k in ks at once against the difference-
    form oracle run per k and restart: the same centroid bytes for every
    init, and the same stream state."""
    seeds = isotropy._kmeans_pp_seeds(isotropy._selection_rows(x), ks, restarts, stream)
    assert len(seeds) == len(ks)
    for k, stack in zip(ks, seeds):
        assert stack.shape == (restarts, k, x.shape[1])
        for got in stack:
            assert got.tobytes() == kmeans_pp_init_oracle(x, k, oracle_stream).tobytes()
    assert rng_state(stream) == rng_state(oracle_stream)


SEEDED_ROWS = [signed_zero_rows, repeated_rows, interleaved_rows, wide_rows, underflow_rows]


class TestKmeansPlusPlusInit:
    @pytest.mark.parametrize("rows", SEEDED_ROWS)
    @pytest.mark.parametrize("k", range(1, 13))
    def test_picks_match_difference_form_oracle(self, rows, k):
        assert_same_picks(rows(), [k], RngStream(74, k), RngStream(74, k))

    @pytest.mark.parametrize("rows", SEEDED_ROWS)
    @pytest.mark.parametrize("ks", [range(2, 13), [5, 2, 12, 3], [1, 3]], ids=str)
    def test_every_k_in_one_pass_matches_oracle(self, rows, ks):
        assert_same_picks(rows(), list(ks), RngStream(78, 0), RngStream(78, 0))

    @pytest.mark.parametrize("rows", [blob_rows, *SEEDED_ROWS])
    def test_selection_matches_per_k_kmeans_loop_bit_for_bit(self, rows):
        # one seeding pass for every k draws and picks what one kmeans
        # call per k, in k order on the same stream, does
        x = rows()
        stream, loop_stream = RngStream(80, 0), RngStream(80, 0)
        sel = select_cluster_count(x, range(2, 11), stream)
        clusterings = [kmeans(x, k, loop_stream) for k in range(2, 11)]
        scored = silhouette(x, clusterings)
        assert sel.scores == {c.k: mean for c, (_, mean) in zip(clusterings, scored)}
        assert_same_clustering(sel.clustering, clusterings[sel.best_k - 2], True)
        assert rng_state(stream) == rng_state(loop_stream)

    def test_selection_calls_kmeans_once_per_feasible_k(self, monkeypatch):
        calls = []
        real = isotropy.kmeans
        monkeypatch.setattr(
            isotropy, "kmeans", lambda x, k, *args, **kw: calls.append(k) or real(x, k, *args, **kw)
        )
        select_cluster_count(repeated_rows(), range(0, 20), RngStream(81, 0))
        assert calls == list(range(2, 13))

    def test_zero_distances_pick_the_uniform_row_of_their_own_draw(self):
        # within each of the 3 groups of underflow_rows every difference-
        # form distance is 0, so once the first 3 picks cover the groups,
        # each later pick is full row floor(u * n) of that step's draw u
        x = underflow_rows()
        distinct = isotropy._selection_rows(x)
        assert distinct.rows.shape[0] == 12
        assert np.all(np.sum((x[:4] - x[0]) ** 2, axis=1) == 0.0)
        stream, draws = RngStream(75, 0), RngStream(75, 0)
        (seeds,) = isotropy._kmeans_pp_seeds(distinct, [12], 1, stream)
        first, u = draws.uniform_choice(12), draws.uniforms(11)
        picks = [np.flatnonzero((x == row).all(axis=1))[0] for row in seeds[0]]
        assert picks[0] == first
        assert sorted(x[picks[:3], 0]) == sorted(distinct.rows[[0, 4, 8], 0])
        assert picks[3:] == [int(v * 12) for v in u[2:]]
        assert rng_state(stream) == rng_state(draws)

    @pytest.mark.parametrize("rows", [repeated_rows, interleaved_rows, underflow_rows])
    def test_selection_draws_do_not_depend_on_the_data(self, rows):
        # per (k, restart), one uniform_choice(n) and k - 1 uniforms, even
        # where a step's distances all read 0
        x = rows()
        stream, draws = RngStream(82, 0), RngStream(82, 0)
        select_cluster_count(x, range(2, 9), stream)
        for k in range(2, 9):
            for _ in range(isotropy._RESTARTS):
                draws.uniform_choice(x.shape[0])
                draws.uniforms(k - 1)
        assert rng_state(stream) == rng_state(draws)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_overflowing_rows_raise_before_any_draw(self, scale):
        x = blob_rows() * scale
        assert np.all(np.isfinite(x))
        stream = RngStream(76, 0)
        before = rng_state(stream)
        with pytest.raises(NumericFailureError, match="too large"):
            select_cluster_count(x, range(2, 6), stream)
        with pytest.raises(NumericFailureError, match="too large"):
            kmeans(x, 3, stream)
        assert rng_state(stream) == before

    def test_power_of_two_scale_near_the_limit_changes_no_pick(self):
        # 2**500 keeps every squared distance sum in range and scales all
        # arithmetic exactly
        x = blob_rows()
        base = select_cluster_count(x, range(2, 6), RngStream(77, 0))
        scaled = select_cluster_count(x * 2.0**500, range(2, 6), RngStream(77, 0))
        assert scaled.best_k == base.best_k
        np.testing.assert_array_equal(scaled.clustering.assignment, base.clustering.assignment)
        assert scaled.scores == base.scores


class _Recorded(Exception):
    """Ends an eval point once its selection input is recorded."""


def criterion_8_selections(monkeypatch, params, tok_cfg, series):
    """(matrix, k_range, stream) as every point of criterion 8's two sweeps
    hands them to select_cluster_count, the stream a copy."""
    selections = []

    def record(matrix, k_range, stream):
        selections.append((matrix, k_range, copy.deepcopy(stream)))
        raise _Recorded

    monkeypatch.setattr(evalharness, "select_cluster_count", record)
    # the configs of test_criterion_8_directional_sweeps
    sweeps = [
        evalharness.SweepConfig(variable="noise_sigma", values=(0.0, 0.05), windows=64),
        evalharness.SweepConfig(variable="context_length", values=(4, 16), windows=64),
    ]
    for cfg in sweeps:
        for value in cfg.values:
            for seed in cfg.seeds:
                with pytest.raises(_Recorded):
                    evalharness._sweep_row_task(
                        (params, tok_cfg, series, cfg, value, "seasonality_2", seed)
                    )
    return selections


@pytest.fixture(scope="module")
def criterion_8_points(sweep_model, seasonality_series):
    params, tok_cfg = sweep_model
    with pytest.MonkeyPatch.context() as monkeypatch:
        selections = criterion_8_selections(monkeypatch, params, tok_cfg, seasonality_series.values)
    assert len(selections) == 80
    return selections


@pytest.mark.slow  # trains criterion 8's sweep model
def test_picks_match_difference_form_on_criterion_8_matrices(criterion_8_points):
    # every k-means++ pick of the 80 sweep points, with each point's own
    # stream state, is the difference-form oracle's
    for matrix, k_range, recorded in criterion_8_points:
        assert_same_picks(matrix, list(k_range), copy.deepcopy(recorded), copy.deepcopy(recorded))


@pytest.mark.slow
def test_silhouettes_match_block_oracle_on_criterion_8_matrices(criterion_8_points):
    # every eval matrix of the 80 sweep points, under assignments drawn
    # for the ends of its k range
    rng = np.random.default_rng(35)
    for matrix, k_range, _ in criterion_8_points:
        ks = (k_range[0], k_range[-1])
        clusterings = [clustering_of(rng.integers(0, k, matrix.shape[0]), k) for k in ks]
        assert_silhouettes_within_bound(
            silhouette(matrix, clusterings), silhouette_block_oracle(matrix, clusterings)
        )


class TestDistinctRows:
    def test_byte_keys_in_first_occurrence_order(self):
        x = signed_zero_rows()[[5, 0, 1, 6, 0, 5]]
        rows, inverse = isotropy._distinct_rows(x)
        assert rows[inverse].tobytes() == x.tobytes()
        # x[0] and x[2] differ only in the sign of a zero
        assert inverse.tolist() == [0, 1, 2, 3, 1, 0]

    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_no_repeats_bit_identical_to_full_rows(self, k):
        x = np.random.default_rng(60).normal(size=(200, 4))
        stream, oracle_stream = RngStream(61, 0), RngStream(61, 0)
        assert_same_clustering(kmeans(x, k, stream), kmeans_oracle(x, k, oracle_stream), True)
        assert rng_state(stream) == rng_state(oracle_stream)

    def test_no_repeats_repair_bit_identical_to_full_rows(self):
        # two far-off initial centroids start empty and are reseeded
        rng = np.random.default_rng(62)
        x = rng.normal(size=(120, 3))
        init = np.vstack([x[:4], np.full((2, 3), 50.0)])
        (got,) = isotropy._lloyd(isotropy._selection_rows(x), init[None], 300, 1e-8)
        want = lloyd_oracle(x, init, 300, 1e-8)
        np.testing.assert_array_equal(got.assignment, want[0])
        assert got.centroids.tobytes() == want[1].tobytes()
        assert (got.inertia, got.iterations) == want[2:]

    @pytest.mark.parametrize("rows", [repeated_rows, interleaved_rows, signed_zero_rows])
    @pytest.mark.parametrize("k", [5, 7, 9, 12])
    def test_split_copies_match_full_rows(self, rows, k):
        # k >= 5 over 4 distinct values: repairs split copies of one row
        x = rows()
        stream, oracle_stream = RngStream(63, 0), RngStream(63, 0)
        got, want = kmeans(x, k, stream), kmeans_oracle(x, k, oracle_stream)
        assert_same_clustering(got, want, False)
        assert rng_state(stream) == rng_state(oracle_stream)

    def test_silhouette_copies_split_across_clusters(self):
        x = interleaved_rows()
        # copies of distinct row 0 (records 0, 4, 8) sit in clusters 0 and 2
        assignment = np.array([0, 1, 1, 2, 2, 1, 1, 2, 0, 1, 1, 2])
        clustering = Clustering(
            k=3,
            assignment=assignment,
            centroids=np.zeros((3, 3)),
            inertia=0.0,
            iterations=0,
        )
        scores, mean_score = silhouette(x, [clustering])[0]
        direct = silhouette_oracle(x, clustering)
        np.testing.assert_allclose(scores, direct, rtol=0, atol=1e-12)
        assert mean_score == pytest.approx(direct.mean(), abs=1e-12)


class TestSelectClusterCount:
    def test_three_blobs(self):
        rng = np.random.default_rng(22)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        x = np.vstack([rng.normal(size=(100, 2)) * 0.5 + c for c in centers])
        sel = select_cluster_count(x, range(2, 11), RngStream(23, 0))
        assert sel.best_k == 3
        assert not sel.low_silhouette

    def test_uniform_cube_flags_low_silhouette(self):
        rng = np.random.default_rng(24)
        sel = select_cluster_count(rng.random((300, 8)), range(2, 11), RngStream(25, 0))
        assert sel.low_silhouette
        assert sel.clustering.mean_silhouette < 0.3

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(120, 4))
        a = select_cluster_count(x, range(2, 11), RngStream(27, 0))
        b = select_cluster_count(x, range(2, 11), RngStream(27, 0))
        assert a.best_k == b.best_k
        np.testing.assert_array_equal(a.clustering.assignment, b.clustering.assignment)
        assert a.scores == b.scores


class TestAdjustedInterTokenCos:
    def test_iid_gaussian_cluster_is_isotropic(self):
        stream = RngStream(28, 0)
        vectors = stream.gaussians(2000, 64)
        tokens = np.arange(2000) % 100
        clustering = Clustering(
            k=1,
            assignment=np.zeros(2000, dtype=np.int64),
            centroids=vectors.mean(axis=0, keepdims=True),
            inertia=0.0,
            iterations=0,
        )
        stat = adjusted_inter_token_cos(vectors, tokens, clustering)
        assert abs(stat.value) < 0.05

    def test_shared_offset_anisotropy(self):
        # 90/10 bimodal coefficients along one shared direction: after the
        # cluster mean shift, cosines concentrate near +/-1 and their
        # expectation stays far from zero.
        stream = RngStream(30, 0)
        n, dim = 400, 16
        direction = np.zeros(dim)
        direction[0] = 1.0
        signs = np.where(stream.uniforms(n) < 0.9, 1.0, -1.0)
        vectors = 3.0 * signs[:, None] * direction + 0.05 * stream.gaussians(n, dim)
        clustering = Clustering(
            k=1,
            assignment=np.zeros(n, dtype=np.int64),
            centroids=vectors.mean(axis=0, keepdims=True),
            inertia=0.0,
            iterations=0,
        )
        stat = adjusted_inter_token_cos(vectors, np.arange(n) % 50, clustering)
        assert abs(stat.value) > 0.5

    def test_double_centering_idempotent(self):
        stream = RngStream(32, 0)
        vectors = stream.gaussians(100, 6) + 5.0
        tokens = np.arange(100) % 20
        centered = vectors - vectors.mean(axis=0)
        clustering = Clustering(
            k=1,
            assignment=np.zeros(100, dtype=np.int64),
            centroids=vectors.mean(axis=0, keepdims=True),
            inertia=0.0,
            iterations=0,
        )
        a = adjusted_inter_token_cos(vectors, tokens, clustering)
        b = adjusted_inter_token_cos(centered, tokens, clustering)
        assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_clusters_without_two_tokens_are_skipped(self):
        vectors = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        tokens = [0, 0, 1, 2]  # cluster 0 holds only token 0
        clustering = Clustering(
            k=2,
            assignment=np.array([0, 0, 1, 1]),
            centroids=np.array([[0.95, 0.05], [0.05, 0.95]]),
            inertia=0.0,
            iterations=0,
        )
        stat = adjusted_inter_token_cos(vectors, tokens, clustering)
        assert stat.skipped_clusters == 1

    def test_all_clusters_skipped_is_undefined(self):
        vectors = np.array([[1.0, 0.0], [0.9, 0.1]])
        clustering = Clustering(
            k=1,
            assignment=np.zeros(2, dtype=np.int64),
            centroids=vectors.mean(axis=0, keepdims=True),
            inertia=0.0,
            iterations=0,
        )
        with pytest.raises(UndefinedMetricError):
            adjusted_inter_token_cos(vectors, [3, 3], clustering)


class TestLayerReport:
    def test_report_fields_and_plot_rows(self):
        stream = RngStream(34, 0)
        vectors = np.vstack(
            [stream.gaussians(60, 5) * 0.3, stream.gaussians(60, 5) * 0.3 + 4.0]
        )
        tokens = np.arange(120) % 30
        dump = make_dump(vectors, tokens)
        report = layer_report(dump, 1, RngStream(35, 0), k_range=range(2, 5))
        d = report.to_dict()
        assert d["layer"] == 1
        assert d["record_count"] == 120
        assert d["distinct_tokens"] == 30
        assert 1 <= d["effective_dim"]["0.8"] <= 5
        assert -1.0 <= d["zeta_cos"] <= 1.0
        assert -1.0 <= d["zeta_prime_cos"] <= 1.0
        assert 0.0 < d["partition_isotropy"] <= 1.0
        assert abs(sum(d["explained_ratio"]) - 1.0) < 1e-10
        rows = pca_plot_rows(report)
        assert len(rows) == 120
        assert all(len(r) == 6 for r in rows)

    def test_one_decomposition_per_matrix(self, monkeypatch):
        # the covariance (for every PCA use) and the uncentered Gram of
        # isotropy_partition: two decompositions per layer, plot included
        calls = []
        real = numerics.sym_eigendecompose

        def counted(m, **kwargs):
            calls.append(np.shape(m))
            return real(m, **kwargs)

        monkeypatch.setattr(numerics, "sym_eigendecompose", counted)
        monkeypatch.setattr(theory, "sym_eigendecompose", counted)
        stream = RngStream(37, 0)
        dump = make_dump(stream.gaussians(80, 6), np.arange(80) % 20)
        report = layer_report(dump, 1, RngStream(38, 0), k_range=range(2, 4))
        rows = pca_plot_rows(report)
        assert len(rows) == 80
        assert calls == [(6, 6), (6, 6)]
