"""Differential battery: the clustering kernels against their oracle.

Every comparison is ``np.array_equal`` (or ``repr`` equality for the
inertia): the rewritten Lloyd iteration, silhouette, sweep, streaming
passes and resident score pass do the same arithmetic in the same
order as :mod:`tests.stats.kmeans_oracle`, so nothing may move by a bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming_fit import score_pass
from repro.stats import KMeans, StreamingKMeans, kmeans_plus_plus_init
from repro.stats.preprocessing import StandardScaler
from repro.stats.silhouette import silhouette_samples, sweep_cluster_counts
from repro.stats.streaming import ReservoirSampler, RunningMoments

from . import kmeans_oracle as oracle


def assert_same_run(new, old) -> None:
    assert np.array_equal(new.centroids, old.centroids)
    assert np.array_equal(new.labels, old.labels)
    assert repr(new.inertia) == repr(old.inertia)
    assert new.n_iter == old.n_iter
    assert new.converged == old.converged


def blobs(seed: int, n: int, d: int, centres: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=4.0, size=(centres, d))
    return means[rng.integers(0, centres, size=n)] + rng.normal(size=(n, d))


CASES = [(0, 60, 2, 3), (1, 200, 5, 6), (2, 400, 13, 18), (3, 37, 7, 9)]


class TestLloyd:
    @pytest.mark.parametrize("seed,n,d,k", CASES)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_fit_matches_oracle(self, seed, n, d, k, weighted):
        data = blobs(seed, n, d)
        weight = (
            np.random.default_rng(seed + 100).uniform(0.0, 3.0, size=n)
            if weighted
            else None
        )
        new = KMeans(k, n_init=4, seed=seed).fit(data, sample_weight=weight)
        old = oracle.kmeans_fit(
            data, k, n_init=4, seed=seed, sample_weight=weight
        )
        assert_same_run(new, old)

    @pytest.mark.parametrize("seed,n,d,k", CASES)
    def test_warm_start_matches_oracle(self, seed, n, d, k):
        data = blobs(seed, n, d)
        rng = np.random.default_rng(seed)
        init = data[rng.choice(n, size=k, replace=False)] + 0.25
        new = KMeans(k, seed=seed).fit(data, init=init)
        old = oracle.kmeans_fit(data, k, seed=seed, init=init)
        assert_same_run(new, old)
        # A converged solution is a fixed point on both.
        again = KMeans(k, seed=seed).fit(data, init=new.centroids)
        assert_same_run(again, oracle.kmeans_fit(data, k, init=old.centroids))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_duplicate_points_repair_empty_clusters(self, weighted):
        rng = np.random.default_rng(5)
        # 4 distinct points, 40 rows, 6 clusters: seeding must fall back
        # to uniform draws and Lloyd must re-seed empty clusters.
        data = rng.normal(size=(4, 3))[rng.integers(0, 4, size=40)]
        weight = rng.uniform(0.5, 2.0, size=40) if weighted else None
        new = KMeans(6, n_init=3, seed=2).fit(data, sample_weight=weight)
        old = oracle.kmeans_fit(
            data, 6, n_init=3, seed=2, sample_weight=weight
        )
        assert_same_run(new, old)

    def test_k_equals_n(self):
        data = blobs(9, 12, 4)
        assert_same_run(
            KMeans(12, n_init=3, seed=9).fit(data),
            oracle.kmeans_fit(data, 12, n_init=3, seed=9),
        )

    def test_empty_cluster_from_warm_start(self):
        data = blobs(4, 50, 2)
        # Two centres far from every row: both start empty.
        init = np.vstack([data[:3], [[1e3, 1e3], [-1e3, 1e3]]])
        assert_same_run(
            KMeans(5).fit(data, init=init),
            oracle.kmeans_fit(data, 5, init=init),
        )

    @pytest.mark.parametrize("weighted", [False, True])
    def test_plus_plus_seeding_matches_oracle(self, weighted):
        data = blobs(6, 80, 4)
        weight = np.linspace(0.1, 2.0, 80) if weighted else None
        new = kmeans_plus_plus_init(
            data, 7, np.random.default_rng(3), weight
        )
        old = oracle.kmeans_plus_plus_init(
            data, 7, np.random.default_rng(3), weight
        )
        assert np.array_equal(new, old)


class TestSilhouette:
    @pytest.mark.parametrize("seed", range(4))
    def test_samples_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        data = blobs(seed, 90, 3)
        labels = rng.integers(0, 5, size=90)
        assert np.array_equal(
            silhouette_samples(data, labels),
            oracle.silhouette_samples(data, labels),
        )

    def test_singletons_and_label_gaps(self):
        data = blobs(1, 30, 2)
        labels = np.repeat([0, 2, 7], 10)
        labels[0] = 9  # a singleton cluster, and labels that skip values
        labels[15] = 4
        new = silhouette_samples(data, labels)
        assert new[0] == 0.0 and new[15] == 0.0
        assert np.array_equal(new, oracle.silhouette_samples(data, labels))

    def test_coincident_points_score_zero(self):
        data = np.zeros((6, 2))
        data[3:] = 1.0
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert np.array_equal(
            silhouette_samples(data, labels),
            oracle.silhouette_samples(data, labels),
        )

    @pytest.mark.parametrize("weighted", [False, True])
    def test_sweep_matches_oracle(self, weighted):
        data = blobs(3, 150, 4)
        weight = np.linspace(0.5, 1.5, 150) if weighted else None
        counts = (2, 3, 5, 8, 13)
        sweep = sweep_cluster_counts(
            data,
            counts,
            kmeans_factory=lambda k: KMeans(k, n_init=3, seed=k),
            sample_weight=weight,
        )
        sse, sil = oracle.sweep_cluster_counts(
            data,
            counts,
            fit=lambda matrix, k, w: oracle.kmeans_fit(
                matrix, k, n_init=3, seed=k, sample_weight=w
            ),
            sample_weight=weight,
        )
        assert np.array_equal(sweep.sse, sse)
        assert np.array_equal(sweep.silhouette, sil)


def metric_blocks(seed: int, n: int, block_rows: int) -> list[np.ndarray]:
    """A metric spill in fixed blocks: 9 metrics, one constant."""
    rng = np.random.default_rng(seed)
    latent = blobs(seed, n, 3, centres=6)
    mixing = rng.normal(size=(3, 9))
    metrics = latent @ mixing + 0.05 * rng.normal(size=(n, 9)) + 100.0
    metrics[:, 4] = 7.0
    return [
        metrics[start : start + block_rows]
        for start in range(0, n, block_rows)
    ]


def projection(blocks):
    kept = [0, 1, 2, 3, 4, 6, 8]
    scaler = StandardScaler().fit(np.concatenate(blocks)[:, kept])
    basis, _ = np.linalg.qr(
        np.random.default_rng(1).normal(size=(len(kept), 4))
    )
    return scaler, kept, np.ascontiguousarray(basis.T)


class TestScoresAndStreaming:
    @pytest.mark.parametrize("block_rows", [1, 7, 256])
    def test_score_pass_matches_reprojection(self, block_rows):
        blocks = metric_blocks(0, 300, block_rows)
        scaler, kept, components = projection(blocks)
        scores = score_pass(
            iter(blocks), scaler, kept, components,
            n_rows=300, sample_capacity=64, seed=5,
        )
        moments = RunningMoments()
        sampler = ReservoirSampler(64, seed=np.random.default_rng(5))
        for block in blocks:
            raw = scaler.transform(block[:, kept]) @ components.T
            moments.update(raw)
            sampler.update(raw)
        mean, std = moments.mean, moments.std(ddof=0)
        assert np.array_equal(scores.mean, mean)
        assert np.array_equal(scores.std, std)
        old_batches = oracle.reprojected_score_batches(
            lambda: iter(blocks), scaler, kept, components, mean, std
        )
        new_blocks = list(scores.batches())
        old_blocks = list(old_batches())
        assert [b.shape for b in new_blocks] == [b.shape for b in old_blocks]
        for new, old in zip(new_blocks, old_blocks):
            assert np.array_equal(new, old)
        live = std > 1e-12 * np.maximum(1.0, np.abs(mean))
        expected_sample = np.zeros_like(sampler.sample())
        expected_sample[:, live] = (
            sampler.sample()[:, live] - mean[live]
        ) / std[live]
        assert np.array_equal(scores.sample, expected_sample)

    def test_score_pass_rejects_a_short_stream(self):
        blocks = metric_blocks(0, 20, 7)
        scaler, kept, components = projection(blocks)
        with pytest.raises(ValueError, match="expected 21"):
            score_pass(
                iter(blocks), scaler, kept, components,
                n_rows=21, sample_capacity=8, seed=0,
            )

    @pytest.mark.parametrize("block_rows", [1, 7, 256])
    @pytest.mark.parametrize("warm", [False, True])
    def test_streaming_path_matches_oracle(self, block_rows, warm):
        blocks = metric_blocks(1, 300, block_rows)
        scaler, kept, components = projection(blocks)
        scores = score_pass(
            iter(blocks), scaler, kept, components,
            n_rows=300, sample_capacity=64, seed=3,
        )
        old_batches = oracle.reprojected_score_batches(
            lambda: iter(blocks), scaler, kept, components,
            scores.mean, scores.std,
        )
        init = scores.sample[:6] if warm else None
        model = StreamingKMeans(6, n_init=3, seed=np.random.default_rng(4))
        new = model.fit(
            scores.batches, n_total=300, sample=scores.sample, init=init
        )
        old, old_sq = oracle.streaming_kmeans_fit(
            old_batches, 6, n_total=300, sample=scores.sample,
            n_init=3, seed=np.random.default_rng(4), init=init,
        )
        assert_same_run(new, old)
        assert np.array_equal(model.point_sq_distances_, old_sq)

    @pytest.mark.parametrize("block_rows", [1, 7, 256])
    def test_streaming_empty_cluster_repair_matches_oracle(self, block_rows):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(5, 3))[rng.integers(0, 5, size=120)]
        init = np.vstack([data[:2], np.full((3, 3), 50.0)])

        def batches():
            for start in range(0, 120, block_rows):
                yield data[start : start + block_rows]

        def copied():
            for block in batches():
                yield block.copy()

        model = StreamingKMeans(5)
        new = model.fit(batches, n_total=120, sample=data[:10], init=init)
        old, old_sq = oracle.streaming_kmeans_fit(
            copied, 5, n_total=120, sample=data[:10], init=init
        )
        assert_same_run(new, old)
        assert np.array_equal(model.point_sq_distances_, old_sq)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_exact_path_matches_oracle(self, weighted):
        data = blobs(2, 120, 4)
        weight = np.linspace(0.2, 1.0, 120) if weighted else None
        model = StreamingKMeans(5, n_init=3, seed=np.random.default_rng(1))
        new = model.fit(
            lambda: iter([data]), n_total=120, sample=data,
            sample_weight=weight,
        )
        old, old_sq = oracle.streaming_kmeans_fit(
            lambda: iter([data]), 5, n_total=120, sample=data, n_init=3,
            seed=np.random.default_rng(1), sample_weight=weight,
        )
        assert_same_run(new, old)
        assert np.array_equal(model.point_sq_distances_, old_sq)

    def test_streamed_rows_are_validated_on_the_first_pass(self):
        data = blobs(0, 40, 2)
        bad = data.copy()
        bad[3, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            StreamingKMeans(3, seed=0).fit(
                lambda: iter([bad]), n_total=40, sample=data[:10]
            )
        with pytest.raises(ValueError, match="dimension mismatch"):
            StreamingKMeans(3, seed=0).fit(
                lambda: iter([data[:, :1]]), n_total=40, sample=data[:10]
            )
