import numpy as np
import pytest
import scipy.linalg

from ummaso import dataset as ds
from ummaso import umap as um
from ummaso.errors import NumericalError


def single_edge_graph(weight=1.0):
    return um.NeighborGraph(
        neighbor_indices=np.array([[1], [0]]),
        neighbor_distances=np.array([[1.0], [1.0]]),
        rho=np.array([1.0, 1.0]),
        sigma=np.array([1.0, 1.0]),
        sigma_converged=np.array([True, True]),
        rho_degenerate=np.array([False, False]),
        edge_i=np.array([0]),
        edge_j=np.array([1]),
        edge_v=np.array([weight]),
    )


def two_clique_graph():
    # nodes {0,1} and {2,3} form two disconnected unit-weight pairs
    return um.NeighborGraph(
        neighbor_indices=np.array([[1], [0], [3], [2]]),
        neighbor_distances=np.ones((4, 1)),
        rho=np.ones(4),
        sigma=np.ones(4),
        sigma_converged=np.ones(4, dtype=bool),
        rho_degenerate=np.zeros(4, dtype=bool),
        edge_i=np.array([0, 2]),
        edge_j=np.array([1, 3]),
        edge_v=np.array([1.0, 1.0]),
    )


class TestLowDimSimilarity:
    def test_examples(self):
        y = np.array([0.0, 0.0])
        assert um.low_dim_similarity(y, y, 1.0, 1.0) == 1.0
        assert um.low_dim_similarity(np.array([1.0, 0.0]), y, 1.0, 1.0) == pytest.approx(0.5)
        assert um.low_dim_similarity(np.array([3.0, 0.0]), y, 1.0, 1.0) == pytest.approx(0.1)


class TestCrossEntropy:
    def test_equal_interior_values_vanish(self):
        assert um.cross_entropy(0.4, 0.4) == pytest.approx(0.0, abs=1e-15)

    def test_extreme_memberships(self):
        assert um.cross_entropy(1.0, 0.5) == pytest.approx(np.log(2.0), abs=1e-12)
        assert um.cross_entropy(0.0, 0.5) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_vectorized(self):
        out = um.cross_entropy(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(out, [np.log(2.0)] * 2)


class TestAttractiveGradient:
    def test_coincident_points(self):
        y = np.array([1.0, 2.0])
        np.testing.assert_array_equal(um.attractive_gradient(y, y, 1.0, 1.0, 1.0), [0.0, 0.0])

    def test_unit_separation(self):
        g = um.attractive_gradient(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 1.0, 1.0, 1.0)
        np.testing.assert_allclose(g, [-1.0, 0.0])

    def test_linear_in_edge_weight(self):
        yi, yj = np.array([0.3, -0.7]), np.array([-1.1, 0.2])
        full = um.attractive_gradient(yi, yj, 1.0, 1.0, 1.0)
        half = um.attractive_gradient(yi, yj, 0.5, 1.0, 1.0)
        np.testing.assert_allclose(half, 0.5 * full)

    def test_matches_negated_fd_gradient_of_attractive_term(self):
        # attractive term of the layout loss: v * log(v / w(d)); the op returns
        # the descent step, i.e. the negated gradient
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(100):
            yi = rng.normal(size=2) * 1.5
            yj = yi + rng.normal(size=2)
            if np.linalg.norm(yi - yj) < 0.3:
                continue
            v = rng.uniform(0.1, 1.0)

            def term(y):
                w = um.low_dim_similarity(y, yj, 1.0, 1.0)
                return v * np.log(v / w)

            fd = np.zeros(2)
            for c in range(2):
                step = np.zeros(2)
                step[c] = h
                fd[c] = (term(yi + step) - term(yi - step)) / (2 * h)
            got = um.attractive_gradient(yi, yj, v, 1.0, 1.0)
            assert np.linalg.norm(got + fd) / np.linalg.norm(fd) < 1e-6


class TestRepulsiveGradient:
    def test_coincident_points(self):
        y = np.array([0.5, 0.5])
        np.testing.assert_array_equal(
            um.repulsive_gradient(y, y, 0.0, 1.0, 1.0, 1e-3), [0.0, 0.0]
        )

    def test_full_weight_gives_zero(self):
        yi, yj = np.array([1.0, 0.0]), np.array([0.0, 0.0])
        np.testing.assert_array_equal(
            um.repulsive_gradient(yi, yj, 1.0, 1.0, 1.0, 1e-3), [0.0, 0.0]
        )

    def test_unit_separation_magnitude(self):
        g = um.repulsive_gradient(
            np.array([1.0, 0.0]), np.array([0.0, 0.0]), 0.0, 1.0, 1.0, 0.001
        )
        assert g[0] == pytest.approx(2.0 / (1.001 * 2.0), rel=1e-12)
        assert g[1] == 0.0

    def test_matches_negated_fd_gradient_of_repulsive_term(self):
        # with a tiny eps the op approaches the gradient of the
        # (1 - v) * log((1 - v)/(1 - w)) term
        rng = np.random.default_rng(9)
        h = 1e-6
        eps = 1e-10
        for _ in range(50):
            yi = rng.normal(size=2) * 2
            yj = yi + rng.normal(size=2)
            if np.linalg.norm(yi - yj) < 0.5:
                continue
            v = rng.uniform(0.0, 0.9)

            def term(y):
                w = um.low_dim_similarity(y, yj, 1.0, 1.0)
                return (1.0 - v) * np.log((1.0 - v) / (1.0 - w))

            fd = np.zeros(2)
            for c in range(2):
                step = np.zeros(2)
                step[c] = h
                fd[c] = (term(yi + step) - term(yi - step)) / (2 * h)
            got = um.repulsive_gradient(yi, yj, v, 1.0, 1.0, eps)
            assert np.linalg.norm(got + fd) / np.linalg.norm(fd) < 1e-5


class TestSpectralInit:
    def test_disconnected_cliques_separate_in_sign(self):
        graph = two_clique_graph()
        coords = um.spectral_init(graph, 1, seed=0)
        assert coords.shape == (4, 1)
        left = coords[:2, 0].mean()
        right = coords[2:, 0].mean()
        assert np.sign(left) != np.sign(right)
        # oracle: dense eigendecomposition of the hand-built normalized Laplacian
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = W[2, 3] = W[3, 2] = 1.0
        lap = np.eye(4) - W  # unit degrees
        vals, vecs = np.linalg.eigh(lap)
        assert vals[1] == pytest.approx(0.0, abs=1e-12)  # second zero eigenvalue
        v1 = vecs[:, 1]
        assert np.sign(v1[:2].mean()) != np.sign(v1[2:].mean())

    def test_out_dim_too_large(self):
        with pytest.raises(ValueError, match="out_dim too large"):
            um.spectral_init(two_clique_graph(), 4, seed=0)

    def test_deterministic(self):
        graph = two_clique_graph()
        a = um.spectral_init(graph, 2, seed=3)
        b = um.spectral_init(graph, 2, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_rescaled_to_max_abs_ten(self):
        coords = um.spectral_init(two_clique_graph(), 1, seed=0)
        assert np.abs(coords).max() == pytest.approx(10.0, abs=1e-2)

    def test_fallback_on_solver_failure(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scipy.linalg, "eigh", boom)
        coords = um.spectral_init(two_clique_graph(), 2, seed=11)
        assert coords.shape == (4, 2)
        assert np.all(np.abs(coords) <= 10.0)
        rng = np.random.default_rng(11)
        np.testing.assert_array_equal(coords, rng.uniform(-10, 10, size=(4, 2)))


class TestOptimizeLayout:
    def test_pure_attraction_shrinks_single_edge(self):
        graph = single_edge_graph()
        coords = np.array([[0.0, 0.0], [3.0, 0.0]])
        config = um.UmapConfig(
            k=2, out_dim=2, epochs=1, learning_rate=0.5, negative_samples=0, seed=0
        )
        distances = [3.0]
        for _ in range(20):
            emb = um.optimize_layout(graph, coords, config)
            coords = emb.coordinates
            distances.append(float(np.linalg.norm(coords[0] - coords[1])))
        assert all(b < a for a, b in zip(distances, distances[1:]))

    def test_zero_epochs_returns_init(self):
        graph = single_edge_graph()
        init = np.array([[0.0, 1.0], [2.0, -1.0]])
        emb = um.optimize_layout(graph, init, um.UmapConfig(k=2, epochs=0))
        np.testing.assert_array_equal(emb.coordinates, init)

    def test_non_finite_init_aborts_with_location(self):
        graph = single_edge_graph()
        init = np.array([[np.nan, 0.0], [1.0, 0.0]])
        with pytest.raises(NumericalError, match="epoch 0"):
            um.optimize_layout(graph, init, um.UmapConfig(k=2, epochs=1))

    def test_kernel_step_matches_gradient_ops(self):
        # one edge, one fixed negative sample: the compiled epoch must equal
        # manually applying the two gradient ops with clipping
        graph = single_edge_graph(weight=0.7)
        coords = np.array([[0.0, 0.5], [2.0, -0.5], [4.0, 4.0]])
        lr, a, b, eps = 0.3, 1.0, 1.0, 1e-3
        expected = coords.copy()
        g_att = np.clip(um.attractive_gradient(expected[0], expected[1], 0.7, a, b), -4, 4)
        expected[0] += lr * g_att
        expected[1] -= lr * g_att
        g_rep = np.clip(um.repulsive_gradient(expected[0], expected[2], 0.0, a, b, eps), -4, 4)
        expected[0] += lr * g_rep

        got = coords.copy()
        status = um._layout_epoch(
            got,
            graph.edge_i,
            graph.edge_j,
            graph.edge_v,
            np.array([0], dtype=np.int64),
            np.array([[2]], dtype=np.int64),
            lr,
            a,
            b,
            eps,
        )
        assert status == -1
        np.testing.assert_allclose(got, expected, atol=1e-15)


class TestNumbaFallback:
    def test_pure_python_path_matches_jitted_kernel(self, monkeypatch):
        import importlib
        import sys

        import ummaso.umap as um_mod

        graph = single_edge_graph(weight=0.8)
        init = np.array([[0.0, 1.0], [2.5, -1.0]])
        config = um.UmapConfig(
            k=2, out_dim=2, epochs=4, negative_samples=1, seed=17
        )
        jitted = um_mod.optimize_layout(graph, init, config).coordinates
        try:
            monkeypatch.setitem(sys.modules, "numba", None)
            fallback = importlib.reload(um_mod)
            assert not fallback.HAVE_NUMBA
            plain = fallback.optimize_layout(graph, init, config).coordinates
        finally:
            monkeypatch.undo()
            importlib.reload(um_mod)
        np.testing.assert_allclose(plain, jitted, rtol=0, atol=1e-12)


class TestEmbed:
    def cluster_data(self, n_per=50, n_clusters=3, seed=0):
        centers = np.zeros((n_clusters, 4))
        for c in range(n_clusters):
            centers[c, c % 4] = 10.0 * (c + 1)
        config = ds.SynthConfig(
            samples_per_class=[n_per] * n_clusters,
            class_centers=centers,
            noise_std=0.5,
            seed=seed,
        )
        return ds.synth_generate(config)

    def test_loss_estimate_decreases(self):
        data = self.cluster_data(n_per=34, n_clusters=3, seed=1)  # N=102
        cfg = um.UmapConfig(k=8, out_dim=2, epochs=30, seed=4)
        _, emb = um.embed(data.features, cfg)
        assert np.all(np.isfinite(emb.coordinates))
        assert emb.epoch_losses[9] < emb.epoch_losses[0]

    def test_k_at_least_n_rejected(self):
        with pytest.raises(ValueError):
            um.embed(np.zeros((5, 2)), um.UmapConfig(k=5))

    def test_one_dim_embedding_separates_two_clusters(self):
        data = self.cluster_data(n_per=40, n_clusters=2, seed=2)
        cfg = um.UmapConfig(k=6, out_dim=1, epochs=60, seed=9)
        _, emb = um.embed(data.features, cfg)
        mean0 = emb.coordinates[data.labels == 0, 0].mean()
        mean1 = emb.coordinates[data.labels == 1, 0].mean()
        spread = emb.coordinates[:, 0].std()
        assert abs(mean0 - mean1) > spread

    def test_bit_identical_across_runs(self):
        data = self.cluster_data(n_per=25, seed=3)
        cfg = um.UmapConfig(k=6, out_dim=2, epochs=20, seed=13)
        _, emb1 = um.embed(data.features, cfg)
        _, emb2 = um.embed(data.features, cfg)
        np.testing.assert_array_equal(emb1.coordinates, emb2.coordinates)
        assert emb1.final_loss == emb2.final_loss

    def test_nearest_neighbor_purity(self):
        data = self.cluster_data(n_per=50, n_clusters=3, seed=5)
        cfg = um.UmapConfig(k=10, out_dim=2, epochs=100, seed=21)
        _, emb = um.embed(data.features, cfg)
        Y = emb.coordinates
        d2 = ((Y[:, None, :] - Y[None, :, :]) ** 2).sum(-1)
        np.fill_diagonal(d2, np.inf)
        purity = (data.labels[d2.argmin(axis=1)] == data.labels).mean()
        assert purity >= 0.95
