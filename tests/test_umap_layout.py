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


def star_graph(hub, n_points):
    # hub joins every other point: it is edge_j for the points below it and
    # edge_i for the points above it
    leaves = np.delete(np.arange(n_points), hub)
    return np.minimum(leaves, hub), np.maximum(leaves, hub)


def sequential_layout_epoch(coords, edge_i, edge_j, edge_v, order, negatives, lr, a, b, eps):
    """Reference: the per-edge loop, each update read from the latest coordinates."""
    dim = coords.shape[1]
    for t in range(order.shape[0]):
        eidx = order[t]
        i, j, v = edge_i[eidx], edge_j[eidx], edge_v[eidx]
        d2 = 0.0
        for c in range(dim):
            diff = coords[i, c] - coords[j, c]
            d2 += diff * diff
        if d2 > 0.0:
            coef = (-2.0 * a * b * d2 ** (b - 1.0)) / (1.0 + a * d2**b) * v
            for c in range(dim):
                g = min(max(coef * (coords[i, c] - coords[j, c]), -um.GRAD_CLIP), um.GRAD_CLIP)
                coords[i, c] += lr * g
                coords[j, c] -= lr * g
        for other in negatives[t]:
            if other == i:
                continue
            d2n = 0.0
            for c in range(dim):
                diff = coords[i, c] - coords[other, c]
                d2n += diff * diff
            if d2n > 0.0:
                coefn = 2.0 * b / ((eps + d2n) * (1.0 + a * d2n**b))
                for c in range(dim):
                    g = min(max(coefn * (coords[i, c] - coords[other, c]), -um.GRAD_CLIP), um.GRAD_CLIP)
                    coords[i, c] += lr * g
        if not (np.isfinite(coords[i]).all() and np.isfinite(coords[j]).all()):
            return eidx
    return -1


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
        # one edge, one fixed negative sample: the layout epoch must equal
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


class TestChunkedEpoch:
    def random_edges(self, seed):
        rng = np.random.default_rng(seed)
        graph = um.build_graph(rng.normal(size=(30, 3)), um.UmapConfig(k=4))
        return rng, graph, rng.normal(size=(30, 2)) * 2.0

    def draw(self, rng, graph):
        order = rng.permutation(graph.edge_i.size)
        negatives = rng.integers(0, graph.n_points, size=(order.size, 3))
        negatives[::4, 1] = graph.edge_i[order[::4]]  # samples equal to i
        return order, negatives

    def run_both(self, coords, graph, order, negatives, lr, a, b):
        args = (graph.edge_i, graph.edge_j, graph.edge_v, order, negatives, lr, a, b, 1e-3)
        got, want = coords.copy(), coords.copy()
        assert um._layout_epoch(got, *args) == -1
        assert sequential_layout_epoch(want, *args) == -1
        return got, want

    def test_chunk_of_one_is_bit_equal_to_sequential_oracle(self, monkeypatch):
        monkeypatch.setattr(um, "LAYOUT_CHUNK", 1)
        rng, graph, coords = self.random_edges(seed=31)
        assert graph.edge_i.size > 40
        for epoch in range(5):
            order, negatives = self.draw(rng, graph)
            got, want = self.run_both(coords, graph, order, negatives, 1.0 - epoch / 5, 1.0, 1.0)
            np.testing.assert_array_equal(got, want)
            coords = got

    def test_chunk_of_one_matches_oracle_at_fitted_curve(self, monkeypatch):
        # array pow and scalar pow may round differently when b != 1
        monkeypatch.setattr(um, "LAYOUT_CHUNK", 1)
        rng, graph, coords = self.random_edges(seed=32)
        order, negatives = self.draw(rng, graph)
        got, want = self.run_both(coords, graph, order, negatives, 1.0, 1.58, 0.9)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert not np.array_equal(got, coords)

    def test_default_chunk_scatters_every_hub_step(self):
        # the hub is an endpoint of every edge in the one chunk, so each of its
        # attraction and repulsion steps must accumulate, none overwrite another
        edge_i, edge_j = star_graph(hub=5, n_points=40)
        assert edge_i.size <= um.LAYOUT_CHUNK
        rng = np.random.default_rng(33)
        edge_v = rng.uniform(0.2, 1.0, size=edge_i.size)
        order = rng.permutation(edge_i.size)
        negatives = rng.integers(0, 40, size=(edge_i.size, 2))
        coords = rng.normal(size=(40, 2)) * 2.0
        lr, a, b, eps = 0.1, 1.0, 1.0, 1e-3

        def clipped(g):
            return lr * np.clip(g, -um.GRAD_CLIP, um.GRAD_CLIP)

        want = coords.copy()
        for e in order:  # attraction, all read from the chunk-start coordinates
            g = clipped(um.attractive_gradient(coords[edge_i[e]], coords[edge_j[e]], edge_v[e], a, b))
            want[edge_i[e]] += g
            want[edge_j[e]] -= g
        for column in negatives.T:  # repulsion, one sample column at a time
            start = want.copy()
            for e, other in zip(order, column):
                want[edge_i[e]] += clipped(
                    um.repulsive_gradient(start[edge_i[e]], start[other], 0.0, a, b, eps)
                )
        got = coords.copy()
        assert um._layout_epoch(got, edge_i, edge_j, edge_v, order, negatives, lr, a, b, eps) == -1
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_nan_at_one_point_names_an_edge_touching_it(self):
        rng = np.random.default_rng(34)
        graph = um.build_graph(rng.normal(size=(200, 3)), um.UmapConfig(k=10))
        assert graph.edge_i.size > 2 * um.LAYOUT_CHUNK
        init = rng.normal(size=(200, 2))
        init[17] = [np.nan, 0.0]
        with pytest.raises(NumericalError, match=r"epoch 0, edge \d+") as excinfo:
            um.optimize_layout(graph, init, um.UmapConfig(k=10, epochs=3, seed=2))
        edge = int(str(excinfo.value).rsplit(" ", 1)[1])
        assert 17 in (graph.edge_i[edge], graph.edge_j[edge])


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
