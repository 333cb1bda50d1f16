import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ummaso import dataset as ds
from ummaso import umap as um


def oracle_knn(points, k, queries=None):
    """Per query row: explicit differences, then a stable argsort of all points."""
    Q = points if queries is None else queries
    indices = np.empty((len(Q), k), dtype=np.int64)
    distances = np.empty((len(Q), k))
    for r, row in enumerate(Q):
        dists = np.sqrt(np.maximum(np.sum((points - row) ** 2, axis=1), 0.0))
        if queries is None:
            dists[r] = np.inf
        indices[r] = np.argsort(dists, kind="stable")[:k]
        distances[r] = dists[indices[r]]
    return indices, distances


def oracle_edges(graph):
    """Symmetrized edges built through two dicts, keyed by directed and by
    undirected pair."""
    directed = {}
    for i in range(graph.n_points):
        weights = um.directed_weight(graph.neighbor_distances[i], graph.rho[i], graph.sigma[i])
        for idx in range(graph.k):
            directed[(i, int(graph.neighbor_indices[i, idx]))] = float(weights[idx])
    combined = {}
    for (i, j), v_ji in directed.items():
        key = (i, j) if i < j else (j, i)
        if key not in combined:
            combined[key] = float(um.symmetrize(v_ji, directed.get((j, i), 0.0)))
    keys = sorted(combined)
    return (
        np.array([p[0] for p in keys], dtype=np.int64),
        np.array([p[1] for p in keys], dtype=np.int64),
        np.array([combined[p] for p in keys], dtype=np.float64),
    )


def underflow_points():
    """A pair and a tight run whose clamped sigmas underflow some weights to 0."""
    return np.vstack(
        [np.zeros((4, 2)), [[5, 0], [6, 0]], [[6.1 + 0.1 * i, 0] for i in range(4)]]
    )


def oversampled_soil(seed=7):
    config = ds.SynthConfig(
        samples_per_class=[210, 60, 30],
        class_centers=np.array(
            [
                [40.0, 20.0, 15.0, 5.2, 0.35],
                [75.0, 45.0, 35.0, 6.4, 0.7],
                [110.0, 70.0, 60.0, 7.6, 1.2],
            ]
        ),
        noise_std=6.0,
        seed=seed,
    )
    data = ds.synth_generate(config, ["N", "P", "K", "pH", "EC"], ["a", "b", "c"])
    standardized, _ = ds.standardize(data)
    return ds.oversample(standardized, 3).features


def copies():
    """Four points, each copied 100 times: a row's first m candidates hold only
    copies until m exceeds 100, so the tree is queried with 4 m and then 16 m
    candidates before a row settles."""
    return np.repeat(np.random.default_rng(8).normal(size=(4, 2)), 100, axis=0)


def record_candidates(monkeypatch):
    """The (rows, candidates per row) of every call to um._k_nearest."""
    calls, order = [], um._k_nearest

    def recorded(diff, cand, k, own=None):
        calls.append(cand.shape)
        return order(diff, cand, k, own)

    monkeypatch.setattr(um, "_k_nearest", recorded)
    return calls


class TestBuildKnn:
    def test_points_on_a_line(self):
        X = np.array([[0.0], [1.0], [3.0]])
        indices, distances = um.build_knn(X, 2)
        np.testing.assert_array_equal(indices[0], [1, 2])
        np.testing.assert_allclose(distances[0], [1.0, 3.0])

    def test_duplicate_point_has_zero_distance(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        _, distances = um.build_knn(X, 2)
        assert distances[0, 0] == 0.0

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            um.build_knn(np.zeros((3, 2)), 3)

    def test_distances_ascending_and_exact(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        indices, distances = um.build_knn(X, 6)
        assert np.all(np.diff(distances, axis=1) >= 0)
        # brute-force oracle for a few rows
        for i in (0, 7, 19):
            full = np.linalg.norm(X - X[i], axis=1)
            full[i] = np.inf
            expect = np.sort(full)[:6]
            np.testing.assert_allclose(distances[i], expect, atol=1e-12)


def knn_cases():
    rng = np.random.default_rng(8)
    grid = np.arange(30, dtype=np.float64)[:, None]  # every interior k=3 row ties
    dups = rng.normal(size=(40, 5))
    dups = np.vstack([dups, dups[::3], dups[:4]])
    plane = rng.integers(0, 4, size=(60, 2)).astype(np.float64)  # ties everywhere
    # the tree rejects NaN and inf queries, and 1e300 overflows its distances
    extreme = np.vstack([dups[:6], dups[:3]])
    extreme[3, 1] = np.nan
    extreme[4] = np.inf
    extreme[5, 2] = 1e300
    cases = [
        ("line", grid, 3, None),
        ("line_queries", grid, 3, grid[::-1] + 0.5),
        ("no_queries", grid, 3, grid[:0]),
        ("duplicates", dups, 6, None),
        ("duplicate_queries", dups, 6, dups[5:15]),
        ("integer_plane", plane, 7, None),
        ("integer_plane_queries", plane, 7, rng.integers(0, 4, size=(25, 2)) * 1.0),
        ("non_finite_queries", dups, 6, extreme),
        ("copies", copies(), 5, None),
        ("copies_queries", copies(), 5, copies()[::50]),
    ] + [
        (f"d{d}", rng.normal(size=(50, d)), 9, rng.normal(size=(20, d)))
        for d in (5, 8, 9, 40)
    ]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


def assert_matches_oracle(points, k, queries):
    indices, distances = um.build_knn(points, k, queries=queries)
    expect_i, expect_d = oracle_knn(points, k, queries)
    np.testing.assert_array_equal(indices, expect_i)
    assert distances.tobytes() == expect_d.tobytes()
    if queries is None:
        assert not (indices == np.arange(len(points))[:, None]).any()


@st.composite
def knn_problems(draw):
    """Integer grids (heavy ties) or Gaussian points, some rows duplicated,
    scaled by 1e-8 to 1e8, with or without queries."""
    d = draw(st.sampled_from([1, 2, 5, 8, 40]))
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 4))

    def sample(rows):
        if draw(st.booleans()):
            return rng.integers(0, levels + 1, size=(rows, d)).astype(np.float64)
        return rng.normal(size=(rows, d))

    points = sample(n)
    copies = rng.integers(0, n, size=draw(st.integers(0, 2 * n)))
    points = np.vstack([points, points[copies]])
    scale = 10.0 ** draw(st.integers(-8, 8))
    k = draw(st.integers(1, min(len(points) - 1, 20)))
    queries = None
    if draw(st.booleans()):
        queries = np.vstack([sample(draw(st.integers(0, 10))), points[copies[:5]]]) * scale
    return points * scale, k, queries


class TestBuildKnnOracle:
    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("points,k,queries", knn_cases())
    def test_bit_equal_to_stable_argsort(self, monkeypatch, block, points, k, queries):
        if block is not None:  # rows per block; the default holds every row
            monkeypatch.setattr(um, "KNN_BLOCK_ELEMENTS", block * points.size)
        assert_matches_oracle(points, k, queries)

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("points,k,queries", knn_cases())
    def test_fallback_bit_equal_to_stable_argsort(self, monkeypatch, block, points, k, queries):
        if block is not None:
            monkeypatch.setattr(um, "KNN_BLOCK_ELEMENTS", block * points.size)
        # no candidate set passes, so every row goes through every tree round
        # and then takes all points as its candidates
        monkeypatch.setattr(um, "KNN_SLACK", 1.0)
        calls = record_candidates(monkeypatch)
        assert_matches_oracle(points, k, queries)
        every_point = sum(rows for rows, m in calls if m == len(points))
        assert every_point == len(points if queries is None else queries)

    def test_copies_settle_after_two_wider_queries(self, monkeypatch):
        calls = record_candidates(monkeypatch)
        assert_matches_oracle(copies(), 5, None)
        assert calls == [(400, 14), (400, 56), (400, 224)]

    @given(problem=knn_problems())
    @settings(max_examples=300, deadline=None)
    def test_property_bit_equal_to_stable_argsort(self, problem):
        assert_matches_oracle(*problem)

    def test_non_finite_point_is_searched_without_a_tree(self):
        points = np.random.default_rng(9).normal(size=(30, 3))
        points[4, 1] = np.nan
        points[11, 0] = np.inf
        assert um.knn_index(points) is None
        for queries in (None, points[::4] + 0.25):
            # no self check: a NaN row ranks itself (inf) before its NaN distances
            indices, distances = um.build_knn(points, 5, queries=queries)
            expect_i, expect_d = oracle_knn(points, 5, queries)
            np.testing.assert_array_equal(indices, expect_i)
            assert distances.tobytes() == expect_d.tobytes()

    def test_standardized_oversampled_duplicates_are_exactly_zero(self):
        X = oversampled_soil()
        _, group = np.unique(X, axis=0, return_inverse=True)
        group = group.ravel()
        assert np.bincount(group).max() > 1
        indices, distances = um.build_knn(X, 10)
        same = group[indices] == group[:, None]
        assert same.sum() > 100
        assert (distances[same] == 0.0).all()
        assert (distances[~same] > 0.0).all()

    def test_oversampled_ties_settle_by_a_wider_tree_query(self, monkeypatch):
        # copies tie at the k-th distance across the first candidate boundary
        X = oversampled_soil()
        calls = record_candidates(monkeypatch)
        assert_matches_oracle(X, 10, None)
        assert calls[0] == (len(X), 19)
        assert len(calls) > 1
        assert all(m < len(X) for _, m in calls)


class TestComputeRho:
    def test_examples(self):
        rows = np.array([[1.0, 3.0], [0.0, 2.0], [0.0, 0.0]])
        np.testing.assert_allclose(um.compute_rho(rows), [1.0, 2.0, 0.0])


class TestSolveSigma:
    def test_analytic_inversion(self):
        sigma, converged = um.solve_sigma(np.array([1.0, 2.0, 2.0, 2.0]), 1.0, 4)
        assert converged
        assert sigma == pytest.approx(1.0 / np.log(3.0), abs=1e-6)

    def test_constant_row_is_unreachable(self):
        sigma, converged = um.solve_sigma(np.array([2.0, 2.0, 2.0]), 2.0, 3)
        assert not converged

    def test_far_pair_clamps_small(self):
        sigma, converged = um.solve_sigma(np.array([1.0, 11.0]), 1.0, 2)
        assert not converged
        assert sigma == pytest.approx(1e-3 * 10.0)

    def test_random_rows_satisfy_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.choice([5, 10, 15]))
            row = np.sort(rng.uniform(0.1, 4.0, size=k))
            rho = row[0]
            sigma, converged = um.solve_sigma(row, rho, k)
            if converged:
                lhs = np.exp(-np.maximum(0.0, row - rho) / sigma).sum()
                assert abs(lhs - np.log2(k)) < 1e-5

    @given(
        gaps=st.lists(st.floats(0.01, 5.0), min_size=3, max_size=12),
        s1=st.floats(0.05, 3.0),
        s2=st.floats(0.05, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_membership_sum_monotone_in_sigma(self, gaps, s1, s2):
        gaps = np.asarray(gaps)
        lo, hi = sorted([s1, s2])
        if hi - lo < 1e-9:
            return
        lhs_lo = np.exp(-gaps / lo).sum()
        lhs_hi = np.exp(-gaps / hi).sum()
        assert lhs_hi > lhs_lo


class TestWeights:
    def test_directed_weight_examples(self):
        assert um.directed_weight(1.0, 1.0, 0.5) == 1.0
        assert um.directed_weight(0.5, 1.0, 0.5) == 1.0
        assert um.directed_weight(1.5, 1.0, 0.5) == pytest.approx(np.exp(-1.0))

    def test_symmetrize_examples(self):
        assert um.symmetrize(1.0, 1.0) == 1.0
        assert um.symmetrize(0.5, 0.0) == 0.5
        assert um.symmetrize(0.5, 0.5) == 0.75

    @given(u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetrize_commutative_and_bounded(self, u, v):
        assert um.symmetrize(u, v) == um.symmetrize(v, u)
        assert 0.0 <= um.symmetrize(u, v) <= 1.0


class TestBuildGraph:
    def test_clamped_sigma_keeps_zero_weight_edges(self):
        graph = um.build_graph(underflow_points(), um.UmapConfig(k=5))
        assert graph.edge_i.size == 29
        assert np.count_nonzero(graph.edge_v == 0.0) == 4

    @pytest.mark.parametrize(
        "points,k",
        [
            (np.random.default_rng(6).normal(size=(70, 4)), 8),
            (np.vstack([np.zeros((4, 2)), np.ones((4, 2)) * 9]), 3),
            (underflow_points(), 5),
            (oversampled_soil(), 10),
        ],
        ids=["random", "duplicates", "underflow", "oversampled"],
    )
    def test_edges_bit_equal_to_dict_symmetrization(self, points, k):
        graph = um.build_graph(points, um.UmapConfig(k=k))
        edge_i, edge_j, edge_v = oracle_edges(graph)
        np.testing.assert_array_equal(graph.edge_i, edge_i)
        np.testing.assert_array_equal(graph.edge_j, edge_j)
        assert graph.edge_i.dtype == graph.edge_j.dtype == np.int64
        assert graph.edge_v.tobytes() == edge_v.tobytes()

    def test_edge_weights_in_unit_interval(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 4))
        graph = um.build_graph(X, um.UmapConfig(k=8))
        assert np.all(graph.edge_v > 0.0)
        assert np.all(graph.edge_v <= 1.0)
        assert np.all(graph.edge_i < graph.edge_j)

    def test_calibration_residual_on_converged_points(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 3))
        cfg = um.UmapConfig(k=10)
        graph = um.build_graph(X, cfg)
        target = np.log2(cfg.k)
        for i in range(50):
            if not graph.sigma_converged[i]:
                continue
            gaps = np.maximum(0.0, graph.neighbor_distances[i] - graph.rho[i])
            assert abs(np.exp(-gaps / graph.sigma[i]).sum() - target) < 1e-5

    def test_duplicates_flagged_degenerate(self):
        X = np.vstack([np.zeros((4, 2)), np.ones((4, 2)) * 9])
        graph = um.build_graph(X, um.UmapConfig(k=3))
        # each point's 3 neighbors include its 3 exact duplicates
        assert graph.rho_degenerate.all()
        assert (graph.rho == 0).all()
