import numpy as np
import pytest

from ummaso import dataset as ds
from ummaso import lasso as ls


def standardized(rng, n, p):
    X = rng.normal(size=(n, p))
    X -= X.mean(axis=0)
    X /= X.std(axis=0)
    return X


def ols_oracle(X, y):
    """Normal-equations solve with an intercept column."""
    A = np.hstack([np.ones((X.shape[0], 1)), X])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return coef[0], coef[1:]


class TestLambdaGrid:
    def test_hundred_values_descending(self):
        rng = np.random.default_rng(0)
        X = standardized(rng, 50, 4)
        y = X @ np.array([1.0, 0.0, -2.0, 0.5]) + 0.1 * rng.normal(size=50)
        grid = ls.lambda_grid(X, y - y.mean(), 100)
        assert grid.size == 100
        assert np.all(np.diff(grid) < 0)

    def test_orthogonal_response_rejected(self):
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 1.0]) - 1.0  # centered, orthogonal to the column
        with pytest.raises(ValueError, match="degenerate response"):
            ls.lambda_grid(X, y, 10)

    def test_single_column_lambda_max(self):
        # sum(x*y)/N = 2 by construction
        X = np.array([[1.0], [-1.0]])
        y = np.array([2.0, -2.0])
        grid = ls.lambda_grid(X, y, 5)
        assert grid[0] == pytest.approx(2.0)


class TestFitLasso:
    def test_lambda_max_gives_exact_zeros(self):
        rng = np.random.default_rng(1)
        X = standardized(rng, 80, 6)
        y = X @ rng.normal(size=6) + 0.1 * rng.normal(size=80)
        lam_max = ls.lambda_grid(X, y - y.mean(), 2)[0]
        for lam in (lam_max, 2 * lam_max):
            model = ls.fit_lasso(X, y, lam)
            np.testing.assert_array_equal(model.coef, np.zeros(6))

    def test_zero_lambda_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        X = standardized(rng, 100, 5)
        y = X @ np.array([2.0, -1.0, 0.5, 0.0, 3.0]) + 0.05 * rng.normal(size=100)
        model = ls.fit_lasso(X, y, 0.0)
        b0, coef = ols_oracle(X, y)
        np.testing.assert_allclose(model.coef, coef, atol=1e-4)
        assert model.intercept == pytest.approx(b0, abs=1e-4)

    def test_orthonormal_design_soft_threshold(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(60, 5))
        raw -= raw.mean(axis=0)
        q, _ = np.linalg.qr(raw)
        X = q * np.sqrt(60)  # X^T X = N * I with centered columns
        y = X @ np.array([1.5, -0.7, 0.0, 0.3, -2.0]) + 0.1 * rng.normal(size=60)
        lam = 0.4
        model = ls.fit_lasso(X, y, lam)
        beta_ols = (X.T @ (y - y.mean())) / 60
        expect = np.sign(beta_ols) * np.maximum(0.0, np.abs(beta_ols) - lam)
        np.testing.assert_allclose(model.coef, expect, atol=1e-8)

    def test_kkt_certificate(self):
        rng = np.random.default_rng(4)
        X = standardized(rng, 120, 8)
        y = X @ rng.normal(size=8) + 0.2 * rng.normal(size=120)
        grid = ls.lambda_grid(X, y - y.mean(), 20)
        for lam in grid:
            model = ls.fit_lasso(X, y, lam)
            assert ls.kkt_violation(X, y, model) < 1e-6

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(5)
        X = standardized(rng, 60, 4)
        y = X @ np.array([1.0, 0.0, -0.5, 0.0]) + 0.1 * rng.normal(size=60)
        lam = 0.1
        model = ls.fit_lasso(X, y, lam)

        def objective(beta, b0):
            return 0.5 * np.mean((y - b0 - X @ beta) ** 2) + lam * np.abs(beta).sum()

        best = objective(model.coef, model.intercept)
        for _ in range(100):
            delta = rng.normal(size=4)
            delta *= 1e-4 / np.linalg.norm(delta)
            assert objective(model.coef + delta, model.intercept) >= best - 1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            ls.fit_lasso(np.zeros((2, 1)), np.zeros(2), -1.0)


class TestMse:
    def test_identical(self):
        assert ls.mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_hand_value(self):
        assert ls.mse(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == pytest.approx(2.5)

    def test_constant_shift(self):
        y = np.array([3.0, -1.0, 2.0])
        assert ls.mse(y, y + 0.5) == pytest.approx(0.25)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ls.mse(np.zeros(2), np.zeros(3))

    def test_empty(self):
        with pytest.raises(ValueError):
            ls.mse(np.zeros(0), np.zeros(0))


class TestFitPath:
    def problem(self, seed=6, n=80, p=3):
        rng = np.random.default_rng(seed)
        X = standardized(rng, n, p)
        y = X @ np.linspace(2.0, -1.0, p) + 0.1 * rng.normal(size=n)
        grid = ls.lambda_grid(X, y - y.mean(), 30)
        return X, y, grid

    def test_first_entry_has_zero_df(self):
        X, y, grid = self.problem()
        path = ls.fit_path(X, y, grid)
        assert path.df[0] == 0

    def test_training_mse_non_increasing(self):
        X, y, grid = self.problem()
        path = ls.fit_path(X, y, grid)
        assert np.all(np.diff(path.mse) <= 1e-8)

    def test_warm_start_matches_cold_start(self):
        X, y, grid = self.problem()
        path = ls.fit_path(X, y, grid)
        for t in range(grid.size):
            cold = ls.fit_lasso(X, y, grid[t])
            np.testing.assert_allclose(path.coef_matrix[t], cold.coef, atol=1e-6)

    def test_ascending_grid_rejected(self):
        with pytest.raises(ValueError):
            ls.fit_path(np.zeros((4, 2)), np.zeros(4), np.array([0.1, 0.2]))


def residual_update_lasso(X, y, lam, warm_start=None):
    """Cyclic coordinate descent that keeps the residual itself, as the
    solver did before covariance updates: (beta, sweeps, converged)."""
    n, p = X.shape
    col_sq = np.einsum("ij,ij->j", X, X) / n
    beta = np.zeros(p) if warm_start is None else np.array(warm_start, dtype=np.float64)
    residual = y - np.mean(y - X @ beta) - X @ beta
    for sweeps in range(1, ls.CD_MAX_SWEEPS + 1):
        max_change = 0.0
        for j in np.flatnonzero(col_sq):
            old = beta[j]
            partial = (X[:, j] @ residual) / n + col_sq[j] * old
            new = np.sign(partial) * max(0.0, abs(partial) - lam) / col_sq[j]
            if new != old:
                residual -= X[:, j] * (new - old)
                beta[j] = new
                max_change = max(max_change, abs(new - old))
        residual -= np.mean(residual)
        if max_change < ls.CD_TOL:
            return beta, sweeps, True
    return beta, ls.CD_MAX_SWEEPS, False


class TestCovarianceUpdates:
    """Oversampled rows leave the standardized columns off-centre, so the
    kernel's intercept re-fit must shift its gradient by the column means."""

    def problem(self):
        rng = np.random.default_rng(31)
        labels = np.repeat([0, 1, 2], [50, 14, 8])
        features = rng.normal(size=(labels.size, 5)) + labels[:, None] * [1.0, -0.5, 0.0, 2.0, 0.3]
        features = (features - features.mean(axis=0)) / features.std(axis=0)
        features = np.hstack([features[:, :2], np.zeros((labels.size, 1)), features[:, 2:]])
        data = ds.oversample(ds.Dataset(features, list("abcdef"), labels, ["x", "y", "z"]), 7)
        y = data.labels.astype(np.float64)
        return data.features, y, ls.lambda_grid(data.features, y - y.mean(), 40)

    def test_columns_are_not_centred(self):
        X, _, _ = self.problem()
        assert np.abs(X.mean(axis=0)).max() > 0.1
        assert not X[:, 2].any()

    def test_matches_residual_updates_along_the_warm_started_path(self):
        X, y, grid = self.problem()
        warm = None
        oracle_coefs = []
        for lam in grid:
            beta, sweeps, converged = residual_update_lasso(X, y, lam, warm)
            model = ls.fit_lasso(X, y, lam, warm_start=warm)
            assert (model.iterations, model.converged) == (sweeps, converged)
            np.testing.assert_allclose(model.coef, beta, rtol=0.0, atol=1e-12)
            assert model.coef[2] == 0.0
            oracle_coefs.append(beta)
            warm = beta
        path = ls.fit_path(X, y, grid)
        oracle = ls.LassoPath(
            lambdas=grid, coef_matrix=np.array(oracle_coefs), intercepts=path.intercepts,
            df=path.df, mse=path.mse, converged=path.converged,
        )
        names = [str(j) for j in range(X.shape[1])]
        assert ls.rank_features(path, names) == ls.rank_features(oracle, names)


class TestRankFeatures:
    def test_never_active_ranks_last(self):
        path = ls.LassoPath(
            lambdas=np.array([1.0, 0.5]),
            coef_matrix=np.array([[0.0, 0.2], [0.3, 0.4]]),
            intercepts=np.zeros(2),
            df=np.array([1, 2]),
            mse=np.array([1.0, 0.5]),
            converged=np.ones(2, dtype=bool),
        )
        # add a third, never-active feature
        path = ls.LassoPath(
            lambdas=path.lambdas,
            coef_matrix=np.hstack([path.coef_matrix, np.zeros((2, 1))]),
            intercepts=path.intercepts,
            df=path.df,
            mse=path.mse,
            converged=path.converged,
        )
        ranking = ls.rank_features(path, ["a", "b", "c"])
        assert ranking.order == [1, 0, 2]
        assert ranking.entry_lambdas[2] is None

    def test_dominant_feature_ranks_first(self):
        rng = np.random.default_rng(7)
        X = standardized(rng, 100, 4)
        y = 3.0 * X[:, 1] + 0.05 * rng.normal(size=100)
        grid = ls.lambda_grid(X, y - y.mean(), 50)
        path = ls.fit_path(X, y, grid)
        ranking = ls.rank_features(path, list("abcd"))
        assert ranking.order[0] == 1
        # correlation-order oracle agrees on the winner
        corr = np.abs(X.T @ (y - y.mean()))
        assert int(np.argmax(corr)) == 1

    def test_identical_columns_tie_break_by_index(self):
        rng = np.random.default_rng(8)
        col = rng.normal(size=60)
        col = (col - col.mean()) / col.std()
        X = np.column_stack([col, col])
        y = 2.0 * col
        grid = ls.lambda_grid(X, y, 10)
        path = ls.fit_path(X, y, grid)
        ranking = ls.rank_features(path, ["first", "second"])
        entries = ranking.entry_lambdas
        if entries[0] == entries[1]:
            assert ranking.order == [0, 1]


class TestSelect:
    def planted_problem(self, seed=9):
        rng = np.random.default_rng(seed)
        X = standardized(rng, 100, 6)
        beta = np.array([2.0, 0.0, -1.5, 0.0, 0.0, 1.0])
        y = X @ beta  # noiseless
        grid = ls.lambda_grid(X, y - y.mean(), 40)
        return X, y, grid, {0, 2, 5}

    def test_top_k_full_set(self):
        X, y, grid, _ = self.planted_problem()
        path = ls.fit_path(X, y, grid)
        assert ls.select(path, ls.SelectionStrategy("top_k", k=6)) == list(range(6))

    def test_lambda_at_max_is_empty(self):
        X, y, grid, _ = self.planted_problem()
        path = ls.fit_path(X, y, grid)
        assert ls.select(path, ls.SelectionStrategy("lambda_at", value=float(grid[0]))) == []

    def test_min_mse_recovers_planted_support(self):
        X, y, grid, support = self.planted_problem()
        path = ls.fit_path(X, y, grid)
        assert set(ls.select(path, ls.SelectionStrategy("min_mse"))) == support

    def test_k_too_large(self):
        X, y, grid, _ = self.planted_problem()
        path = ls.fit_path(X, y, grid)
        with pytest.raises(ValueError):
            ls.select(path, ls.SelectionStrategy("top_k", k=7))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ls.SelectionStrategy("best_ever")


class TestPathCsv:
    def test_round_trip_through_loader(self, tmp_path):
        rng = np.random.default_rng(10)
        X = standardized(rng, 40, 3)
        y = X @ np.array([1.0, 0.0, -1.0]) + 0.1 * rng.normal(size=40)
        grid = ls.lambda_grid(X, y - y.mean(), 12)
        path = ls.fit_path(X, y, grid)
        from ummaso.pipeline import load_path_csv

        file_path = str(tmp_path / "path.csv")
        ls.path_to_csv(path, file_path)
        back = load_path_csv(file_path)
        np.testing.assert_array_equal(back.lambdas, path.lambdas)
        np.testing.assert_array_equal(back.coef_matrix, path.coef_matrix)
        np.testing.assert_array_equal(back.df, path.df)
        np.testing.assert_array_equal(back.mse, path.mse)
