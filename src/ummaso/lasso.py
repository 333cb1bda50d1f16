"""L1-penalized least squares over a descending lambda grid.

Objective: (1/2N) * sum_i (y_i - b0 - x_i.beta)^2 + lambda * sum_j |beta_j|,
solved by cyclic coordinate descent with soft-thresholding and covariance
updates (glmnet's scheme; Friedman, Hastie, Tibshirani 2010, J. Stat. Softw.
33(1)): the solver keeps the gradient X^T r / N, not the residual r. Features
are ranked by the largest lambda at which their coefficient first becomes
non-zero while walking the grid from lambda_max downward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import float_columns, read_table, write_table
from .errors import DataFormatError

ACTIVE_THRESHOLD = 1e-12  # |beta| above this counts as a non-zero coefficient
CD_MAX_SWEEPS = 10_000  # coordinate-descent sweeps before a lambda counts as unconverged
CD_TOL = 1e-8  # converged once a sweep changes no coefficient by this much or more
GRID_RATIO = 1e-3  # smallest grid lambda relative to lambda_max
_PATH_CSV_COLUMNS = ["lambda", "df", "mse", "intercept", "converged"]  # then beta_j


@dataclass(frozen=True)
class LassoModel:
    intercept: float
    coef: np.ndarray
    lam: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class LassoPath:
    lambdas: np.ndarray
    coef_matrix: np.ndarray
    intercepts: np.ndarray
    df: np.ndarray
    mse: np.ndarray
    converged: np.ndarray


@dataclass(frozen=True)
class FeatureRanking:
    """Features ordered by descending entry lambda; never-active ones last,
    with an entry lambda of None."""

    order: list[int]
    entry_lambdas: list[float | None]
    names: list[str]


@dataclass(frozen=True)
class SelectionStrategy:
    strategy: str = "top_k"  # top_k | lambda_at | min_mse
    k: int = 5  # used by top_k
    value: float | None = None  # used by lambda_at

    def __post_init__(self):
        if self.strategy not in ("top_k", "lambda_at", "min_mse"):
            raise ValueError(f"unknown selection strategy '{self.strategy}'")
        if self.strategy == "top_k" and self.k < 0:
            raise ValueError("top_k requires a non-negative k")
        if self.strategy == "lambda_at" and self.value is None:
            raise ValueError("lambda_at requires a lambda value")
        if self.strategy == "lambda_at" and self.value < 0:
            raise ValueError(f"lambda_at value must be non-negative, got {self.value}")


@dataclass(frozen=True)
class LassoSettings:
    grid_count: int = 100
    selection: SelectionStrategy = field(default_factory=SelectionStrategy)

    def __post_init__(self):
        if self.grid_count < 2:
            raise ValueError("grid_count must be at least 2")


def lambda_grid(X: np.ndarray, y: np.ndarray, count: int = 100) -> np.ndarray:
    """Log-spaced grid from lambda_max down to lambda_max * 1e-3.

    lambda_max = max_j |x_j . y| / N is the smallest penalty at which the
    all-zero solution is optimal (X standardized, y centered).
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lam_max = float(np.max(np.abs(X.T @ y)) / X.shape[0])
    if lam_max <= 0.0:
        raise ValueError("degenerate response: all feature/response correlations are zero")
    return np.logspace(np.log10(lam_max), np.log10(lam_max * GRID_RATIO), count)


def fit_lasso(
    X: np.ndarray, y: np.ndarray, lam: float, warm_start: np.ndarray | None = None
) -> LassoModel:
    """Cyclic coordinate descent by covariance updates; converged when the
    largest per-sweep coefficient change drops below CD_TOL within
    CD_MAX_SWEEPS sweeps. Zero-variance columns stay at 0.

    The kernel keeps the Gram matrix X^T X / N, the gradient X^T r / N of the
    residual r and r's mean, not r itself: a step delta on beta_j costs one
    O(p) gradient update instead of two O(N) passes over column j. The
    per-coordinate arithmetic runs on Python floats."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    lam = float(lam)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    col_sq = (np.einsum("ij,ij->j", X, X) / n).tolist()
    col_mean = X.mean(axis=0)
    gram_rows = list((X.T @ X) / n)
    beta = [0.0] * p if warm_start is None else np.asarray(warm_start, dtype=np.float64).tolist()
    intercept = float(np.mean(y - X @ beta))
    residual = y - intercept - X @ beta
    grad = (X.T @ residual) / n
    residual_mean = float(np.mean(residual))
    movable = [j for j in range(p) if col_sq[j] != 0.0]
    means = col_mean.tolist()
    converged = False
    sweeps = 0
    for sweeps in range(1, CD_MAX_SWEEPS + 1):
        max_change = 0.0
        for j in movable:
            old = beta[j]
            # soft-threshold the partial correlation; a zero keeps its sign
            partial = grad.item(j) + col_sq[j] * old
            if partial > lam:
                new = (partial - lam) / col_sq[j]
            elif partial < -lam:
                new = (partial + lam) / col_sq[j]
            else:
                new = -0.0 if partial < 0.0 else 0.0
            if new != old:
                delta = new - old
                grad -= gram_rows[j] * delta
                residual_mean -= means[j] * delta
                beta[j] = new
                max_change = max(max_change, abs(delta))
        # re-optimize the (unpenalized) intercept; a no-op for centered X
        if residual_mean != 0.0:
            grad -= col_mean * residual_mean
            residual_mean = 0.0
        if max_change < CD_TOL:
            converged = True
            break
    coef = np.array(beta)
    intercept = float(np.mean(y - X @ coef))
    return LassoModel(
        intercept=intercept, coef=coef, lam=lam, iterations=sweeps, converged=converged
    )


def kkt_violation(X: np.ndarray, y: np.ndarray, model: LassoModel) -> float:
    """Worst-case optimality residual of the returned solution.

    For beta_j = 0 the correlation |x_j.r|/N may not exceed lambda; for active
    coordinates it must equal lambda * sign(beta_j). Returns the max excess.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    residual = y - model.intercept - X @ model.coef
    grad = (X.T @ residual) / X.shape[0]
    excess = np.where(
        np.abs(model.coef) <= ACTIVE_THRESHOLD,
        np.abs(grad) - model.lam,
        np.abs(grad - model.lam * np.sign(model.coef)),
    )
    return float(np.max(excess, initial=0.0))  # 0 when every condition holds


def mse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """(1/N) sum of squared residuals."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ValueError("length mismatch between y_true and y_pred")
    if y_true.size == 0:
        raise ValueError("empty vectors")
    return float(np.mean((y_true - y_pred) ** 2))


def fit_path(X: np.ndarray, y: np.ndarray, lambdas: np.ndarray) -> LassoPath:
    """Fit from the largest lambda down, warm-starting each solve from the
    previous one; record degrees of freedom and training MSE per lambda."""
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if lambdas.size == 0:
        raise ValueError("empty lambda grid")
    if np.any(np.diff(lambdas) >= 0):
        raise ValueError("lambdas must be strictly descending")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n_lams, p = lambdas.size, X.shape[1]
    coefs = np.zeros((n_lams, p))
    intercepts = np.zeros(n_lams)
    df = np.zeros(n_lams, dtype=np.int64)
    mses = np.zeros(n_lams)
    converged = np.zeros(n_lams, dtype=bool)
    warm = None
    for t, lam in enumerate(lambdas):
        model = fit_lasso(X, y, lam, warm_start=warm)
        warm = model.coef
        coefs[t] = model.coef
        intercepts[t] = model.intercept
        df[t] = int(np.sum(np.abs(model.coef) > ACTIVE_THRESHOLD))
        mses[t] = mse(y, model.intercept + X @ model.coef)
        converged[t] = model.converged
    return LassoPath(
        lambdas=lambdas,
        coef_matrix=coefs,
        intercepts=intercepts,
        df=df,
        mse=mses,
        converged=converged,
    )


def rank_features(path: LassoPath, names: list[str]) -> FeatureRanking:
    """Order features by the lambda at which they first become active.

    Features that never activate rank last; ties (including the never case)
    break by original column index.
    """
    p = path.coef_matrix.shape[1]
    if len(names) != p:
        raise ValueError("names length does not match coefficient count")
    entry: list[float | None] = []
    for j in range(p):
        active = np.flatnonzero(np.abs(path.coef_matrix[:, j]) > ACTIVE_THRESHOLD)
        entry.append(float(path.lambdas[active[0]]) if active.size else None)
    order = sorted(
        range(p), key=lambda j: (-entry[j] if entry[j] is not None else np.inf, j)
    )
    return FeatureRanking(order=order, entry_lambdas=entry, names=list(names))


def select(path: LassoPath, selection: SelectionStrategy) -> list[int]:
    """Pick a feature subset from the fitted path; returns sorted indices."""
    p = path.coef_matrix.shape[1]
    if selection.strategy == "top_k":
        if selection.k > p:
            raise ValueError(f"top_k k={selection.k} exceeds feature count {p}")
        ranking = rank_features(path, [str(j) for j in range(p)])
        return sorted(ranking.order[: selection.k])
    if selection.strategy == "lambda_at":
        row = int(np.argmin(np.abs(path.lambdas - selection.value)))
    else:  # min_mse
        row = int(np.argmin(path.mse))
    return sorted(
        int(j) for j in np.flatnonzero(np.abs(path.coef_matrix[row]) > ACTIVE_THRESHOLD)
    )


def fit_selection(
    X: np.ndarray, labels: np.ndarray, names: list[str], settings: LassoSettings
) -> tuple[LassoPath, FeatureRanking, list[int]]:
    """The LASSO stage on standardized features: regress the centred labels
    over a `settings.grid_count` lambda grid, rank the features and select a
    subset by `settings.selection`."""
    response = np.asarray(labels, dtype=np.float64)
    grid = lambda_grid(X, response - response.mean(), settings.grid_count)
    path = fit_path(X, response, grid)
    return path, rank_features(path, names), select(path, settings.selection)


def path_to_csv(path: LassoPath, file_path: str) -> None:
    """Coefficient-path export, one row per lambda: lambda, df, mse, intercept,
    converged (1/0), beta_0..beta_{p-1}."""
    header = _PATH_CSV_COLUMNS + [f"beta_{j}" for j in range(path.coef_matrix.shape[1])]
    columns = (path.lambdas, path.df, path.mse, path.intercepts, path.converged)
    rows = ([*cells, *coefs] for *cells, coefs in zip(*columns, path.coef_matrix.tolist()))
    write_table(file_path, header, rows)


def load_path_csv(path: str) -> LassoPath:
    """Rebuild a LassoPath from its CSV export (`path_to_csv`)."""
    header, rows = read_table(path)
    if header[: len(_PATH_CSV_COLUMNS)] != _PATH_CSV_COLUMNS:
        raise DataFormatError(f"{path}: header must start with {_PATH_CSV_COLUMNS}")
    table = float_columns(path, header, rows, header)
    return LassoPath(
        lambdas=table[:, 0],
        coef_matrix=table[:, len(_PATH_CSV_COLUMNS) :],
        intercepts=table[:, 3],
        df=table[:, 1].astype(np.int64),
        mse=table[:, 2],
        converged=table[:, 4] == 1.0,
    )
