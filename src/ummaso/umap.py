"""Fuzzy k-NN graph construction and low-dimensional layout optimization.

The graph side computes, per point, the nearest-positive-neighbor distance
rho_i and a bandwidth sigma_i calibrated so the total fuzzy membership of its
neighborhood equals log2(k). Directed weights exp(-max(0, d - rho)/sigma) are
symmetrized with the probabilistic t-conorm u + v - u*v. The layout side
minimizes the fuzzy cross-entropy between graph weights and the Student-t
similarities of the embedded points, by per-edge attraction plus uniformly
sampled repulsion (negative sampling), starting from a spectral embedding.
Each epoch is plain numpy: it walks the shuffled edges in chunks of
LAYOUT_CHUNK, takes a chunk's attraction from one read of the coordinates and
its repulsion one negative-sample column at a time, and scatters each with
np.add.at. Like UMAP's parallel reference optimizer, it tolerates stale reads
between edge updates; a chunk of one edge is the sequential per-edge update.

Sign convention: attractive_gradient/repulsive_gradient return the descent
step applied to a coordinate (the negative loss gradient), so the update is
y += lr * step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NumericalError

logger = logging.getLogger(__name__)

# The layout epoch is plain numpy; the flag stays only because the benchmark's
# environment record (perfbench/run.py) still reports whether numba was used.
HAVE_NUMBA = False

GRAD_CLIP = 4.0  # per-coordinate bound on a single gradient step
KNN_BLOCK_ELEMENTS = 1 << 22  # float64 differences held per build_knn block
LAYOUT_CHUNK = 512  # layout edges updated from one read of the coordinates


@dataclass(frozen=True)
class UmapConfig:
    k: int = 15
    out_dim: int = 2
    a: float = 1.0
    b: float = 1.0
    epochs: int = 200
    learning_rate: float = 1.0  # initial value; decays linearly to 0
    negative_samples: int = 5
    eps: float = 1e-3
    sigma_tol: float = 1e-5
    sigma_max_iters: int = 64
    # set from the master seed, so not a config key
    seed: int = field(default=0, metadata={"derived": True})

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.out_dim < 1:
            raise ValueError("out_dim must be at least 1")
        if self.a <= 0 or self.b <= 0:
            raise ValueError("a and b must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.negative_samples < 0:
            raise ValueError("negative_samples must be non-negative")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


@dataclass(frozen=True)
class NeighborGraph:
    """k-NN structure plus the calibrated fuzzy edge weights.

    Edges are stored as parallel arrays (edge_i[t] < edge_j[t]); every weight
    lies in [0, 1] (a clamped sigma can underflow a directed weight to 0; such
    an edge is kept). sigma_converged marks points whose bandwidth satisfied
    the membership equation instead of being clamped; rho_degenerate marks
    points whose neighborhood contained no positive distance (duplicates).
    """

    neighbor_indices: np.ndarray
    neighbor_distances: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    sigma_converged: np.ndarray
    rho_degenerate: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_v: np.ndarray

    @property
    def n_points(self) -> int:
        return self.neighbor_indices.shape[0]

    @property
    def k(self) -> int:
        return self.neighbor_indices.shape[1]


@dataclass(frozen=True)
class Embedding:
    coordinates: np.ndarray
    a: float
    b: float
    final_loss: float
    epoch_losses: np.ndarray


def build_knn(points, k: int, queries=None) -> tuple[np.ndarray, np.ndarray]:
    """Exact brute-force k nearest neighbors under the Euclidean metric.

    Row r lists the k points closest to queries[r] (to points[r], leaving r
    itself out, when queries is None) in stable-argsort order: distances
    ascending, ties by point index. Distances sum explicit differences, so
    duplicates are exactly 0 apart and no row depends on the other queries.
    Queries run in blocks of about KNN_BLOCK_ELEMENTS differences.
    """
    P = np.asarray(points, dtype=np.float64)
    Q = P if queries is None else np.asarray(queries, dtype=np.float64)
    if k >= len(P):
        raise ValueError(f"k ({k}) must be smaller than the number of points ({len(P)})")
    indices = np.empty((len(Q), k), dtype=np.int64)
    distances = np.empty((len(Q), k))
    step = max(1, KNN_BLOCK_ELEMENTS // max(1, P.size))
    for start in range(0, len(Q), step):
        rows = slice(start, start + step)
        d = np.sqrt(np.maximum(np.sum((Q[rows, None, :] - P) ** 2, axis=-1), 0.0))
        if queries is None:
            d[np.arange(len(d)), np.arange(start, start + len(d))] = np.inf
        cand = np.argpartition(d, k - 1, axis=1)[:, :k]
        cand_d = np.take_along_axis(d, cand, axis=1)
        idx = np.take_along_axis(cand, np.lexsort((cand, cand_d), axis=1), axis=1)
        # another point at the k-th distance may outrank a candidate by index
        tied = np.count_nonzero(d <= cand_d.max(axis=1)[:, None], axis=1) != k
        if tied.any():
            idx[tied] = np.argsort(d[tied], axis=1, kind="stable")[:, :k]
        indices[rows] = idx
        distances[rows] = np.take_along_axis(d, idx, axis=1)
    return indices, distances


def compute_rho(distances: np.ndarray) -> np.ndarray:
    """Per row, the smallest strictly positive distance (0 if none exists)."""
    distances = np.asarray(distances, dtype=np.float64)
    positive = np.where(distances > 0.0, distances, np.inf)
    rho = positive.min(axis=1)
    return np.where(np.isfinite(rho), rho, 0.0)


def solve_sigma(
    distances_row: np.ndarray,
    rho: float,
    k: int,
    tol: float = 1e-5,
    max_iters: int = 64,
) -> tuple[float, bool]:
    """Bisect for the bandwidth whose total membership equals log2(k).

    The left-hand side sum_j exp(-max(0, d_j - rho)/sigma) increases from the
    count of zero-gap neighbors toward the row length, so the target is
    reachable only strictly between the two; unreachable targets return a
    clamped sigma with converged=False. The clamp interval is
    [1e-3, 1e3] * mean positive gap (sigma = 1.0 when no gap is positive).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    gaps = np.maximum(0.0, np.asarray(distances_row, dtype=np.float64) - rho)
    target = np.log2(k)
    positive = gaps[gaps > 0.0]
    if positive.size == 0:
        return 1.0, False
    mean_gap = float(positive.mean())
    lo_clamp, hi_clamp = 1e-3 * mean_gap, 1e3 * mean_gap
    n_zero = gaps.size - positive.size
    if target <= n_zero:
        return lo_clamp, False
    if target >= gaps.size:
        return hi_clamp, False

    def lhs(sigma: float) -> float:
        return float(np.exp(-gaps / sigma).sum())

    lo, hi = 0.0, 1.0
    for _ in range(64):
        if lhs(hi) >= target:
            break
        hi *= 2.0
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        if lhs(mid) < target:
            lo = mid
        else:
            hi = mid
    sigma = 0.5 * (lo + hi)
    if abs(lhs(sigma) - target) < tol:
        return sigma, True
    return min(max(sigma, lo_clamp), hi_clamp), False


def directed_weight(d, rho, sigma):
    """exp(-max(0, d - rho)/sigma); equals 1 at or inside the rho radius."""
    return np.exp(-np.maximum(0.0, np.asarray(d, dtype=np.float64) - rho) / sigma)


def symmetrize(v_ji, v_ij):
    """Probabilistic t-conorm u + v - u*v; commutative, stays in [0, 1]."""
    return v_ji + v_ij - v_ji * v_ij


def _difference(yi, yj) -> tuple[np.ndarray, np.ndarray]:
    """yi - yj and its squared norm over the last (coordinate) axis."""
    diff = np.asarray(yi, dtype=np.float64) - np.asarray(yj, dtype=np.float64)
    return diff, np.sum(diff * diff, axis=-1)


def _along(diff: np.ndarray, d2, coef) -> np.ndarray:
    """coef * diff per row; zero where d2 is not positive (coincident or NaN)."""
    return np.where((d2 > 0.0)[..., None], coef[..., None] * diff, 0.0)


def low_dim_similarity(yi, yj, a: float, b: float):
    """Student-t style similarity (1 + a * ||yi - yj||^(2b))^-1 in (0, 1].

    Row-batched over the last axis; 1-D inputs give a float.
    """
    w = 1.0 / (1.0 + a * _difference(yi, yj)[1] ** b)
    return float(w) if np.ndim(w) == 0 else w


def cross_entropy(v, w, eps: float = 1e-3):
    """Fuzzy cross-entropy v*log(v/w) + (1-v)*log((1-v)/(1-w)).

    w is clamped to [eps, 1-eps]; the 0*log(0) limits are taken as 0. Both
    terms are non-negative KL contributions, so the sum is a valid loss.
    Accepts scalars or arrays.
    """
    v = np.asarray(v, dtype=np.float64)
    w = np.clip(np.asarray(w, dtype=np.float64), eps, 1.0 - eps)
    tiny = np.finfo(np.float64).tiny
    first = np.where(v > 0.0, v * np.log(np.maximum(v, tiny) / w), 0.0)
    second = np.where(
        v < 1.0, (1.0 - v) * np.log(np.maximum(1.0 - v, tiny) / (1.0 - w)), 0.0
    )
    out = first + second
    return float(out) if out.ndim == 0 else out


def attractive_gradient(yi, yj, v_ij, a: float, b: float) -> np.ndarray:
    """Descent step pulling yi toward yj along a positive edge of weight v_ij.

    Row-batched: coordinates on the last axis, v_ij a scalar or one weight per
    row. Coincident points (or a NaN distance) get a zero step.
    """
    diff, d2 = _difference(yi, yj)
    with np.errstate(divide="ignore", invalid="ignore"):  # d2 = 0 is masked
        coef = (-2.0 * a * b * d2 ** (b - 1.0)) / (1.0 + a * d2**b)
        return _along(diff, d2, coef * v_ij)


def repulsive_gradient(yi, yj, v_ij, a: float, b: float, eps: float) -> np.ndarray:
    """Descent step pushing yi away from a sampled non-neighbor yj.

    Row-batched like attractive_gradient. eps keeps the step finite as the
    points coincide; at exact coincidence the direction vanishes and a zero
    step is returned.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    diff, d2 = _difference(yi, yj)
    coef = 2.0 * b / ((eps + d2) * (1.0 + a * d2**b))
    return _along(diff, d2, coef * (1.0 - v_ij))


def spectral_init(graph: NeighborGraph, e: int, seed: int) -> np.ndarray:
    """Initial coordinates from the symmetric-normalized graph Laplacian.

    Takes the e eigenvectors with the smallest non-trivial eigenvalues,
    rescales to max-abs 10 and adds a seeded 1e-4 jitter to break ties. If the
    eigensolver fails to converge the init falls back to seeded uniform
    coordinates in [-10, 10] (logged).
    """
    n = graph.n_points
    if n == 0:
        raise ValueError("graph is empty")
    if e >= n:
        raise ValueError(f"out_dim too large: need e < n_points, got e={e}, n={n}")
    rng = np.random.default_rng(seed)
    weights = np.zeros((n, n))
    weights[graph.edge_i, graph.edge_j] = graph.edge_v
    weights[graph.edge_j, graph.edge_i] = graph.edge_v
    degree = weights.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, np.finfo(np.float64).tiny))
    lap = np.eye(n) - inv_sqrt[:, None] * weights * inv_sqrt[None, :]
    lap = 0.5 * (lap + lap.T)
    try:
        _, vecs = scipy.linalg.eigh(lap, subset_by_index=(0, e))
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError) as exc:
        logger.warning("spectral init failed (%s); falling back to uniform init", exc)
        return rng.uniform(-10.0, 10.0, size=(n, e))
    coords = vecs[:, 1 : e + 1].copy()
    peak = np.abs(coords).max()
    if peak > 0:
        coords *= 10.0 / peak
    coords += rng.normal(0.0, 1e-4, size=coords.shape)
    return coords


def _layout_epoch(coords, edge_i, edge_j, edge_v, order, negatives, lr, a, b, eps):
    """One epoch of edge attraction plus negative-sample repulsion, in place.

    Walks `order` in chunks of LAYOUT_CHUNK edges. A chunk's attraction comes
    from the coordinates at chunk start and is scattered onto both endpoints;
    then each column of `negatives` in turn pushes the first endpoints away
    from their samples (v=0), read from the coordinates as they stand. Steps
    are clipped to [-GRAD_CLIP, GRAD_CLIP] per coordinate before the lr
    factor. A chunk of one edge is the sequential per-edge update. Returns -1,
    or the first edge of a chunk, in `order`, whose endpoints went non-finite.
    """
    for start in range(0, order.size, LAYOUT_CHUNK):
        edges = order[start : start + LAYOUT_CHUNK]
        i, j = edge_i[edges], edge_j[edges]
        g = attractive_gradient(coords[i], coords[j], edge_v[edges], a, b)
        step = lr * np.clip(g, -GRAD_CLIP, GRAD_CLIP)
        np.add.at(coords, i, step)
        np.add.at(coords, j, -step)
        # a sample equal to i lies at distance 0 from it, so its step is zero
        for other in negatives[start : start + LAYOUT_CHUNK].T:
            g = repulsive_gradient(coords[i], coords[other], 0.0, a, b, eps)
            np.add.at(coords, i, lr * np.clip(g, -GRAD_CLIP, GRAD_CLIP))
        finite = np.isfinite(coords[i]).all(axis=1) & np.isfinite(coords[j]).all(axis=1)
        if not finite.all():
            return int(edges[np.argmin(finite)])
    return -1


def _edge_loss(coords: np.ndarray, graph: NeighborGraph, a: float, b: float, eps: float) -> float:
    """Fuzzy cross-entropy summed over the stored positive edges."""
    w = low_dim_similarity(coords[graph.edge_i], coords[graph.edge_j], a, b)
    return float(np.sum(cross_entropy(graph.edge_v, w, eps)))


def optimize_layout(
    graph: NeighborGraph, init: np.ndarray, config: UmapConfig
) -> Embedding:
    """Refine initial coordinates by seeded stochastic attraction/repulsion.

    Each epoch visits every positive edge in a freshly shuffled order, pulls
    both endpoints together, then pushes the first endpoint away from
    config.negative_samples uniformly drawn points, in the chunks described at
    _layout_epoch. The learning rate decays linearly from the initial value to
    0; a fuzzy cross-entropy estimate over the positive edges is recorded
    after every epoch.
    """
    init = np.asarray(init, dtype=np.float64)
    if init.shape[0] != graph.n_points:
        raise ValueError("init row count does not match graph size")
    coords = init.copy()
    n_edges = graph.edge_i.size
    rng = np.random.default_rng(config.seed)
    losses = np.zeros(config.epochs)
    for epoch in range(config.epochs):
        lr = config.learning_rate * (1.0 - epoch / config.epochs)
        order = rng.permutation(n_edges)
        negatives = rng.integers(
            0, graph.n_points, size=(n_edges, config.negative_samples)
        )
        bad_edge = _layout_epoch(
            coords,
            graph.edge_i,
            graph.edge_j,
            graph.edge_v,
            order,
            negatives,
            lr,
            config.a,
            config.b,
            config.eps,
        )
        if bad_edge >= 0:
            raise NumericalError(
                f"non-finite coordinates at epoch {epoch}, edge {bad_edge}"
            )
        losses[epoch] = _edge_loss(coords, graph, config.a, config.b, config.eps)
    final_loss = (
        losses[-1]
        if config.epochs > 0
        else _edge_loss(coords, graph, config.a, config.b, config.eps)
    )
    return Embedding(
        coordinates=coords,
        a=config.a,
        b=config.b,
        final_loss=float(final_loss),
        epoch_losses=losses,
    )


def build_graph(X: np.ndarray, config: UmapConfig) -> NeighborGraph:
    """k-NN graph with calibrated rho/sigma and symmetrized fuzzy weights."""
    indices, distances = build_knn(X, config.k)
    n = indices.shape[0]
    rho = compute_rho(distances)
    rho_degenerate = rho == 0.0
    sigma = np.empty(n)
    converged = np.empty(n, dtype=bool)
    for i in range(n):
        sigma[i], converged[i] = solve_sigma(
            distances[i], rho[i], config.k, config.sigma_tol, config.sigma_max_iters
        )
    weights = directed_weight(distances, rho[:, None], sigma[:, None]).ravel()
    rows = np.repeat(np.arange(n), config.k)
    cols = indices.ravel()
    # one undirected pair per key; scatter each direction's weight (0 if absent)
    keys, pair = np.unique(
        np.minimum(rows, cols) * n + np.maximum(rows, cols), return_inverse=True
    )
    up, down = np.zeros(keys.size), np.zeros(keys.size)
    up[pair[rows < cols]] = weights[rows < cols]
    down[pair[rows > cols]] = weights[rows > cols]
    edge_i, edge_j = np.divmod(keys, n)
    edge_v = symmetrize(up, down)
    return NeighborGraph(
        neighbor_indices=indices,
        neighbor_distances=distances,
        rho=rho,
        sigma=sigma,
        sigma_converged=converged,
        rho_degenerate=rho_degenerate,
        edge_i=edge_i,
        edge_j=edge_j,
        edge_v=edge_v,
    )


def embed(X: np.ndarray, config: UmapConfig) -> tuple[NeighborGraph, Embedding]:
    """Full reduction: graph construction, spectral init, layout optimization."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] <= config.k:
        raise ValueError(
            f"need more points than neighbors: N={X.shape[0]}, k={config.k}"
        )
    graph = build_graph(X, config)
    init = spectral_init(graph, config.out_dim, config.seed)
    return graph, optimize_layout(graph, init, config)


def embedding_to_csv(coords: np.ndarray, labels: np.ndarray, path: str) -> None:
    """Write scatter-plot data: dim_0..dim_{e-1},label."""
    coords = np.asarray(coords, dtype=np.float64)
    header = [f"dim_{i}" for i in range(coords.shape[1])] + ["label"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row, label in zip(coords, labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def graph_edges_json(graph: NeighborGraph) -> list[dict]:
    """Debug export: the symmetrized edge list as {i, j, v} records."""
    columns = (graph.edge_i.tolist(), graph.edge_j.tolist(), graph.edge_v.tolist())
    return [{"i": i, "j": j, "v": v} for i, j, v in zip(*columns)]
