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

One exact search, build_knn, serves both the graph and the out-of-sample
embedding. A k-d tree (scipy's cKDTree) offers a few more than k candidates
per row, and one rule orders every row's candidates: distances from explicit
differences, ties by point index. A row settles once no point outside its
candidates can reach its k-th distance; until then the tree offers four times
as many, and past the point count (or for a non-finite row) all points are
its candidates. So every row is a stable argsort of all distances, bit for bit.

The spectral init solves the symmetric-normalized Laplacian at every graph
size as a CSR matrix with ARPACK's Lanczos solver, as the reference UMAP
does, so its memory grows with the edge count. ARPACK draws its start vector
and every restart vector from a generator seeded with the UMAP seed:
unseeded, a restart draws from OS entropy, and a graph with degenerate
eigenvalues (a ring, say) gets a different basis on every call.

Sign convention: attractive_gradient/repulsive_gradient return the descent
step applied to a coordinate (the negative loss gradient), so the update is
y += lr * step.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .dataset import write_table
from .errors import NumericalError

logger = logging.getLogger(__name__)

# The layout epoch is plain numpy; the flag stays only because the benchmark's
# environment record (perfbench/run.py) still reports whether numba was used.
HAVE_NUMBA = False

GRAD_CLIP = 4.0  # per-coordinate bound on a single gradient step
KNN_BLOCK_ELEMENTS = 1 << 22  # float64 differences held per build_knn block
KNN_MARGIN = 7  # extra tree candidates per row, so copies tied at the k-th distance fit
KNN_SLACK = 1e-10  # relative round-off allowed between tree and exact distances
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
    the membership equation instead of being clamped. The fields are the
    whole fitted graph: graph.json stores each one under its field name.
    """

    neighbor_indices: np.ndarray
    neighbor_distances: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    sigma_converged: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_v: np.ndarray

    @property
    def n_points(self) -> int:
        return self.neighbor_indices.shape[0]

    @property
    def k(self) -> int:
        return self.neighbor_indices.shape[1]

    @property
    def rho_degenerate(self) -> np.ndarray:
        """Points whose neighborhood contained no positive distance (duplicates)."""
        return self.rho == 0.0


@dataclass(frozen=True)
class Embedding:
    coordinates: np.ndarray
    final_loss: float
    epoch_losses: np.ndarray


def knn_index(points):
    """The k-d tree build_knn searches `points` with, or None if a point is not
    finite (cKDTree rejects those; build_knn then compares rows with all points)."""
    P = np.asarray(points, dtype=np.float64)
    if not np.isfinite(P).all():
        return None
    # here, not at the top: a cold import (which loads scipy.linalg) took
    # 0.38-0.53 s and 35 MiB of RSS on a shared 2-vCPU VM, and a process that
    # never embeds a row never needs it
    import scipy.spatial

    return scipy.spatial.cKDTree(P)


def build_knn(points, k: int, queries=None, index=None) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest neighbors under the Euclidean metric.

    Row r lists the k points closest to queries[r] (to points[r], leaving r
    itself out, when queries is None) in stable-argsort order: distances
    ascending, ties by point index. Distances sum explicit differences, so
    duplicates are exactly 0 apart and no row depends on the other queries.

    `index` is knn_index(points), built here when not given. The tree first
    offers m = k + 1 + KNN_MARGIN candidates per row (one more when leaving r
    out), which _k_nearest orders. A point outside them is at least the last
    candidate's tree distance away, so a row settles when its k-th distance
    lies below that by more than KNN_SLACK, the relative round-off between the
    tree's sums and these. Other rows are queried again with 4 m candidates,
    and so on; once m reaches the point count, all points are the candidates,
    as they are for non-finite or overflowing rows and when there is no tree.
    Each round runs in blocks of about KNN_BLOCK_ELEMENTS differences.
    """
    P = np.asarray(points, dtype=np.float64)
    Q = P if queries is None else np.asarray(queries, dtype=np.float64)
    n = len(P)
    if k >= n:
        raise ValueError(f"k ({k}) must be smaller than the number of points ({n})")
    tree = knn_index(P) if index is None else index
    leave_out = queries is None
    indices = np.empty((len(Q), k), dtype=np.int64)
    distances = np.empty((len(Q), k))
    settled = np.zeros(len(Q), dtype=bool)
    pending = np.flatnonzero(np.isfinite(Q).all(axis=1)) if tree is not None else []
    m = k + 1 + leave_out + KNN_MARGIN
    while len(pending) and m < n:
        wider = []
        for rows in _blocks(pending, m * P.shape[1]):
            tree_d, cand = tree.query(Q[rows], k=m)
            # an overflowing distance comes back as inf, with the missing index n;
            # distances ascend, so a finite last one means every index is real
            ok = np.isfinite(tree_d[:, -1])
            rows, tree_d, cand = rows[ok], tree_d[ok], cand[ok]
            idx, dist = _k_nearest(Q[rows, None, :] - P[cand], cand, k, rows if leave_out else None)
            accept = dist[:, -1] < tree_d[:, -1] * (1.0 - KNN_SLACK)
            done = rows[accept]
            indices[done], distances[done], settled[done] = idx[accept], dist[accept], True
            wider.append(rows[~accept])
        pending = np.concatenate(wider)
        m *= 4
    for rows in _blocks(np.flatnonzero(~settled), P.size):
        cand = np.broadcast_to(np.arange(n), (len(rows), n))
        diff = Q[rows, None, :] - P
        indices[rows], distances[rows] = _k_nearest(diff, cand, k, rows if leave_out else None)
    return indices, distances


def _blocks(rows, elements_per_row: int):
    """`rows` in slices of about KNN_BLOCK_ELEMENTS elements."""
    step = max(1, KNN_BLOCK_ELEMENTS // max(1, elements_per_row))
    return (rows[start : start + step] for start in range(0, len(rows), step))


def _k_nearest(diff, cand, k: int, own=None) -> tuple[np.ndarray, np.ndarray]:
    """The first k of each row's candidate points cand[r], ordered by exact
    distance and then by point index; diff[r, j] is query r minus point
    cand[r, j], and own[r], when given, is the point that row r leaves out."""
    d = np.sqrt(np.maximum(np.sum(diff**2, axis=-1), 0.0))
    if own is not None:
        d[cand == own[:, None]] = np.inf
    order = np.lexsort((cand, d), axis=1)[:, :k]
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(d, order, axis=1)


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


def _sparse_eigs(graph: NeighborGraph, e: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The e+1 smallest eigenpairs of the Laplacian, by ARPACK on a CSR matrix.

    Each edge weight is scaled by one product inv_sqrt[i] * inv_sqrt[j], so
    the matrix is exactly symmetric. Pairs come back in ascending order.
    """
    # here, not at the top: predict never solves, and a cold import (which
    # loads scipy.linalg) took 0.28-0.36 s on a shared 2-vCPU VM
    import scipy.sparse.linalg

    n = graph.n_points
    i = np.concatenate([graph.edge_i, graph.edge_j])
    j = np.concatenate([graph.edge_j, graph.edge_i])
    w = np.concatenate([graph.edge_v, graph.edge_v])
    degree = np.bincount(i, weights=w, minlength=n)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, np.finfo(np.float64).tiny))
    adjacency = scipy.sparse.csr_matrix((w * (inv_sqrt[i] * inv_sqrt[j]), (i, j)), shape=(n, n))
    lap = scipy.sparse.identity(n, format="csr") - adjacency
    vals, vecs = scipy.sparse.linalg.eigsh(lap, k=e + 1, which="SM", maxiter=5 * n, rng=seed)
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    # A graph of m components has m zero eigenvalues and ARPACK returns any
    # basis of their eigenspace; make column 0 the trivial sqrt(degree) vector,
    # so the kept columns separate the components.
    m = int(np.count_nonzero(vals < 1e-10))
    if m > 1:
        null = vecs[:, :m]
        trivial = np.sqrt(degree) / np.linalg.norm(np.sqrt(degree))
        others = np.linalg.svd(null - np.outer(trivial, trivial @ null), full_matrices=False)[0]
        vecs[:, :m] = np.column_stack([trivial, others[:, : m - 1]])
    return vals, vecs


def spectral_init(graph: NeighborGraph, e: int, seed: int) -> np.ndarray:
    """Initial coordinates from the symmetric-normalized graph Laplacian.

    Takes the e eigenvectors with the smallest non-trivial eigenvalues,
    rescales to max-abs 10 and adds a seeded 1e-4 jitter to break ties.
    ARPACK solves a CSR Laplacian (which="SM", at most 5 N iterations) from
    its own generator, seeded with `seed`. If it fails, the init falls back
    to seeded uniform coordinates in [-10, 10] with a warning. The solver
    and the e + 1 eigenvalues are logged at debug level.
    """
    n = graph.n_points
    if n == 0:
        raise ValueError("graph is empty")
    if e >= n:
        raise ValueError(f"out_dim too large: need e < n_points, got e={e}, n={n}")
    rng = np.random.default_rng(seed)
    try:
        vals, vecs = _sparse_eigs(graph, e, seed)
    except (np.linalg.LinAlgError, RuntimeError, ValueError) as exc:  # ARPACK raises RuntimeErrors
        logger.warning("spectral init: sparse eigensolver failed (%s); using uniform init", exc)
        logger.debug("spectral init: solver uniform, n=%d", n)
        return rng.uniform(-10.0, 10.0, size=(n, e))
    logger.debug("spectral init: solver sparse, n=%d, eigenvalues %s", n, vals.tolist())
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
    return Embedding(coordinates=coords, final_loss=float(final_loss), epoch_losses=losses)


def build_graph(X: np.ndarray, config: UmapConfig) -> NeighborGraph:
    """k-NN graph with calibrated rho/sigma and symmetrized fuzzy weights."""
    indices, distances = build_knn(X, config.k)
    n = indices.shape[0]
    rho = compute_rho(distances)
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
    write_table(path, header, ([*row, label] for row, label in zip(coords.tolist(), labels)))
