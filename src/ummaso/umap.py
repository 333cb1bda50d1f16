"""Fuzzy k-NN graph construction and low-dimensional layout optimization.

The graph side computes, per point, the nearest-positive-neighbor distance
rho_i and a bandwidth sigma_i calibrated so the total fuzzy membership of its
neighborhood equals log2(k). One bisection, solve_sigmas, calibrates every
point at once: each step is one row-wise exp-and-sum over the points still
being solved, and each point's sigma is bit-equal to bisecting it alone.
Directed weights exp(-max(0, d - rho)/sigma) are symmetrized with the
probabilistic t-conorm u + v - u*v. The layout side minimizes the fuzzy
cross-entropy between graph weights and the Student-t similarities of the
embedded points, by per-edge attraction plus uniformly sampled repulsion
(negative sampling), starting from a spectral embedding.
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
from dataclasses import dataclass

import numpy as np

from .dataset import float_columns, read_table, write_table
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
LAYOUT_EPS = 1e-3  # offset in the repulsive step's denominator, and the loss's w clamp
SIGMA_MAX_ITERS = 64  # bisection steps for each bandwidth
SIGMA_TOL = 1e-5  # membership-sum error below which a bandwidth counts as converged


@dataclass(frozen=True)
class UmapConfig:
    k: int = 15
    out_dim: int = 2
    a: float = 1.0
    b: float = 1.0
    epochs: int = 200
    learning_rate: float = 1.0  # initial value; decays linearly to 0
    negative_samples: int = 5

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


@dataclass(frozen=True)
class NeighborGraph:
    """Training rows (points), their calibrated bandwidths and fuzzy edges.

    Edges are stored as parallel arrays (edge_i[t] < edge_j[t]); every weight
    lies in [0, 1] (a clamped sigma can underflow a directed weight to 0; such
    an edge is kept). sigma_converged marks points whose bandwidth satisfied
    the membership equation instead of being clamped. The layout reads the
    edges, transform reads points, rho and sigma; graph.json stores each field.
    """

    points: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    sigma_converged: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_v: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.sigma) & (self.sigma > 0.0)):
            raise ValueError("every sigma must be positive and finite")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

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


def solve_sigma(distances_row: np.ndarray, rho: float, k: int) -> tuple[float, bool]:
    """Bisect one row for the bandwidth whose total membership equals log2(k).

    The one-row case of solve_sigmas, with a float sigma and a bool
    converged flag: the same schedule, clamps and bits.
    """
    sigma, converged = solve_sigmas([distances_row], [rho], k)
    return float(sigma[0]), bool(converged[0])


def solve_sigmas(distances: np.ndarray, rho: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `distances`, bisect for the bandwidth whose total
    membership equals log2(k); returns (sigma, converged) arrays.

    Row i's left-hand side sum_j exp(-max(0, d_ij - rho_i)/sigma) increases
    from the count of zero-gap neighbors toward the row length, so the target
    is reachable only strictly between the two. The reachable rows are solved
    together: each doubles its upper bound from 1 until its sum reaches the
    target (at most 64 times), then all take SIGMA_MAX_ITERS bisection steps
    of [0, hi], each one np.exp(...).sum(axis=1) over those rows. Every row
    thus gets the bits of bisecting it alone. A row whose bisection ends
    SIGMA_TOL or more off target, or whose target is unreachable, gets a
    clamped sigma and converged=False. The clamp interval is [1e-3, 1e3] *
    the row's mean positive gap (sigma = 1.0 when no gap is positive). That
    mean is taken row by row over the compressed positive gaps: a zero-padded
    row sums in another order and differs in the last bits.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    rho = np.asarray(rho, dtype=np.float64)
    gaps = np.maximum(0.0, np.asarray(distances, dtype=np.float64) - rho[:, None])
    target = np.log2(k)
    width = gaps.shape[1]
    n_zero = width - np.count_nonzero(gaps > 0.0, axis=1)
    has_gap = n_zero < width
    sigma = np.ones(len(gaps))
    converged = np.zeros(len(gaps), dtype=bool)
    solve = np.flatnonzero(has_gap & (target > n_zero) & (target < width))
    G = gaps if solve.size == len(gaps) else gaps[solve]
    lo, hi = np.zeros(len(G)), np.ones(len(G))
    below = np.arange(len(G))
    for _ in range(64):
        # not `< target`: a NaN sum keeps doubling, as in a one-row bisection
        reached = _membership(G if below.size == len(G) else G[below], hi[below]) >= target
        below = below[~reached]
        if below.size == 0:
            break
        hi[below] *= 2.0
    for _ in range(SIGMA_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        under = _membership(G, mid) < target
        lo, hi = np.where(under, mid, lo), np.where(under, hi, mid)
    sigma[solve] = 0.5 * (lo + hi)
    converged[solve] = np.abs(_membership(G, sigma[solve]) - target) < SIGMA_TOL
    for i in np.flatnonzero(has_gap & ~converged):
        mean_gap = float(gaps[i][gaps[i] > 0.0].mean())
        lo_clamp, hi_clamp = 1e-3 * mean_gap, 1e3 * mean_gap
        if target <= n_zero[i]:
            sigma[i] = lo_clamp
        elif target >= width:
            sigma[i] = hi_clamp
        else:
            sigma[i] = min(max(sigma[i], lo_clamp), hi_clamp)
    return sigma, converged


def _membership(gaps: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Per row, the total fuzzy membership sum_j exp(-gaps_ij / sigma_i)."""
    return np.exp(-gaps / sigma[:, None]).sum(axis=1)


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


def cross_entropy(v, w, eps: float = LAYOUT_EPS):
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
    if e + 1 >= n:  # ARPACK needs e + 1 < n; an empty graph fails here too
        raise ValueError(f"out_dim too large: need e + 1 < n_points, got e={e}, n={n}")
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


def _edge_loss(coords: np.ndarray, graph: NeighborGraph, a: float, b: float) -> float:
    """Fuzzy cross-entropy summed over the stored positive edges."""
    w = low_dim_similarity(coords[graph.edge_i], coords[graph.edge_j], a, b)
    return float(np.sum(cross_entropy(graph.edge_v, w)))


def optimize_layout(
    graph: NeighborGraph, init: np.ndarray, config: UmapConfig, seed: int
) -> Embedding:
    """Refine initial coordinates by stochastic attraction/repulsion, drawn
    from a generator seeded with `seed`.

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
    rng = np.random.default_rng(seed)
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
            LAYOUT_EPS,
        )
        if bad_edge >= 0:
            raise NumericalError(
                f"non-finite coordinates at epoch {epoch}, edge {bad_edge}"
            )
        losses[epoch] = _edge_loss(coords, graph, config.a, config.b)
    final_loss = losses[-1] if config.epochs > 0 else _edge_loss(coords, graph, config.a, config.b)
    return Embedding(coordinates=coords, final_loss=float(final_loss), epoch_losses=losses)


def build_graph(X: np.ndarray, config: UmapConfig) -> NeighborGraph:
    """k-NN graph with calibrated rho/sigma and symmetrized fuzzy weights.

    Logs n, the unconverged sigma and rho_degenerate counts and the edge
    count at debug level."""
    indices, distances = build_knn(X, config.k)
    n = indices.shape[0]
    rho = compute_rho(distances)
    sigma, converged = solve_sigmas(distances, rho, config.k)
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
    graph = NeighborGraph(
        points=X,
        rho=rho,
        sigma=sigma,
        sigma_converged=converged,
        edge_i=edge_i,
        edge_j=edge_j,
        edge_v=edge_v,
    )
    logger.debug(
        "umap graph: n=%d, unconverged sigmas %d, rho_degenerate %d, edges %d",
        n, np.count_nonzero(~converged), np.count_nonzero(graph.rho_degenerate), edge_i.size,
    )
    return graph


def embed(X: np.ndarray, config: UmapConfig, seed: int) -> tuple[NeighborGraph, Embedding]:
    """Full reduction: graph construction, then spectral init and layout
    optimization, both seeded with `seed`."""
    graph = build_graph(np.asarray(X, dtype=np.float64), config)
    init = spectral_init(graph, config.out_dim, seed)
    return graph, optimize_layout(graph, init, config, seed)


def transform(graph: NeighborGraph, embedding: Embedding, X, k: int, index=None) -> np.ndarray:
    """Out-of-sample coordinates: a weighted average of the k (the graph's
    UmapConfig.k) nearest training embeddings, by the stored rho/sigma
    memberships. A point coinciding exactly with a training point copies its
    coordinates. `index` is knn_index(graph.points), built per call if not given."""
    nearest, dists = build_knn(graph.points, k, queries=X, index=index)
    coords = embedding.coordinates
    weights = directed_weight(dists, graph.rho[nearest], graph.sigma[nearest])
    total = weights.sum(axis=1)
    # coincident point, or so remote that every membership underflowed:
    # fall back to the nearest training embedding
    copy = (dists[:, 0] == 0.0) | (total <= 0.0)
    out = (weights[:, None, :] @ coords[nearest])[:, 0] / np.where(copy, 1.0, total)[:, None]
    out[copy] = coords[nearest[copy, 0]]
    return out


def embedding_to_csv(coords: np.ndarray, labels: np.ndarray, path: str) -> None:
    """Write scatter-plot data: dim_0..dim_{e-1},label."""
    coords = np.asarray(coords, dtype=np.float64)
    header = [f"dim_{i}" for i in range(coords.shape[1])] + ["label"]
    write_table(path, header, ([*row, label] for row, label in zip(coords.tolist(), labels)))


def load_embedding_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    header, rows = read_table(path)
    table = float_columns(path, header, rows, header)
    return table[:, :-1], table[:, -1].astype(np.int64)
