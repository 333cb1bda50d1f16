"""Factorized sparse convolution: the one module that knows its layout.

A dense kernel K (s_h, s_w, m, n) is replaced by a channel-mixing matrix P
plus, per input channel i, a low-rank pair (Q_i, S_i): the transformed kernel
slice R(.,.,i,.) reshaped to (s_h*s_w, n) is approximated as Q_i @ S_i with
Q_i (s_h*s_w, q1) and S_i (q1, n). The forward pass then needs only the
q1-channel correlations T_i followed by one matrix multiplication, and agrees
with the direct convolution up to the rank-q1 truncation error.

The dense kernel the factors stand for is linear in each of P, Q and S.
`collapse` builds that kernel and `collapse_backward` maps a kernel gradient
back onto (P, Q, S); the SARN network trains through this pair.
`sparse_forward` runs the mix -> bases -> combine steps on one input map and
is the reference that the factorization is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def direct_conv(I: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Valid (no padding), stride-1 convolution of I (h, w, m) with K (kh, kw, m, n)."""
    I = np.asarray(I, dtype=np.float64)
    K = np.asarray(K, dtype=np.float64)
    if I.ndim != 3 or K.ndim != 4:
        raise ValueError("I must be (h, w, m) and K must be (kh, kw, m, n)")
    kh, kw, m, _ = K.shape
    if I.shape[2] != m:
        raise ValueError(f"channel mismatch: input has {I.shape[2]}, kernel has {m}")
    if kh > I.shape[0] or kw > I.shape[1]:
        raise ValueError("kernel is larger than the input")
    return np.einsum("uvij,YXiuv->YXj", K, sliding_window_view(I, (kh, kw), axis=(0, 1)))


def transform_input(I: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Channel mixing J(y, x, i) = sum_k P(i, k) * I(y, x, k)."""
    I = np.asarray(I, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] != I.shape[-1]:
        raise ValueError("P must be square with dimension equal to the channel count")
    return np.einsum("ik,...k->...i", P, I)


def transform_kernel(K: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Kernel counterpart of transform_input: the R with K = P^T-contracted R,
    so that convolving the mixed input with R reproduces direct_conv(I, K)."""
    K = np.asarray(K, dtype=np.float64)
    P = np.asarray(P, dtype=np.float64)
    m = K.shape[2]
    if P.shape != (m, m):
        raise ValueError("P must be square with dimension equal to the channel count")
    stacked = np.moveaxis(K, 2, 0).reshape(m, -1)
    solved = np.linalg.solve(P.T, stacked)
    return np.moveaxis(solved.reshape((m,) + K.shape[:2] + K.shape[3:]), 0, 2)


def truncated_svd(M: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-`rank` factors of M from LAPACK's SVD.

    Returns (U, s, Vt) with U (r, rank), s descending, Vt (rank, c). Signs are
    fixed so the largest-magnitude entry of each U column is positive (the
    first such entry on ties); Vt's rows carry the matching signs.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("M must be a matrix")
    if not 1 <= rank <= min(M.shape):
        raise ValueError(f"rank must lie in [1, {min(M.shape)}]")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    U, s, Vt = U[:, :rank], s[:rank], Vt[:rank]
    pivots = U[np.argmax(np.abs(U), axis=0), np.arange(rank)]
    signs = np.where(pivots < 0.0, -1.0, 1.0)
    return U * signs, s, signs[:, None] * Vt


def factorize_kernel(
    R: np.ndarray, q1: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel rank-q1 factorization of R (kh, kw, m, n).

    Returns S (m, q1, n), Q (m, kh, kw, q1) and the per-channel Frobenius
    reconstruction errors. Singular values are folded into S.
    """
    R = np.asarray(R, dtype=np.float64)
    kh, kw, m, n = R.shape
    patch = kh * kw
    if not 1 <= q1 <= min(patch, n):
        raise ValueError(f"q1 must lie in [1, min({patch}, {n})], got {q1}")
    S = np.zeros((m, q1, n))
    Q = np.zeros((m, kh, kw, q1))
    errors = np.zeros(m)
    for i in range(m):
        slab = R[:, :, i, :].reshape(patch, n)
        U, sing, Vt = truncated_svd(slab, q1)
        S[i] = sing[:, None] * Vt
        Q[i] = U.reshape(kh, kw, q1)
        errors[i] = float(np.linalg.norm(slab - U @ (sing[:, None] * Vt)))
    return S, Q, errors


@dataclass(frozen=True)
class FactorizedKernel:
    """Channel mixer P plus per-channel factors; see module docstring."""

    P: np.ndarray
    S: np.ndarray  # (m, q1, n)
    Q: np.ndarray  # (m, kh, kw, q1)

    @classmethod
    def from_kernel(cls, K: np.ndarray, P: np.ndarray, q1: int) -> "FactorizedKernel":
        R = transform_kernel(K, P)
        S, Q, _ = factorize_kernel(R, q1)
        return cls(P=np.asarray(P, dtype=np.float64), S=S, Q=Q)


def collapse(P: np.ndarray, Q: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The dense kernel K (kh, kw, m, n) that the factors (P, Q, S) stand for:
    K(u, v, k, j) = sum_i,q P(i, k) * Q(i, u, v, q) * S(i, q, j)."""
    return np.einsum("ik,iuvq,iqj->uvkj", P, Q, S)


def collapse_backward(
    P: np.ndarray, Q: np.ndarray, S: np.ndarray, d_K: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_P, d_Q, d_S) of a loss whose gradient with respect to
    `collapse(P, Q, S)` is d_K."""
    d_P = np.einsum("uvkj,iuvq,iqj->ik", d_K, Q, S)
    d_Q = np.einsum("uvkj,ik,iqj->iuvq", d_K, P, S)
    d_S = np.einsum("uvkj,ik,iuvq->iqj", d_K, P, Q)
    return d_P, d_Q, d_S


def sparse_forward(I: np.ndarray, fk: FactorizedKernel) -> np.ndarray:
    """Convolution of one input map (h, w, m) through the factorized path:
    mix channels with P, correlate each channel with its q1 bases Q, then
    combine the bases with S. Kept step by step, not through `collapse`, as
    the reference that the factorization is checked against."""
    I = np.asarray(I, dtype=np.float64)
    m = fk.S.shape[0]
    if I.ndim != 3 or I.shape[2] != m:
        raise ValueError(f"input must be (h, w, {m})")
    if fk.Q.shape[1] > I.shape[0] or fk.Q.shape[2] > I.shape[1]:
        raise ValueError("kernel is larger than the input")
    J = transform_input(I, fk.P)
    win = sliding_window_view(J, fk.Q.shape[1:3], axis=(0, 1))
    T = np.einsum("iuvq,yxiuv->yxqi", fk.Q, win)
    return np.einsum("iqj,yxqi->yxj", fk.S, T)
