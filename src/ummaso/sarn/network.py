"""Network assembly, losses, analytic gradients, training and prediction.

Tabular inputs: a d-wide feature vector is treated as a 1 x d single-channel
map convolved with a 1 x s kernel, giving a (positions x channels) hidden
matrix. The kernel is collapsed from its factors (P, Q, S) and applied to the
batch's sliding patches as one matrix product; its gradient flows back onto
the factors through `collapse_backward`. A pointwise convolution over the
hidden matrix concatenated with a learned (broadcast) target row scores each
position; scores are scaled, masked beyond mask_len, optionally dropped out,
then softmaxed and used to gate the hidden matrix elementwise. The gated
matrix is flattened through a tanh layer and a linear layer into class
probabilities, trained with the symmetric (double) KL divergence plus an L2
penalty. A softmax-regression head with weight decay is available as a
standalone alternative on the same features.

`init_model` builds the head `SarnSettings.loss_head` names, a `SarnModel` or
a `SoftmaxRegModel`, and each holds its own head's fitted values only;
`gradients` and `train` read the training hyper-parameters from
`SarnSettings`, and `model.json` (format 4) stores no copy of them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..dataset import read_json, write_json
from ..errors import NumericalError
from .conv import FactorizedKernel, collapse, collapse_backward

PROB_CLAMP = 1e-12  # lower bound on probabilities inside KL terms
PRUNE_THRESHOLD = 1e-3  # |S| entries below this are zeroed after training

DKL_HEAD = "dkl_head"
SOFTMAX_REG = "softmax_reg"
DKL_PARAMS = ("P", "S", "Q", "w_pw", "s_vec", "h_t", "w_out", "v_out")

MODEL_FORMAT_VERSION = 4


def stable_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max subtraction; -inf entries get exactly zero weight."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=axis, keepdims=True)
    ez = np.exp(shifted)
    return ez / np.sum(ez, axis=axis, keepdims=True)


def smooth_labels(labels: np.ndarray, n_classes: int, eps: float) -> np.ndarray:
    """(1 - eps) * one-hot + eps/C, so both KL directions stay finite."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.full((labels.size, n_classes), eps / n_classes)
    out[np.arange(labels.size), labels] += 1.0 - eps
    return out


def kl(y, yp) -> np.ndarray | float:
    """sum_i y_i log(y_i / yp_i) with yp clamped to >= 1e-12 and 0*log0 := 0.

    Accepts single distributions or batches (summed over the last axis).
    """
    y = np.asarray(y, dtype=np.float64)
    yp = np.asarray(yp, dtype=np.float64)
    if y.shape != yp.shape:
        raise ValueError("distribution length mismatch")
    yp = np.maximum(yp, PROB_CLAMP)
    tiny = np.finfo(np.float64).tiny
    terms = np.where(y > 0.0, y * np.log(np.maximum(y, tiny) / yp), 0.0)
    total = terms.sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def dkl(y, yp) -> np.ndarray | float:
    """Symmetric divergence 0.5*KL(y||yp) + 0.5*KL(yp||y)."""
    return 0.5 * kl(y, yp) + 0.5 * kl(yp, y)


def loss(y_batch: np.ndarray, yp_batch: np.ndarray, params, reg_lambda: float) -> float:
    """Mean DKL over the batch plus (reg_lambda/2) * sum of squared parameters."""
    y_batch = np.atleast_2d(np.asarray(y_batch, dtype=np.float64))
    yp_batch = np.atleast_2d(np.asarray(yp_batch, dtype=np.float64))
    if y_batch.shape[0] == 0:
        raise ValueError("empty batch")
    penalty = 0.5 * reg_lambda * sum(float(np.sum(p * p)) for p in params)
    return float(np.mean(dkl(y_batch, yp_batch))) + penalty


def softmax_reg_forward(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Multiclass logistic probabilities with a trailing bias input of 1."""
    x = np.asarray(x, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != theta.shape[1] - 1:
        raise ValueError(
            f"feature width {X.shape[1]} does not match theta width {theta.shape[1] - 1}"
        )
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    probs = stable_softmax(Xa @ theta.T, axis=1)
    return probs[0] if single else probs


def softmax_reg_cost(
    X: np.ndarray, labels: np.ndarray, theta: np.ndarray, reg_lambda: float
) -> float:
    """Negative mean log-likelihood plus weight decay (bias column excluded)."""
    probs = np.atleast_2d(softmax_reg_forward(X, theta))
    return _softmax_reg_loss(probs, labels, theta, reg_lambda)


def _softmax_reg_loss(probs, labels, theta: np.ndarray, reg_lambda: float) -> float:
    """softmax_reg_cost from the (batch, classes) probabilities of its X."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty batch")
    picked = np.maximum(probs[np.arange(labels.size), labels], PROB_CLAMP)
    data = -float(np.mean(np.log(picked)))
    return data + 0.5 * reg_lambda * float(np.sum(theta[:, :-1] ** 2))


@dataclass(frozen=True)
class SarnSettings:
    """The `sarn` config section: the head, network shape, regularization and
    training schedule; `softmax_reg` reads only reg_lambda and the schedule.
    Each default and each check that needs no input width is stated here; for
    `dkl_head`, `init_model` and `SarnModel` check the rest (kernel and mask
    length against the width)."""

    kernel_size: int = 3
    channels: int = 8
    rank: int = 2
    hidden: int = 16
    dropout_rate: float = 0.1
    reg_lambda: float = 1e-4
    label_smoothing: float = 0.05
    mask_len: int | None = None  # None: every position
    epochs: int = 200
    learning_rate: float = 0.05
    batch_size: int = 32
    loss_head: str = DKL_HEAD

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.loss_head not in (DKL_HEAD, SOFTMAX_REG):
            raise ValueError(f"unknown loss_head '{self.loss_head}'")
        if self.hidden < 1:
            raise ValueError("hidden must be at least 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be non-negative")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must lie in [0, 1)")
        if self.mask_len is not None and self.mask_len < 1:
            raise ValueError(f"mask_len must be at least 1, got {self.mask_len}")
        if self.kernel_size < 1 or self.channels < 1:
            raise ValueError("kernel_size and channels must be positive")
        # a 1 x kernel_size kernel has kernel_size entries per output channel
        if not 1 <= self.rank <= min(self.kernel_size, self.channels):
            raise ValueError(
                f"rank must lie in [1, min(patch={self.kernel_size}, "
                f"n={self.channels})], got {self.rank}"
            )


@dataclass
class TrainHistory:
    train_loss: np.ndarray
    train_accuracy: np.ndarray
    val_loss: np.ndarray
    val_accuracy: np.ndarray

    def __len__(self) -> int:
        return self.train_loss.size


@dataclass
class SarnModel:
    """The `dkl_head` network: its trainable parameters plus the attention
    mask length; the training hyper-parameters stay in `SarnSettings`.

    S/Q/P hold the factorized convolution, w_pw/s_vec/h_t the attention
    scoring and w_out/v_out the output head. The arrays fix the shape: one
    s_vec entry per position the kernel slides to, one h_t entry per channel.
    """

    head: ClassVar[str] = DKL_HEAD
    P: np.ndarray
    S: np.ndarray
    Q: np.ndarray
    w_pw: np.ndarray
    s_vec: np.ndarray
    h_t: np.ndarray
    w_out: np.ndarray
    v_out: np.ndarray
    mask_len: int

    def __post_init__(self):
        if not 1 <= self.mask_len <= self.positions:
            raise ValueError(f"mask_len must lie in [1, {self.positions}], got {self.mask_len}")

    @property
    def n_classes(self) -> int:
        return self.v_out.shape[1]

    @property
    def positions(self) -> int:
        return self.s_vec.size

    @property
    def feature_width(self) -> int:
        return self.positions + self.Q.shape[2] - 1

    def head_params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in DKL_PARAMS}


@dataclass
class SoftmaxRegModel:
    """The `softmax_reg` head: theta holds one row per class, the weights of
    the features and then of a constant bias input."""

    head: ClassVar[str] = SOFTMAX_REG
    theta: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.theta.shape[0]

    @property
    def feature_width(self) -> int:
        return self.theta.shape[1] - 1

    def head_params(self) -> dict[str, np.ndarray]:
        return {"theta": self.theta}


Model = SarnModel | SoftmaxRegModel


def init_model(
    feature_width: int, n_classes: int, settings: SarnSettings, seed: int
) -> Model:
    """A zero theta for `softmax_reg`, else a seeded `SarnModel` in tabular
    mode (1 x width single-channel input).

    The convolution starts from a dense random kernel pushed through the
    factorized representation (P = identity + 1e-2 noise, truncated SVD for
    S/Q), so training begins consistent with the factorization.
    """
    if settings.loss_head == SOFTMAX_REG:
        return SoftmaxRegModel(theta=np.zeros((n_classes, feature_width + 1)))
    kernel_size, channels, hidden = settings.kernel_size, settings.channels, settings.hidden
    if feature_width < kernel_size:
        raise ValueError("input width must be at least kernel_size")
    rng = np.random.default_rng(seed)
    kernel = rng.normal(0.0, 1.0 / np.sqrt(kernel_size), size=(1, kernel_size, 1, channels))
    P = np.eye(1) + 1e-2 * rng.normal(size=(1, 1))
    fk = FactorizedKernel.from_kernel(kernel, P, settings.rank)
    positions = feature_width - kernel_size + 1
    flat = positions * channels
    return SarnModel(
        P=fk.P,
        S=fk.S,
        Q=fk.Q,
        w_pw=rng.normal(0.0, 1.0 / np.sqrt(2 * channels), size=2 * channels),
        s_vec=np.ones(positions),
        h_t=rng.normal(0.0, 0.1, size=channels),
        w_out=rng.normal(0.0, 1.0 / np.sqrt(flat), size=(flat, hidden)),
        v_out=rng.normal(0.0, 1.0 / np.sqrt(hidden), size=(hidden, n_classes)),
        mask_len=positions if settings.mask_len is None else settings.mask_len,
    )


def _forward(
    model: SarnModel,
    X: np.ndarray,
    drop_mask: np.ndarray | None = None,
    dropout_rate: float = 0.0,
) -> dict:
    """Batched forward pass through the DKL head; caches every intermediate.

    With a drop_mask (batch x mask_len, True = dropped) and a positive
    dropout_rate, dropped unmasked scores become 0 and kept ones are rescaled
    by 1/(1 - dropout_rate); otherwise this is the evaluation pass.
    """
    X = np.asarray(X, dtype=np.float64)
    width, positions, mask_len = model.feature_width, model.positions, model.mask_len
    if X.ndim != 2 or X.shape[1] != width:
        raise ValueError(f"expected (batch, {width}) features, got {X.shape}")
    B = X.shape[0]
    n = model.h_t.size
    # the 1 x s single-channel kernel as an (s, n) matrix
    kernel = collapse(model.P, model.Q, model.S)[0, :, 0, :]
    s = kernel.shape[0]
    patches = X[:, np.arange(positions)[:, None] + np.arange(s)].reshape(-1, s)
    H = (patches @ kernel).reshape(B, positions, n)
    if not np.all(np.isfinite(H)):
        raise NumericalError("non-finite values in convolution output")
    G = np.concatenate([H, np.broadcast_to(model.h_t, (B, positions, n))], axis=2)
    A = G @ model.w_pw
    # the factor each score takes: 0 when masked or dropped
    if drop_mask is not None and dropout_rate > 0.0:
        scale = np.zeros((B, positions))
        scale[:, :mask_len] = np.where(drop_mask, 0.0, 1.0 / (1.0 - dropout_rate))
    else:
        scale = np.zeros(positions)
        scale[:mask_len] = 1.0
    pre = A * model.s_vec * scale
    pre[:, mask_len:] = -np.inf
    weights = stable_softmax(pre, axis=1)
    if not np.all(np.isfinite(weights)):
        raise NumericalError("non-finite attention weights")
    gated = weights[:, :, None] * H
    z = gated.reshape(B, -1)
    hidden = np.tanh(z @ model.w_out)
    logits = hidden @ model.v_out
    probs = stable_softmax(logits, axis=1)
    if not np.all(np.isfinite(probs)):
        raise NumericalError("non-finite output probabilities")
    return {
        "patches": patches,
        "H": H,
        "G": G,
        "A": A,
        "scale": scale,
        "weights": weights,
        "gated": gated,
        "z": z,
        "hidden": hidden,
        "probs": probs,
    }


def _dkl_grad_wrt_probs(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d DKL(y || p) / d p for batched rows (clamps as in kl)."""
    p_hat = np.maximum(p, PROB_CLAMP)
    y_hat = np.maximum(y, PROB_CLAMP)
    return 0.5 * (-y / p_hat) + 0.5 * (np.log(p_hat / y_hat) + 1.0)


def gradients(
    model: Model,
    X: np.ndarray,
    labels: np.ndarray,
    settings: SarnSettings,
    drop_mask: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss value and exact analytic gradients for every trainable parameter
    of `model`, with the L2 weight, label smoothing and dropout rate of
    `settings`. A provided drop_mask is honored as-is, so finite difference
    checks can fix the dropout pattern (or omit it entirely)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty batch")
    B = X.shape[0]
    lam = settings.reg_lambda

    if isinstance(model, SoftmaxRegModel):
        Xa = np.hstack([X, np.ones((B, 1))])
        probs = stable_softmax(Xa @ model.theta.T, axis=1)
        onehot = np.zeros_like(probs)
        onehot[np.arange(B), labels] = 1.0
        grad = ((probs - onehot).T @ Xa) / B
        penalty_grad = lam * model.theta
        penalty_grad[:, -1] = 0.0
        cost = _softmax_reg_loss(probs, labels, model.theta, lam)
        return cost, {"theta": grad + penalty_grad}

    cache = _forward(model, X, drop_mask, settings.dropout_rate)
    positions, n = model.positions, model.h_t.size
    targets = smooth_labels(labels, model.n_classes, settings.label_smoothing)
    probs = cache["probs"]
    total = loss(targets, probs, model.head_params().values(), lam)

    g_probs = _dkl_grad_wrt_probs(targets, probs) / B
    row_dot = np.sum(g_probs * probs, axis=1, keepdims=True)
    d_logits = probs * (g_probs - row_dot)

    hidden = cache["hidden"]
    d_v_out = hidden.T @ d_logits
    d_hidden = d_logits @ model.v_out.T
    d_pre_hidden = d_hidden * (1.0 - hidden * hidden)
    d_w_out = cache["z"].T @ d_pre_hidden
    d_z = d_pre_hidden @ model.w_out.T
    d_gated = d_z.reshape(B, positions, n)

    weights = cache["weights"]
    H = cache["H"]
    d_weights = np.sum(d_gated * H, axis=2)
    d_H = weights[:, :, None] * d_gated

    w_dot = np.sum(d_weights * weights, axis=1, keepdims=True)
    d_scores = weights * (d_weights - w_dot)
    d_scaled = d_scores * cache["scale"]
    d_A = d_scaled * model.s_vec
    d_s_vec = np.sum(d_scaled * cache["A"], axis=0)

    d_G = d_A[:, :, None] * model.w_pw
    d_w_pw = np.einsum("bpc,bp->c", cache["G"], d_A)
    d_H += d_G[:, :, :n]
    d_h_t = np.sum(d_G[:, :, n:], axis=(0, 1))

    d_K = cache["patches"].T @ d_H.reshape(-1, n)
    d_P, d_Q, d_S = collapse_backward(model.P, model.Q, model.S, d_K[None, :, None, :])

    grads = dict(zip(DKL_PARAMS, (d_P, d_S, d_Q, d_w_pw, d_s_vec, d_h_t, d_w_out, d_v_out)))
    for name, param in model.head_params().items():
        grads[name] += lam * param
    return total, grads


def _evaluate(
    model: Model, X: np.ndarray, labels: np.ndarray, settings: SarnSettings
) -> tuple[float, float]:
    """Full-objective loss and accuracy of `model` in evaluation mode (no
    dropout)."""
    labels = np.asarray(labels, dtype=np.int64)
    lam = settings.reg_lambda
    if isinstance(model, SoftmaxRegModel):
        probs = np.atleast_2d(softmax_reg_forward(X, model.theta))
        cost = _softmax_reg_loss(probs, labels, model.theta, lam)
    else:
        probs = _forward(model, X)["probs"]
        targets = smooth_labels(labels, model.n_classes, settings.label_smoothing)
        cost = loss(targets, probs, model.head_params().values(), lam)
    accuracy = float(np.mean(np.argmax(probs, axis=1) == labels))
    return cost, accuracy


def train(
    train_data: tuple[np.ndarray, np.ndarray],
    val_data: tuple[np.ndarray, np.ndarray],
    model_init: Model,
    settings: SarnSettings,
    seed: int,
) -> tuple[Model, TrainHistory]:
    """Seeded mini-batch gradient descent on `settings`' schedule; no early
    stopping. `settings.loss_head` must name `model_init`'s head.

    History rows are computed at the end of each epoch over the full train
    and validation sets in evaluation mode, so the final row matches what
    predict() reproduces. A `SarnModel` trains with dropout, and its small S
    entries are pruned to exact zeros before the final evaluation.
    """
    if settings.loss_head != model_init.head:
        raise ValueError(
            f"loss_head '{settings.loss_head}' cannot train a '{model_init.head}' model"
        )
    X_train, y_train = train_data
    X_val, y_val = val_data
    X_train = np.asarray(X_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    model = copy.deepcopy(model_init)
    dkl_head = isinstance(model, SarnModel)
    epochs = settings.epochs
    history = TrainHistory(
        train_loss=np.zeros(epochs),
        train_accuracy=np.zeros(epochs),
        val_loss=np.zeros(epochs),
        val_accuracy=np.zeros(epochs),
    )
    if epochs == 0:
        return model, history
    rng = np.random.default_rng(seed)
    n = y_train.size
    params = model.head_params()
    for epoch in range(epochs):
        order = rng.permutation(n)
        for batch_no, start in enumerate(range(0, n, settings.batch_size)):
            sel = order[start : start + settings.batch_size]
            drop = None
            if dkl_head and settings.dropout_rate > 0.0:
                drop = rng.random((sel.size, model.mask_len)) < settings.dropout_rate
            value, grads = gradients(model, X_train[sel], y_train[sel], settings, drop)
            if not np.isfinite(value):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            for name, grad in grads.items():
                params[name] -= settings.learning_rate * grad
        if epoch == epochs - 1 and dkl_head:
            model.S[np.abs(model.S) < PRUNE_THRESHOLD] = 0.0
        history.train_loss[epoch], history.train_accuracy[epoch] = _evaluate(
            model, X_train, y_train, settings
        )
        history.val_loss[epoch], history.val_accuracy[epoch] = _evaluate(
            model, X_val, y_val, settings
        )
    return model, history


def predict(model: Model, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class probabilities and argmax labels (ties go to the lowest index)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.feature_width:
        raise ValueError(
            f"feature width {X.shape[1]} does not match model width {model.feature_width}"
        )
    if isinstance(model, SoftmaxRegModel):
        probs = np.atleast_2d(softmax_reg_forward(X, model.theta))
    else:
        probs = _forward(model, X)["probs"]
    return probs, np.argmax(probs, axis=1)


def model_to_dict(model: Model) -> dict:
    """Versioned JSON-ready document: the head's arrays as shape metadata plus
    flat row-major data, and a `SarnModel`'s mask length."""
    doc = {"format_version": MODEL_FORMAT_VERSION, "active_head": model.head}
    if isinstance(model, SarnModel):
        doc["mask_len"] = model.mask_len
    doc["params"] = {
        name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
        for name, arr in model.head_params().items()
    }
    return doc


def model_from_dict(doc: dict) -> Model:
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version}; refit to write format "
            f"{MODEL_FORMAT_VERSION}"
        )
    params = doc["params"]

    def array(name: str) -> np.ndarray:
        return np.asarray(params[name]["data"], dtype=np.float64).reshape(params[name]["shape"])

    if doc["active_head"] == SOFTMAX_REG:
        return SoftmaxRegModel(theta=array("theta"))
    arrays = {name: array(name) for name in DKL_PARAMS}
    return SarnModel(mask_len=doc["mask_len"], **arrays)


def save_model(model: Model, path: str) -> None:
    write_json(path, model_to_dict(model))


def load_model(path: str) -> Model:
    return model_from_dict(read_json(path))
