"""Sparse Attention Regression Network: factorized sparse convolution, masked
attention gating and a tanh/softmax output head trained with a symmetric KL
loss (`SarnModel`), and a standalone softmax-regression head with weight decay
(`SoftmaxRegModel`). `init_model` builds the one that `SarnSettings.loss_head`
names."""

from .conv import (
    FactorizedKernel,
    direct_conv,
    factorize_kernel,
    sparse_forward,
    transform_input,
    transform_kernel,
    truncated_svd,
)
from .network import (
    SarnModel,
    SarnSettings,
    SoftmaxRegModel,
    TrainHistory,
    dkl,
    gradients,
    init_model,
    kl,
    loss,
    predict,
    smooth_labels,
    softmax_reg_cost,
    softmax_reg_forward,
    train,
)

__all__ = [
    "FactorizedKernel",
    "SarnModel",
    "SarnSettings",
    "SoftmaxRegModel",
    "TrainHistory",
    "direct_conv",
    "dkl",
    "factorize_kernel",
    "gradients",
    "init_model",
    "kl",
    "loss",
    "predict",
    "smooth_labels",
    "softmax_reg_cost",
    "softmax_reg_forward",
    "sparse_forward",
    "train",
    "transform_input",
    "transform_kernel",
    "truncated_svd",
]
