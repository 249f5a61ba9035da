"""Classification heads and the hybrid training loss.

Two affine heads share the pooled backbone features: a plain
cross-entropy head used for prediction, and a label-smoothed head behind
a layer norm whose loss regularizes the denoising path. The total loss is
their convex combination, weighted by `beta`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, add, layer_norm, log_softmax, matmul, mean, mul, neg, reshape, total_sum

N_CLASSES = 4
#: fixed output gain on both heads. Head weights start at zero and move by
#: about the learning rate per Adam step; the gain lets logits reach
#: decision-sized margins within a desk-scale step budget at the default
#: 5e-5 rate. The head stays affine: the gain only reparameterizes it.
HEAD_GAIN = 48.0


@dataclass
class HeadParams:
    norm_g: Tensor
    norm_b: Tensor
    phi_w: Tensor
    phi_b: Tensor
    cls_w: Tensor
    cls_b: Tensor


def _check_label(label: int) -> int:
    label = int(label)
    if not 0 <= label < N_CLASSES:
        raise ValueError(f"label must be in 0..{N_CLASSES - 1}, got {label}")
    return label


def smoothed_target(label: int, epsilon: float, n_classes: int = N_CLASSES) -> np.ndarray:
    """y * (1 - eps) + eps / C; always sums to 1."""
    label = _check_label(label)
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"smoothing must be in [0, 1), got {epsilon}")
    t = np.full(n_classes, epsilon / n_classes)
    t[label] += 1.0 - epsilon
    return t


def pooled_features(p: Tensor) -> Tensor:
    """Mean over tokens as a 1 x D row."""
    return reshape(mean(p, axis=0), (1, p.shape[1]))


def cls_logits(p: Tensor, head: HeadParams) -> Tensor:
    """Prediction-head logits on pooled features, as a length-C tensor."""
    out = add(matmul(pooled_features(p), head.cls_w), head.cls_b)
    return reshape(mul(HEAD_GAIN, out), (N_CLASSES,))


def ce_loss(logits: Tensor, label: int) -> Tensor:
    """Unsmoothed softmax cross-entropy."""
    label = _check_label(label)
    ls = log_softmax(reshape(logits, (1, N_CLASSES)), axis=-1)
    onehot = np.zeros((1, N_CLASSES))
    onehot[0, label] = 1.0
    return neg(total_sum(mul(Tensor(onehot), ls)))


def bias_denoise_loss(p: Tensor, label: int, head: HeadParams, epsilon: float) -> Tensor:
    """Smoothed cross-entropy on the pooled features, layer-normed and projected."""
    label = _check_label(label)
    normed = layer_norm(pooled_features(p), head.norm_g, head.norm_b)
    logits = add(matmul(normed, head.phi_w), head.phi_b)
    target = smoothed_target(label, epsilon).reshape(1, N_CLASSES)
    return neg(total_sum(mul(Tensor(target), log_softmax(mul(HEAD_GAIN, logits), axis=-1))))


def total_loss(p: Tensor, logits: Tensor, label: int, beta: float, epsilon: float,
               head: HeadParams) -> Tensor:
    """beta * bias_denoise + (1 - beta) * cross_entropy."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    ce = ce_loss(logits, label)
    if beta == 0.0:
        return ce
    bd = bias_denoise_loss(p, label, head, epsilon)
    if beta == 1.0:
        return bd
    return add(mul(beta, bd), mul(1.0 - beta, ce))
