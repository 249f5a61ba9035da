"""Classification heads and the hybrid training loss.

Two affine heads share the pooled backbone features: a plain
cross-entropy head used for prediction, and a label-smoothed head behind
a layer norm whose loss regularizes the denoising path. The total loss is
their convex combination, weighted by `beta`.

The heads and the loss are one tape node with a hand-derived backward:
each head's logit gradient is its softmax minus its target, the
smoothed head pulls back through the layer norm, and the pooled-feature
gradient is spread evenly over the tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import N_CLASSES
from .tensor import Tensor, _ln_backward, _ln_forward

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


def smoothed_target(label: int, epsilon: float) -> np.ndarray:
    """y * (1 - eps) + eps / C; always sums to 1."""
    label = _check_label(label)
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"smoothing must be in [0, 1), got {epsilon}")
    t = np.full(N_CLASSES, epsilon / N_CLASSES)
    t[label] += 1.0 - epsilon
    return t


def pooled_features(p: Tensor) -> Tensor:
    """Mean over tokens as a 1 x D row (B x 1 x D for a stack of B clips), off the tape."""
    return Tensor(p.data.mean(axis=-2, keepdims=True))


def _head(x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    return HEAD_GAIN * (x @ w.data + b.data)


def cls_logits(p: Tensor, head: HeadParams) -> np.ndarray:
    """Prediction-head logits on pooled features, as a length-C array, or B x C for a
    stack of B clips (forward only). Each clip keeps its own 1 x D @ D x C product,
    so its logits carry the bits they have alone."""
    return _head(pooled_features(p).data, head.cls_w, head.cls_b)[..., 0, :]


def total_loss(p: Tensor, label: int, beta: float, epsilon: float, head: HeadParams) -> Tensor:
    """beta * bias_denoise + (1 - beta) * cross_entropy, as one tape node.

    Row 0 is the prediction head against the one-hot label, row 1 the
    layer-normed head against the smoothed target.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    target = np.stack((smoothed_target(label, 0.0), smoothed_target(label, epsilon)))
    pooled = p.data.mean(axis=0, keepdims=True)
    normed, xhat, inv = _ln_forward(pooled, head.norm_g.data, head.norm_b.data)
    logits = np.concatenate((_head(pooled, head.cls_w, head.cls_b),
                             _head(normed, head.phi_w, head.phi_b)))
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    ce, bd = -(target * (z - lse)).sum(axis=1)
    weight = np.array([[1.0 - beta], [beta]])

    def backward(g):
        d_logits = (g * HEAD_GAIN) * weight * (np.exp(z - lse) - target)
        d_cls, d_phi = d_logits[:1], d_logits[1:]
        d_normed, d_norm_g, d_norm_b = _ln_backward(d_phi @ head.phi_w.data.T, head.norm_g.data,
                                                    xhat, inv)
        d_pooled = d_cls @ head.cls_w.data.T + d_normed
        return (np.broadcast_to(d_pooled / p.shape[0], p.shape), d_norm_g, d_norm_b,
                normed.T @ d_phi, d_phi[0], pooled.T @ d_cls, d_cls[0])

    return Tensor._from_op(np.asarray(beta * bd + (1.0 - beta) * ce), (
        p, head.norm_g, head.norm_b, head.phi_w, head.phi_b, head.cls_w, head.cls_b),
        backward, "total_loss")
