"""Adaptive frequency filter.

The log-mel spectrogram is mapped to its modulation spectrum with a 2-D
DFT, carried as one real (2, T, F) tensor (real part over imaginary
part), attenuated bin-by-bin with a learnable instance-adaptive real mask
passed through soft shrink, and mapped back. The mask network is a tiny
pointwise MLP over each bin's (re, im) pair, so the mask depends on the
input content and not only on bin position.

The MLP is one fused tape node. Its forward walks the bins in blocks of
`MASK_BLOCK`, so each block's hidden layer stays in cache, and keeps only
the (re, im) features; its backward recomputes each block's hidden layer
instead of storing it. The hidden pre-activations are checked for NaN/Inf
block by block and the finished mask once more when the node is made, so
an overflow anywhere in the MLP raises `NumericError`.

A real pointwise mask alone does not keep the masked spectrum
conjugate-symmetric (the MLP is not even in the imaginary part), so the
raw mask is symmetrized across conjugate bin pairs before shrinking; that
is what guarantees a real output signal. Symmetrization is one
self-adjoint tape node: its backward averages the cotangent the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import fft2, ifft2, scale_complex
from .tensor import Tensor, _check_finite, add, soft_shrink

#: bins per block of the fused mask MLP: a 1024 x hidden float64 block of
#: the hidden layer (256 KiB at hidden width 32) fits in L2 cache
MASK_BLOCK = 1024


@dataclass
class FilterParams:
    """Pointwise mask MLP (2 -> hidden -> 1) plus the fixed shrink threshold."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    alpha: float = 0.02

    def __post_init__(self):
        if self.w1.shape[1] < 1:
            raise ValueError("mask hidden width must be >= 1")
        if self.alpha < 0:
            raise ValueError(f"shrink threshold must be >= 0, got {self.alpha}")


def _hidden(feats: np.ndarray, w1: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """relu(feats @ w1 + b1) for one block, rectified in place."""
    z = feats @ w1 + b1
    _check_finite(z, "mask_net hidden layer")
    return np.maximum(z, 0.0, out=z)


def mask_net(spectrum: Tensor, params: FilterParams) -> Tensor:
    """One real T x F mask from each bin's (re, im) pair of a (2, T, F) spectrum.

    relu(feats @ w1 + b1) @ w2 + b2 as a single tape node, evaluated in
    blocks of `MASK_BLOCK` bins. The backward keeps only the (N, 2)
    features and recomputes each block's hidden layer with the same block
    bounds, so it sees bit for bit the activations of the forward. Relu's
    subgradient at 0 is 0. Hidden pre-activations are checked per block,
    the output when the node is made; either raises `NumericError`.
    """
    w1, b1, w2, b2 = params.w1, params.b1, params.w2, params.b2
    _, t, f = spectrum.shape
    n = t * f
    feats = np.ascontiguousarray(spectrum.data.reshape(2, n).T)
    blocks = [slice(lo, lo + MASK_BLOCK) for lo in range(0, n, MASK_BLOCK)]
    out = np.empty((n, 1))
    for blk in blocks:
        out[blk] = _hidden(feats[blk], w1.data, b1.data) @ w2.data
    out += b2.data

    def backward(g):
        g = g.reshape(n, 1)
        # a data spectrum needs no pullback; the tape skips a None
        d_feats = np.empty((n, 2)) if spectrum.requires_grad else None
        d_w1 = np.zeros_like(w1.data)
        d_b1 = np.zeros_like(b1.data)
        d_w2 = np.zeros_like(w2.data)
        for blk in blocks:
            h = _hidden(feats[blk], w1.data, b1.data)
            d_w2 += h.T @ g[blk]
            d_z = g[blk] * w2.data[:, 0]
            d_z *= h > 0.0
            d_b1 += d_z.sum(axis=0)
            d_w1 += feats[blk].T @ d_z
            if d_feats is not None:
                d_feats[blk] = d_z @ w1.data.T
        d_b2 = g.sum(axis=0)
        d_spectrum = None if d_feats is None else d_feats.T.reshape(2, t, f)
        return d_spectrum, d_w1, d_b1, d_w2, d_b2

    return Tensor._from_op(out.reshape(t, f), (spectrum, w1, b1, w2, b2), backward, "mask_net")


def _negation_perm(n: int) -> np.ndarray:
    return (-np.arange(n)) % n


def symmetrize(m: Tensor) -> Tensor:
    """Average each bin of a T x F mask with its conjugate partner; makes it even.

    0.5 * (m + m[perm]) with perm the frequency negation (an involution),
    so the map is self-adjoint and the backward applies it to the cotangent.
    """
    perm = np.ix_(_negation_perm(m.shape[0]), _negation_perm(m.shape[1]))

    def average(a: np.ndarray) -> np.ndarray:
        return 0.5 * (a + a[perm])

    return Tensor._from_op(average(m.data), (m,), lambda g: (average(g),), "symmetrize")


def filter_forward(x: Tensor, params: FilterParams, residual: bool = False) -> Tensor:
    """fft2 -> instance mask -> soft shrink -> multiply -> ifft2.

    Fully differentiable; the returned signal is real because the shrunk
    mask is even-symmetric. With `residual` the filtered signal is added
    to the input instead of replacing it.
    """
    spectrum = fft2(x)
    mask = soft_shrink(symmetrize(mask_net(spectrum, params)), params.alpha)
    y = ifft2(scale_complex(spectrum, mask))
    return add(x, y) if residual else y
