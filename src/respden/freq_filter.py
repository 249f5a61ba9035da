"""Adaptive frequency filter on the half spectrum.

The log-mel spectrogram x (T x F) goes to its modulation spectrum
R = rfft2(x) over T x (F//2 + 1) bins, is scaled bin by bin by a learnable
instance-adaptive real mask passed through soft shrink, and comes back
with irfft2. The mask is a tiny pointwise MLP over each bin's (re, im).

The conjugate partner of bin (u, v) holds (re, -im), so averaging the MLP
over the two, m = shrink(0.5 * (MLP(re, im) + MLP(re, -im))), makes the
mask even and the inverse real by construction.

`filter_forward` is one tape node with a hand-derived backward onto its four
parameters. The filter masks data, so x never requires grad and the node
has no pullback onto it; a differentiable x is refused. The MLP
walks its (2n, 3) feature table, rows (re, +-im, 1), in blocks of
`MASK_BLOCK` through one preallocated hidden buffer, the 1 column carrying
the first bias; the backward recomputes each block's hidden layer instead
of storing it. A bound max|re| max|w1[0]| + max|im| max|w1[1]| + max|b1|
below 1e300 proves every hidden pre-activation finite; otherwise (NaN and
inf included) each block's is checked for NaN/Inf. The mask and the output
are checked too, so an overflow anywhere raises `NumericError`.

Its forward runs six stages, `fft2`, `mask_net`, `symmetrize`, `soft_shrink`,
`scale_complex` and `ifft2`, looked up by name at call time so that a tracer
replacing one times that stage; the backward calls none. The six-node tape
chain the node replaced is the tests' reference, in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _check_clips, _check_finite

#: rows per block of the mask MLP: a 1024 x hidden float64 block of the
#: hidden layer (256 KiB at hidden width 32) fits in L2 cache
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


def fft2(x: np.ndarray) -> np.ndarray:
    """Stage 1: the half-plane spectrum rfft2(x) of each clip."""
    return np.fft.rfft2(x)


def _hidden(feats: np.ndarray, w1b: np.ndarray, buf: np.ndarray, check: bool) -> np.ndarray:
    """relu(feats @ [w1; b1]) for one block, computed and rectified inside `buf`."""
    h = np.matmul(feats, w1b, out=buf[:len(feats)])
    if check:
        _check_finite(h, "mask_net hidden layer")
    return np.maximum(h, 0.0, out=h)


def _blocks(rows: int, clip_rows: int) -> list[slice]:
    """`MASK_BLOCK`-row blocks that restart at each clip's first row, so a stack
    of clips runs exactly the block shapes of each clip alone."""
    return [slice(c + lo, c + min(lo + MASK_BLOCK, clip_rows))
            for c in range(0, rows, clip_rows) for lo in range(0, clip_rows, MASK_BLOCK)]


def mask_net(feats: np.ndarray, w1b: np.ndarray, w2: np.ndarray, clip_rows: int) -> np.ndarray:
    """Stage 2: relu(feats @ w1b) @ w2 per row, without the output bias, block by
    block within each `clip_rows`-row clip."""
    raw = np.empty(len(feats))
    buf = np.empty((MASK_BLOCK, w1b.shape[1]))
    # max |re|, |im|, |w1[0]|, |w1[1]|, |b1| as Python floats: their products overflow quietly
    peak = [float(np.abs(a).max()) for a in (feats[:, 0], feats[:, 1], *w1b)]
    check = not peak[0] * peak[2] + peak[1] * peak[3] + peak[4] < 1e300
    for blk in _blocks(len(feats), clip_rows):
        np.matmul(_hidden(feats[blk], w1b, buf, check), w2[:, 0], out=raw[blk])
    return raw


def symmetrize(raw: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Stage 3: the mean of each bin's and its partner's MLP output, plus b2."""
    g = 0.5 * (raw[..., 0, :] + raw[..., 1, :]) + b2
    _check_finite(g, "mask_net output")
    return g


def soft_shrink(g: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Stage 4: sign(g) max(|g| - alpha, 0), and where its subgradient is 1."""
    live = np.abs(g) > alpha
    return np.where(live, np.sign(g) * (np.abs(g) - alpha), 0.0), live


def scale_complex(m: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """Stage 5: the real mask times the complex half-plane spectrum."""
    return m * spec


def ifft2(spec: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Stage 6: the real T x F signal irfft2(spec) of each clip."""
    return np.fft.irfft2(spec, s=shape)


def _mlp_pullback(feats, w1b, w2, d_raw):
    """Cotangents (d_w1b, d_w2) of `mask_net` for cotangent `d_raw`.

    Recomputes each block's hidden layer with the forward's block bounds,
    so it sees bit for bit the forward's activations (already checked
    finite there). With live = [h > 0] (relu's subgradient, 0 at the
    kink), the hidden cotangent is g * w2 * live; d_w1b = w2 * (g feats)^T live
    is taken without forming it.
    """
    hidden = w1b.shape[1]
    buf = np.empty((MASK_BLOCK, hidden))
    on_buf = np.empty((MASK_BLOCK, hidden))
    d_w1b = np.zeros_like(w1b)
    d_w2 = np.zeros(hidden)
    for blk in _blocks(len(feats), len(feats)):
        h = _hidden(feats[blk], w1b, buf, check=False)
        g = d_raw[blk]
        d_w2 += g @ h
        on = on_buf[:len(g)]
        np.copyto(on, h > 0.0)
        d_w1b += (feats[blk] * g[:, None]).T @ on
    return d_w1b * w2[:, 0], d_w2.reshape(-1, 1)


def _column_weights(f: int) -> np.ndarray:
    """How often each half-plane column appears in the full F-wide plane."""
    c = np.full(f // 2 + 1, 2.0)
    c[0] = 1.0
    if f % 2 == 0:
        c[-1] = 1.0
    return c


def filter_forward(x: Tensor, params: FilterParams) -> Tensor:
    """irfft2(shrink(even mask) * rfft2(x)) as one tape node over the mask parameters.

    The backward pulls the output cotangent back onto the half plane as
    rfft2(gy) * c_v / (T F), with c_v = 1 on the self-conjugate columns
    v = 0 and v = F/2 and 2 elsewhere, then through the mask product, the
    shrink and the MLP onto w1, b1, w2 and b2. x is data: one that
    requires grad raises `ValueError`, since it would get no gradient.

    Under no_grad, x may be a (B, T, F) stack: the transforms run over the
    last two axes and one MLP call over every clip's rows.
    """
    _check_clips(x, "filter_forward")
    if x.requires_grad:
        raise ValueError("filter_forward has no pullback onto its input: x must not require grad")
    w1b, w2 = np.vstack((params.w1.data, params.b1.data)), params.w2.data
    *lead, t, f = x.shape
    spec = fft2(x.data)
    half = spec.shape[-2:]
    n = half[0] * half[1]
    # per clip, rows (re, im, 1), then the partners' (re, -im, 1)
    feats = np.empty((*lead, 2, *half, 3))
    pair = np.moveaxis(feats, -4, 0)
    pair[..., 0] = spec.real
    pair[0, ..., 1] = spec.imag
    np.negative(spec.imag, out=pair[1, ..., 1])
    pair[..., 2] = 1.0
    feats = feats.reshape(-1, 3)
    raw = mask_net(feats, w1b, w2, 2 * n).reshape(*lead, 2, n)
    g = symmetrize(raw, params.b2.data).reshape(spec.shape)
    m, live = soft_shrink(g, params.alpha)
    out = ifft2(scale_complex(m, spec), (t, f))

    def backward(gy):
        d_spec = np.fft.rfft2(gy)
        d_spec *= _column_weights(f) / (t * f)
        d_g = (d_spec.real * spec.real + d_spec.imag * spec.imag) * live
        d_w1b, d_w2 = _mlp_pullback(feats, w1b, w2, np.tile(0.5 * d_g.reshape(-1), 2))
        return d_w1b[:2], d_w1b[2], d_w2, np.full(1, d_g.sum())

    return Tensor._from_op(out, (params.w1, params.b1, params.w2, params.b2), backward,
                           "filter_forward")
