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
has no pullback onto it; a differentiable x is refused. The MLP builds one
clip's (2n, 3) feature table at a time, rows (re, +-im, 1) with the 1
carrying the first bias, so a no-grad stack holds one clip's table (394 KB
at the default dims), and walks it in `MASK_BLOCK`-row blocks through one
hidden buffer. A node on the tape keeps the hidden layer's rectifier
pattern, one byte per row and unit (2n x hidden: 526 KB at the default
dims), and its backward takes the weight cotangents from it without
recomputing the hidden layer. The node keeps no feature table: the backward
rebuilds the rows times their cotangents from the spectrum. A bound
max|re| max|w1[0]| + max|im| max|w1[1]| + max|b1| below 1e300 proves every
hidden pre-activation finite; otherwise (NaN and inf included) each block's
is checked for NaN/Inf. The mask and the output are checked too, so an
overflow anywhere raises `NumericError`.

Its forward runs six stages, `fft2`, `mask_net`, `symmetrize`, `soft_shrink`,
`scale_complex` and `ifft2`, looked up by name at call time so that a tracer
replacing one times that stage; the backward calls none. The six-node tape
chain the node replaced is the tests' reference, in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _check_clips, _check_finite, _taped

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


def _mask_table(feats: np.ndarray, w1b: np.ndarray, w2: np.ndarray, raw: np.ndarray,
                on: np.ndarray | None, check: bool) -> None:
    """relu(feats @ w1b) @ w2 per row into `raw`, without the output bias, in `MASK_BLOCK`-row
    blocks; a given bool `on` gets hidden > 0, and `check` scans each hidden block for NaN/Inf."""
    buf = np.empty((MASK_BLOCK, w1b.shape[1]))
    for lo in range(0, len(feats), MASK_BLOCK):
        blk = slice(lo, lo + MASK_BLOCK)
        h = np.matmul(feats[blk], w1b, out=buf[:min(MASK_BLOCK, len(feats) - lo)])
        if check:
            _check_finite(h, "mask_net hidden layer")
        np.maximum(h, 0.0, out=h)
        if on is not None:
            np.greater(h, 0.0, out=on[blk])
        np.matmul(h, w2[:, 0], out=raw[blk])


def mask_net(re: np.ndarray, im: np.ndarray, w1b: np.ndarray, w2: np.ndarray,
             on: np.ndarray | None = None) -> np.ndarray:
    """Stage 2: `_mask_table` over each clip's rows (re, im, 1), (re, -im, 1) in turn,
    shaped (..., 2, T, V); a given bool `on`, for one clip, gets hidden > 0."""
    raw = np.empty((*re.shape[:-2], 2, *re.shape[-2:]))
    # max |re|, |im|, |w1[0]|, |w1[1]|, |b1| as Python floats: their products overflow quietly
    peak = [float(np.abs(a).max()) for a in (re, im, *w1b)]
    check = not peak[0] * peak[2] + peak[1] * peak[3] + peak[4] < 1e300
    for i in np.ndindex(*re.shape[:-2]):
        _mask_table(_rows(re[i], im[i], 1.0), w1b, w2, raw[i].reshape(-1), on, check)
    return raw


def symmetrize(raw: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Stage 3: the mean of each bin's and its partner's MLP output, plus b2."""
    g = 0.5 * (raw[..., 0, :, :] + raw[..., 1, :, :]) + b2
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


def _pattern_pullback(fg: np.ndarray, w1b: np.ndarray, w2: np.ndarray, on: np.ndarray):
    """Cotangents (d_w1b, d_w2) of `mask_net` from its rectifier pattern `on`.

    fg holds each row's features times the row's cotangent g. The hidden
    cotangent is g * w2 * on (relu's subgradient is 0 at the kink), so with
    M = fg^T on, summed over the forward's blocks, d_w1b = M * w2^T. Since
    h = on * (feats @ w1b), d_w2 = h^T g is the column sum of w1b * M.
    """
    m = sum(fg[lo:lo + MASK_BLOCK].T @ on[lo:lo + MASK_BLOCK]
            for lo in range(0, len(fg), MASK_BLOCK))
    return m * w2[:, 0], (w1b * m).sum(0).reshape(-1, 1)


def _rows(re: np.ndarray, im: np.ndarray, one) -> np.ndarray:
    """One clip's rows (re, im, one), then its conjugate partners' (re, -im, one)."""
    rows = np.empty((2, *re.shape, 3))
    rows[..., 0], rows[0, ..., 1], rows[..., 2] = re, im, one
    np.negative(im, out=rows[1, ..., 1])
    return rows.reshape(-1, 3)


def _column_weights(f: int) -> np.ndarray:
    """How often each half-plane column appears in the full F-wide plane."""
    c = np.full(f // 2 + 1, 2.0)
    c[[0, -1] if f % 2 == 0 else 0] = 1.0  # the self-conjugate columns
    return c


def filter_forward(x: Tensor, params: FilterParams) -> Tensor:
    """irfft2(shrink(even mask) * rfft2(x)) as one tape node over the mask parameters.

    The backward pulls the output cotangent back onto the half plane as
    rfft2(gy) * c_v / (T F), with c_v = 1 on the self-conjugate columns
    v = 0 and v = F/2 and 2 elsewhere, then through the mask product, the
    shrink and the MLP onto w1, b1, w2 and b2. x is data: one that
    requires grad raises `ValueError`, since it would get no gradient.

    Under no_grad, x may be a (B, T, F) stack: the transforms run over the
    last two axes and one MLP call over each clip's rows in turn.
    """
    _check_clips(x, "filter_forward")
    if x.requires_grad:
        raise ValueError("filter_forward has no pullback onto its input: x must not require grad")
    parents = (params.w1, params.b1, params.w2, params.b2)
    w1b, w2 = np.vstack((params.w1.data, params.b1.data)), params.w2.data
    t, f = x.shape[-2:]
    spec = fft2(x.data)
    # the backward's rectifier pattern, kept only for a node on the tape (one clip's spectrum)
    on = np.empty((2 * spec.size, w1b.shape[1]), bool) if _taped(parents) else None
    g = symmetrize(mask_net(spec.real, spec.imag, w1b, w2, on=on), params.b2.data)
    m, live = soft_shrink(g, params.alpha)
    out = ifft2(scale_complex(m, spec), (t, f))

    def backward(gy):
        d_spec = np.fft.rfft2(gy)
        d_spec *= _column_weights(f) / (t * f)
        d_g = (d_spec.real * spec.real + d_spec.imag * spec.imag) * live
        hg = 0.5 * d_g  # each row's cotangent: a bin and its partner share d_g
        d_w1b, d_w2 = _pattern_pullback(_rows(spec.real * hg, spec.imag * hg, hg), w1b, w2, on)
        return d_w1b[:2], d_w1b[2], d_w2, np.full(1, d_g.sum())

    return Tensor._from_op(out, parents, backward, "filter_forward")
