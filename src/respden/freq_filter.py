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
has no pullback onto it; a differentiable x is refused.

Most bins never reach the MLP. With r_i = max_j |w1[i,j]| / |b1_j|, a bin
with |re| r0 + |im| r1 < 1 is certified: every hidden pre-activation of the
bin and of its partner has its bias's sign, so unit j is on exactly when
b1_j > 0, the MLP is affine there and the pair mean is alpha re + beta in
closed form (the im term cancels). A zero, NaN or infinite b1 or w1 fails
the bound. At init 99.6-99.9 % of a synth clip's 8217 bins are certified,
and 87-97 % after a default 50-epoch run.

Only the other, kinked, bins run the MLP. It builds one clip's (2k, 3)
table of their rows (re, +-im, 1), the 1 carrying the first bias, and walks
it in `MASK_BLOCK`-row blocks through one hidden buffer, checking each
block for NaN/Inf; the mask and the output are checked too, so an overflow
anywhere raises `NumericError`. A node on the tape keeps the kinked rows'
rectifier pattern, one byte per row and unit (2k x hidden), and its
backward takes their weight cotangents from it without recomputing the
hidden layer; the certified bins add theirs in closed form. The node keeps
no feature table: the backward rebuilds the rows times their cotangents
from the spectrum.

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
                on: np.ndarray | None) -> None:
    """relu(feats @ w1b) @ w2 per row into `raw`, without the output bias, in `MASK_BLOCK`-row
    blocks, each hidden block scanned for NaN/Inf; a given bool `on` gets hidden > 0."""
    buf = np.empty((MASK_BLOCK, w1b.shape[1]))
    for lo in range(0, len(feats), MASK_BLOCK):
        blk = slice(lo, lo + MASK_BLOCK)
        h = np.matmul(feats[blk], w1b, out=buf[:min(MASK_BLOCK, len(feats) - lo)])
        _check_finite(h, "mask_net hidden layer")
        np.maximum(h, 0.0, out=h)
        if on is not None:
            np.greater(h, 0.0, out=on[blk])
        np.matmul(h, w2[:, 0], out=raw[blk])


def _certified(re: np.ndarray, im: np.ndarray, w1b: np.ndarray) -> np.ndarray:
    """The bins whose hidden pre-activations all provably have their bias's sign.

    |re w1[0,j] + im w1[1,j]| <= (|re| r0 + |im| r1) |b1_j| with
    r_i = max_j |w1[i,j]| / |b1_j|, so |re| r0 + |im| r1 < 1 fixes every
    rectifier of the bin and of its partner (re, -im). A zero or non-finite
    b1_j, or a non-finite w1, makes the bound NaN or inf and fails it.
    """
    b1 = np.where(np.isfinite(w1b[2]), np.abs(w1b[2]), np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r0, r1 = (np.abs(w1b[:2]) / b1).max(1)
        return np.abs(re) * r0 + np.abs(im) * r1 < 1.0


def mask_net(re: np.ndarray, im: np.ndarray, w1b: np.ndarray, w2: np.ndarray,
             keep: bool = False):
    """Stage 2: the MLP outputs of each bin and its partner, without b2, as (lin, kinked, raw, on).

    On a certified bin (`_certified`) unit j is on exactly when b1_j > 0,
    so the pair mean is alpha re + beta, with (alpha, beta) the sum of
    (w1[0,j], b1_j) w2_j over those units; `lin`, shaped like re, holds it
    for every bin. `kinked` lists the other bins' flat indices over the
    stack, and `raw` (2, len(kinked)) the `_mask_table` outputs of their
    rows (re, im, 1) and of their partners' (re, -im, 1), built one clip's
    table at a time. With `keep`, for one clip, `on` is those rows'
    rectifier pattern, else None.
    """
    units = w1b[2] > 0
    alpha, _, beta = w1b[:, units] @ w2[units, 0]
    lin = re * alpha + beta
    kinked = np.flatnonzero(~_certified(re, im, w1b))
    re_k, im_k = re.reshape(-1)[kinked], im.reshape(-1)[kinked]
    raw = np.empty((2, len(kinked)))
    on = np.empty((2 * len(kinked), w1b.shape[1]), bool) if keep else None
    clips = np.searchsorted(kinked, range(0, re.size + 1, re.shape[-2] * re.shape[-1]))
    for lo, hi in zip(clips[:-1], clips[1:]):
        table = np.empty(2 * (hi - lo))
        _mask_table(_rows(re_k[lo:hi], im_k[lo:hi], 1.0), w1b, w2, table, on)
        raw[:, lo:hi] = table.reshape(2, -1)
    return lin, kinked, raw, on


def symmetrize(lin: np.ndarray, kinked: np.ndarray, raw: np.ndarray,
               b2: np.ndarray) -> np.ndarray:
    """Stage 3: into `lin`, each kinked bin's and its partner's mean MLP output, then b2."""
    np.put(lin, kinked, 0.5 * (raw[0] + raw[1]))
    lin += b2
    _check_finite(lin, "mask_net output")
    return lin


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


def _pattern_pullback(fg: np.ndarray, w1b: np.ndarray, w2: np.ndarray, on: np.ndarray,
                      m: np.ndarray):
    """Cotangents (d_w1b, d_w2) of the mask MLP from its rectifier pattern `on`.

    fg holds each row's features times the row's cotangent g. The hidden
    cotangent is g * w2 * on (relu's subgradient is 0 at the kink), so with
    M = m + fg^T on, summed over the forward's blocks, d_w1b = M * w2^T,
    where a 3 x hidden `m` carries rows whose pattern is known without `on`.
    Since h = on * (feats @ w1b), d_w2 = h^T g is the column sum of w1b * M.
    """
    m = sum((fg[lo:lo + MASK_BLOCK].T @ on[lo:lo + MASK_BLOCK]
             for lo in range(0, len(fg), MASK_BLOCK)), m)
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
    # the kinked rows' rectifier pattern, kept only for a node on the tape (one clip's spectrum)
    lin, kinked, raw, on = mask_net(spec.real, spec.imag, w1b, w2, keep=_taped(parents))
    g = symmetrize(lin, kinked, raw, params.b2.data)
    m, live = soft_shrink(g, params.alpha)
    out = ifft2(scale_complex(m, spec), (t, f))

    def backward(gy):
        d_spec = np.fft.rfft2(gy)
        d_spec *= _column_weights(f) / (t * f)
        d_g = (d_spec.real * spec.real + d_spec.imag * spec.imag) * live
        # a certified bin's two rows have the pattern b1 > 0 and sum to (re, 0, 1) d_g
        d_cert = d_g.copy()
        np.put(d_cert, kinked, 0.0)
        m_cert = np.outer(((spec.real * d_cert).sum(), 0.0, d_cert.sum()), w1b[2] > 0)
        hg = 0.5 * d_g.reshape(-1)[kinked]  # each row's cotangent: a bin and its partner share d_g
        spec_k = spec.reshape(-1)[kinked]
        d_w1b, d_w2 = _pattern_pullback(_rows(spec_k.real * hg, spec_k.imag * hg, hg),
                                        w1b, w2, on, m_cert)
        return d_w1b[:2], d_w1b[2], d_w2, np.full(1, d_g.sum())

    return Tensor._from_op(out, parents, backward, "filter_forward")
