"""Differential-attention backbone over spectrogram patches.

Each block is pre-norm residual: x + attention(LN(x)), then
y + SwishGLU(LN(y)). Attention computes two softmax maps from split
query/key projections and subtracts the second, scaled by a learnable
per-head factor lambda, before multiplying by the values;
common-mode attention mass cancels while stable structure survives.

Patch embedding is one tape node, and a block two, one per sublayer.
Each sublayer's hand-derived backward ends in the shared layer-norm
pullback plus the residual identity.

* `mhda` normalizes the tokens, projects them once (`wq`, `wk`, `wv`),
  views the projections as head arrays, (H, 2, N, d) for queries and keys
  and (H, N, d_v) for values, and computes all 2H score maps with one
  batched matmul scaled by 1/sqrt(d), one softmax over (H, 2, N, N), the
  differential map a = m1 - lambda * m2, then a @ v with the heads merged
  back to (N, H * d_v), times `wo`, plus the input. It keeps the
  normalized tokens, head arrays, softmax maps, a and the merged heads.
  The softmax is e^s times the reciprocal of its row sum. A clip whose
  score bound sqrt(d) max|q| max|k| is within EXP_BOUND needs no more;
  any other clip has its q, k and scores checked for NaN/Inf and its row
  maxima subtracted first. v is always checked.
* `swish_glu` keeps n = LN(y), a = n @ w1, the sigmoid 1 / (1 + e^-a) of a
  (e^a / (1 + e^a) for an element below -EXP_BOUND), n @ w2, the gate
  swish(a) and the gated product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import DEFAULT_SPEC_CONFIG, N_FRAMES
from .errors import ShapeError
from .tensor import Tensor, _check_clips, _check_finite, _ln_backward, _ln_forward, layer_norm

PATCH = 16
#: token grid over the zero-padded 256 x 64 spectrogram
N_TIME_PATCHES = -(-N_FRAMES // PATCH)  # 16
N_FREQ_PATCHES = DEFAULT_SPEC_CONFIG.n_mels // PATCH  # 4
N_TOKENS = N_TIME_PATCHES * N_FREQ_PATCHES  # 64
PATCH_DIM = PATCH * PATCH  # 256
#: |x| <= EXP_BOUND keeps e^x normal and N_TOKENS * e^x finite
EXP_BOUND = 700.0


@dataclass
class MhdaParams:
    """Projection matrices plus one differential scale per head.

    `wq`/`wk` columns are laid out head-major: for head i the slice
    [2*d*i, 2*d*i + d) holds the first map's projection and the next d
    columns the second map's; `wv` uses d_v-wide slices.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    lam: Tensor
    heads: int

    def __post_init__(self):
        qw = self.wq.shape[1]
        if qw != self.wk.shape[1] or qw % (2 * self.heads) != 0:
            raise ShapeError(
                f"query/key width {qw} must be even and divisible by 2*heads={2 * self.heads}"
            )
        if self.wv.shape[1] % self.heads != 0:
            raise ShapeError(f"value width {self.wv.shape[1]} not divisible by heads={self.heads}")
        if self.lam.shape != (self.heads,):
            raise ShapeError(f"lambda must have one entry per head, got {self.lam.shape}")

    @property
    def d_qk(self) -> int:
        return self.wq.shape[1] // (2 * self.heads)

    @property
    def d_v(self) -> int:
        return self.wv.shape[1] // self.heads


def _mhda(x: Tensor, ln_g: Tensor, ln_b: Tensor, params: MhdaParams) -> tuple[Tensor, np.ndarray]:
    """The fused attention sublayer node plus its (H, 2, N, N) softmax maps
    ((B, H, 2, N, N) for a no-grad stack of B clips' tokens)."""
    _check_clips(x, "mhda")
    if x.shape[-1] != params.wq.shape[0]:
        raise ShapeError(f"expected (N, {params.wq.shape[0]}) tokens to match wq rows, got {x.shape}")
    wq, wk, wv, wo, lam = params.wq, params.wk, params.wv, params.wo, params.lam
    *lead, n, _ = x.shape
    h, d, dv = params.heads, params.d_qk, params.d_v
    scale = 1.0 / math.sqrt(d)
    xn, xhat, inv = _ln_forward(x.data, ln_g.data, ln_b.data)
    q = xn @ wq.data
    k = xn @ wk.data
    v = xn @ wv.data
    # |score| <= sqrt(d) max|q| max|k| per clip: within EXP_BOUND (NaN fails) needs no shift
    with np.errstate(over="ignore", invalid="ignore"):
        bound = math.sqrt(d) * np.abs(q).max(axis=(-2, -1)) * np.abs(k).max(axis=(-2, -1))
    slow = ~(bound <= EXP_BOUND)
    if slow.any():
        _check_finite(q[slow], "mhda query projection")
        _check_finite(k[slow], "mhda key projection")
    _check_finite(v, "mhda value projection")
    # head arrays: (H, 2, N, d) for queries/keys, (H, N, d_v) for values
    qh = np.moveaxis(q.reshape(*lead, n, h, 2, d), -4, -2)
    kh = np.moveaxis(k.reshape(*lead, n, h, 2, d), -4, -2)
    vh = v.reshape(*lead, n, h, dv).swapaxes(-3, -2)
    # the scores turn into both softmax maps in one buffer; the differential map takes a second
    m = qh @ kh.swapaxes(-1, -2)
    m *= scale
    if slow.any():
        shifted = m[slow]
        _check_finite(shifted, "mhda attention scores")
        shifted -= np.fmax.reduce(shifted, axis=-1, keepdims=True)  # finite: no NaN to propagate
        m[slow] = shifted
    np.exp(m, out=m)
    m *= np.reciprocal(m.sum(axis=-1, keepdims=True))
    lam_h = lam.data.reshape(-1, 1, 1)
    a = lam_h * m[..., 1, :, :]
    np.subtract(m[..., 0, :, :], a, out=a)
    merged = (a @ vh).swapaxes(-3, -2).reshape(*lead, n, h * dv)
    out = x.data + merged @ wo.data

    def backward(g):
        d_merged = g @ wo.data.T
        d_wo = merged.T @ g
        d_o = d_merged.reshape(n, h, dv).transpose(1, 0, 2)
        d_vh = a.swapaxes(-1, -2) @ d_o
        # both maps pull back d_a; the second scaled by -lambda, applied
        # after the softmax pullback together with the score scale
        d_a = (d_o @ vh.swapaxes(-1, -2))[:, None]
        d_s = d_a * m
        dot = d_s.sum(axis=-1, keepdims=True)
        d_lam = -dot[:, 1].sum(axis=(1, 2))
        np.subtract(d_a, dot, out=d_s)
        d_s *= m
        d_s *= scale * np.stack((np.ones_like(lam_h), -lam_h), axis=1)
        d_q = (d_s @ kh).transpose(2, 0, 1, 3).reshape(n, 2 * h * d)
        d_k = (d_s.swapaxes(-1, -2) @ qh).transpose(2, 0, 1, 3).reshape(n, 2 * h * d)
        d_v = d_vh.transpose(1, 0, 2).reshape(n, h * dv)
        d_xn = d_q @ wq.data.T + d_k @ wk.data.T + d_v @ wv.data.T
        d_x, d_g, d_b = _ln_backward(d_xn, ln_g.data, xhat, inv)
        d_x += g  # the residual
        return (d_x, d_g, d_b, xn.T @ d_q, xn.T @ d_k, xn.T @ d_v, d_wo, d_lam)

    return Tensor._from_op(out, (x, ln_g, ln_b, wq, wk, wv, wo, lam), backward, "mhda"), m


def mhda_with_maps(x: Tensor, ln_g: Tensor, ln_b: Tensor,
                   params: MhdaParams) -> tuple[Tensor, list[tuple[Tensor, Tensor]]]:
    """`mhda` plus the per-head softmax maps as constant (m1, m2) Tensors, each N x N
    with rows summing to 1: views of the arrays the backward reads, carrying no gradient."""
    out, m = _mhda(x, ln_g, ln_b, params)
    return out, [(Tensor(pair[0]), Tensor(pair[1])) for pair in m]


def mhda(x: Tensor, ln_g: Tensor, ln_b: Tensor, params: MhdaParams) -> Tensor:
    """x + differential attention of LN(x), as one tape node (see module doc)."""
    return _mhda(x, ln_g, ln_b, params)[0]


def swish_glu(y: Tensor, ln_g: Tensor, ln_b: Tensor, w1: Tensor, w2: Tensor, w3: Tensor) -> Tensor:
    """y + (swish(n @ w1) * (n @ w2)) @ w3 with n = LN(y) and swish(a) = a * sigmoid(a),
    as one tape node (see module doc)."""
    _check_clips(y, "swish_glu")
    n, nhat, inv = _ln_forward(y.data, ln_g.data, ln_b.data)
    a = n @ w1.data
    # 1/(1+e^-a), or e^a/(1+e^a) where e^-a would pass e^EXP_BOUND (a NaN clamps too)
    s = np.negative(a)
    tail = not a.min() >= -EXP_BOUND
    if tail:
        np.minimum(s, EXP_BOUND, out=s)
    np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    if tail:
        low = a < -EXP_BOUND
        ez = np.exp(a[low])
        s[low] = ez / (1.0 + ez)
    v = n @ w2.data
    gate = a * s
    h = gate * v
    out = h @ w3.data
    out += y.data  # the residual

    def backward(g):
        d_h = g @ w3.data.T
        d_a = d_h * v
        d_a *= s
        t = 1.0 - s
        t *= a
        t += 1.0
        d_a *= t
        d_v = d_h * gate
        d_y, d_g, d_b = _ln_backward(d_a @ w1.data.T + d_v @ w2.data.T, ln_g.data, nhat, inv)
        d_y += g  # the residual
        return d_y, d_g, d_b, n.T @ d_a, n.T @ d_v, h.T @ g

    return Tensor._from_op(out, (y, ln_g, ln_b, w1, w2, w3), backward, "swish_glu")


@dataclass
class BlockParams:
    ln1_g: Tensor
    ln1_b: Tensor
    attn: MhdaParams
    ln2_g: Tensor
    ln2_b: Tensor
    ffn_w1: Tensor
    ffn_w2: Tensor
    ffn_w3: Tensor


def denoise_block(x: Tensor, params: BlockParams) -> Tensor:
    """Pre-norm residual block: the attention sublayer node, then the gated FFN sublayer node."""
    y = mhda(x, params.ln1_g, params.ln1_b, params.attn)
    return swish_glu(y, params.ln2_g, params.ln2_b, params.ffn_w1, params.ffn_w2, params.ffn_w3)


@dataclass
class BackboneParams:
    patch_w: Tensor
    patch_b: Tensor
    pos: Tensor
    blocks: list[BlockParams]
    final_g: Tensor
    final_b: Tensor


def extract_patches(values: np.ndarray) -> np.ndarray:
    """Zero-pad the T x 64 grid to 256 x 64 and flatten 16 x 16 patches.

    Tokens are ordered time-major (time block index * 4 + frequency block
    index); each patch is flattened row-major into 256 values. Leading
    axes, as of a stack of clips, are kept.
    """
    *lead, t, f = values.shape
    if f != DEFAULT_SPEC_CONFIG.n_mels or t > N_TIME_PATCHES * PATCH:
        raise ShapeError(f"expected a spectrogram of at most {N_TIME_PATCHES * PATCH} x "
                         f"{DEFAULT_SPEC_CONFIG.n_mels}, got {values.shape}")
    padded = np.zeros((*lead, N_TIME_PATCHES * PATCH, f))
    padded[..., :t, :] = values
    blocks = padded.reshape(*lead, N_TIME_PATCHES, PATCH, N_FREQ_PATCHES, PATCH)
    return blocks.swapaxes(-3, -2).reshape(*lead, N_TOKENS, PATCH_DIM)


def patch_embed(x: Tensor, params: BackboneParams) -> Tensor:
    """Flattened patches @ W + b + positions, as one tape node.

    The backward scatters the patch gradient back onto the grid only when
    `x` requires grad; a constant spectrogram (no filter in front) skips it.
    Under no_grad, x may be a (B, T, F) stack, embedded with one product per clip.
    """
    _check_clips(x, "patch_embed")
    w, b, pos = params.patch_w, params.patch_b, params.pos
    t, f = x.shape[-2:]
    patches = extract_patches(x.data)
    out = patches @ w.data
    out += b.data
    out += pos.data

    def backward(g):
        d_x = None
        if x.requires_grad:
            blocks = (g @ w.data.T).reshape(N_TIME_PATCHES, N_FREQ_PATCHES, PATCH, PATCH)
            d_x = blocks.transpose(0, 2, 1, 3).reshape(N_TIME_PATCHES * PATCH, f)[:t]
        return d_x, patches.T @ g, g.sum(axis=0), g

    return Tensor._from_op(out, (x, w, b, pos), backward, "patch_embed")


def backbone_forward(x: Tensor, params: BackboneParams) -> Tensor:
    """Patch embedding, the block stack, then a final layer norm."""
    tokens = patch_embed(x, params)
    for block in params.blocks:
        tokens = denoise_block(tokens, block)
    return layer_norm(tokens, params.final_g, params.final_b)
