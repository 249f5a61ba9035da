"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (explicit loops, direct sums,
scripted recurrences) and never calls the library paths it checks. The
exceptions are three unfused tape chains, built from the library's unfused
primitives plus the generic nodes kept here, so that the fused nodes can
be checked against them. Two use the `add`, `mul`, `matmul` and
`patchify` nodes, and the fused nodes must be bit-identical to them: the
11-node denoise block that the two fused sublayer nodes replaced, and the
4-node patch embedding that the fused `patch_embed` replaced. The third is
the six-node full-plane filter chain (`fft2`, `mask_net`, `symmetrize`,
`soft_shrink`, `scale_complex`, `ifft2`, composed by `reference_filter`)
that the one-node `freq_filter.filter_forward` replaced; its output and
four parameter gradients must agree to 1e-10. Its `mask_net` node runs
the library's per-table blocked MLP kernel and its rectifier-pattern
pullback, so the per-bin loop oracle checks both through it. `mul` is also the
oracle of the chain's `scale_complex`. The resampling oracle is scipy's
`resample_poly`, whose per-sample `upfirdn` loop the library's polyphase
GEMMs replaced. `preprocess_composed` is the audio pipeline in its old stage
order, normalizing after tiling, which `audio.preprocess` must match bit
for bit.
The summed-batch loss is the one-graph training step that the streamed
per-sample backward replaced. The direct hybrid loss is the value oracle
for the fused heads + loss node. The direct layer norm, attention and
SwishGLU sublayers are the fused kernels' arithmetic with np.mean/np.var
and a fresh array per step, which the kernels' plain sums and in-place
buffers must reproduce bit for bit. They apply the kernels' per-clip score
bound and per-element gate rule (`gate_sigmoid`); `softmax_rows` and
`mhda_direct` keep the row-max softmax, an independent reference that tests
compare within a tolerance. The WAV oracle is
`scipy.io.wavfile.read` followed by the scaling that `read_wav` applied
when it delegated decoding to scipy. `check_value_types`, `validate_config`
and `check_synth` are the free config checks that callers had to remember
before `RunConfig` and `SynthConfig` checked themselves when built; the
built configs must reject exactly what they rejected, with the same message.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from types import SimpleNamespace

import numpy as np
from scipy.io import wavfile
from scipy.signal import firwin, resample_poly

import respden.audio as audio
import respden.freq_filter as freq_filter
from respden.attention import EXP_BOUND, N_FREQ_PATCHES, N_TIME_PATCHES, PATCH, extract_patches
from respden.config import FIELD_TYPES, RunConfig
from respden.errors import NumericError, ShapeError, UsageError
from respden.tensor import Tensor, _check_finite, layer_norm


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Broadcasting elementwise sum as a tape node."""
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor._from_op(out, (a, b), backward, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Broadcasting elementwise product as a tape node; a constant factor gets no pullback."""
    out = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return Tensor._from_op(out, (a, b), backward, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product as a tape node; gradients dA = dC @ B^T, dB = A^T @ dC."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return Tensor._from_op(out, (a, b), backward, "matmul")


def patchify(x: Tensor) -> Tensor:
    """Patch extraction as a tape node (gradient scatters back to the grid)."""
    t, f = x.shape
    out = extract_patches(x.data)

    def backward(g):
        blocks = g.reshape(N_TIME_PATCHES, N_FREQ_PATCHES, PATCH, PATCH).transpose(0, 2, 1, 3)
        padded = blocks.reshape(N_TIME_PATCHES * PATCH, f)
        return (padded[:t],)

    return Tensor._from_op(out, (x,), backward, "patchify")


def patch_embed_chain(x: Tensor, params) -> Tensor:
    """Patch embedding as four tape nodes: patchify, matmul, add, add."""
    return add(add(matmul(patchify(x), params.patch_w), params.patch_b), params.pos)


# -- the six-node full-plane filter chain -----------------------------------------
#
# A complex T x F spectrum is carried as one real (2, T, F) tensor, the real
# part stacked on the imaginary part, so each transform is a single tape
# node. Convention: the forward transform is the plain double sum with
# negative exponent and no normalization; the inverse carries the 1/(T*F)
# factor.

#: largest |imaginary residue| accepted when inverting a spectrum that is
#: claimed to come from a real signal
REAL_RESIDUE_TOL = 1e-9


def fft2(x: Tensor) -> Tensor:
    """Unnormalized 2-D DFT of a real T x F tensor, as a (2, T, F) spectrum.

    The map is linear, so the pullback of (g_re, g_im) is the real part of
    the adjoint (conjugate-transposed) DFT applied to g_re + i*g_im, which
    equals T*F times the normalized inverse transform.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"fft2 expects a 2-D tensor, got shape {x.shape}")
    spec = np.fft.fft2(x.data)
    n = x.data.size

    def backward(g):
        return (np.real(np.fft.ifft2(g[0] + 1j * g[1])) * n,)

    return Tensor._from_op(np.stack((spec.real, spec.imag)), (x,), backward, "fft2")


def ifft2(spectrum: Tensor) -> Tensor:
    """Normalized inverse 2-D DFT of a (2, T, F) spectrum, returning the real signal.

    The input must be (numerically) Hermitian-symmetric; if the imaginary
    residue of the inverse exceeds `REAL_RESIDUE_TOL` the claimed-real
    inverse is rejected with `NumericError`.
    """
    s = spectrum.data
    if s.ndim != 3 or s.shape[0] != 2:
        raise ShapeError(f"ifft2 expects a (2, T, F) spectrum, got shape {spectrum.shape}")
    inv = np.fft.ifft2(s[0] + 1j * s[1])
    residue = float(np.abs(inv.imag).max()) if inv.size else 0.0
    if residue > REAL_RESIDUE_TOL:
        raise NumericError(
            f"inverse transform of a claimed-real spectrum has imaginary residue "
            f"{residue:.3e} > {REAL_RESIDUE_TOL:.3e}"
        )
    out = np.ascontiguousarray(inv.real)
    n = out.size

    # adjoint of Re o ifft2, stacked as (re, im)
    def backward(g):
        w = np.fft.fft2(g) / n
        return (np.stack((w.real, w.imag)),)

    return Tensor._from_op(out, (spectrum,), backward, "ifft2")


def scale_complex(spectrum: Tensor, mask: Tensor) -> Tensor:
    """Multiply a real T x F mask elementwise into both parts of a (2, T, F) spectrum."""

    def backward(g):
        return ((g * spectrum.data).sum(axis=0) if mask.requires_grad else None,
                g * mask.data if spectrum.requires_grad else None)

    return Tensor._from_op(mask.data * spectrum.data, (mask, spectrum), backward, "scale_complex")


def soft_shrink(a: Tensor, alpha: float) -> Tensor:
    """sign(x) * max(|x| - alpha, 0); dead-zone subgradient is 0 at |x| = alpha."""
    if alpha < 0:
        raise ValueError(f"soft_shrink threshold must be >= 0, got {alpha}")
    mag = np.abs(a.data)
    mask = mag > alpha
    out = np.where(mask, np.sign(a.data) * (mag - alpha), 0.0)

    def backward(g):
        return (g * mask,)

    return Tensor._from_op(out, (a,), backward, "soft_shrink")


def _features(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(k, 3) MLP input table with rows (re, im, 1); the 1 carries the bias b1."""
    return np.column_stack((re.reshape(-1), im.reshape(-1), np.ones(re.size)))


def mask_net(spectrum: Tensor, params) -> Tensor:
    """One real T x F mask from each bin's (re, im) pair of a (2, T, F) spectrum.

    relu(feats @ w1 + b1) @ w2 + b2 as a single tape node over every bin of
    the full plane, through the library's per-table blocked MLP kernel, which
    scans every block's hidden layer, and the pullback that reads the
    rectifier pattern the kernel kept. Like
    the filter, it differentiates only its four parameters: the spectrum is
    data and gets no cotangent.
    """
    w1b, w2 = np.vstack((params.w1.data, params.b1.data)), params.w2.data
    _, t, f = spectrum.shape
    feats = _features(spectrum.data[0], spectrum.data[1])
    raw, on = np.empty(len(feats)), np.empty((len(feats), w1b.shape[1]), bool)
    freq_filter._mask_table(feats, w1b, w2, raw, on, check=True)
    out = raw + params.b2.data

    def backward(g):
        g = g.reshape(-1)
        d_w1b, d_w2 = freq_filter._pattern_pullback(feats * g[:, None], w1b, w2, on)
        return d_w1b[:2], d_w1b[2], d_w2, g.sum(keepdims=True)

    return Tensor._from_op(out.reshape(t, f), (params.w1, params.b1, params.w2, params.b2),
                           backward, "mask_net")


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


def reference_filter(x: Tensor, params) -> Tensor:
    """The full-plane chain fft2 -> mask_net -> symmetrize -> soft_shrink -> ifft2.

    Six tape nodes computing what `freq_filter.filter_forward` computes in
    one; the tests compare the two.
    """
    spectrum = fft2(x)
    mask = soft_shrink(symmetrize(mask_net(spectrum, params)), params.alpha)
    return ifft2(scale_complex(spectrum, mask))


def dft2_direct(x: np.ndarray) -> np.ndarray:
    """Quadruple-loop 2-D DFT: X[u,v] = sum_t sum_f x[t,f] e^{-2pi i(ut/T + vf/F)}."""
    t_n, f_n = x.shape
    out = np.zeros((t_n, f_n), dtype=complex)
    for u in range(t_n):
        for v in range(f_n):
            acc = 0.0 + 0.0j
            for t in range(t_n):
                for f in range(f_n):
                    acc += x[t, f] * cmath.exp(-2j * cmath.pi * (u * t / t_n + v * f / f_n))
            out[u, v] = acc
    return out


def idft2_direct(spec: np.ndarray) -> np.ndarray:
    """Quadruple-loop inverse with 1/(T*F) normalization; returns complex."""
    t_n, f_n = spec.shape
    out = np.zeros((t_n, f_n), dtype=complex)
    for t in range(t_n):
        for f in range(f_n):
            acc = 0.0 + 0.0j
            for u in range(t_n):
                for v in range(f_n):
                    acc += spec[u, v] * cmath.exp(2j * cmath.pi * (u * t / t_n + v * f / f_n))
            out[t, f] = acc / (t_n * f_n)
    return out


def pointwise_mask_mlp(spec: np.ndarray, w1, b1, w2, b2) -> np.ndarray:
    """Per-bin (re, im) -> affine -> relu -> affine, via explicit loops."""
    t_n, f_n = spec.shape
    mask = np.zeros((t_n, f_n))
    for u in range(t_n):
        for v in range(f_n):
            feats = np.array([spec[u, v].real, spec[u, v].imag])
            hidden = np.maximum(feats @ w1 + b1, 0.0)
            mask[u, v] = float(hidden @ w2 + b2)
    return mask


def pointwise_mask_mlp_grads(spec: np.ndarray, w1, b1, w2, b2, g: np.ndarray):
    """Pullbacks of sum(g * pointwise_mask_mlp(spec, ...)), bin by bin.

    Returns (d_w1, d_b1, d_w2, d_b2) with w2 of shape (hidden,) and b2 a
    scalar; the relu's subgradient at 0 is 0.
    """
    t_n, f_n = spec.shape
    d_w1 = np.zeros_like(w1)
    d_b1 = np.zeros_like(b1)
    d_w2 = np.zeros_like(w2)
    d_b2 = 0.0
    for u in range(t_n):
        for v in range(f_n):
            feats = np.array([spec[u, v].real, spec[u, v].imag])
            pre = feats @ w1 + b1
            d_b2 += g[u, v]
            d_w2 += g[u, v] * np.maximum(pre, 0.0)
            d_pre = g[u, v] * w2 * (pre > 0.0)
            d_b1 += d_pre
            d_w1 += np.outer(feats, d_pre)
    return d_w1, d_b1, d_w2, d_b2


def soft_shrink_scalar(x: float, alpha: float) -> float:
    return math.copysign(max(abs(x) - alpha, 0.0), x) if abs(x) > alpha else 0.0


def filter_direct(x: np.ndarray, w1, b1, w2, b2, alpha: float) -> np.ndarray:
    """Direct-path frequency filter: double sums, pointwise MLP, conjugate-pair
    symmetrization, shrink, multiply, inverse double sums."""
    t_n, f_n = x.shape
    spec = dft2_direct(x)
    raw = pointwise_mask_mlp(spec, w1, b1, w2, b2)
    sym = np.zeros_like(raw)
    for u in range(t_n):
        for v in range(f_n):
            sym[u, v] = 0.5 * (raw[u, v] + raw[(-u) % t_n, (-v) % f_n])
    shrunk = np.vectorize(soft_shrink_scalar)(sym, alpha)
    filtered = shrunk * spec
    out = idft2_direct(filtered)
    assert np.abs(out.imag).max() < 1e-9, "oracle inverse should be real"
    return out.real


def softmax_rows(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def mhda_direct(x: np.ndarray, wq, wk, wv, wo, lam, heads: int) -> np.ndarray:
    """Scripted differential attention: split projections, two softmax maps,
    lambda-weighted subtraction, values, concat, output projection."""
    n, _ = x.shape
    d = wq.shape[1] // (2 * heads)
    dv = wv.shape[1] // heads
    q = x @ wq
    k = x @ wk
    v = x @ wv
    outs = []
    for i in range(heads):
        off = 2 * d * i
        q1, q2 = q[:, off:off + d], q[:, off + d:off + 2 * d]
        k1, k2 = k[:, off:off + d], k[:, off + d:off + 2 * d]
        vi = v[:, dv * i:dv * (i + 1)]
        m1 = softmax_rows(q1 @ k1.T / math.sqrt(d))
        m2 = softmax_rows(q2 @ k2.T / math.sqrt(d))
        outs.append((m1 - lam[i] * m2) @ vi)
    return np.concatenate(outs, axis=1) @ wo


def gate_sigmoid(a: np.ndarray) -> np.ndarray:
    """The gate's logistic sigmoid, each element by its own value: 1/(1+e^-a) where
    a >= -EXP_BOUND, e^a/(1+e^a) below, where e^-a would pass e^EXP_BOUND."""
    bounded = a >= -EXP_BOUND
    ez = np.exp(np.where(bounded, -a, a))
    return np.where(bounded, 1.0, ez) / (1.0 + ez)


def sigmoid_node(a: Tensor) -> Tensor:
    """Logistic sigmoid (`gate_sigmoid`) as its own tape node."""
    out = gate_sigmoid(a.data)

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor._from_op(out, (a,), backward, "sigmoid")


def layer_norm_direct(x: np.ndarray, gamma, beta, eps: float = 1e-5):
    """Layer norm through np.mean and np.var: (output, pullback of an output
    gradient to (dx, dgamma, dbeta)). The library's kernel sums the width
    itself and must match this bit for bit."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv

    def pullback(g):
        gg = g * gamma
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        axes = tuple(range(g.ndim - 1))
        return inv * (gg - m1 - xhat * m2), (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return xhat * gamma + beta, pullback


def attention_direct(x: np.ndarray, wq, wk, wv, wo, lam, heads: int):
    """Differential attention alone (no layer norm, no residual), each step a fresh
    array: (output, pullback of an output gradient to (dx, dwq, dwk, dwv, dwo, dlam))."""
    n, d, dv = x.shape[0], wq.shape[1] // (2 * heads), wv.shape[1] // heads
    scale = 1.0 / math.sqrt(d)
    q = x @ wq
    k = x @ wk
    v = x @ wv
    # every |score| is at most sqrt(d) max|q| max|k|: within EXP_BOUND, exp needs no shift
    with np.errstate(over="ignore", invalid="ignore"):
        bounded = math.sqrt(d) * np.abs(q).max() * np.abs(k).max() <= EXP_BOUND
    if not bounded:
        _check_finite(q, "mhda query projection")
        _check_finite(k, "mhda key projection")
    _check_finite(v, "mhda value projection")
    qh = q.reshape(n, heads, 2, d).transpose(1, 2, 0, 3)
    kh = k.reshape(n, heads, 2, d).transpose(1, 2, 0, 3)
    vh = v.reshape(n, heads, dv).transpose(1, 0, 2)
    s = scale * (qh @ kh.swapaxes(-1, -2))
    if not bounded:
        _check_finite(s, "mhda attention scores")
        s = s - s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    m = e * (1.0 / e.sum(axis=-1, keepdims=True))
    lam_h = lam.reshape(-1, 1, 1)
    a = m[:, 0] - lam_h * m[:, 1]
    merged = (a @ vh).transpose(1, 0, 2).reshape(n, heads * dv)

    def pullback(g):
        d_merged = g @ wo.T
        d_wo = merged.T @ g
        d_o = d_merged.reshape(n, heads, dv).transpose(1, 0, 2)
        d_vh = a.swapaxes(-1, -2) @ d_o
        d_a = (d_o @ vh.swapaxes(-1, -2))[:, None]
        dot = (d_a * m).sum(axis=-1, keepdims=True)
        d_lam = -dot[:, 1].sum(axis=(1, 2))
        d_s = m * (d_a - dot)
        d_s *= scale * np.stack((np.ones_like(lam_h), -lam_h), axis=1)
        d_q = (d_s @ kh).transpose(2, 0, 1, 3).reshape(n, 2 * heads * d)
        d_k = (d_s.swapaxes(-1, -2) @ qh).transpose(2, 0, 1, 3).reshape(n, 2 * heads * d)
        d_v = d_vh.transpose(1, 0, 2).reshape(n, heads * dv)
        d_x = d_q @ wq.T + d_k @ wk.T + d_v @ wv.T
        return (d_x, x.T @ d_q, x.T @ d_k, x.T @ d_v, d_wo, d_lam)

    return merged @ wo, pullback


def attention_node(x: Tensor, params) -> Tensor:
    """Differential attention alone (no layer norm, no residual) as one tape node."""
    parents = (x, params.wq, params.wk, params.wv, params.wo, params.lam)
    out, pullback = attention_direct(*(t.data for t in parents), params.heads)
    return Tensor._from_op(out, parents, pullback, "mhda")


def mhda_sublayer_direct(x: np.ndarray, ln_g, ln_b, wq, wk, wv, wo, lam, heads: int):
    """x + attention(LN(x)) with `layer_norm_direct` and `attention_direct`:
    (output, pullback to the cotangents of the eight array inputs)."""
    xn, ln_pullback = layer_norm_direct(x, ln_g, ln_b)
    att, att_pullback = attention_direct(xn, wq, wk, wv, wo, lam, heads)

    def pullback(g):
        d_xn, *d_w = att_pullback(g)
        d_x, d_g, d_b = ln_pullback(d_xn)
        return (d_x + g, d_g, d_b, *d_w)

    return x + att, pullback


def swish_glu_direct(y: np.ndarray, ln_g, ln_b, w1, w2, w3):
    """y + (swish(n @ w1) * (n @ w2)) @ w3, n = `layer_norm_direct`(y), each step
    a fresh array: (output, pullback to the cotangents of the six inputs)."""
    n, ln_pullback = layer_norm_direct(y, ln_g, ln_b)
    a = n @ w1
    s = gate_sigmoid(a)
    v = n @ w2

    def pullback(g):
        gate = a * s
        d_h = g @ w3.T
        d_a = d_h * v * s * (1.0 + a * (1.0 - s))
        d_v = d_h * gate
        d_y, d_g, d_b = ln_pullback(d_a @ w1.T + d_v @ w2.T)
        return d_y + g, d_g, d_b, n.T @ d_a, n.T @ d_v, (gate * v).T @ g

    return y + (a * s * v) @ w3, pullback


def attention_sublayer_chain(x: Tensor, ln_g: Tensor, ln_b: Tensor, params) -> Tensor:
    """x + attention(LN(x)) as three tape nodes: layer_norm, mhda, add."""
    return add(x, attention_node(layer_norm(x, ln_g, ln_b), params))


def ffn_sublayer_chain(y: Tensor, ln_g: Tensor, ln_b: Tensor, w1: Tensor, w2: Tensor,
                       w3: Tensor) -> Tensor:
    """y + (swish(n @ w1) * (n @ w2)) @ w3, n = LN(y), as eight tape nodes."""
    n = layer_norm(y, ln_g, ln_b)
    a = matmul(n, w1)
    gate = mul(a, sigmoid_node(a))
    return add(y, matmul(mul(gate, matmul(n, w2)), w3))


def denoise_block_chain(x: Tensor, params) -> Tensor:
    """The pre-norm block as the 11-node chain of unfused tape ops."""
    y = attention_sublayer_chain(x, params.ln1_g, params.ln1_b, params.attn)
    return ffn_sublayer_chain(y, params.ln2_g, params.ln2_b, params.ffn_w1, params.ffn_w2,
                              params.ffn_w3)


def adam_scripted(grad_fn, w0: float, lr: float, steps: int,
                  beta1=0.9, beta2=0.999, eps=1e-8) -> list[float]:
    """Plain-float Adam recurrence; returns the iterate trajectory."""
    w, m, v = w0, 0.0, 0.0
    path = [w]
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        w -= lr * mhat / (math.sqrt(vhat) + eps)
        path.append(w)
    return path


def counting_metrics(truths, preds) -> tuple[np.ndarray, float, float, float]:
    """Per-sample counting of the confusion matrix and Se/Sp/Score."""
    conf = np.zeros((4, 4), dtype=np.int64)
    for t, p in zip(truths, preds):
        conf[t][p] += 1
    normal_total = sum(conf[0])
    abnormal_total = sum(int(conf[c].sum()) for c in (1, 2, 3))
    sp = conf[0][0] / normal_total
    se = (conf[1][1] + conf[2][2] + conf[3][3]) / abnormal_total
    return conf, float(se), float(sp), float((se + sp) / 2)


def dft_peak_hz(samples: np.ndarray, rate: int) -> tuple[float, float]:
    """(peak frequency, bin width) of a signal's magnitude spectrum."""
    spec = np.abs(np.fft.rfft(samples))
    spec[0] = 0.0  # ignore DC
    k = int(np.argmax(spec))
    return k * rate / samples.size, rate / samples.size


def resample_poly_oracle(x: np.ndarray, rate: int, target: int = 16000) -> np.ndarray:
    """`resample_poly` with its default Kaiser-windowed design, cut to round(n * target / rate)."""
    g = math.gcd(rate, target)
    return resample_poly(x, target // g, rate // g)[: round(x.size * target / rate)]


def preprocess_composed(clip: audio.AudioClip) -> audio.Spectrogram:
    """The pipeline with the peak taken and divided out after tiling, over all 8 s."""
    return audio.mel_spectrogram(audio.normalize_amplitude(audio.fix_length(audio.resample(clip))))


def kaiser_lowpass_firwin(numtaps: int, cutoff: float) -> np.ndarray:
    """`resample_poly`'s default anti-aliasing design, by `firwin` itself."""
    return firwin(numtaps, cutoff, window=("kaiser", 5.0))


def normalize_by_abs_peak(x: np.ndarray) -> np.ndarray:
    """Peak normalization with the peak taken from an |x| copy."""
    peak = np.abs(x).max()
    return x if peak == 0.0 else x / peak


def dft_frame_direct(frame: np.ndarray) -> np.ndarray:
    """O(N^2) DFT of one real frame via an explicit cos/sin matrix."""
    n = frame.size
    k = np.arange(n // 2 + 1)
    t = np.arange(n)
    angles = 2.0 * np.pi * np.outer(k, t) / n
    re = (np.cos(angles) * frame).sum(axis=1)
    im = -(np.sin(angles) * frame).sum(axis=1)
    return re + 1j * im


def power_re2_im2(spectrum: np.ndarray) -> np.ndarray:
    """The textbook |X|^2: re^2 + im^2, with no square root."""
    return spectrum.real ** 2 + spectrum.imag ** 2


def power_hypot_squared(spectrum: np.ndarray) -> np.ndarray:
    """|X|^2 as hypot(re, im)^2, the library mel's power before it squared
    the spectrum's floats in place."""
    return np.abs(spectrum) ** 2


def mel_spectrogram_per_call(samples: np.ndarray, sample_rate: int = 16000, n_fft: int = 1024,
                             hop: int = 512, n_mels: int = 64, fmin: float = 0.0,
                             fmax: float = 8000.0, log_floor: float = 1e-6,
                             power_of=power_re2_im2) -> np.ndarray:
    """Log-mel energies with the periodic Hann window and the triangular
    filterbank rebuilt, one band at a time, on every call, each frame's
    power taken by `power_of` from its rfft, and each band's energy summed
    bin by bin."""

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)

    n_bins = n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * sample_rate / n_fft
    hz_pts = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    bank = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lo, ctr, hi = hz_pts[i], hz_pts[i + 1], hz_pts[i + 2]
        tri = np.maximum(0.0, np.minimum((fft_freqs - lo) / (ctr - lo), (hi - fft_freqs) / (hi - ctr)))
        bank[i] = tri * 2.0 / (hi - lo)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    n_frames = 1 + (samples.size - n_fft) // hop
    frames = np.stack([samples[i * hop:i * hop + n_fft] for i in range(n_frames)])
    power = power_of(np.fft.rfft(frames * window, axis=1))
    # each band sums its nonzero bins one at a time in ascending order: the
    # order the library's sparse product fixes at any BLAS thread count
    mel = np.zeros((n_frames, n_mels))
    for i in range(n_mels):
        for j in np.flatnonzero(bank[i]):
            mel[:, i] = mel[:, i] + bank[i, j] * power[:, j]
    return np.log(mel + log_floor)


def summed_batch_loss(model, data, batch: list[int]) -> Tensor:
    """The batch-mean loss as one graph, mul(1/B, l0 + ... + l_{B-1}), whose
    backward holds every sample's graph until it runs."""
    total = None
    for i in batch:
        loss = model.sample_loss(data.features[i], data.labels[i])
        total = loss if total is None else add(total, loss)
    return mul(Tensor(1.0 / len(batch)), total) if len(batch) > 1 else total


def hybrid_loss_direct(p: np.ndarray, label: int, beta: float, epsilon: float, norm_g, norm_b,
                       phi_w, phi_b, cls_w, cls_b, gain: float = 48.0,
                       ln_eps: float = 1e-5) -> float:
    """beta * smoothed CE of the layer-normed head + (1 - beta) * CE of the plain
    head on the token-mean features, with explicit loops over tokens, features
    and classes."""
    n, d = p.shape
    c = len(cls_b)
    pooled = [sum(p[t, j] for t in range(n)) / n for j in range(d)]
    mu = sum(pooled) / d
    var = sum((x - mu) ** 2 for x in pooled) / d
    normed = [(pooled[j] - mu) / math.sqrt(var + ln_eps) * norm_g[j] + norm_b[j]
              for j in range(d)]

    def head(x, w, b):
        return [gain * (sum(x[j] * w[j, k] for j in range(d)) + b[k]) for k in range(c)]

    def smoothed_ce(z, eps):
        top = max(z)
        lse = top + math.log(sum(math.exp(v - top) for v in z))
        return -sum(((1.0 - eps) * (k == label) + eps / c) * (z[k] - lse) for k in range(c))

    ce = smoothed_ce(head(pooled, cls_w, cls_b), 0.0)
    bd = smoothed_ce(head(normed, phi_w, phi_b), epsilon)
    return beta * bd + (1.0 - beta) * ce


def scipy_read_wav(path: str) -> tuple[np.ndarray, int]:
    """(mono float64 samples, rate) as scipy decodes the file, scaled as `read_wav` always has."""
    rate, data = wavfile.read(path)
    pcm_scale = {np.dtype(np.int16): 32768.0, np.dtype(np.int32): 2147483648.0}
    scaled = data.dtype in pcm_scale or data.dtype == np.uint8
    if data.dtype in pcm_scale:
        samples = np.multiply(data, 1.0 / pcm_scale[data.dtype], dtype=np.float64)
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        samples = data.astype(np.float64)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if not scaled:
        samples = np.clip(samples, -1.0, 1.0)
    return samples, int(rate)


# -- free config checks ----------------------------------------------------------------

_RUN_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise UsageError(msg)


def check_value_types(values: dict) -> dict:
    """`values`, if each value of a known field has that field's type (an int
    may stand for a float); else `UsageError` naming the key."""
    for key, value in values.items():
        if key not in _RUN_FIELDS:
            continue
        ftype = _RUN_FIELDS[key].type
        accepted = (int, float) if ftype == "float" else FIELD_TYPES[ftype]
        # bool is an int subclass: only a bool field takes one
        if isinstance(value, bool) != (ftype == "bool") or not isinstance(value, accepted):
            raise UsageError(f"config key '{key}' must be of type {ftype}, got {value!r}")
    return values


def check_synth(train_per_class: int, test_per_class: int, train_subjects: int,
                test_subjects: int, snr_lo: float, snr_hi: float) -> None:
    """`UsageError` unless the values describe a synthetic corpus `build_synth` can draw."""
    _need(train_per_class >= 1, f"train_per_class must be >= 1, got {train_per_class}")
    _need(test_per_class >= 0, f"test_per_class must be >= 0, got {test_per_class}")
    _need(train_subjects >= 1 and test_subjects >= 1, "subject counts must be >= 1")
    for name, db in (("snr_lo", snr_lo), ("snr_hi", snr_hi)):
        _need(not math.isnan(db), f"{name} is NaN; an SNR bound must be a number of dB")
    _need(snr_lo <= snr_hi, f"snr_lo={snr_lo} exceeds snr_hi={snr_hi}")
    _need(math.isfinite(snr_hi - snr_lo), f"snr range {snr_lo}..{snr_hi} must have a finite width")


def validate_config(cfg):
    _need(cfg.seed >= 0, f"seed must be >= 0, got {cfg.seed}")
    _need(0 < cfg.lr < math.inf, f"lr must be finite and > 0, got {cfg.lr}")
    _need(0 <= cfg.weight_decay < math.inf,
          f"weight_decay must be finite and >= 0, got {cfg.weight_decay}")
    _need(cfg.batch >= 1, f"batch must be >= 1, got {cfg.batch}")
    _need(cfg.epochs >= 0, f"epochs must be >= 0, got {cfg.epochs}")
    _need(0.0 <= cfg.beta <= 1.0, f"beta must be in [0, 1], got {cfg.beta}")
    _need(0.0 <= cfg.epsilon < 1.0, f"epsilon must be in [0, 1), got {cfg.epsilon}")
    _need(0.0 <= cfg.alpha < math.inf, f"alpha must be finite and >= 0, got {cfg.alpha}")
    _need(cfg.dim >= 1 and cfg.heads >= 1 and cfg.layers >= 0, "model dimensions must be positive")
    _need(cfg.mask_hidden >= 1, f"mask_hidden must be >= 1, got {cfg.mask_hidden}")
    _need(cfg.dim % (2 * cfg.heads) == 0,
          f"dim={cfg.dim} must be divisible by 2*heads={2 * cfg.heads} for the query/key split")
    check_synth(cfg.train_per_class, cfg.test_per_class, cfg.train_subjects, cfg.test_subjects,
                cfg.snr_lo, cfg.snr_hi)
    return cfg


def free_checked_config(values: dict):
    """`validate_config(RunConfig(**check_value_types(values)))` as it ran when a
    `RunConfig` was an unchecked record: the defaults updated with `values`."""
    defaults = {name: f.default for name, f in _RUN_FIELDS.items()}
    return validate_config(SimpleNamespace(**{**defaults, **check_value_types(values)}))
