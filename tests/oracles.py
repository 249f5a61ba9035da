"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (explicit loops, direct sums,
scripted recurrences) and never calls the library paths it checks. The
one exception is the unfused denoise block: it is the 11-node tape chain
that the two fused sublayer nodes replaced, built from the library's
unfused primitives, so that the fused forward can be required to be
bit-identical to it. The resampling oracle is scipy's `resample_poly`,
whose per-sample `upfirdn` loop the library's polyphase GEMMs replaced.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.signal import resample_poly

from respden.tensor import Tensor, _check_finite, add, layer_norm, matmul, mul


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

    Returns (d_re, d_im, d_w1, d_b1, d_w2, d_b2) with w2 of shape (hidden,)
    and b2 a scalar; the relu's subgradient at 0 is 0.
    """
    t_n, f_n = spec.shape
    d_re = np.zeros((t_n, f_n))
    d_im = np.zeros((t_n, f_n))
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
            d_re[u, v] = d_pre @ w1[0]
            d_im[u, v] = d_pre @ w1[1]
    return d_re, d_im, d_w1, d_b1, d_w2, d_b2


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


def sigmoid_node(a: Tensor) -> Tensor:
    """Logistic sigmoid as its own tape node, two-branch for stability in both tails."""
    out = np.empty_like(a.data)
    pos = a.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ez = np.exp(a.data[~pos])
    out[~pos] = ez / (1.0 + ez)

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor._from_op(out, (a,), backward, "sigmoid")


def attention_node(x: Tensor, params) -> Tensor:
    """Differential attention alone (no layer norm, no residual) as one tape node."""
    wq, wk, wv, wo, lam = params.wq, params.wk, params.wv, params.wo, params.lam
    n, h, d, dv = x.shape[0], params.heads, params.d_qk, params.d_v
    scale = 1.0 / math.sqrt(d)
    q = x.data @ wq.data
    k = x.data @ wk.data
    v = x.data @ wv.data
    _check_finite(q, "mhda query projection")
    _check_finite(k, "mhda key projection")
    _check_finite(v, "mhda value projection")
    qh = q.reshape(n, h, 2, d).transpose(1, 2, 0, 3)
    kh = k.reshape(n, h, 2, d).transpose(1, 2, 0, 3)
    vh = v.reshape(n, h, dv).transpose(1, 0, 2)
    s = scale * (qh @ kh.swapaxes(-1, -2))
    _check_finite(s, "mhda attention scores")
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    m = e / e.sum(axis=-1, keepdims=True)
    lam_h = lam.data.reshape(-1, 1, 1)
    a = m[:, 0] - lam_h * m[:, 1]
    merged = (a @ vh).transpose(1, 0, 2).reshape(n, h * dv)
    out = merged @ wo.data

    def backward(g):
        d_merged = g @ wo.data.T
        d_wo = merged.T @ g
        d_o = d_merged.reshape(n, h, dv).transpose(1, 0, 2)
        d_vh = a.swapaxes(-1, -2) @ d_o
        d_a = (d_o @ vh.swapaxes(-1, -2))[:, None]
        dot = (d_a * m).sum(axis=-1, keepdims=True)
        d_lam = -dot[:, 1].sum(axis=(1, 2))
        d_s = m * (d_a - dot)
        d_s *= scale * np.stack((np.ones_like(lam_h), -lam_h), axis=1)
        d_q = (d_s @ kh).transpose(2, 0, 1, 3).reshape(n, 2 * h * d)
        d_k = (d_s.swapaxes(-1, -2) @ qh).transpose(2, 0, 1, 3).reshape(n, 2 * h * d)
        d_v = d_vh.transpose(1, 0, 2).reshape(n, h * dv)
        d_x = d_q @ wq.data.T + d_k @ wk.data.T + d_v @ wv.data.T
        return (d_x, x.data.T @ d_q, x.data.T @ d_k, x.data.T @ d_v, d_wo, d_lam)

    return Tensor._from_op(out, (x, wq, wk, wv, wo, lam), backward, "mhda")


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


def dft_frame_direct(frame: np.ndarray) -> np.ndarray:
    """O(N^2) DFT of one real frame via an explicit cos/sin matrix."""
    n = frame.size
    k = np.arange(n // 2 + 1)
    t = np.arange(n)
    angles = 2.0 * np.pi * np.outer(k, t) / n
    re = (np.cos(angles) * frame).sum(axis=1)
    im = -(np.sin(angles) * frame).sum(axis=1)
    return re + 1j * im


def mel_spectrogram_per_call(samples: np.ndarray, sample_rate: int = 16000, n_fft: int = 1024,
                             hop: int = 512, n_mels: int = 64, fmin: float = 0.0,
                             fmax: float = 8000.0, log_floor: float = 1e-6) -> np.ndarray:
    """Log-mel energies with the periodic Hann window and the triangular
    filterbank rebuilt, one band at a time, on every call, and each band's
    energy summed bin by bin."""

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
    power = np.abs(np.fft.rfft(frames * window, axis=1)) ** 2
    # each band sums its nonzero bins one at a time in ascending order: the
    # order the library's sparse product fixes at any BLAS thread count
    mel = np.zeros((n_frames, n_mels))
    for i in range(n_mels):
        for j in np.flatnonzero(bank[i]):
            mel[:, i] = mel[:, i] + bank[i, j] * power[:, j]
    return np.log(mel + log_floor)
