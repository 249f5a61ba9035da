"""Central finite-difference verification of every gradient rule.

Each check rebuilds the checked output from scratch, reduces it to a scalar
with a fixed cotangent (sum(cotangent * output)), perturbs one parameter
entry at a time by +/- step and +/- step/2, and compares the
Richardson-extrapolated centered difference, (4 D(step/2) - D(step)) / 3,
with the accumulated analytic gradient; the extrapolation removes the
O(step^2) truncation error, which large output gains otherwise amplify
past the tolerance. Small tensors are checked exhaustively; large ones
on a seeded random subset of entries, so the composed-model suite stays
fast without losing coverage of any parameter group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .attention import (BackboneParams, BlockParams, MhdaParams, N_TOKENS, PATCH_DIM, denoise_block,
                        mhda, patch_embed, swish_glu)
from .config import RunConfig
from .freq_filter import FilterParams, filter_forward
from .losses import HeadParams, total_loss
from .model import Model, seed_stream
from .tensor import Tensor, layer_norm, no_grad

FD_STEP = 1e-3
OP_TOL = 1e-4
MODEL_TOL = 1e-3


@dataclass
class CheckRow:
    name: str
    max_rel_err: float
    n_checked: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)


def _central_difference(objective: Callable[[], float], flat: np.ndarray, idx: int,
                        h: float) -> float:
    """(L(x + h e_idx) - L(x - h e_idx)) / 2h, restoring entry `idx` afterwards."""
    orig = flat[idx]
    flat[idx] = orig + h
    up = objective()
    flat[idx] = orig - h
    down = objective()
    flat[idx] = orig
    return (up - down) / (2.0 * h)


def check_loss_gradients(
    fn: Callable[[], Tensor | list[Tensor]],
    params: dict[str, Tensor],
    step: float = FD_STEP,
    tol: float = OP_TOL,
    max_entries: int | None = None,
    rng: np.random.Generator | None = None,
    cotangent=None,
) -> list[CheckRow]:
    """Compare analytic gradients of `fn` with extrapolated central differences.

    `fn` must rebuild the graph on every call from the live `params`
    tensors. It returns one output, or a list of separately built graphs'
    outputs; each is backpropagated on its own, seeded with `cotangent`
    (None: each output is a scalar loss, seeded with 1), and the probed
    objective is the sum over outputs of sum(cotangent * output). With
    `max_entries`, at most that many entries per parameter are probed
    (seeded sample); smaller tensors are probed exhaustively.
    """
    def outputs() -> list[Tensor]:
        out = fn()
        return [out] if isinstance(out, Tensor) else out

    def objective() -> float:
        return sum(out.item() if cotangent is None else float(np.sum(cotangent * out.data))
                   for out in outputs())

    for p in params.values():
        p.zero_grad()
    for out in outputs():
        out.backward(cotangent)
    analytic = {name: p.grad.copy() for name, p in params.items()}

    rows = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if max_entries is not None and n > max_entries:
            if rng is None:
                rng = np.random.default_rng(0)
            entries = rng.choice(n, size=max_entries, replace=False)
        else:
            entries = np.arange(n)
        worst = 0.0
        with no_grad():
            for idx in entries:
                # Richardson extrapolation cancels the O(h^2) truncation term
                fd = (4.0 * _central_difference(objective, flat, idx, step / 2)
                      - _central_difference(objective, flat, idx, step)) / 3.0
                worst = max(worst, rel_err(analytic[name].reshape(-1)[idx], fd))
        rows.append(CheckRow(name, worst, len(entries), tol))
    return rows


def _weights(shape: tuple[int, ...], seed: int) -> np.ndarray:
    """A fixed random cotangent that reduces an op output to a scalar."""
    return np.random.default_rng(seed).standard_normal(shape)


def per_op_suite(seed: int = 0) -> list[CheckRow]:
    """Finite-difference checks for every differentiable operation.

    Primitive ops and the heads + hybrid loss are held to 1e-4; composite
    chains (attention, block, frequency filter) to 1e-3. Probe points are
    chosen so no rectifier or shrink kink lies within the finite-difference
    step; kink-side subgradient conventions are pinned by exact unit tests
    instead, where finite differences are meaningless.
    """
    rows: list[CheckRow] = []
    rng = np.random.default_rng(seed)

    def check(name, fn, params, cotangent=None, tol=OP_TOL):
        rows.extend(
            CheckRow(f"{name}.{r.name}", r.max_rel_err, r.n_checked, tol)
            for r in check_loss_gradients(fn, params, tol=tol, cotangent=cotangent)
        )

    # 18 spectrogram rows span a full and a zero-padded partial time block
    x_pe = Tensor(rng.standard_normal((18, 64)), requires_grad=True)
    emb = BackboneParams(*(Tensor(rng.standard_normal(shape), requires_grad=True)
                           for shape in ((PATCH_DIM, 2), (2,), (N_TOKENS, 2))), [], None, None)
    check("patch_embed", lambda: patch_embed(x_pe, emb),
          {"x": x_pe, "W": emb.patch_w, "b": emb.patch_b, "pos": emb.pos},
          _weights((N_TOKENS, 2), 7))

    x_ln = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    g_ln = Tensor(rng.standard_normal(5), requires_grad=True)
    b_ln = Tensor(rng.standard_normal(5), requires_grad=True)
    check("layer_norm", lambda: layer_norm(x_ln, g_ln, b_ln),
          {"x": x_ln, "gamma": g_ln, "beta": b_ln}, _weights((2, 5), 10))

    x_gl = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    g_gl = Tensor(rng.standard_normal(4), requires_grad=True)
    b_gl = Tensor(rng.standard_normal(4), requires_grad=True)
    w1 = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    w2 = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    w3 = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    check("swish_glu", lambda: swish_glu(x_gl, g_gl, b_gl, w1, w2, w3),
          {"x": x_gl, "ln.g": g_gl, "ln.b": b_gl, "w1": w1, "w2": w2, "w3": w3},
          _weights((2, 4), 11))

    # the attention sublayer, x + attention(LN(x)), and one full block
    d_model, heads = 8, 2
    wq = Tensor(rng.standard_normal((d_model, d_model)), requires_grad=True)
    wk = Tensor(rng.standard_normal((d_model, d_model)), requires_grad=True)
    wv = Tensor(rng.standard_normal((d_model, d_model)), requires_grad=True)
    wo = Tensor(rng.standard_normal((d_model, d_model)), requires_grad=True)
    lam = Tensor(np.full(heads, 0.8), requires_grad=True)
    x_at = Tensor(rng.standard_normal((4, d_model)), requires_grad=True)
    g_at = Tensor(1.0 + 0.3 * rng.standard_normal(d_model), requires_grad=True)
    b_at = Tensor(0.3 * rng.standard_normal(d_model), requires_grad=True)
    attn = MhdaParams(wq, wk, wv, wo, lam, heads)
    check("mhda", lambda: mhda(x_at, g_at, b_at, attn),
          {"x": x_at, "ln.g": g_at, "ln.b": b_at, "wq": wq, "wk": wk, "wv": wv, "wo": wo,
           "lam": lam}, _weights((4, d_model), 14), tol=MODEL_TOL)

    blk = BlockParams(
        g_at, b_at, attn,
        Tensor(np.ones(d_model), requires_grad=True), Tensor(np.zeros(d_model), requires_grad=True),
        Tensor(rng.standard_normal((d_model, 2 * d_model)) * 0.3, requires_grad=True),
        Tensor(rng.standard_normal((d_model, 2 * d_model)) * 0.3, requires_grad=True),
        Tensor(rng.standard_normal((2 * d_model, d_model)) * 0.3, requires_grad=True),
    )
    check("block", lambda: denoise_block(x_at, blk),
          {"x": x_at, "ln1.g": blk.ln1_g, "ln1.b": blk.ln1_b, "wq": wq, "wk": wk, "wv": wv,
           "wo": wo, "lam": lam, "ln2.g": blk.ln2_g, "ln2.b": blk.ln2_b, "ffn.w1": blk.ffn_w1,
           "ffn.w2": blk.ffn_w2, "ffn.w3": blk.ffn_w3}, _weights((4, d_model), 15), tol=MODEL_TOL)

    # the instance-adaptive frequency filter end to end; weight scales keep
    # every rectifier preactivation (offset 0.5) out of reach of the probes
    fw1 = Tensor(rng.standard_normal((2, 6)) * 0.01, requires_grad=True)
    fb1 = Tensor(np.full(6, 0.5), requires_grad=True)
    fw2 = Tensor(rng.standard_normal((6, 1)) * 0.05, requires_grad=True)
    fb2 = Tensor(np.ones(1), requires_grad=True)
    fp = FilterParams(fw1, fb1, fw2, fb2, alpha=0.02)
    filter_params = {"w1": fw1, "b1": fb1, "w2": fw2, "b2": fb2}
    # the filter's input is data, so only its four parameters are probed
    x_af = Tensor(rng.standard_normal((6, 8)))
    check("freq_filter", lambda: filter_forward(x_af, fp), filter_params, _weights((6, 8), 16),
          tol=MODEL_TOL)
    # odd F: the half plane has no self-conjugate v = F/2 column
    x_odd = Tensor(rng.standard_normal((7, 5)))
    check("freq_filter.odd_f", lambda: filter_forward(x_odd, fp), filter_params,
          _weights((7, 5), 17), tol=MODEL_TOL)
    # a plane wave holding 20 + 20i at half-plane bin (1, 1) and ~0 elsewhere: the
    # bound certifies every bin but that one, whose units read re, im or both, at
    # pre-activations of +-0.5 or 1.5; two are on for one row of the pair and off
    # for the other, so the MLP path's backward is probed too
    t_k, f_k = np.ogrid[:6, :8]
    x_kink = Tensor(20 * np.sqrt(2) / 24 * np.cos(2 * np.pi * (t_k / 6 + f_k / 8) + np.pi / 4))
    kw1 = Tensor(0.05 * np.sign(_weights((2, 3), 18)) * [[0, 1, 1], [1, 0, 1]], requires_grad=True)
    kb1 = Tensor([0.5, 0.5, -0.5], requires_grad=True)
    kw2 = Tensor(0.3 * _weights((3, 1), 19), requires_grad=True)
    kb2 = Tensor(np.ones(1), requires_grad=True)
    check("freq_filter.kinked", lambda: filter_forward(x_kink, FilterParams(kw1, kb1, kw2, kb2)),
          {"w1": kw1, "b1": kb1, "w2": kw2, "b2": kb2}, _weights((6, 8), 20), tol=MODEL_TOL)

    # both heads and the hybrid loss; beta = 0 leaves the plain cross-entropy
    p_feat = Tensor(rng.standard_normal((5, d_model)), requires_grad=True)
    head = HeadParams(
        Tensor(1.0 + 0.3 * rng.standard_normal(d_model), requires_grad=True),
        Tensor(0.3 * rng.standard_normal(d_model), requires_grad=True),
        Tensor(0.05 * rng.standard_normal((d_model, 4)), requires_grad=True),
        Tensor(0.05 * rng.standard_normal(4), requires_grad=True),
        Tensor(0.05 * rng.standard_normal((d_model, 4)), requires_grad=True),
        Tensor(0.05 * rng.standard_normal(4), requires_grad=True),
    )
    check("total_loss.ce", lambda: total_loss(p_feat, 2, 0.0, 0.2, head),
          {"p": p_feat, "cls.w": head.cls_w, "cls.b": head.cls_b})
    check("total_loss", lambda: total_loss(p_feat, 1, 0.5, 0.2, head),
          {"p": p_feat, "norm.g": head.norm_g, "norm.b": head.norm_b, "phi.w": head.phi_w,
           "phi.b": head.phi_b, "cls.w": head.cls_w, "cls.b": head.cls_b})
    return rows


def composed_model_suite(seed: int = 0, max_entries: int = 8) -> list[CheckRow]:
    """Gradient check of the full model (filter + 1 block + heads, dim 32).

    The loss is the mean hybrid loss over a 2-sample batch of random
    spectrograms. As in training, each sample's graph is built and
    backpropagated on its own, seeded with 1/2, so the check also covers
    gradients that two graphs accumulate into shared parameters. The input
    amplitude is kept small so the spectrum's DC term cannot drag mask-net
    preactivations across their rectifier kinks within the probe step;
    differentiability at a point is what central differences can measure.
    """
    cfg = RunConfig(dim=32, heads=4, layers=1, mask_hidden=8, epochs=1, dataset="synth")
    model = Model(cfg, rng=seed_stream(seed, "init"))
    rng = np.random.default_rng(seed + 100)
    # heads are zero-initialized in production; probe at a generic point so
    # backbone gradients are nonzero and the check is not vacuous
    model.params["head.phi.w"].data[...] = 0.02 * rng.standard_normal((cfg.dim, 4))
    model.params["head.cls.w"].data[...] = 0.02 * rng.standard_normal((cfg.dim, 4))
    specs = [rng.standard_normal((249, 64)) for _ in range(2)]
    labels = [1, 0]

    return check_loss_gradients(
        lambda: [model.sample_loss(s, y) for s, y in zip(specs, labels)], model.trainable(),
        tol=MODEL_TOL, max_entries=max_entries, rng=np.random.default_rng(seed + 200),
        cotangent=0.5,
    )


def run_gradcheck(seed: int = 0, max_entries: int = 8) -> tuple[list[CheckRow], bool]:
    """Full verification suite; returns (rows, all_passed)."""
    rows = per_op_suite(seed)
    model_rows = composed_model_suite(seed, max_entries)
    for r in model_rows:
        rows.append(CheckRow(f"model.{r.name}", r.max_rel_err, r.n_checked, MODEL_TOL))
    return rows, all(r.passed for r in rows)
