"""Differential attention, blocks, patch embedding, backbone contracts."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import respden.attention as attention_module
from respden.attention import (
    EXP_BOUND,
    BackboneParams,
    BlockParams,
    MhdaParams,
    N_TOKENS,
    PATCH_DIM,
    backbone_forward,
    denoise_block,
    extract_patches,
    mhda,
    mhda_with_maps,
    patch_embed,
    swish_glu,
)
from respden.audio import AudioClip, Label, preprocess
from respden.checkpoint import load_checkpoint, model_from_checkpoint
from respden.cli import main
from respden.config import RunConfig
from respden.datasets import TARGET_RATE, synth_clip
from respden.errors import NumericError, ShapeError
from respden.freq_filter import FilterParams, filter_forward
from respden.gradcheck import check_loss_gradients
from respden.model import Model, seed_stream
from respden.tensor import Tensor, layer_norm, no_grad

from oracles import (
    attention_sublayer_chain, denoise_block_chain, ffn_sublayer_chain, gate_sigmoid, mhda_direct,
    mhda_sublayer_direct, patch_embed_chain, softmax_rows, swish_glu_direct,
)
from test_golden import RUN as GOLDEN_RUN


def make_attn(rng, d, heads, lam_value=0.8, requires_grad=False):
    def t(shape):
        return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)

    return MhdaParams(t((d, d)), t((d, d)), t((d, d)), t((d, d)),
                      Tensor(np.full(heads, lam_value), requires_grad=requires_grad), heads)


def identity_ln(d):
    return Tensor(np.ones(d)), Tensor(np.zeros(d))


def normed(x):
    """The tokens the attention sublayer attends over: LN(x) with the identity affine."""
    return layer_norm(Tensor(x), *identity_ln(x.shape[1])).data


def attention_of(x, params):
    """The attention term of the sublayer: its output minus the residual."""
    return mhda(Tensor(x), *identity_ln(x.shape[1]), params).data - x


def score_bound(x, ln_g, ln_b, params):
    """sqrt(d) max|q| max|k| of one clip's normalized tokens: the bound on its every score."""
    with no_grad():
        xn = layer_norm(Tensor(x), ln_g, ln_b).data
    return math.sqrt(params.d_qk) * np.abs(xn @ params.wq.data).max() * np.abs(xn @ params.wk.data).max()


def gate_of(values):
    """The kernel's swish(a) = a * sigmoid(a), one output column per pre-activation a.

    y = 0 and gamma = 0 make n the ones row (beta = 1); w1 row 0 then puts
    each value exactly into one gate pre-activation, w2 makes n @ w2 = 1 and
    w3 = I copies the gate to the output unchanged.
    """
    d = values.size
    w1, w2 = np.zeros((d, d)), np.zeros((d, d))
    w1[0], w2[0] = values, 1.0
    with no_grad():
        return swish_glu(Tensor(np.zeros((1, d))), Tensor(np.zeros(d)), Tensor(np.ones(d)),
                         Tensor(w1), Tensor(w2), Tensor(np.eye(d))).data[0]


def standard_attention(x, wq, wk, wv, wo, heads):
    """Plain single-map attention from the first-map projections."""
    n, d_model = x.shape
    d = wq.shape[1] // (2 * heads)
    dv = wv.shape[1] // heads
    q, k, v = x @ wq, x @ wk, x @ wv
    outs = []
    for i in range(heads):
        off = 2 * d * i
        q1, k1 = q[:, off:off + d], k[:, off:off + d]
        vi = v[:, dv * i:dv * (i + 1)]
        outs.append(softmax_rows(q1 @ k1.T / np.sqrt(d)) @ vi)
    return np.concatenate(outs, axis=1) @ wo


class TestMhda:
    def test_lambda_zero_equals_standard_attention(self):
        rng = np.random.default_rng(0)
        d, heads = 8, 2
        params = make_attn(rng, d, heads, lam_value=0.0)
        x = rng.standard_normal((5, d))
        got = attention_of(x, params)
        want = standard_attention(normed(x), params.wq.data, params.wk.data, params.wv.data,
                                  params.wo.data, heads)
        assert np.abs(got - want).max() < 1e-12

    def test_equal_maps_lambda_one_cancels_exactly(self):
        rng = np.random.default_rng(1)
        d, heads = 8, 2
        dq = d // (2 * heads)
        base_q = rng.standard_normal((d, d))
        base_k = rng.standard_normal((d, d))
        # duplicate each head's first-map columns into its second-map slot
        for i in range(heads):
            off = 2 * dq * i
            base_q[:, off + dq:off + 2 * dq] = base_q[:, off:off + dq]
            base_k[:, off + dq:off + 2 * dq] = base_k[:, off:off + dq]
        params = MhdaParams(Tensor(base_q), Tensor(base_k),
                            Tensor(rng.standard_normal((d, d))), Tensor(np.eye(d)),
                            Tensor(np.ones(heads)), heads)
        x = rng.standard_normal((4, d))
        np.testing.assert_array_equal(mhda(Tensor(x), *identity_ln(d), params).data, x)

    def test_single_token_output_is_one_minus_lambda_times_v(self):
        rng = np.random.default_rng(2)
        d, heads, lam = 8, 2, 0.37
        params = make_attn(rng, d, heads, lam_value=lam)
        x = rng.standard_normal((1, d))
        got = attention_of(x, params)
        v = normed(x) @ params.wv.data
        np.testing.assert_allclose(got, (1.0 - lam) * v @ params.wo.data, atol=1e-12)

    def test_matches_scripted_equation_oracle(self):
        rng = np.random.default_rng(3)
        d, heads = 8, 2
        lam = np.array([0.8, 0.3])
        params = MhdaParams(
            Tensor(rng.standard_normal((d, d))), Tensor(rng.standard_normal((d, d))),
            Tensor(rng.standard_normal((d, d))), Tensor(rng.standard_normal((d, d))),
            Tensor(lam), heads,
        )
        x = rng.standard_normal((3, d))
        got = attention_of(x, params)
        want = mhda_direct(normed(x), params.wq.data, params.wk.data, params.wv.data,
                           params.wo.data, lam, heads)
        assert np.abs(got - want).max() < 1e-10

    def test_map_rows_sum_to_one_and_one_minus_lambda(self):
        rng = np.random.default_rng(4)
        d, heads, lam = 8, 2, 0.8
        params = make_attn(rng, d, heads, lam_value=lam)
        _, maps = mhda_with_maps(Tensor(rng.standard_normal((6, d))), *identity_ln(d), params)
        for m1, m2 in maps:
            np.testing.assert_allclose(m1.data.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(m2.data.sum(axis=1), 1.0, atol=1e-12)
            diff = m1.data - lam * m2.data
            np.testing.assert_allclose(diff.sum(axis=1), 1.0 - lam, atol=1e-12)

    def test_shared_lambda_rejected(self):
        rng = np.random.default_rng(5)
        d, heads = 8, 2
        with pytest.raises(ShapeError, match="one entry per head"):
            MhdaParams(*(Tensor(rng.standard_normal((d, d))) for _ in range(4)),
                       Tensor(np.array([0.5])), heads)

    def test_value_width_must_split_into_heads(self):
        rng = np.random.default_rng(5)
        wq, wk, wv, wo = (Tensor(rng.standard_normal(s)) for s in [(8, 8), (8, 8), (8, 6), (6, 8)])
        with pytest.raises(ShapeError, match="value width 6 not divisible by heads=4"):
            MhdaParams(wq, wk, wv, wo, Tensor(np.ones(4)), 4)

    def test_token_width_must_match_wq_rows(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ShapeError, match=r"expected \(N, 8\) tokens"):
            mhda(Tensor(rng.standard_normal((4, 6))), *identity_ln(6), make_attn(rng, 8, 2))

    def test_gradients_of_every_input(self):
        rng = np.random.default_rng(20)
        d, heads, n = 12, 3, 5

        def t(*shape, scale=0.5):
            return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)

        x = t(n, d, scale=1.0)
        ln_g = Tensor(1.0 + rng.standard_normal(d) * 0.3, requires_grad=True)
        ln_b = t(d, scale=0.3)
        params = MhdaParams(t(d, d), t(d, d), t(d, d), t(d, d),
                            Tensor(rng.uniform(0.2, 0.9, heads), requires_grad=True), heads)
        w = rng.standard_normal((n, d))
        rows = check_loss_gradients(
            lambda: mhda(x, ln_g, ln_b, params),
            {"x": x, "ln.g": ln_g, "ln.b": ln_b, "wq": params.wq, "wk": params.wk,
             "wv": params.wv, "wo": params.wo, "lam": params.lam}, cotangent=w,
        )
        assert params.lam.grad.shape == (heads,)
        for row in rows:
            assert row.max_rel_err <= 1e-6, row

    def test_matches_oracle_at_model_width(self):
        rng = np.random.default_rng(21)
        d, heads = 96, 4
        lam = np.array([0.6, 0.2, 0.9, -0.3])
        params = MhdaParams(*(Tensor(rng.standard_normal((d, d)) * 0.1) for _ in range(4)),
                            Tensor(lam), heads)
        x = rng.standard_normal((N_TOKENS, d))
        got = attention_of(x, params)
        want = mhda_direct(normed(x), params.wq.data, params.wk.data, params.wv.data,
                           params.wo.data, lam, heads)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    PROJECTION = {"wq": "mhda query projection", "wk": "mhda key projection",
                  "wv": "mhda value projection"}

    @pytest.mark.parametrize("which", list(PROJECTION))
    def test_huge_projection_raises(self, which):
        rng = np.random.default_rng(22)
        params = make_attn(rng, 8, 2)
        getattr(params, which).data[...] = 1e308
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=self.PROJECTION[which]):
            mhda(Tensor(rng.standard_normal((4, 8))), *identity_ln(8), params)

    def test_overflowing_scores_raise(self):
        # gamma = 0 and beta = 1 make every normalized token the ones row, so every
        # q and k entry is 8 * 1.25e154 = 1e155: finite, but each q_i k_j term is inf
        rng = np.random.default_rng(23)
        params = make_attn(rng, 8, 2)
        params.wq.data[...] = params.wk.data[...] = 1.25e154
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="mhda attention scores"):
            mhda(Tensor(rng.standard_normal((4, 8))), Tensor(np.zeros(8)), Tensor(np.ones(8)), params)

    def test_maps_and_gate_are_a_rounding_change_from_the_row_max_softmax(self):
        # the tolerances sit at the worst cases measured: 7.8e-16 on the maps of 60
        # random default-width blocks (weights of std 0.05-0.3, score bounds up to
        # 475), 3 ulp on the gate over a 102,400-point sweep of -700..700
        d, heads = RunConfig().dim, RunConfig().heads
        for seed, w_scale in ((24, 0.1), (25, 0.3)):
            rng = np.random.default_rng(seed)
            params = MhdaParams(*(Tensor(rng.standard_normal((d, d)) * w_scale) for _ in range(4)),
                                Tensor(np.full(heads, 0.5)), heads)
            x = rng.standard_normal((N_TOKENS, d))
            assert score_bound(x, *identity_ln(d), params) <= EXP_BOUND
            _, maps = mhda_with_maps(Tensor(x), *identity_ln(d), params)
            got = np.array([[m1.data, m2.data] for m1, m2 in maps])
            # the kernel's own scores, through the row-max softmax with a division
            q, k = normed(x) @ params.wq.data, normed(x) @ params.wk.data
            qh = q.reshape(N_TOKENS, heads, 2, -1).transpose(1, 2, 0, 3)
            kh = k.reshape(N_TOKENS, heads, 2, -1).transpose(1, 2, 0, 3)
            scores = qh @ kh.swapaxes(-1, -2)
            scores *= 1.0 / math.sqrt(params.d_qk)
            np.testing.assert_allclose(got, softmax_rows(scores), rtol=0, atol=2.0**-50)
        a = np.linspace(-EXP_BOUND, EXP_BOUND, 4000)
        two_branch = a * (np.exp(np.minimum(a, 0.0)) / (1.0 + np.exp(-np.abs(a))))
        got = np.concatenate([gate_of(part) for part in np.split(a, 8)])
        assert np.all(np.abs(got - two_branch) <= 3 * np.spacing(np.abs(two_branch)))

    def test_width_validation(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ShapeError):
            MhdaParams(Tensor(rng.standard_normal((8, 6))), Tensor(rng.standard_normal((8, 6))),
                       Tensor(rng.standard_normal((8, 8))), Tensor(rng.standard_normal((8, 8))),
                       Tensor(np.ones(2)), heads=2)


class TestBlock:
    def test_zero_sublayer_weights_is_identity(self):
        d, heads = 8, 2
        zero = lambda shape: Tensor(np.zeros(shape))
        params = BlockParams(
            Tensor(np.ones(d)), zero(d),
            MhdaParams(zero((d, d)), zero((d, d)), zero((d, d)), zero((d, d)),
                       Tensor(np.full(heads, 0.8)), heads),
            Tensor(np.ones(d)), zero(d),
            zero((d, 2 * d)), zero((d, 2 * d)), zero((2 * d, d)),
        )
        x = np.random.default_rng(7).standard_normal((5, d))
        np.testing.assert_array_equal(denoise_block(Tensor(x), params).data, x)

    def test_output_shape_matches_input(self):
        rng = np.random.default_rng(8)
        d, heads = 8, 2
        params = BlockParams(
            Tensor(np.ones(d)), Tensor(np.zeros(d)), make_attn(rng, d, heads),
            Tensor(np.ones(d)), Tensor(np.zeros(d)),
            Tensor(rng.standard_normal((d, 16)) * 0.2), Tensor(rng.standard_normal((d, 16)) * 0.2),
            Tensor(rng.standard_normal((16, d)) * 0.2),
        )
        for n in (1, 4, 9):
            assert denoise_block(Tensor(rng.standard_normal((n, d))), params).shape == (n, d)

    def test_gradient_through_block(self):
        rng = np.random.default_rng(9)
        d, heads = 8, 2
        attn = make_attn(rng, d, heads, requires_grad=True)
        params = BlockParams(
            Tensor(np.ones(d), requires_grad=True), Tensor(np.zeros(d), requires_grad=True),
            attn,
            Tensor(np.ones(d), requires_grad=True), Tensor(np.zeros(d), requires_grad=True),
            Tensor(rng.standard_normal((d, 12)) * 0.3, requires_grad=True),
            Tensor(rng.standard_normal((d, 12)) * 0.3, requires_grad=True),
            Tensor(rng.standard_normal((12, d)) * 0.3, requires_grad=True),
        )
        x = Tensor(rng.standard_normal((4, d)), requires_grad=True)
        w = rng.standard_normal((4, d))
        rows = check_loss_gradients(
            lambda: denoise_block(x, params),
            {"x": x, "wq": attn.wq, "lam": attn.lam, "ln1.g": params.ln1_g,
             "ffn.w1": params.ffn_w1, "ffn.w3": params.ffn_w3}, cotangent=w,
        )
        assert max(r.max_rel_err for r in rows) < 1e-3


class TestSwishGlu:
    def test_zero_input(self):
        rng = np.random.default_rng(5)
        out = swish_glu(Tensor(np.zeros((2, 3))), *identity_ln(3),
                        Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4))),
                        Tensor(rng.standard_normal((4, 3))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_scalar_chain(self):
        # a one-wide row normalizes to 0, so n = beta = 1 and a = n @ w1 = 1
        one = Tensor([[1.0]])
        out = swish_glu(one, Tensor([1.0]), Tensor([1.0]), one, one, one)
        np.testing.assert_allclose(out.data, [[1.0 + 1.0 / (1.0 + np.exp(-1.0))]], atol=1e-12)

    def test_nan_next_to_a_tail_pre_activation_raises_without_overflow(self, monkeypatch):
        # a BLAS may sum opposite infinities of an overflowing n @ w1 into NaN; a
        # normalized row of NaN stands in for that. Row 1's pre-activation is
        # -800, whose e^-a overflows (an error under pytest) unless the NaN also
        # sends the gate down its tail branch
        ln_forward = attention_module._ln_forward

        def nan_row(x, gamma, beta):
            n, nhat, inv = ln_forward(x, gamma, beta)
            n[0] = np.nan
            return n, nhat, inv

        monkeypatch.setattr(attention_module, "_ln_forward", nan_row)
        with pytest.raises(NumericError, match="swish_glu"):
            swish_glu(Tensor(np.zeros((2, 1))), Tensor([0.0]), Tensor([1.0]),
                      Tensor([[-800.0]]), Tensor([[1.0]]), Tensor([[1.0]]))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        ln_g = Tensor(1.0 + 0.3 * rng.standard_normal(4), requires_grad=True)
        ln_b = Tensor(0.3 * rng.standard_normal(4), requires_grad=True)
        w1 = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        w2 = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        w3 = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        w = rng.standard_normal((2, 4))
        rows = check_loss_gradients(
            lambda: swish_glu(x, ln_g, ln_b, w1, w2, w3),
            {"x": x, "ln.g": ln_g, "ln.b": ln_b, "w1": w1, "w2": w2, "w3": w3}, cotangent=w,
        )
        assert max(r.max_rel_err for r in rows) < 1e-4


def random_block(rng, d, heads, lam=None, lam_grad=True, w_scale=0.5):
    """Block parameters at a generic point; every tensor a gradient leaf unless frozen."""
    def t(*shape, scale=w_scale, shift=0.0):
        return Tensor(shift + rng.standard_normal(shape) * scale, requires_grad=True)

    lam = rng.uniform(0.2, 0.9, heads) if lam is None else lam
    return BlockParams(
        t(d, scale=0.3, shift=1.0), t(d, scale=0.3),
        MhdaParams(t(d, d), t(d, d), t(d, d), t(d, d), Tensor(lam, requires_grad=lam_grad), heads),
        t(d, scale=0.3, shift=1.0), t(d, scale=0.3),
        t(d, 2 * d), t(d, 2 * d), t(2 * d, d),
    )


def attention_leaves(params):
    a = params.attn
    return {"ln1.g": params.ln1_g, "ln1.b": params.ln1_b, "wq": a.wq, "wk": a.wk, "wv": a.wv,
            "wo": a.wo, "lam": a.lam}


def ffn_leaves(params):
    return {"ln2.g": params.ln2_g, "ln2.b": params.ln2_b, "ffn.w1": params.ffn_w1,
            "ffn.w2": params.ffn_w2, "ffn.w3": params.ffn_w3}


def forward_and_grads(build, leaves, w):
    """The output of `build()` and the gradients of sum(w * output) at every leaf."""
    for p in leaves.values():
        p.zero_grad()
    out = build()
    out.backward(w)
    return out.data, {k: None if p.grad is None else p.grad.copy() for k, p in leaves.items()}


class TestFusedSublayersMatchChain:
    """The two fused nodes against the unfused chain: equal forward, gradients to 1e-12."""

    #: case -> rng seed
    SEEDS = {"per_head": 40, "frozen": 42, "constant_row": 43}
    CASES = list(SEEDS)

    @staticmethod
    def setup_case(case, d=12, heads=3, n=5):
        rng = np.random.default_rng(TestFusedSublayersMatchChain.SEEDS[case])
        if case == "frozen":
            # the no_ddl ablation: lambda fixed at zero and excluded from training
            params = random_block(rng, d, heads, lam=np.zeros(heads), lam_grad=False)
        else:
            params = random_block(rng, d, heads)
        x = rng.standard_normal((n, d))
        if case == "constant_row":
            x[2] = 0.7  # zero variance: LN output is beta, 1/std is 1/sqrt(eps)
        x = Tensor(x, requires_grad=True)
        return x, params, rng.standard_normal((n, d))

    def assert_match(self, fused, chain, leaves, w):
        got, got_grads = forward_and_grads(fused, leaves, w)
        want, want_grads = forward_and_grads(chain, leaves, w)
        np.testing.assert_array_equal(got, want)
        for name in leaves:
            if want_grads[name] is None:
                assert got_grads[name] is None, name
                continue
            err = np.linalg.norm(got_grads[name] - want_grads[name]) / np.linalg.norm(want_grads[name])
            assert err <= 1e-12, (name, err)

    @pytest.mark.parametrize("case", CASES)
    def test_attention_sublayer(self, case):
        x, p, w = self.setup_case(case)
        leaves = {"x": x, **attention_leaves(p)}
        self.assert_match(lambda: mhda(x, p.ln1_g, p.ln1_b, p.attn),
                          lambda: attention_sublayer_chain(x, p.ln1_g, p.ln1_b, p.attn), leaves, w)

    @pytest.mark.parametrize("case", ["per_head", "constant_row"])
    def test_ffn_sublayer(self, case):
        x, p, w = self.setup_case(case)
        args = (p.ln2_g, p.ln2_b, p.ffn_w1, p.ffn_w2, p.ffn_w3)
        self.assert_match(lambda: swish_glu(x, *args), lambda: ffn_sublayer_chain(x, *args),
                          {"x": x, **ffn_leaves(p)}, w)

    @pytest.mark.parametrize("case", CASES)
    def test_denoise_block(self, case):
        x, p, w = self.setup_case(case)
        leaves = {"x": x, **attention_leaves(p), **ffn_leaves(p)}
        self.assert_match(lambda: denoise_block(x, p), lambda: denoise_block_chain(x, p), leaves, w)
        if case == "frozen":
            assert p.attn.lam.grad is None

    def test_sigmoid_tails_match_chain(self):
        # y = 0 and gamma = 0 make n the ones row (beta = 1); w1 row 0 then puts
        # each tail value exactly into one gate preactivation, w2 makes
        # n @ w2 = 1 and w3 = I copies a * sigmoid(a) to the output unchanged
        tails = np.array([0.0, -0.0, 700.0, -700.0, 745.0, -745.0, 1e-300, -1e-300, 36.0, -36.0])
        d = tails.size
        w1, w2 = np.zeros((d, d)), np.zeros((d, d))
        w1[0], w2[0] = tails, 1.0
        y = Tensor(np.zeros((2, d)), requires_grad=True)
        args = (Tensor(np.zeros(d)), Tensor(np.ones(d)), Tensor(w1, requires_grad=True),
                Tensor(w2, requires_grad=True), Tensor(np.eye(d), requires_grad=True))
        self.assert_match(lambda: swish_glu(y, *args), lambda: ffn_sublayer_chain(y, *args),
                          {"x": y, "w1": args[2], "w2": args[3], "w3": args[4]},
                          np.random.default_rng(52).standard_normal((2, d)))
        assert swish_glu(y, *args).data[0, 5] < 0  # -745 * e^-745, not 0


class TestKernelsBitEqualToDirectArithmetic:
    """The fused nodes' plain-sum layer norm and in-place buffers against the same
    arithmetic through np.mean/np.var with a fresh array per step: every output
    bit and every cotangent, at the default model's dims."""

    @staticmethod
    def setup_case(lam_case):
        cfg = RunConfig()
        rng = np.random.default_rng(70)
        # lambda = 0 is the no_ddl value; kept a leaf so its cotangent is compared too
        lam = np.zeros(cfg.heads) if lam_case == "lambda_zero" else None
        # weights of std 0.1 keep the score rows away from one-hot saturation; std 1
        # puts the score bound over EXP_BOUND, so the softmax subtracts its row max
        w_scale = 1.0 if lam_case == "over_bound" else 0.1
        params = random_block(rng, cfg.dim, cfg.heads, lam=lam, w_scale=w_scale)
        x = Tensor(rng.standard_normal((N_TOKENS, cfg.dim)), requires_grad=True)
        return x, params, rng.standard_normal((N_TOKENS, cfg.dim))

    @staticmethod
    def assert_bit_equal(build, leaves, w, direct):
        got, grads = forward_and_grads(build, leaves, w)
        want, pullback = direct
        assert np.array_equal(got, want)
        for name, ref in zip(leaves, pullback(w), strict=True):
            assert np.array_equal(grads[name], ref), name

    @pytest.mark.parametrize("lam_case", ["learned", "lambda_zero", "over_bound"])
    def test_mhda(self, lam_case):
        x, p, w = self.setup_case(lam_case)
        bound = score_bound(x.data, p.ln1_g, p.ln1_b, p.attn)
        assert (bound > EXP_BOUND) == (lam_case == "over_bound"), bound
        leaves = {"x": x, **attention_leaves(p)}
        direct = mhda_sublayer_direct(*(t.data for t in leaves.values()), p.attn.heads)
        self.assert_bit_equal(lambda: mhda(x, p.ln1_g, p.ln1_b, p.attn), leaves, w, direct)

    def test_swish_glu(self):
        x, p, w = self.setup_case("learned")
        leaves = {"x": x, **ffn_leaves(p)}
        direct = swish_glu_direct(*(t.data for t in leaves.values()))
        self.assert_bit_equal(lambda: swish_glu(x, p.ln2_g, p.ln2_b, p.ffn_w1, p.ffn_w2, p.ffn_w3),
                              leaves, w, direct)

    #: gate pre-activations at the sigmoid's sign edge and deep in both exp tails
    SIGN_EDGE = (0.0, -0.0, 5e-324, -5e-324, 709.0, -709.0, 745.0, -745.0, 1e3, -1e3)

    @pytest.mark.parametrize("case", ["sign_edge", "random"])
    def test_swish_glu_sigmoid_per_element(self, case):
        # the kernel's 1/(1+e^-a), with e^a/(1+e^a) below -EXP_BOUND, against the
        # oracle's `gate_sigmoid`, which picks the branch with np.where
        rng = np.random.default_rng(71)
        d = 16
        ln_g, w1 = rng.standard_normal(d), rng.standard_normal((d, 2 * d)) * 3
        if case == "sign_edge":
            # gamma = 0 and beta = 1 make n the ones row, so a = n @ w1 sums w1's
            # columns: row 0 holds the edge values then random ones, the rest is 0
            ln_g[:], w1[1:] = 0.0, 0.0
            w1[0] = np.concatenate((self.SIGN_EDGE, rng.standard_normal(2 * d - 10) * 8))
        leaves = {name: Tensor(arr, requires_grad=True) for name, arr in (
            ("x", rng.standard_normal((8, d))), ("ln2.g", ln_g), ("ln2.b", np.ones(d)),
            ("ffn.w1", w1), ("ffn.w2", rng.standard_normal((d, 2 * d))),
            ("ffn.w3", rng.standard_normal((2 * d, d))))}
        direct = swish_glu_direct(*(t.data for t in leaves.values()))
        self.assert_bit_equal(lambda: swish_glu(*leaves.values()), leaves,
                              rng.standard_normal((8, d)), direct)
        if case == "sign_edge":
            # each gate element's bits depend on its own pre-activation alone: taking
            # the tail values out of the row leaves every other element's bits
            a = np.concatenate((self.SIGN_EDGE, rng.standard_normal(22) * 400))
            tail = a < -EXP_BOUND
            assert 0 < tail.sum() < a.size
            got = gate_of(a)
            assert np.array_equal(got, a * gate_sigmoid(a))
            assert np.array_equal(gate_of(np.where(tail, 0.0, a))[~tail], got[~tail])


class TestExpBound:
    """Each clip proves its exps safe on its own: a score bound sqrt(d) max|q| max|k|
    within EXP_BOUND lets its softmax skip the row-max shift, and a gate
    pre-activation a >= -EXP_BOUND takes 1/(1+e^-a). So a stack's clips keep their
    own bits, and the default model, at init and trained, takes neither fallback."""

    @staticmethod
    def record_fallbacks(monkeypatch):
        """Softmaxes that subtract their row max (they scan their scores for NaN/Inf)
        and the least pre-activation of every gate, to the end of the test."""
        seen = {"shifted": 0, "gate_min": []}
        check, glu = attention_module._check_finite, attention_module.swish_glu

        def counting(arr, what):
            seen["shifted"] += what == "mhda attention scores"
            check(arr, what)

        def recording(y, ln_g, ln_b, w1, w2, w3):
            seen["gate_min"].append((layer_norm(y, ln_g, ln_b).data @ w1.data).min())
            return glu(y, ln_g, ln_b, w1, w2, w3)

        monkeypatch.setattr(attention_module, "_check_finite", counting)
        monkeypatch.setattr(attention_module, "swish_glu", recording)
        return seen

    def test_mhda_stack_with_one_clip_over_the_bound(self, monkeypatch):
        cfg = RunConfig()
        rng = np.random.default_rng(90)
        params = MhdaParams(*(Tensor(rng.standard_normal((cfg.dim, cfg.dim)) * 0.1)
                              for _ in range(4)), Tensor(np.full(cfg.heads, 0.8)), cfg.heads)
        params.wq.data[0] *= 10
        params.wk.data[0] *= 10
        x = rng.standard_normal((2, N_TOKENS, cfg.dim))
        x[1, :, 0] += 300  # clip 1's normalized tokens are about sqrt(dim) in column 0
        ln = identity_ln(cfg.dim)
        assert score_bound(x[0], *ln, params) < EXP_BOUND < score_bound(x[1], *ln, params)
        seen = self.record_fallbacks(monkeypatch)
        with no_grad():
            stacked = mhda(Tensor(x), *ln, params).data
            for i in range(2):
                assert np.array_equal(stacked[i], mhda(Tensor(x[i]), *ln, params).data), i
        assert seen["shifted"] == 2  # clip 1, in the stack and alone

    def test_swish_glu_stack_with_one_clip_in_the_tail(self):
        rng = np.random.default_rng(91)
        d = 8
        w1 = rng.standard_normal((d, 2 * d))
        w1[0, 0] = -300.0
        y = rng.standard_normal((2, 5, d))
        y[1, 2, 0] += 50  # token 2 of clip 1 normalizes to about sqrt(d - 1) in column 0
        ln = identity_ln(d)
        with no_grad():
            least = [(layer_norm(Tensor(clip), *ln).data @ w1).min() for clip in y]
        assert least[0] >= -EXP_BOUND > least[1]
        args = (*ln, Tensor(w1), Tensor(rng.standard_normal((d, 2 * d))),
                Tensor(rng.standard_normal((2 * d, d))))
        with no_grad():
            stacked = swish_glu(Tensor(y), *args).data
            for i in range(2):
                assert np.array_equal(stacked[i], swish_glu(Tensor(y[i]), *args).data), i

    def assert_no_fallback(self, model, monkeypatch):
        clip = synth_clip(np.random.default_rng(80), Label.BOTH, (5.0, 10.0))
        spec = preprocess(AudioClip(clip, TARGET_RATE, Label.BOTH, "s")).values
        seen = self.record_fallbacks(monkeypatch)
        model.logits(spec)
        assert seen["shifted"] == 0
        assert len(seen["gate_min"]) == model.cfg.layers
        assert min(seen["gate_min"]) >= -EXP_BOUND

    def test_default_model_takes_no_fallback(self, monkeypatch):
        self.assert_no_fallback(Model(RunConfig()), monkeypatch)

    def test_golden_full_checkpoint_takes_no_fallback(self, monkeypatch, tmp_path):
        assert main(["train", *GOLDEN_RUN, "--out-dir", str(tmp_path)]) == 0
        model = model_from_checkpoint(load_checkpoint(str(tmp_path / "checkpoint.bin")))
        self.assert_no_fallback(model, monkeypatch)


class TestKernelMemory:
    """Peak traced heap at the default model's dims: `mhda` turns its scores into
    both softmax maps in one buffer and builds the differential map in a second."""

    @staticmethod
    def peak_kb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()

    def test_grad_mode_mhda_forward(self):
        model = Model(RunConfig())
        block = model.backbone_params().blocks[0]
        x = Tensor(np.random.default_rng(80).standard_normal((N_TOKENS, model.cfg.dim)),
                   requires_grad=True)
        assert self.peak_kb(lambda: mhda(x, block.ln1_g, block.ln1_b, block.attn)) <= 900

    def test_no_grad_predict(self):
        model = Model(RunConfig())
        spec = np.random.default_rng(81).standard_normal((249, 64)) - 5.0
        assert self.peak_kb(lambda: model.predict(spec)) <= 1300


@pytest.fixture
def node_counts(monkeypatch):
    """Tape nodes made, by label, from here to the end of the test."""
    counts = Counter()
    made = Tensor._from_op

    def counting(data, parents, backward_fn, what):
        counts[what] += 1
        return made(data, parents, backward_fn, what)

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(counting))
    return counts


class TestTapeBudget:
    def test_block_is_two_nodes(self, node_counts):
        rng = np.random.default_rng(60)
        denoise_block(Tensor(rng.standard_normal((4, 8)), requires_grad=True),
                      random_block(rng, 8, 2))
        assert node_counts == {"mhda": 1, "swish_glu": 1}

    def test_filter_is_one_node(self, node_counts):
        rng = np.random.default_rng(62)
        params = FilterParams(*(Tensor(rng.standard_normal(shape), requires_grad=True)
                                for shape in ((2, 4), (4,), (4, 1), (1,))))
        filter_forward(Tensor(rng.standard_normal((6, 8))), params)
        assert node_counts == {"filter_forward": 1}

    # at the default config: filter 1, patch embedding 1, 2 per block (4
    # blocks), final layer norm 1; the heads and the hybrid loss are 1 more
    # for a training sample and none for a prediction
    def test_default_model_predict_is_11_nodes(self, node_counts):
        cfg = RunConfig()
        model = Model(cfg, rng=seed_stream(0, "init"))
        model.predict(np.random.default_rng(61).standard_normal((249, 64)))
        assert sum(node_counts.values()) == 11, dict(node_counts)
        assert node_counts["filter_forward"] == node_counts["patch_embed"] == 1
        assert node_counts["mhda"] == node_counts["swish_glu"] == cfg.layers

    def test_default_model_sample_loss_is_12_nodes(self, node_counts):
        cfg = RunConfig()
        model = Model(cfg, rng=seed_stream(0, "init"))
        model.sample_loss(np.random.default_rng(61).standard_normal((249, 64)), 2)
        assert sum(node_counts.values()) == 12, dict(node_counts)
        assert node_counts["total_loss"] == 1


def make_backbone(rng, d, heads, layers, std=0.05):
    blocks = []
    for _ in range(layers):
        blocks.append(BlockParams(
            Tensor(np.ones(d)), Tensor(np.zeros(d)),
            MhdaParams(Tensor(rng.standard_normal((d, d)) * std),
                       Tensor(rng.standard_normal((d, d)) * std),
                       Tensor(rng.standard_normal((d, d)) * std),
                       Tensor(rng.standard_normal((d, d)) * std),
                       Tensor(np.full(heads, 0.8)), heads),
            Tensor(np.ones(d)), Tensor(np.zeros(d)),
            Tensor(rng.standard_normal((d, 2 * d)) * std),
            Tensor(rng.standard_normal((d, 2 * d)) * std),
            Tensor(rng.standard_normal((2 * d, d)) * std),
        ))
    return BackboneParams(
        Tensor(rng.standard_normal((PATCH_DIM, d)) * std), Tensor(np.zeros(d)),
        Tensor(rng.standard_normal((N_TOKENS, d)) * std),
        blocks, Tensor(np.ones(d)), Tensor(np.zeros(d)),
    )


class TestPatchEmbed:
    def test_output_shape(self):
        rng = np.random.default_rng(10)
        bb = make_backbone(rng, 96, 4, 0)
        out = patch_embed(Tensor(rng.standard_normal((249, 64))), bb)
        assert out.shape == (64, 96)

    def test_zero_input_zero_bias_gives_positions(self):
        rng = np.random.default_rng(11)
        bb = make_backbone(rng, 32, 4, 0)
        out = patch_embed(Tensor(np.zeros((249, 64))), bb)
        np.testing.assert_array_equal(out.data, bb.pos.data)

    def test_single_patch_locality(self):
        rng = np.random.default_rng(12)
        bb = make_backbone(rng, 32, 4, 0)
        a = rng.standard_normal((249, 64))
        b = a.copy()
        b[32:48, 16:32] += 1.0  # exactly patch (time block 2, freq block 1) -> token 9
        ta = patch_embed(Tensor(a), bb).data
        tb = patch_embed(Tensor(b), bb).data
        changed = np.where(np.abs(ta - tb).max(axis=1) > 0)[0]
        np.testing.assert_array_equal(changed, [2 * 4 + 1])

    def test_patch_gradient_scatters_back(self):
        rng = np.random.default_rng(13)
        bb = make_backbone(rng, 16, 2, 0)
        x = Tensor(rng.standard_normal((249, 64)), requires_grad=True)
        out = patch_embed(x, bb)
        out.backward(np.ones(out.shape))
        # gradient of sum over tokens: each grid cell contributes via its patch row
        assert x.grad.shape == (249, 64) and np.abs(x.grad).max() > 0

    @pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_constant"])
    def test_fused_node_bit_equal_to_oracle_chain(self, x_grad):
        rng = np.random.default_rng(18)
        x_data = rng.standard_normal((249, 64))
        w = rng.standard_normal((N_TOKENS, 96))
        arrays = (rng.standard_normal((PATCH_DIM, 96)), rng.standard_normal(96),
                  rng.standard_normal((N_TOKENS, 96)))
        fused_bb, chain_bb = (BackboneParams(*(Tensor(a, requires_grad=True) for a in arrays),
                                             [], None, None) for _ in range(2))
        fused_x, chain_x = (Tensor(x_data, requires_grad=x_grad) for _ in range(2))
        fused = patch_embed(fused_x, fused_bb)
        chain = patch_embed_chain(chain_x, chain_bb)
        assert np.array_equal(fused.data, chain.data)
        if not x_grad:
            assert fused._backward_fn(w)[0] is None
        fused.backward(w)
        chain.backward(w)
        for name in ("patch_w", "patch_b", "pos"):
            assert np.array_equal(getattr(fused_bb, name).grad, getattr(chain_bb, name).grad), name
        if x_grad:
            assert np.array_equal(fused_x.grad, chain_x.grad)
        else:
            assert fused_x.grad is None and chain_x.grad is None

    @pytest.mark.parametrize("shape", [(249, 63), (257, 64)])
    def test_misshaped_spectrogram_rejected(self, shape):
        with pytest.raises(ShapeError, match="expected a spectrogram of at most 256 x 64"):
            extract_patches(np.zeros(shape))

    def test_patchify_covers_grid_exactly_once(self):
        values = np.arange(249 * 64, dtype=np.float64).reshape(249, 64)
        patches = extract_patches(values)
        assert patches.shape == (N_TOKENS, PATCH_DIM)
        padded = np.zeros((256, 64))
        padded[:249] = values
        assert sorted(patches.reshape(-1)) == sorted(padded.reshape(-1))


class TestBackbone:
    @pytest.mark.parametrize("d,heads", [(32, 1), (32, 4), (96, 1), (96, 4)])
    @pytest.mark.parametrize("layers", [0, 1, 4])
    def test_shape_contract_matrix(self, d, heads, layers):
        rng = np.random.default_rng(14)
        bb = make_backbone(rng, d, heads, layers)
        out = backbone_forward(Tensor(rng.standard_normal((249, 64))), bb)
        assert out.shape == (N_TOKENS, d)

    def test_empty_stack_is_final_ln_of_patch_embed(self):
        rng = np.random.default_rng(15)
        bb = make_backbone(rng, 32, 4, 0)
        x = Tensor(rng.standard_normal((249, 64)))
        got = backbone_forward(x, bb).data
        want = layer_norm(patch_embed(x, bb), bb.final_g, bb.final_b).data
        np.testing.assert_array_equal(got, want)

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        bb = make_backbone(rng, 32, 4, 2)
        x = np.random.default_rng(17).standard_normal((249, 64))
        out1 = backbone_forward(Tensor(x), bb).data
        out2 = backbone_forward(Tensor(x), bb).data
        np.testing.assert_array_equal(out1, out2)
