"""Differential attention, blocks, patch embedding, backbone contracts."""

import numpy as np
import pytest

from respden.attention import (
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
)
from respden.errors import NumericError, ShapeError
from respden.gradcheck import check_loss_gradients
from respden.tensor import Tensor, layer_norm, matmul, mul, softmax, total_sum

from oracles import mhda_direct, softmax_rows


def make_attn(rng, d, heads, lam_value=0.8, requires_grad=False):
    def t(shape):
        return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)

    return MhdaParams(t((d, d)), t((d, d)), t((d, d)), t((d, d)),
                      Tensor(np.full(heads, lam_value), requires_grad=requires_grad), heads)


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
        got = mhda(Tensor(x), params).data
        want = standard_attention(x, params.wq.data, params.wk.data, params.wv.data,
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
        out = mhda(Tensor(rng.standard_normal((4, d))), params).data
        np.testing.assert_array_equal(out, np.zeros((4, d)))

    def test_single_token_output_is_one_minus_lambda_times_v(self):
        rng = np.random.default_rng(2)
        d, heads, lam = 8, 2, 0.37
        params = make_attn(rng, d, heads, lam_value=lam)
        x = rng.standard_normal((1, d))
        got = mhda(Tensor(x), params).data
        v = x @ params.wv.data
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
        got = mhda(Tensor(x), params).data
        want = mhda_direct(x, params.wq.data, params.wk.data, params.wv.data,
                           params.wo.data, lam, heads)
        assert np.abs(got - want).max() < 1e-10

    def test_map_rows_sum_to_one_and_one_minus_lambda(self):
        rng = np.random.default_rng(4)
        d, heads, lam = 8, 2, 0.8
        params = make_attn(rng, d, heads, lam_value=lam)
        _, maps = mhda_with_maps(Tensor(rng.standard_normal((6, d))), params)
        for m1, m2 in maps:
            np.testing.assert_allclose(m1.data.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(m2.data.sum(axis=1), 1.0, atol=1e-12)
            diff = m1.data - lam * m2.data
            np.testing.assert_allclose(diff.sum(axis=1), 1.0 - lam, atol=1e-12)

    def test_shared_lambda_accepted(self):
        rng = np.random.default_rng(5)
        d, heads = 8, 2
        params = MhdaParams(Tensor(rng.standard_normal((d, d))), Tensor(rng.standard_normal((d, d))),
                            Tensor(rng.standard_normal((d, d))), Tensor(rng.standard_normal((d, d))),
                            Tensor(np.array([0.5])), heads)
        assert mhda(Tensor(rng.standard_normal((3, d))), params).shape == (3, d)

    @pytest.mark.parametrize("lam_entries", [1, 3], ids=["shared", "per_head"])
    def test_gradients_of_every_input(self, lam_entries):
        rng = np.random.default_rng(20)
        d, heads, n = 12, 3, 5

        def t(*shape, scale=0.5):
            return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)

        x = t(n, d, scale=1.0)
        params = MhdaParams(t(d, d), t(d, d), t(d, d), t(d, d),
                            Tensor(rng.uniform(0.2, 0.9, lam_entries), requires_grad=True), heads)
        w = Tensor(rng.standard_normal((n, d)))
        rows = check_loss_gradients(
            lambda: total_sum(mul(w, mhda(x, params))),
            {"x": x, "wq": params.wq, "wk": params.wk, "wv": params.wv, "wo": params.wo,
             "lam": params.lam},
        )
        assert params.lam.grad.shape == (lam_entries,)
        for row in rows:
            assert row.max_rel_err <= 1e-6, row

    def test_matches_oracle_at_model_width_with_shared_lambda(self):
        rng = np.random.default_rng(21)
        d, heads = 96, 4
        params = MhdaParams(*(Tensor(rng.standard_normal((d, d)) * 0.1) for _ in range(4)),
                            Tensor(np.array([0.6])), heads)
        x = rng.standard_normal((N_TOKENS, d))
        got = mhda(Tensor(x), params).data
        want = mhda_direct(x, params.wq.data, params.wk.data, params.wv.data,
                           params.wo.data, np.full(heads, 0.6), heads)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("which", ["wq", "wk", "wv"])
    def test_huge_projection_raises(self, which):
        rng = np.random.default_rng(22)
        params = make_attn(rng, 8, 2)
        getattr(params, which).data[...] = 1e308
        with pytest.raises(NumericError):
            mhda(Tensor(rng.standard_normal((4, 8))), params)

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
        w = Tensor(rng.standard_normal((4, d)))
        rows = check_loss_gradients(
            lambda: total_sum(mul(w, denoise_block(x, params))),
            {"x": x, "wq": attn.wq, "lam": attn.lam, "ln1.g": params.ln1_g,
             "ffn.w1": params.ffn_w1, "ffn.w3": params.ffn_w3},
        )
        assert max(r.max_rel_err for r in rows) < 1e-3


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
        total_sum(patch_embed(x, bb)).backward()
        # gradient of sum over tokens: each grid cell contributes via its patch row
        assert x.grad.shape == (249, 64) and np.abs(x.grad).max() > 0

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
