"""Autodiff core: forward values, gradient contracts, error handling.

The generic `add`, `mul` and `matmul` nodes and the filter chain's
`soft_shrink` and `scale_complex` nodes live in `tests/oracles.py` (only
the unfused oracle chains use them); their contracts are still checked
here."""

import numpy as np
import pytest

from respden.errors import NumericError, ShapeError
from respden.gradcheck import OP_TOL, check_loss_gradients
from respden.tensor import LN_EPS, Tensor, layer_norm, no_grad

from oracles import (
    add, layer_norm_direct, matmul, mul, naive_matmul, scale_complex, soft_shrink,
)


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        m = Tensor([[2.0, 3.0], [4.0, 5.0]])
        np.testing.assert_array_equal(matmul(eye, m).data, m.data)

    def test_inner_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, naive_matmul(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))

    def test_gradient_contract(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        w = rng.standard_normal((3, 2))
        matmul(a, b).backward(w)
        np.testing.assert_allclose(a.grad, w @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ w, atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        w = np.random.default_rng(7).standard_normal((3, 2))
        rows = check_loss_gradients(lambda: matmul(a, b), {"A": a, "B": b}, cotangent=w)
        assert max(r.max_rel_err for r in rows) < OP_TOL


class TestLayerNorm:
    def test_constant_row_collapses_to_beta(self):
        out = layer_norm(Tensor([[3.0, 3.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized_row(self):
        # unit variance: the variance floor alone scales the row
        out = layer_norm(Tensor([[-1.0, 1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        inv = 1.0 / np.sqrt(1.0 + LN_EPS)
        assert LN_EPS == 1e-5
        np.testing.assert_array_equal(out.data, [[-inv, inv]])

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        g = Tensor(rng.standard_normal(5), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        w = rng.standard_normal((2, 5))
        rows = check_loss_gradients(
            lambda: layer_norm(x, g, b), {"x": x, "gamma": g, "beta": b}, cotangent=w
        )
        assert max(r.max_rel_err for r in rows) < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 5))), Tensor(np.ones(4)), Tensor(np.zeros(5)))

    @pytest.mark.parametrize("shape", [(64, 96), (1, 96), (3, 64, 96)])
    def test_bit_equal_to_mean_var_oracle(self, shape):
        rng = np.random.default_rng(len(shape) + shape[0])
        x = Tensor(3.0 + 2.0 * rng.standard_normal(shape), requires_grad=True)
        g = Tensor(1.0 + 0.3 * rng.standard_normal(shape[-1]), requires_grad=True)
        b = Tensor(0.3 * rng.standard_normal(shape[-1]), requires_grad=True)
        w = rng.standard_normal(shape)
        out = layer_norm(x, g, b)
        out.backward(w)
        want, pullback = layer_norm_direct(x.data, g.data, b.data)
        assert np.array_equal(out.data, want)
        for name, got, ref in zip(("x", "gamma", "beta"), (x.grad, g.grad, b.grad), pullback(w)):
            assert np.array_equal(got, ref), name


class TestSoftShrink:
    def test_above_threshold(self):
        np.testing.assert_allclose(soft_shrink(Tensor([0.05]), 0.02).data, [0.03], atol=1e-15)

    def test_dead_zone(self):
        assert soft_shrink(Tensor([-0.01]), 0.02).data[0] == 0.0

    def test_zero_alpha_identity(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(20)
        np.testing.assert_array_equal(soft_shrink(Tensor(x), 0.0).data, x)

    def test_dead_zone_exactness_and_outside_magnitude(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(200)
        alpha = 0.5
        out = soft_shrink(Tensor(x), alpha).data
        inside = np.abs(x) <= alpha
        assert (out[inside] == 0.0).all()
        np.testing.assert_allclose(np.abs(out[~inside]), np.abs(x[~inside]) - alpha, atol=1e-15)

    def test_boundary_belongs_to_dead_zone(self):
        out = soft_shrink(Tensor([0.02, -0.02]), 0.02)
        np.testing.assert_array_equal(out.data, [0.0, 0.0])
        x = Tensor([0.02], requires_grad=True)
        soft_shrink(x, 0.02).backward()
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            soft_shrink(Tensor([1.0]), -0.1)

    def test_gradient_vs_finite_differences(self):
        # the probe of the soft_shrink row that `respden gradcheck` ran at seed 0:
        # its generator had drawn 1902 values for the rows before it. Entries
        # within 0.05 of the |x| = alpha kink move away (the step is 1e-3).
        rng = np.random.default_rng(0)
        rng.standard_normal(1902)
        raw = rng.standard_normal((3, 4))
        x = Tensor(np.where(np.abs(np.abs(raw) - 0.5) < 0.05, raw + 0.2, raw), requires_grad=True)
        w = np.random.default_rng(12).standard_normal((3, 4))
        rows = check_loss_gradients(lambda: soft_shrink(x, 0.5), {"x": x}, cotangent=w)
        assert rows[0].max_rel_err < OP_TOL




class TestBackward:
    def test_linear_case_grad_is_ones(self):
        # soft_shrink at alpha 0 is the identity away from 0: d sum(w) / dw
        w = Tensor(np.random.default_rng(9).standard_normal((3, 4)), requires_grad=True)
        soft_shrink(w, 0.0).backward(np.ones((3, 4)))
        np.testing.assert_array_equal(w.grad, np.ones((3, 4)))

    def test_quadratic_case_grad_is_2w(self):
        w = Tensor(np.random.default_rng(10).standard_normal((2, 5)), requires_grad=True)
        mul(w, w).backward(np.ones((2, 5)))
        np.testing.assert_allclose(w.grad, 2 * w.data, atol=1e-12)

    def test_accumulation_across_multiple_uses(self):
        # g is both gamma and beta of one node, then a leaf of a second graph
        x = Tensor([[1.0, -2.0, 4.0]])
        w = np.array([[1.0, 2.0, 3.0]])
        gamma = Tensor([2.0, 3.0, 5.0], requires_grad=True)
        beta = Tensor(gamma.data.copy(), requires_grad=True)
        layer_norm(x, gamma, beta).backward(w)
        g = Tensor(gamma.data.copy(), requires_grad=True)
        layer_norm(x, g, g).backward(w)
        np.testing.assert_array_equal(g.grad, gamma.grad + beta.grad)
        layer_norm(x, g, g).backward(w)
        np.testing.assert_array_equal(g.grad, 2 * (gamma.grad + beta.grad))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            soft_shrink(x, 0.0).backward()

    def test_item_of_non_scalar_rejected(self):
        with pytest.raises(ShapeError, match="single-element"):
            Tensor([1.0, 2.0]).item()

    def test_backward_of_a_constant_is_a_no_op(self):
        x = Tensor([3.0])
        x.backward()
        assert x.grad is None and x._backward_fn is None

    def test_unreachable_parameter_keeps_zero_grad(self):
        used = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([3.0], requires_grad=True)
        soft_shrink(used, 0.0).backward(np.ones(2))
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_mul_skips_the_pullback_of_a_constant(self):
        a = Tensor([2.0, 3.0])
        b = Tensor([5.0, 7.0], requires_grad=True)
        d_a, d_b = mul(a, b)._backward_fn(np.ones(2))
        assert d_a is None
        np.testing.assert_array_equal(d_b, [2.0, 3.0])

    def test_tape_is_freed(self):
        x = Tensor([1.0, -1.0], requires_grad=True)
        y = soft_shrink(x, 0.5)
        z = soft_shrink(y, 0.1)
        z.backward(np.ones(2))
        for node in (y, z):
            assert node._parents == () and node._backward_fn is None and node.grad is None


class TestReleasedGradient:
    """A leaf whose gradient was released (`grad = None`) owns a copy of its next cotangent."""

    def test_first_cotangent_is_owned_and_the_next_adds_into_it(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)  # no zeros: shrink at 0 passes g
        w1, w2 = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        x.grad = None
        soft_shrink(x, 0.0).backward(w1)
        first = x.grad
        assert first.flags.writeable and first.flags.owndata
        assert first.tobytes() == w1.tobytes()
        soft_shrink(x, 0.0).backward(w2)
        assert x.grad is first
        assert first.tobytes() == (w1 + w2).tobytes()

    def test_seeded_leaf_gets_a_copy_of_its_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        seed = np.array([0.5, 0.25])
        x.grad = None
        x.backward(seed)
        assert x.grad.flags.writeable and not np.shares_memory(x.grad, seed)
        np.testing.assert_array_equal(x.grad, seed)
        x.backward(seed)
        np.testing.assert_array_equal(x.grad, [1.0, 0.5])


class TestSeededBackward:
    """`backward(seed)`: the seed is the output's cotangent, of exactly its shape."""

    @pytest.mark.parametrize("out_shape,seed_shape",
                             [((2, 3), (3,)), ((2, 3), (1, 3)), ((2, 3), (3, 2)),
                              ((2, 3), (2, 3, 1)), ((2, 3), ()), ((), (1,))],
                             ids=["row", "broadcastable", "transposed", "extra-axis", "scalar",
                                  "scalar-loss"])
    def test_seed_of_wrong_shape_raises(self, out_shape, seed_shape):
        x = Tensor(np.ones(out_shape), requires_grad=True)
        with pytest.raises(ShapeError, match=r"seed of shape"):
            soft_shrink(x, 0.0).backward(np.ones(seed_shape))
        assert not x.grad.any()

    def test_seed_matches_an_explicit_product_node(self):
        # backward(w) hands the output what mul(w, out).backward(ones) hands it
        rng = np.random.default_rng(12)
        x_data, w = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        grads = []
        for seeded in (True, False):
            x = Tensor(x_data, requires_grad=True)
            out = layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
            if seeded:
                out.backward(w)
            else:
                mul(Tensor(w), out).backward(np.ones((3, 4)))
            grads.append(x.grad)
        assert np.array_equal(*grads)

    def test_leaf_accumulates_its_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        seed = np.array([0.5, 0.25])
        x.backward(seed)
        x.backward(seed)
        np.testing.assert_array_equal(x.grad, [1.0, 0.5])

    def test_seed_is_not_aliased(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        seed = np.array([0.5, 0.25])
        x.backward(seed)
        x.grad += 1.0
        np.testing.assert_array_equal(seed, [0.5, 0.25])


class TestFiniteGuard:
    def test_non_finite_construction_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.inf])
        with pytest.raises(NumericError):
            Tensor([np.nan])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_op_raises_instead_of_propagating(self):
        spectrum = Tensor(np.full((2, 1, 2), 1e308))
        with pytest.raises(NumericError, match="scale_complex"):
            scale_complex(spectrum, Tensor([[10.0, 1.0]]))

    def test_finite_inputs_produce_finite_outputs(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((3, 3)) * 50)
        ln = layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        for out in (matmul(x, x), mul(x, x), ln, soft_shrink(x, 0.1)):
            assert np.isfinite(out.data).all()


class TestBroadcastAndModes:
    def test_bias_add_gradient_shapes(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        add(x, b).backward(np.ones((3, 4)))
        assert x.grad.shape == (3, 4) and b.grad.shape == (4,)
        np.testing.assert_array_equal(b.grad, 3 * np.ones(4))

    def test_scalar_times_matrix(self):
        s = Tensor(np.asarray(2.0), requires_grad=True)
        m = Tensor(np.ones((2, 2)))
        mul(s, m).backward(np.ones((2, 2)))
        np.testing.assert_allclose(s.grad, 4.0)

    def test_no_grad_builds_no_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = soft_shrink(x, 0.0)
        assert not y.requires_grad and y._backward_fn is None
