"""Autodiff core: forward values, gradient contracts, error handling.

The generic `matmul` node lives in `tests/oracles.py` (only the unfused
oracle chains use it); its contract is still checked here."""

import numpy as np
import pytest

from respden.errors import NumericError, ShapeError
from respden.gradcheck import OP_TOL, check_loss_gradients
from respden.tensor import LN_EPS, Tensor, layer_norm, mul, no_grad, soft_shrink, total_sum

from oracles import layer_norm_direct, matmul, naive_matmul


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
        total_sum(mul(Tensor(w), matmul(a, b))).backward()
        np.testing.assert_allclose(a.grad, w @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ w, atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        w = Tensor(np.random.default_rng(7).standard_normal((3, 2)))
        rows = check_loss_gradients(lambda: total_sum(mul(w, matmul(a, b))), {"A": a, "B": b})
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
        w = Tensor(rng.standard_normal((2, 5)))
        rows = check_loss_gradients(
            lambda: total_sum(mul(w, layer_norm(x, g, b))), {"x": x, "gamma": g, "beta": b}
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
        total_sum(mul(Tensor(w), out)).backward()
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
        total_sum(soft_shrink(x, 0.02)).backward()
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            soft_shrink(Tensor([1.0]), -0.1)


class TestBackward:
    def test_linear_case_grad_is_ones(self):
        w = Tensor(np.random.default_rng(9).standard_normal((3, 4)), requires_grad=True)
        total_sum(w).backward()
        np.testing.assert_array_equal(w.grad, np.ones((3, 4)))

    def test_quadratic_case_grad_is_2w(self):
        w = Tensor(np.random.default_rng(10).standard_normal((2, 5)), requires_grad=True)
        total_sum(mul(w, w)).backward()
        np.testing.assert_allclose(w.grad, 2 * w.data, atol=1e-12)

    def test_accumulation_across_multiple_uses(self):
        x = Tensor([2.0], requires_grad=True)
        total_sum(x + x).backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            (x + x).backward()

    def test_unreachable_parameter_keeps_zero_grad(self):
        used = Tensor([1.0, 2.0], requires_grad=True)
        unused = Tensor([3.0], requires_grad=True)
        total_sum(used).backward()
        np.testing.assert_array_equal(unused.grad, [0.0])

    def test_mul_skips_the_pullback_of_a_constant(self):
        a = Tensor([2.0, 3.0])
        b = Tensor([5.0, 7.0], requires_grad=True)
        d_a, d_b = mul(a, b)._backward_fn(np.ones(2))
        assert d_a is None
        np.testing.assert_array_equal(d_b, [2.0, 3.0])

    def test_tape_is_freed(self):
        x = Tensor([1.0], requires_grad=True)
        y = x + x
        total_sum(y).backward()
        assert y._parents == () and y._backward_fn is None


class TestFiniteGuard:
    def test_non_finite_construction_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.inf])
        with pytest.raises(NumericError):
            Tensor([np.nan])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_op_raises_instead_of_propagating(self):
        x = Tensor([1e308])
        with pytest.raises(NumericError):
            x + x

    def test_finite_inputs_produce_finite_outputs(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((3, 3)) * 50)
        ln = layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        for out in (matmul(x, x), mul(x, x), ln, soft_shrink(x, 0.1), total_sum(x)):
            assert np.isfinite(out.data).all()


class TestBroadcastAndModes:
    def test_bias_add_gradient_shapes(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        total_sum(x + b).backward()
        assert x.grad.shape == (3, 4) and b.grad.shape == (4,)
        np.testing.assert_array_equal(b.grad, 3 * np.ones(4))

    def test_scalar_times_matrix(self):
        s = Tensor(np.asarray(2.0), requires_grad=True)
        m = Tensor(np.ones((2, 2)))
        total_sum(mul(s, m)).backward()
        np.testing.assert_allclose(s.grad, 4.0)

    def test_no_grad_builds_no_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x + x
        assert not y.requires_grad and y._backward_fn is None
