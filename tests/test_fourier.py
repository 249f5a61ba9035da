"""The filter chain's 2-D DFT nodes (in `tests/oracles.py`): convention, agreement
with the direct double sums, roundtrips, gradients."""

import numpy as np
import pytest

from respden.errors import NumericError, ShapeError
from respden.gradcheck import OP_TOL, check_loss_gradients
from respden.tensor import Tensor

from oracles import dft2_direct, fft2, idft2_direct, ifft2, mul, scale_complex


def to_complex(spec: Tensor) -> np.ndarray:
    return spec.data[0] + 1j * spec.data[1]


class TestForwardTransform:
    def test_constant_input_is_dc_only(self):
        c = 2.5
        spec = fft2(Tensor(np.full((5, 7), c)))
        assert spec.shape == (2, 5, 7)
        assert abs(spec.data[0, 0, 0] - c * 5 * 7) < 1e-9
        rest = np.abs(to_complex(spec))
        rest[0, 0] = 0.0
        assert rest.max() < 1e-9

    def test_matches_quadruple_loop_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4))
        got = to_complex(fft2(Tensor(x)))
        np.testing.assert_allclose(got, dft2_direct(x), atol=1e-9)

    def test_oracle_agreement_up_to_8x8(self):
        rng = np.random.default_rng(1)
        for shape in ((3, 5), (8, 8), (7, 2)):
            x = rng.standard_normal(shape)
            np.testing.assert_allclose(to_complex(fft2(Tensor(x))), dft2_direct(x), atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 8))
        spec = to_complex(fft2(Tensor(x)))
        lhs = np.sum(x**2)
        rhs = np.sum(np.abs(spec) ** 2) / x.size
        assert abs(lhs - rhs) / abs(lhs) < 1e-9

    def test_requires_2d(self):
        with pytest.raises(ShapeError):
            fft2(Tensor(np.zeros(4)))


class TestInverseTransform:
    def test_roundtrip_6x5(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 5))
        back = ifft2(fft2(Tensor(x)))
        assert np.abs(back.data - x).max() < 1e-9

    def test_roundtrip_sizes_up_to_64(self):
        rng = np.random.default_rng(4)
        for shape in ((1, 1), (2, 3), (17, 13), (64, 64), (249, 64)):
            x = rng.standard_normal(shape)
            back = ifft2(fft2(Tensor(x)))
            assert np.abs(back.data - x).max() < 1e-9

    def test_zero_spectrum_gives_zero_signal(self):
        zeros = Tensor(np.zeros((2, 4, 4)))
        np.testing.assert_array_equal(ifft2(zeros).data, 0.0)

    def test_non_hermitian_spectrum_rejected(self):
        spec = np.zeros((2, 4, 4))
        spec[1, 1, 1] = 1.0  # no conjugate partner -> complex inverse
        with pytest.raises(NumericError, match="imaginary residue"):
            ifft2(Tensor(spec))

    def test_inverse_matches_direct_inverse_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 5))
        spec = np.fft.fft2(x)
        np.testing.assert_allclose(idft2_direct(spec).real, x, atol=1e-9)

    def test_non_stacked_spectrum_rejected(self):
        for shape in ((4, 4), (3, 4, 4), (1, 4, 4), (2, 4), (2, 2, 4, 4)):
            with pytest.raises(ShapeError, match=r"\(2, T, F\)"):
                ifft2(Tensor(np.zeros(shape)))


class TestGradients:
    def test_masked_chain_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        t_n, f_n = 4, 5
        x = Tensor(rng.standard_normal((t_n, f_n)), requires_grad=True)
        raw = rng.standard_normal((t_n, f_n))
        sym = 0.5 * (raw + raw[np.ix_((-np.arange(t_n)) % t_n, (-np.arange(f_n)) % f_n)])
        mask = Tensor(sym)
        weights = rng.standard_normal((t_n, f_n))
        rows = check_loss_gradients(lambda: ifft2(scale_complex(fft2(x), mask)), {"x": x},
                                    cotangent=weights)
        assert rows[0].max_rel_err < 1e-4

    def test_gradcheck_row_probe_vs_finite_differences(self):
        # the probe of the fourier_chain row that `respden gradcheck` ran at seed 0:
        # its generator had drawn 1914 values for the rows before it
        rng = np.random.default_rng(0)
        rng.standard_normal(1914)
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        raw = rng.standard_normal((4, 5))
        mask = Tensor(0.5 * (raw + raw[np.ix_((-np.arange(4)) % 4, (-np.arange(5)) % 5)]))
        weights = np.random.default_rng(13).standard_normal((4, 5))
        rows = check_loss_gradients(lambda: ifft2(scale_complex(fft2(x), mask)), {"x": x},
                                    cotangent=weights)
        assert rows[0].max_rel_err < OP_TOL

    def test_spectrum_gradient_adjoint(self):
        # loss = sum(w[0] * re) + sum(w[1] * im); the pullback is linear
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        weights = rng.standard_normal((2, 3, 4))
        rows = check_loss_gradients(lambda: fft2(x), {"x": x}, cotangent=weights)
        assert rows[0].max_rel_err < 1e-4


class TestScaleComplex:
    """The one-node mask product against the broadcasting `mul` node it replaced."""

    @pytest.mark.parametrize("grads", [(True, True), (False, True), (True, False)],
                             ids=["both", "data_spectrum", "constant_mask"])
    def test_bit_equal_to_broadcast_mul(self, grads):
        rng = np.random.default_rng(8)
        spec_data, mask_data = rng.standard_normal((2, 5, 7)), rng.standard_normal((5, 7))
        g = rng.standard_normal((2, 5, 7))
        results = []
        for op in (scale_complex, lambda sp, m: mul(m, sp)):
            spec = Tensor(spec_data, requires_grad=grads[0])
            mask = Tensor(mask_data, requires_grad=grads[1])
            out = op(spec, mask)
            pulled = out._backward_fn(g)
            out.backward(g)
            results.append((out.data, spec.grad, mask.grad, [p is None for p in pulled]))
        (out, d_spec, d_mask, skipped), (want, want_spec, want_mask, want_skipped) = results
        assert np.array_equal(out, want)
        assert skipped == want_skipped
        for got, ref in ((d_spec, want_spec), (d_mask, want_mask)):
            assert (got is None and ref is None) or np.array_equal(got, ref)
