"""Differentiable 2-D discrete Fourier transform on real spectrograms.

A complex T x F spectrum is carried as one real (2, T, F) tensor, the
real part stacked on the imaginary part, so the autodiff graph stays
purely real and each transform is a single tape node. Convention: the
forward transform is the plain double sum with negative exponent and no
normalization; the inverse carries the 1/(T*F) factor. The FFT kernel
(pocketfft) is mixed-radix with a Bluestein fallback, so arbitrary T x F
extents from the mel pipeline are transformed exactly, without padding.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError
from .tensor import Tensor

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
