"""The adaptive frequency filter on a noisy toy spectrogram.

Shows the modulation-spectrum path: a real 2-D DFT onto the half
spectrum, an instance-adaptive even mask with soft shrink, and the real
inverse, all in one tape node. A hand-rigged mask demonstrates the
identity limit; a random mask net shows sparsity growing with the shrink
threshold, read off the output's own half spectrum.

Run:  python demos/02_frequency_filter.py
"""

import numpy as np

from respden.freq_filter import FilterParams, filter_forward
from respden.tensor import Tensor

rng = np.random.default_rng(7)

# toy "spectrogram": smooth ridges plus broadband noise
t = np.arange(48)[:, None] / 48
f = np.arange(32)[None, :] / 32
clean = np.sin(2 * np.pi * 3 * t) * np.exp(-((f - 0.4) ** 2) / 0.02)
noisy = clean + 0.5 * rng.standard_normal(clean.shape)

x = Tensor(noisy)

# identity limit: rigged constant mask 1 + alpha shrinks to exactly 1
alpha = 0.02
identity = FilterParams(Tensor(np.zeros((2, 4))), Tensor(np.zeros(4)),
                        Tensor(np.zeros((4, 1))), Tensor(np.full(1, 1.0 + alpha)), alpha)
out = filter_forward(x, identity)
print("identity-mask max deviation:", np.abs(out.data - noisy).max())

# a random instance-adaptive mask net
params = FilterParams(Tensor(rng.standard_normal((2, 8)) * 0.3), Tensor(np.full(8, 0.1)),
                      Tensor(rng.standard_normal((8, 1)) * 0.3), Tensor(np.ones(1)), alpha)
filtered = filter_forward(x, params)
print("filtered energy / input energy:",
      float((filtered.data ** 2).sum() / (noisy ** 2).sum()))

# sparsity as the shrink threshold grows: a bin the shrink zeroes is zero
# in the output's half spectrum too
bins = np.abs(np.fft.rfft2(noisy))
for a in (0.0, 0.1, 0.5, 2.0):
    y = filter_forward(x, FilterParams(params.w1, params.b1, params.w2, params.b2, a))
    zeros = int((np.abs(np.fft.rfft2(y.data)) <= 1e-9 * bins.max()).sum())
    print(f"alpha={a:4.1f}: {zeros:4d}/{bins.size} half-spectrum bins zeroed, "
          f"output rms {float(np.sqrt((y.data**2).mean())):.4f}")
