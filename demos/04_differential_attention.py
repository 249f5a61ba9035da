"""Differential attention in isolation: cancellation and map structure.

`mhda` is the whole attention sublayer, x + attention(LN(x)), so the
attention output itself is `out - x`.

Run:  python demos/04_differential_attention.py
"""

import numpy as np

from respden.attention import MhdaParams, mhda, mhda_with_maps
from respden.tensor import Tensor

rng = np.random.default_rng(3)
d, heads, n = 16, 2, 6

params = MhdaParams(
    Tensor(rng.standard_normal((d, d)) * 0.5), Tensor(rng.standard_normal((d, d)) * 0.5),
    Tensor(rng.standard_normal((d, d)) * 0.5), Tensor(rng.standard_normal((d, d)) * 0.5),
    Tensor(np.full(heads, 0.8)), heads,
)
# identity layer-norm affine
ln_g, ln_b = Tensor(np.ones(d)), Tensor(np.zeros(d))
x = Tensor(rng.standard_normal((n, d)))

out, maps = mhda_with_maps(x, ln_g, ln_b, params)
print("output shape:", out.shape)
for i, (m1, m2) in enumerate(maps):
    diff = m1.data - 0.8 * m2.data
    print(f"head {i}: map rows sum to {m1.data.sum(axis=1)[0]:.6f}, "
          f"differential rows sum to {diff.sum(axis=1)[0]:.6f} (= 1 - lambda)")

# lambda = 0 reduces to a single softmax map
params0 = MhdaParams(params.wq, params.wk, params.wv, params.wo,
                     Tensor(np.zeros(heads)), heads)
out0 = mhda(x, ln_g, ln_b, params0)
print("lambda=0 output equals first-map attention: rows sum check",
      np.allclose(mhda_with_maps(x, ln_g, ln_b, params0)[1][0][0].data.sum(axis=1), 1.0))

# the noise-suppression intuition: shared (common-mode) attention cancels
common = Tensor(rng.standard_normal((d, d)) * 0.5)
wq = Tensor(np.concatenate([common.data[:, : d // 2], common.data[:, : d // 2]], axis=1))
wk = Tensor(np.concatenate([common.data[:, d // 2 :], common.data[:, d // 2 :]], axis=1))
cancel = MhdaParams(wq, wk, params.wv, Tensor(np.eye(d)), Tensor(np.ones(1)), 1)
print("identical maps with lambda=1 cancel exactly (max |out - x|):",
      float(np.abs(mhda(x, ln_g, ln_b, cancel).data - x.data).max()))
