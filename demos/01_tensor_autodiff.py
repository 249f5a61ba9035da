"""Tour of the autodiff core: build a graph, differentiate, verify.

Run:  python demos/01_tensor_autodiff.py
"""

import numpy as np

from respden.tensor import Tensor, layer_norm

rng = np.random.default_rng(0)

# One fused tape node: y = layer_norm(x) * gamma + beta over the last axis.
x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
gamma = Tensor(np.ones(3), requires_grad=True)
beta = Tensor(np.zeros(3), requires_grad=True)
y = layer_norm(x, gamma, beta)
print("y =\n", y.data)

# backward(seed) takes the cotangent of a non-scalar output: the gradients
# are those of the scalar sum(weights * y), without a node for the sum.
weights = rng.standard_normal((4, 3))
y.backward(weights)
print("d sum(weights * y) / d beta =", beta.grad, " matches the column sums of weights:",
      np.allclose(beta.grad, weights.sum(axis=0)))

# Gradients accumulate across backward calls, as a streamed batch does: each
# sample's graph is built, seeded with half the weights and freed before the next.
samples = [rng.standard_normal((4, 3)) for _ in range(2)]
separate = []
for s in samples:
    gamma.zero_grad()
    layer_norm(Tensor(s), gamma, beta).backward(weights)
    separate.append(gamma.grad.copy())
gamma.zero_grad()
for s in samples:
    layer_norm(Tensor(s), gamma, beta).backward(0.5 * weights)
print("d gamma of the 2-sample mean =", gamma.grad, " matches the mean of the two:",
      np.allclose(gamma.grad, 0.5 * (separate[0] + separate[1])))

# Central finite differences agree with the backward pass.
def loss_value():
    return float(np.sum(weights * layer_norm(x, gamma, beta).data))

x.zero_grad()
layer_norm(x, gamma, beta).backward(weights)
h = 1e-6
flat = x.data.reshape(-1)
idx = 5
orig = flat[idx]
flat[idx] = orig + h
up = loss_value()
flat[idx] = orig - h
down = loss_value()
flat[idx] = orig
fd = (up - down) / (2 * h)
print(f"layer_norm grad check at one entry: analytic={x.grad.reshape(-1)[idx]:.8f} fd={fd:.8f}")
