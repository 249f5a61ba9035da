"""Tour of the autodiff core: build a graph, differentiate, verify.

Run:  python demos/01_tensor_autodiff.py
"""

import numpy as np

from respden.tensor import Tensor, layer_norm, mul, total_sum

rng = np.random.default_rng(0)

# A tiny computation: z = sum(targets * (x * w)^2), with the row w broadcast over x's rows
x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
w = Tensor(rng.standard_normal(3), requires_grad=True)
targets = Tensor(rng.random((2, 3)))

h = mul(x, w)
z = total_sum(mul(targets, mul(h, h)))
z.backward()
print("z =", z.item())
print("dz/dx:\n", x.grad)
print("matches 2 targets * h * w:", np.allclose(x.grad, 2 * targets.data * h.data * w.data))
# the broadcast is undone in the backward: w's gradient sums over the rows it was copied to
print("dz/dw =", w.grad, " matches the row sum:",
      np.allclose(w.grad, (2 * targets.data * h.data * x.data).sum(axis=0)))

# Gradients accumulate additively when a tensor is used twice.
a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
total_sum(a + a).backward()
print("d(sum(a+a))/da =", a.grad, " (two uses -> twice the ones vector)")

# Central finite differences agree with the backward pass.
g = Tensor(np.ones(3), requires_grad=True)
b = Tensor(np.zeros(3), requires_grad=True)
x2 = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
weights = Tensor(rng.standard_normal((4, 3)))

def loss_value():
    return total_sum(mul(weights, layer_norm(x2, g, b))).item()

x2.zero_grad()
total_sum(mul(weights, layer_norm(x2, g, b))).backward()
h = 1e-6
flat = x2.data.reshape(-1)
idx = 5
orig = flat[idx]
flat[idx] = orig + h
up = loss_value()
flat[idx] = orig - h
down = loss_value()
flat[idx] = orig
fd = (up - down) / (2 * h)
print(f"layer_norm grad check at one entry: analytic={x2.grad.reshape(-1)[idx]:.8f} fd={fd:.8f}")
