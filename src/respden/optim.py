"""Adam with decoupled weight decay over a named parameter collection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .tensor import Tensor

#: Kingma & Ba's (2015) published defaults
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers per parameter plus the shared step count."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def ensure(self, params: dict[str, Tensor]) -> None:
        for name, p in params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One in-place Adam update with bias correction.

    Weight decay is decoupled: applied multiplicatively before the adaptive
    step, so it never enters the moment estimates.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be > 0, got {lr}")
    state.ensure(params)
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter '{name}' {p.data.shape}")
        if weight_decay:
            p.data -= lr * weight_decay * p.data
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
