"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value in the training graph is a `Tensor` wrapping a numpy array.
Operations build a dynamic graph of parent links and backward closures;
`backward()` walks it once in reverse topological order, accumulates
gradients additively into leaf buffers, and frees the tape.

Design constraints honoured here:

* all math is double precision;
* every operation checks its output for NaN/Inf and raises `NumericError`
  instead of propagating garbage;
* gradient buffers of leaf tensors (parameters) are zero-initialised, so a
  parameter that a loss never touches reports an all-zero gradient; a
  leaf whose gradient was released (`grad = None`) takes its first
  cotangent as an owned copy, as an intermediate tensor does;
* one graph belongs to one thread; tensors themselves are read-only after
  construction except for gradient accumulation during backward.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import NumericError, ShapeError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference, finite differences)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {what}")


def _check_clips(x: Tensor, what: str) -> None:
    """A model layer takes one clip's 2-D array, or under no_grad a 3-D stack of them.

    The layers' backward rules are written for one clip, so a stack is
    forward-only: its outputs equal each clip's own bit for bit.
    """
    if x.data.ndim != 2 and (x.data.ndim != 3 or _grad_enabled):
        raise ShapeError(f"{what} expects a 2-D tensor, or a 3-D stack under no_grad, "
                         f"got shape {x.shape}")


def _taped(parents) -> bool:
    """Whether an op on `parents` goes on the tape: grad mode is on and one requires grad."""
    return _grad_enabled and any(p.requires_grad for p in parents)


class Tensor:
    """n-dimensional float64 array participating in the differentiation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_leaf")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        _check_finite(self.data, "tensor construction")
        self.requires_grad = bool(requires_grad) and _grad_enabled
        # Leaves keep a zero-initialised accumulation buffer so untouched
        # parameters report zero gradients rather than None.
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self._leaf = True

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple["Tensor", ...], backward_fn, what: str) -> "Tensor":
        _check_finite(data, what)
        out = object.__new__(Tensor)
        out.data = data
        out.grad = None
        out._leaf = False
        out.requires_grad = _taped(parents)
        out._parents = parents if out.requires_grad else ()
        out._backward_fn = backward_fn if out.requires_grad else None
        return out

    # -- basic protocol ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- backward ------------------------------------------------------------

    def backward(self, seed=None) -> None:
        """Populate gradients of every reachable tensor; frees the tape.

        `seed` is the cotangent of the receiver and must have exactly its
        shape; it is not broadcast. Without one, the receiver must be a
        scalar (single-element) tensor and is seeded with 1.
        """
        if seed is None:
            if self.data.size != 1:
                raise ShapeError(f"backward() requires a scalar loss, got shape {self.shape}")
            seed = np.ones_like(self.data)
        elif np.shape(seed) != self.shape:
            raise ShapeError(f"backward() seed of shape {np.shape(seed)} for an output of shape "
                             f"{self.shape}")
        if not self.requires_grad:
            return

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        if self._leaf and self.grad is not None:
            # a leaf accumulates its seed, as it accumulates a child's cotangent
            self.grad += seed
        else:
            self.grad = np.array(seed, dtype=np.float64)
        for node in reversed(order):
            fn = node._backward_fn
            if fn is None:
                continue
            grads = fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    # first touch: own a copy instead of zeros + add
                    parent.grad = np.array(g, dtype=np.float64)
                else:
                    parent.grad += g
            # free the tape; intermediate grads are not needed once consumed
            node._parents = ()
            node._backward_fn = None
            if not node._leaf:
                node.grad = None


# -- fused neural-net primitives -------------------------------------------------

#: variance floor of every layer norm
LN_EPS = 1e-5


def _ln_forward(x: np.ndarray, gamma: np.ndarray,
                beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the last axis: (output, xhat, 1/std), the last two for `_ln_backward`."""
    width = x.shape[-1]
    if gamma.shape != (width,) or beta.shape != (width,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match last axis {width}"
        )
    # np.mean/np.var's own arithmetic (sum, then divide by the width), without their wrappers
    xhat = x - x.sum(axis=-1, keepdims=True) / width
    inv = 1.0 / np.sqrt(np.square(xhat).sum(axis=-1, keepdims=True) / width + LN_EPS)
    xhat *= inv
    out = xhat * gamma
    out += beta
    return out, xhat, inv


def _ln_backward(g: np.ndarray, gamma: np.ndarray, xhat: np.ndarray,
                 inv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pullbacks (dx, dgamma, dbeta) of `_ln_forward` for the output gradient `g`."""
    width = g.shape[-1]
    gg = g * gamma
    m1 = gg.sum(axis=-1, keepdims=True) / width
    m2 = (gg * xhat).sum(axis=-1, keepdims=True) / width
    axes = tuple(range(g.ndim - 1))
    return inv * (gg - m1 - xhat * m2), (g * xhat).sum(axis=axes), g.sum(axis=axes)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    out, xhat, inv = _ln_forward(x.data, gamma.data, beta.data)

    def backward(g):
        return _ln_backward(g, gamma.data, xhat, inv)

    return Tensor._from_op(out, (x, gamma, beta), backward, "layer_norm")
