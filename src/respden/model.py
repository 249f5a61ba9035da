"""Full classifier: frequency filter -> patch backbone -> two heads.

Parameters live in one flat, insertion-ordered name -> Tensor map, which
is what the optimizer, checkpoints, and gradient checks all consume.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .attention import BackboneParams, BlockParams, MhdaParams, N_TOKENS, PATCH_DIM, backbone_forward
from .audio import DEFAULT_SPEC_CONFIG
from .config import RunConfig
from .errors import ShapeError
from .freq_filter import FilterParams, filter_forward
from .losses import HeadParams, cls_logits, total_loss
from .metrics import N_CLASSES
from .tensor import Tensor, no_grad

LAMBDA_INIT = 0.8
INIT_STD = 0.02
#: mask MLP starts as a near-identity filter: tiny weights, output bias 1.
#: (an all-zero mask would sit inside the shrink dead zone, whose
#: subgradient is zero, and the filter could never learn its way out)
#: The hidden bias keeps rectifier preactivations well away from zero at
#: init, which also keeps finite-difference probes off the kinks.
MASK_W_STD = 1e-4
MASK_B1 = 0.5
#: patch projection: the bias starts at -floor * colsum(W), cancelling the
#: projection of the log-mel silence floor so token features begin
#: zero-mean; numerically equivalent to standardizing patch pixels but
#: expressed purely as an initialization
PATCH_W_STD = 0.005
LOG_FLOOR_VALUE = float(np.log(DEFAULT_SPEC_CONFIG.log_floor))


def seed_stream(seed: int, name: str) -> np.random.Generator:
    """Named deterministic child stream of one root seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(name.encode())))


class _Normal(NamedTuple):
    std: float


def _param_table(cfg: RunConfig) -> list[tuple[str, tuple[int, ...], float | _Normal | None]]:
    """Every parameter as (name, shape, init), in draw order.

    `init` is a constant fill value or `_Normal(std)` for a zero-mean
    Gaussian draw; None marks the patch bias, which `init_params` derives
    from the patch weights.
    """
    d, h, hidden = cfg.dim, cfg.heads, cfg.mask_hidden
    ffn = 2 * d
    table = [
        ("aff.w1", (2, hidden), _Normal(MASK_W_STD)),
        ("aff.b1", (hidden,), MASK_B1),
        ("aff.w2", (hidden, 1), _Normal(MASK_W_STD)),
        ("aff.b2", (1,), 1.0),
        ("patch.w", (PATCH_DIM, d), _Normal(PATCH_W_STD)),
        ("patch.b", (d,), None),
        ("pos", (N_TOKENS, d), _Normal(INIT_STD)),
    ]
    for i in range(cfg.layers):
        b = f"block{i}."
        table += [
            (b + "ln1.g", (d,), 1.0),
            (b + "ln1.b", (d,), 0.0),
            (b + "wq", (d, d), _Normal(INIT_STD)),
            (b + "wk", (d, d), _Normal(INIT_STD)),
            (b + "wv", (d, d), _Normal(INIT_STD)),
            (b + "wo", (d, d), _Normal(INIT_STD)),
            (b + "lam", (h,), LAMBDA_INIT),
            (b + "ln2.g", (d,), 1.0),
            (b + "ln2.b", (d,), 0.0),
            (b + "ffn.w1", (d, ffn), _Normal(INIT_STD)),
            (b + "ffn.w2", (d, ffn), _Normal(INIT_STD)),
            (b + "ffn.w3", (ffn, d), _Normal(INIT_STD)),
        ]
    table += [
        ("final.g", (d,), 1.0),
        ("final.b", (d,), 0.0),
        ("head.norm.g", (d,), 1.0),
        ("head.norm.b", (d,), 0.0),
        # zero-init heads: initial logits are exactly uniform, so early updates
        # follow the pooled features instead of unlearning random projections
        ("head.phi.w", (d, N_CLASSES), 0.0),
        ("head.phi.b", (N_CLASSES,), 0.0),
        ("head.cls.w", (d, N_CLASSES), 0.0),
        ("head.cls.b", (N_CLASSES,), 0.0),
    ]
    return table


def param_shapes(cfg: RunConfig) -> dict[str, tuple[int, ...]]:
    """Expected parameter names and shapes, in draw order, without drawing."""
    return {name: shape for name, shape, _ in _param_table(cfg)}


def init_params(cfg: RunConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Build the named parameter map for the configured dimensions."""
    params: dict[str, Tensor] = {}
    for name, shape, init in _param_table(cfg):
        if isinstance(init, _Normal):
            data = rng.normal(0.0, init.std, size=shape)
        elif init is None:
            data = -LOG_FLOOR_VALUE * params["patch.w"].data.sum(axis=0)
        else:
            data = np.full(shape, float(init))
        params[name] = Tensor(data, requires_grad=True)
    return params


class Model:
    """Binds a parameter map to the forward computation for one config."""

    def __init__(self, cfg: RunConfig, params: dict[str, Tensor] | None = None,
                 rng: np.random.Generator | None = None):
        self.cfg = cfg
        if params is None:
            params = init_params(cfg, rng if rng is not None else seed_stream(cfg.seed, "init"))
        self.params = params
        if cfg.no_ddl:
            # standard attention: freeze the differential scale at zero
            for name, p in params.items():
                if name.endswith(".lam"):
                    p.data[...] = 0.0
                    p.requires_grad = False
                    p.grad = None
        self._check_shapes()

    # -- parameter plumbing ---------------------------------------------------

    def _check_shapes(self) -> None:
        for name, shape in param_shapes(self.cfg).items():
            if name not in self.params:
                raise ShapeError(f"parameter '{name}' missing from model parameters")
            if self.params[name].shape != shape:
                raise ShapeError(
                    f"parameter '{name}' has shape {self.params[name].shape}, expected {shape}"
                )

    def trainable(self) -> dict[str, Tensor]:
        return {n: p for n, p in self.params.items() if p.requires_grad}

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def release_grads(self) -> None:
        """Drop every gradient buffer (`grad = None`); `zero_grads()` makes new ones."""
        for p in self.params.values():
            p.grad = None

    # -- component views --------------------------------------------------------

    def filter_params(self) -> FilterParams:
        p = self.params
        return FilterParams(p["aff.w1"], p["aff.b1"], p["aff.w2"], p["aff.b2"], self.cfg.alpha)

    def backbone_params(self) -> BackboneParams:
        p = self.params
        blocks = [
            BlockParams(
                p[f"block{i}.ln1.g"], p[f"block{i}.ln1.b"],
                MhdaParams(p[f"block{i}.wq"], p[f"block{i}.wk"], p[f"block{i}.wv"],
                           p[f"block{i}.wo"], p[f"block{i}.lam"], self.cfg.heads),
                p[f"block{i}.ln2.g"], p[f"block{i}.ln2.b"],
                p[f"block{i}.ffn.w1"], p[f"block{i}.ffn.w2"], p[f"block{i}.ffn.w3"],
            )
            for i in range(self.cfg.layers)
        ]
        return BackboneParams(p["patch.w"], p["patch.b"], p["pos"], blocks, p["final.g"], p["final.b"])

    def head_params(self) -> HeadParams:
        p = self.params
        return HeadParams(p["head.norm.g"], p["head.norm.b"], p["head.phi.w"], p["head.phi.b"],
                          p["head.cls.w"], p["head.cls.b"])

    # -- forward -----------------------------------------------------------------

    def features(self, spec: np.ndarray) -> Tensor:
        x = Tensor(spec)
        if not self.cfg.no_aff:
            x = filter_forward(x, self.filter_params())
        return backbone_forward(x, self.backbone_params())

    def sample_loss(self, spec, label: int) -> Tensor:
        return total_loss(self.features(spec), label, self.cfg.beta, self.cfg.epsilon, self.head_params())

    def logits(self, spec) -> np.ndarray:
        """Prediction-head logits of one (T, F) spectrogram, or (B, C) for a (B, T, F) stack;
        each clip's row equals its logits alone bit for bit."""
        with no_grad():
            return cls_logits(self.features(spec), self.head_params())

    def predict(self, spec) -> int | np.ndarray:
        """Argmax over prediction-head logits; ties go to the lower class index.

        An int for one (T, F) spectrogram, a (B,) int array for a (B, T, F) stack.
        """
        labels = np.argmax(self.logits(spec), axis=-1)
        return int(labels) if labels.ndim == 0 else labels
