"""Machine-speed reference that the benchmark's timings are scaled by.

On a shared 2-core Xeon, other tenants' load slowed every timing by up to
2x for minutes at a time: the same evaluation run read 46 or 92 clips/s
depending on when it started.  A fixed kernel, run between the workload's
operations, measures that slowdown as it happens.  A timing is reported at
reference speed: multiplied by NOMINAL_S over the kernel's time near the
operation (a rate is divided by that factor).  The kernel is benchmark
code, so a change to respden never changes it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.signal import resample_poly

#: about the kernel's time on a 2-core Intel Xeon with one BLAS thread; it
#: only sets the scale of the reported values, so it never needs to change
NOMINAL_S = 0.010
#: at most one sample per this many seconds of workload time
INTERVAL_S = 0.25
#: kernel runs per sample, back to back; the sample is the fastest.  The
#: first run after an operation finds the caches full of the operation's
#: data and reads 10-20 % slow by an amount that depends on the operation,
#: not on the machine, so it must not set the scale.
RUNS_PER_SAMPLE = 3


def _inputs():
    rng = np.random.default_rng(20250602)
    return {
        "spec": rng.standard_normal((249, 64)),
        "w1": rng.standard_normal((2, 32)) * 0.1,
        "w2": rng.standard_normal((32, 1)) * 0.1,
        "patch": rng.standard_normal((256, 96)) * 0.05,
        "attn": [rng.standard_normal((96, 96)) * 0.05 for _ in range(4)],
        "ffn1": rng.standard_normal((96, 192)) * 0.05,
        "ffn2": rng.standard_normal((192, 96)) * 0.05,
        "wave": rng.standard_normal(44100),
    }


def kernel(x: dict) -> float:
    """Numpy work shaped like the model, an audio resample, and Python objects."""
    spec = np.fft.fft2(x["spec"])
    bins = np.stack([spec.real.ravel(), spec.imag.ravel()], axis=1)
    mask = (np.maximum(bins @ x["w1"] + 0.5, 0.0) @ x["w2"]).reshape(spec.shape)
    grid = np.zeros((256, 64))
    grid[:249] = np.fft.ifft2(spec * mask).real
    tok = grid.reshape(16, 16, 4, 16).transpose(0, 2, 1, 3).reshape(64, 256) @ x["patch"]
    for _ in range(4):
        q, k, v = (tok @ w for w in x["attn"][:3])
        heads = []
        for h in range(4):
            cols = slice(24 * h, 24 * h + 24)
            a = q[:, cols] @ k[:, cols].T
            a = np.exp(a - a.max(axis=1, keepdims=True))
            heads.append((a / a.sum(axis=1, keepdims=True)) @ v[:, cols])
        tok = tok + np.concatenate(heads, axis=1) @ x["attn"][3]
        g = np.tanh(tok @ x["ffn1"])
        tok = tok + (g * g) @ x["ffn2"]
        tok = (tok - tok.mean(axis=1, keepdims=True)) / (tok.std(axis=1, keepdims=True) + 1e-5)
    audio = resample_poly(x["wave"], 160, 441)
    nodes = [(i, (i, i + 1), {"op": "add"}) for i in range(3000)]
    return float(tok.sum()) + float(audio[:10].sum()) + len(nodes)


class Calibrator:
    """Kernel times taken between operations, and the factor they give."""

    def __init__(self) -> None:
        self.inputs = _inputs()
        kernel(self.inputs)  # the first run is slow: caches, lazy imports
        self.times: list[float] = []
        self.starts: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        runs = []
        for _ in range(RUNS_PER_SAMPLE):
            t0 = time.perf_counter()
            kernel(self.inputs)
            runs.append((time.perf_counter() - t0, t0))
        self.times.append(min(runs)[0])
        self.starts.append(runs[0][1])
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Take a sample if INTERVAL_S has passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def slowdown(self) -> float:
        """How much slower than reference speed the machine ran (1.0 = reference)."""
        return statistics.median(self.times) / NOMINAL_S

    def slowdown_at(self, t: float) -> float:
        """Slowdown at time t: the median of the two samples before it and one after."""
        k = bisect.bisect_left(self.starts, t)
        near = self.times[max(0, k - 2):k + 1]
        return statistics.median(near) / NOMINAL_S
