"""Span tracer that times respden layers from outside the program.

`Tracer.install` swaps module attributes (functions looked up as module
globals at call time, and a few class attributes) for wrappers that record
one span per call: name, start, end, parent span and run id.  Spans stay in
memory; `summary` turns them into per-layer medians and self times, and
`write` dumps them to a file when the run ends.  `Tensor._from_op` is
wrapped with a counter instead of a span, so the number of graph nodes
made per training step or per scored clip is counted exactly, by op label.
`uninstall` restores every attribute it replaced.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from collections import Counter, defaultdict

import respden.attention as attention
import respden.checkpoint as checkpoint
import respden.datasets as datasets
import respden.freq_filter as freq_filter
import respden.model as model
import respden.audio as audio
from respden.tensor import Tensor

# the package re-exports the function `train` under the submodule's name
train = importlib.import_module("respden.train")

#: (owner, attribute, span name).  The owner is the module whose globals the
#: caller reads, so the wrapper is hit; the span is named after the module
#: that defines the function.
SPANS = (
    (train, "train", "train.train"),
    (train, "prepare_data", "train.prepare_data"),
    (train, "preprocess", "audio.preprocess"),
    (train, "evaluate_split", "train.evaluate_split"),
    (train, "evaluate_indices", "train.evaluate_indices"),
    (train, "adam_step", "optim.adam_step"),
    (Tensor, "backward", "tensor.backward"),
    (model.Model, "predict", "model.predict"),
    (model, "filter_forward", "freq_filter.filter_forward"),
    (model, "backbone_forward", "attention.backbone_forward"),
    (model, "total_loss", "losses.total_loss"),
    (model, "cls_logits", "losses.cls_logits"),
    (freq_filter, "fft2", "fourier.fft2"),
    (freq_filter, "mask_net", "freq_filter.mask_net"),
    (freq_filter, "symmetrize", "freq_filter.symmetrize"),
    (freq_filter, "soft_shrink", "tensor.soft_shrink"),
    (freq_filter, "scale_complex", "fourier.scale_complex"),
    (freq_filter, "ifft2", "fourier.ifft2"),
    (attention, "patch_embed", "attention.patch_embed"),
    (attention, "denoise_block", "attention.denoise_block"),
    (attention, "mhda", "attention.mhda"),
    (attention, "swish_glu", "tensor.swish_glu"),
    (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint"),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"),
    (checkpoint, "model_from_checkpoint", "checkpoint.model_from_checkpoint"),
    (datasets, "load_dataset", "datasets.load_dataset"),
    (datasets, "parse_annotation_file", "datasets.parse_annotation_file"),
    (datasets, "read_wav", "wavio.read_wav"),
    (audio, "resample", "audio.resample"),
    (audio, "fix_length", "audio.fix_length"),
    (audio, "normalize_amplitude", "audio.normalize_amplitude"),
    (audio, "mel_spectrogram", "audio.mel_spectrogram"),
)

#: graph nodes made inside this span belong to a scored clip; other nodes
#: made inside `train.train` belong to a training step
CLIP_SPAN = "model.predict"
STEP_SPAN = "train.train"


class Tracer:
    """In-memory spans and exact counts for one benchmark process."""

    def __init__(self) -> None:
        self.run_id = ""
        self._run_start = 0
        # each span is [name, start, end, parent index or -1, run id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.ops: dict[str, Counter] = {"step": Counter(), "clip": Counter(), "other": Counter()}
        self.bytes_read = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in SPANS:
            self._replace(owner, attr, self._span_wrapper(getattr(owner, attr), name))
        self._replace(Tensor, "_from_op", staticmethod(self._count_wrapper(Tensor._from_op)))
        read_wav = datasets.read_wav

        def counted_read_wav(path, *args, **kwargs):
            self.bytes_read += os.path.getsize(path)
            return read_wav(path, *args, **kwargs)

        self._replace(datasets, "read_wav", counted_read_wav)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, new) -> None:
        # keep the raw attribute (a staticmethod stays a staticmethod)
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, new)

    def _span_wrapper(self, fn, name: str):
        spans, stack, open_ = self.spans, self._stack, self._open

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(span)
            stack.append(index)
            open_[name] += 1
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_[name] -= 1
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn):
        open_, ops = self._open, self.ops

        def from_op(data, parents, backward_fn, what):
            if open_[CLIP_SPAN]:
                ops["clip"][what] += 1
            elif open_[STEP_SPAN]:
                ops["step"][what] += 1
            else:
                ops["other"][what] += 1
            return fn(data, parents, backward_fn, what)

        return from_op

    # -- per-op bookkeeping -------------------------------------------------------

    def begin(self, run_id: str) -> None:
        """Tag the spans of the next closed-loop operation."""
        self.run_id = run_id
        self._run_start = len(self.spans)

    def take_counts(self) -> dict:
        """Counts since the last call: op labels by phase, calls by span, bytes read."""
        calls = Counter(s[0] for s in self.spans[self._run_start:])
        out = {"ops": {k: dict(v) for k, v in self.ops.items()}, "calls": dict(calls),
               "bytes_read": self.bytes_read}
        for c in self.ops.values():
            c.clear()
        self.bytes_read = 0
        return out

    # -- summaries ------------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, median and total ms, and self time (minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per: dict[str, dict[str, list]] = defaultdict(lambda: {"dur": [], "self": []})
        for span, kids in zip(self.spans, child_time):
            dur = span[2] - span[1]
            per[span[0]]["dur"].append(dur)
            per[span[0]]["self"].append(dur - kids)
        return {
            name: {
                "calls": len(v["dur"]),
                "median_ms": statistics.median(v["dur"]) * 1e3,
                "total_ms": sum(v["dur"]) * 1e3,
                "self_ms": sum(v["self"]) * 1e3,
            }
            for name, v in per.items()
        }

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "run_id"],
                       "spans": self.spans}, fh)
