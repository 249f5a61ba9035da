"""Respiratory sound classification with implicit denoising.

A small numpy autodiff core plus the three model components: a learnable
frequency-domain filter, differential-attention blocks, and a
label-smoothed denoising loss, together with the audio pipeline,
evaluation protocol, and training loop that tie them into experiments.
"""

from .audio import (
    AudioClip,
    Label,
    Spectrogram,
    SpectrogramConfig,
    fix_length,
    mel_spectrogram,
    normalize_amplitude,
    preprocess,
    resample,
)
from .config import RunConfig, parse_config
from .datasets import DatasetManifest, SynthConfig, build_synth, load_dataset, write_synth
from .freq_filter import FilterParams, filter_forward
from .attention import (
    BackboneParams,
    BlockParams,
    MhdaParams,
    backbone_forward,
    denoise_block,
    mhda,
    patch_embed,
    swish_glu,
)
from .losses import HeadParams, smoothed_target, total_loss
from .metrics import MetricsReport, compute_metrics, confusion_matrix
from .model import Model, init_params, seed_stream
from .optim import AdamState, adam_step
from .tensor import Tensor, layer_norm, no_grad
from .train import evaluate_split, prepare_data, train

__version__ = "0.1.0"
