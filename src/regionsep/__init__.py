"""Region-based binaural voice separation toolkit.

Separates two-channel (earphone-style) recordings into spatial-region
mixtures via ITD/ILD time-frequency clustering, synthesizes ground-truth
binaural scenes from HRIR banks, scores region estimates, and builds
self-supervision datasets from the separator's labeled outputs.

The package root re-exports the pipeline's entry points; every other name
comes from its module (``from regionsep.stft import StftConfig``).
"""

from .audio import BinauralSignal, Waveform, read_wav, write_wav
from .dataset import SourceRecord, build_training_tuples
from .features import compute_features
from .hrir import load_hrir_bank, save_hrir_bank
from .itd_model import EmSettings, classify_itds
from .manifest import read_manifest
from .metrics import snri
from .scenes import (
    SceneSpec,
    default_layout_r3,
    make_spherical_bank,
    random_scene,
    region_of_itd,
    render_binaural_source,
    spherical_itd,
    synth_scene,
)
from .separation import (
    Discarded,
    Passthrough,
    Separated,
    SeparationConfig,
    aliased_frequency_masks,
    dominance_sets,
    low_frequency_masks,
    separate,
)
from .signals import band_noise_source, make_source_pool
from .stft import istft, stft

__version__ = "0.1.0"
