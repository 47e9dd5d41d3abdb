"""Region-based binaural voice separation toolkit.

Separates two-channel (earphone-style) recordings into spatial-region
mixtures via ITD/ILD time-frequency clustering, synthesizes ground-truth
binaural scenes from HRIR banks, scores region estimates, and builds
self-supervision datasets from the separator's labeled outputs.
"""

from .audio import AudioFormatError, BinauralSignal, Waveform, read_wav, write_wav
from .dataset import (
    DirtyBuildStats,
    SourceRecord,
    TrainingTuple,
    build_training_tuples,
    outcome_records,
)
from .features import FeatureGrid, aliasing_bin, aliasing_frequency, compute_features
from .hrir import HrirBank, load_hrir_bank, save_hrir_bank
from .manifest import ManifestEntry, read_manifest, write_manifest
from .itd_model import (
    Discard,
    EmSettings,
    GaussianComponent,
    SinglePeak,
    TwoPeaks,
    classify_itds,
    fit_gmm2,
    fit_single_gaussian,
)
from .metrics import (
    LossConfig,
    RegionEvalReport,
    evaluate_regions,
    loss_inactive,
    loss_snr,
    region_loss,
    snr,
    snri,
)
from .scenes import (
    RegionLayout,
    RegionMixtureSet,
    SceneSource,
    SceneSpec,
    default_layout_r3,
    make_spherical_bank,
    random_scene,
    region_of_azimuth,
    region_of_itd,
    render_binaural_source,
    spherical_itd,
    sum_regions,
    synth_scene,
    synth_spherical_hrir,
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
from .stft import Spectrogram, StftConfig, clustering_config, istft, stft

__version__ = "0.1.0"
