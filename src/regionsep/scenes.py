"""Binaural scene construction: region geometry, HRIR rendering, mixtures.

Azimuth convention: 0 degrees is straight ahead and angles grow clockwise,
so 90 degrees is the listener's right. A source on the left reaches the
left ear first and therefore produces a positive ITD (left leads); under
the spherical-head model the ITD of a source at azimuth ``a`` is
``-delta_tau_max * sin(a)``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .audio import BinauralSignal, Waveform, finite_waveform
from .hrir import HrirBank
from .stft import padded_frames

HRIR_TAPS = 256  # length of each synthesized impulse response
RENDER_GROUP_BLOCKS = 16  # overlap-save blocks transformed at once


@dataclass(frozen=True)
class RegionLayout:
    """Azimuth intervals per region; the union must partition [0, 360).

    ``regions[i]`` is a tuple of half-open ``(lo, hi)`` intervals in
    degrees belonging to region ``i + 1`` (region ids are 1-based).
    """

    regions: Tuple[Tuple[Tuple[float, float], ...], ...]

    def __post_init__(self):
        if len(self.regions) < 2:
            raise ValueError("need at least 2 regions")
        spans = []
        for intervals in self.regions:
            for lo, hi in intervals:
                if not (0.0 <= lo < hi <= 360.0):
                    raise ValueError(f"bad interval ({lo}, {hi})")
                spans.append((lo, hi))
        spans.sort()
        cursor = 0.0
        for lo, hi in spans:
            if lo != cursor:
                raise ValueError(
                    f"intervals do not partition [0, 360): gap/overlap at {lo}"
                )
            cursor = hi
        if cursor != 360.0:
            raise ValueError("intervals do not cover up to 360")

    @property
    def num_regions(self) -> int:
        return len(self.regions)


def default_layout_r3() -> RegionLayout:
    """Three regions: merged front+back cone, left quarter, right quarter."""
    return RegionLayout(
        regions=(
            ((315.0, 360.0), (0.0, 45.0), (135.0, 225.0)),  # front + back
            ((225.0, 315.0),),                              # left
            ((45.0, 135.0),),                               # right
        )
    )


def region_of_azimuth(layout: RegionLayout, azimuth: float) -> int:
    """1-based region id of an azimuth in [0, 360); intervals are half-open."""
    if not 0.0 <= azimuth < 360.0:
        raise ValueError(f"azimuth {azimuth} outside [0, 360)")
    for i, intervals in enumerate(layout.regions):
        for lo, hi in intervals:
            if lo <= azimuth < hi:
                return i + 1
    raise AssertionError("partition invariant violated")  # pragma: no cover


def spherical_itd(azimuth: float, delta_tau_max: float) -> float:
    """ITD (seconds) of a source at an azimuth under the spherical model."""
    return -delta_tau_max * math.sin(math.radians(azimuth))


def region_of_itd(itd: float, delta_tau_max: float) -> int:
    """Map an ITD label to the default 3-region layout.

    Magnitudes below delta_tau_max*sin(45 deg) fall in the merged
    front/back cone (region 1); larger positive ITDs (left leads) map to
    the left region 2, negative to the right region 3. An ITD beyond
    delta_tau_max is lateral; it is warned about and labeled by its sign.

    This agrees with ``region_of_azimuth(default_layout_r3(), az)`` for the
    spherical ITD of every azimuth except the four region boundaries, and
    no ITD rule can agree there: 45 and 135 deg share an ITD, as do 225 and
    315 deg, but the layout puts 45 and 225 deg in a lateral region and 135
    and 315 deg in the front/back one. The ITD rule calls all four lateral,
    so a source at 315 deg is labeled region 2.
    """
    if abs(itd) > delta_tau_max:
        warnings.warn(
            f"ITD {itd} exceeds delta_tau_max {delta_tau_max}; labeled by its sign",
            stacklevel=2,
        )
    if abs(itd) < delta_tau_max * math.sin(math.radians(45.0)):
        return 1
    return 2 if itd > 0 else 3


def synth_spherical_hrir(
    azimuth: float,
    delta_tau_max: float,
    sample_rate: int,
) -> Tuple[Waveform, Waveform]:
    """Synthesize a binaural impulse-response pair for one azimuth.

    The interaural delay is split antisymmetrically around the filter
    center as an exact linear-phase fractional delay, and the far ear gets
    an azimuth-dependent head-shadow roll-off so the ILD varies with
    frequency. Frequency-sampled design, inverted with irfft.
    """
    itd = spherical_itd(azimuth, delta_tau_max)
    delay_samples = itd * sample_rate
    center = HRIR_TAPS / 2.0
    d_left = center - delay_samples / 2.0
    d_right = center + delay_samples / 2.0

    s = math.sin(math.radians(azimuth))
    shadow_left = max(0.0, s)    # source on the right shadows the left ear
    shadow_right = max(0.0, -s)

    k = np.arange(HRIR_TAPS // 2 + 1)
    freqs = k * sample_rate / HRIR_TAPS

    def ear_response(delay: float, shadow: float) -> np.ndarray:
        gain = (1.0 - 0.35 * shadow) / np.sqrt(
            1.0 + (freqs * shadow / 4000.0) ** 2
        )
        phase = np.exp(-2j * np.pi * k * delay / HRIR_TAPS)
        return gain * phase

    left = np.fft.irfft(ear_response(d_left, shadow_left), n=HRIR_TAPS)
    right = np.fft.irfft(ear_response(d_right, shadow_right), n=HRIR_TAPS)
    return Waveform(left, sample_rate), Waveform(right, sample_rate)


def make_spherical_bank(
    azimuths: Sequence[float],
    delta_tau_max: float,
    sample_rate: int,
) -> HrirBank:
    entries = {
        float(az): synth_spherical_hrir(az, delta_tau_max, sample_rate)
        for az in azimuths
    }
    return HrirBank(entries=entries, sample_rate=sample_rate)


@dataclass(frozen=True)
class SceneSource:
    source_id: str
    azimuth: float
    gain: float = 1.0

    def __post_init__(self):
        if self.gain <= 0:
            raise ValueError(f"gain must be positive, got {self.gain}")


@dataclass(frozen=True)
class SceneSpec:
    sources: Tuple[SceneSource, ...]
    duration: float  # seconds
    seed: int = 0
    hrir_bank_id: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "SceneSpec":
        """A spec as ``to_json`` writes it; an unknown or missing key raises."""
        obj = json.loads(text)
        sources = tuple(SceneSource(**s) for s in obj.pop("sources"))
        return SceneSpec(sources=sources, **obj)


@dataclass(frozen=True)
class RegionMixtureSet:
    """Ground-truth per-region binaural mixtures and their sum."""

    region_signals: Tuple[BinauralSignal, ...]
    mixture: BinauralSignal
    active: Tuple[bool, ...]

    @property
    def num_regions(self) -> int:
        return len(self.region_signals)


def _fft_size(taps: int) -> int:
    """The overlap-save block length: the smallest power of two that is at
    least 1024 and at least four times the taps."""
    n_fft = 1024
    while n_fft < 4 * taps:
        n_fft *= 2
    return n_fft


def _block_groups(
    x: np.ndarray, taps: int, n_out: int
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """The overlap-save groups of ``x`` for ``taps`` taps and ``n_out``
    output samples: each group's output span ``[a, b)`` and the ``rfft`` of
    its blocks.

    Block ``k`` of ``n_fft`` input samples starts ``taps - 1`` samples
    before output sample ``k * step``, and the last ``step`` samples of its
    circular convolution with a tap set are the linear convolution's
    samples from ``k * step`` on. ``RENDER_GROUP_BLOCKS`` blocks at a time
    are cut from their own zero-padded span of the input
    (``stft.padded_frames``). The spans stop at the full convolution's
    ``len(x) + taps - 1`` samples.
    """
    n_fft = _fft_size(taps)
    step = n_fft - taps + 1
    n_valid = min(n_out, len(x) + taps - 1)
    for a in range(0, n_valid, RENDER_GROUP_BLOCKS * step):
        b = min(a + RENDER_GROUP_BLOCKS * step, n_valid)
        frames = padded_frames(x, a - (taps - 1), -(-(b - a) // step), n_fft, step)
        yield a, b, np.fft.rfft(frames, axis=1)


def _overlap_save_add(
    groups: Iterable[Tuple[int, int, np.ndarray]],
    h_left: np.ndarray,
    h_right: np.ndarray,
    gain: float,
    left: np.ndarray,
    right: np.ndarray,
) -> None:
    """Add ``gain`` times a source convolved with each ear's taps into
    ``left`` and ``right``, from the source's ``_block_groups``.

    Each group's blocks are multiplied by both ears' spectra and inverted
    once; per ear, its kept samples are scaled by ``gain`` and added into
    ``out[a:b]``. Outputs past the last group are left as they are.
    """
    taps = max(len(h_left), len(h_right))
    n_fft = _fft_size(taps)
    spectra = np.stack(
        [np.fft.rfft(h_left, n=n_fft), np.fft.rfft(h_right, n=n_fft)]
    )
    for a, b, spectrum in groups:
        y = np.fft.irfft(spectrum[:, None, :] * spectra, n=n_fft, axis=2)
        for ear, out in enumerate((left, right)):
            out[a:b] += (y[:, ear, taps - 1 :] * gain).reshape(-1)[: b - a]


def _hrir_pair(
    wave: Waveform, bank: HrirBank, azimuth: float
) -> Tuple[float, np.ndarray, np.ndarray]:
    """The snapped azimuth of a source and the taps of its HRIR pair."""
    if wave.sample_rate != bank.sample_rate:
        raise ValueError(
            f"source rate {wave.sample_rate} != bank rate {bank.sample_rate}"
        )
    snapped = bank.nearest_azimuth(azimuth)
    h_left, h_right = bank.entries[snapped]
    return snapped, h_left.samples, h_right.samples


def _written_zeros(n: int) -> np.ndarray:
    """``n`` float64 zeros, written now rather than mapped lazily: adding
    into a lazily zeroed page faults twice (the read maps the shared zero
    page, the write then copies it), into a written page once."""
    out = np.empty(n)
    out.fill(0.0)
    return out


class _RegionSums:
    """The per-region channel accumulators of one scene or training tuple,
    and their exact-sum mixture."""

    def __init__(self, num_regions: int, length: int, sample_rate: int):
        self.length = length
        self.sample_rate = sample_rate
        self.regions = [
            (_written_zeros(length), _written_zeros(length)) for _ in range(num_regions)
        ]
        self.active = [False] * num_regions

    def channels(self, region: int) -> Tuple[np.ndarray, np.ndarray]:
        """The left and right accumulators of 1-based ``region``, which a
        source is about to be added into, so the region is active."""
        self.active[region - 1] = True
        return self.regions[region - 1]

    def mixture_set(self) -> RegionMixtureSet:
        # the mixture is the exact elementwise sum of the region signals
        mix_l, mix_r = _written_zeros(self.length), _written_zeros(self.length)
        for left, right in self.regions:
            mix_l += left
            mix_r += right

        def binaural(left: np.ndarray, right: np.ndarray) -> BinauralSignal:
            return BinauralSignal(
                finite_waveform(left, self.sample_rate),
                finite_waveform(right, self.sample_rate),
            )

        return RegionMixtureSet(
            region_signals=tuple(binaural(*channels) for channels in self.regions),
            mixture=binaural(mix_l, mix_r),
            active=tuple(self.active),
        )


def sum_regions(
    placed: Iterable[Tuple[int, BinauralSignal]],
    num_regions: int,
    length: int,
    sample_rate: int,
) -> RegionMixtureSet:
    """Sum sources per region, then the regions into their exact-sum mixture.

    ``placed`` holds ``(region, signal)`` pairs with 1-based region ids. A
    source shorter than ``length`` samples is zero-padded at the end; a
    region no source lands in is silent and inactive.
    """
    sums = _RegionSums(num_regions, length, sample_rate)
    for region, sig in placed:
        left, right = sums.channels(region)
        left[: len(sig)] += sig.left.samples
        right[: len(sig)] += sig.right.samples
    return sums.mixture_set()


def synth_scene(
    spec: SceneSpec,
    bank: HrirBank,
    layout: RegionLayout,
    pool: Mapping[str, Waveform],
    memo: Optional[Dict[Tuple[str, int, int], list]] = None,
) -> RegionMixtureSet:
    """Render every source through its HRIR straight into its region's sum,
    then sum the regions into the mixture.

    ``memo``, if given, keeps each pool source's block spectra
    (``_block_groups``) under ``(source id, taps, scene samples)``, so a
    source placed again reuses them; the caller owns it for one pool. The
    output bits are the same with or without it.
    """
    sr = bank.sample_rate
    n_out = int(round(spec.duration * sr))
    sums = _RegionSums(layout.num_regions, n_out, sr)
    for src in spec.sources:
        wave = pool[src.source_id]
        snapped, h_left, h_right = _hrir_pair(wave, bank, src.azimuth)
        taps = max(len(h_left), len(h_right))
        if memo is None:
            groups = _block_groups(wave.samples, taps, n_out)
        else:
            key = (src.source_id, taps, n_out)
            if key not in memo:
                memo[key] = list(_block_groups(wave.samples, taps, n_out))
            groups = memo[key]
        left, right = sums.channels(region_of_azimuth(layout, snapped))
        _overlap_save_add(groups, h_left, h_right, src.gain, left, right)
    return sums.mixture_set()


def render_binaural_source(
    wave: Waveform, bank: HrirBank, azimuth: float, duration: float, gain: float = 1.0
) -> BinauralSignal:
    """One source rendered through its snapped-azimuth HRIR pair, a group
    of blocks at a time."""
    n_out = int(round(duration * bank.sample_rate))
    _, h_left, h_right = _hrir_pair(wave, bank, azimuth)
    left, right = _written_zeros(n_out), _written_zeros(n_out)
    groups = _block_groups(wave.samples, max(len(h_left), len(h_right)), n_out)
    _overlap_save_add(groups, h_left, h_right, gain, left, right)
    return BinauralSignal(
        Waveform(left, bank.sample_rate), Waveform(right, bank.sample_rate)
    )


def draw_region_first(rng: np.random.Generator, by_region: Mapping[int, Sequence]):
    """A uniform region among those with members, in ascending id order,
    then a uniform member of it."""
    regions = sorted(r for r, members in by_region.items() if members)
    region = regions[int(rng.integers(len(regions)))]
    members = by_region[region]
    return region, members[int(rng.integers(len(members)))]


def random_scene(
    k_range: Tuple[int, int],
    layout: RegionLayout,
    bank: HrirBank,
    pool_ids: Sequence[str],
    seed: int,
    duration: float,
) -> SceneSpec:
    """Draw K sources region-first: uniform region, then a uniform bank angle."""
    if not pool_ids:
        raise ValueError("source pool is empty")
    k_lo, k_hi = k_range
    if not 1 <= k_lo <= k_hi:
        raise ValueError(f"bad k_range {k_range}")
    rng = np.random.default_rng(seed)
    k = int(rng.integers(k_lo, k_hi + 1))

    by_region: Dict[int, List[float]] = {}
    for az in bank.azimuths:
        by_region.setdefault(region_of_azimuth(layout, float(az)), []).append(float(az))

    sources = []
    for _ in range(k):
        _, azimuth = draw_region_first(rng, by_region)
        source_id = pool_ids[int(rng.integers(len(pool_ids)))]
        sources.append(SceneSource(source_id=source_id, azimuth=azimuth))
    return SceneSpec(sources=tuple(sources), duration=duration, seed=seed)
