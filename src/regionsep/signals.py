"""Deterministic synthetic source signals for desk-scale experiments.

Speech-like in the properties the separator relies on:

* W-disjoint orthogonality. Below the aliasing frequency each source
  occupies its own narrow band (disjoint between the two "groups", with
  guard gaps wider than the analysis window's mainlobe), so the per-bin
  delay estimates feeding the mixture model are never cross-contaminated.
  Above it both groups share the same bands but are gated onto alternating
  time slots, like conversational turns: any time-frequency bin there is
  dominated by whichever source holds the current slot.
* Fluctuating short-time energy. The slot gates plus a slow random
  envelope guarantee frames where one source dominates, which the
  level-difference assignment of aliased bins depends on.

The spectrum inside each band is continuous noise rather than discrete
tones; leakage into a neighboring analysis bin then carries a frequency
close to that bin's own center, and the per-bin phase-derived delay stays
unbiased. Low bands start well above DC because that delay's error scales
as 1/bin.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .audio import Waveform

# band positions are expressed in 1024-point / 16 kHz analysis bins
ANALYSIS_BINS = 1024

# One low band per group with a 4-bin guard gap between them. The top
# band stays well under the typical aliasing bin (36): near that bin the
# interaural phase of a hard-panned source approaches +-pi and per-bin
# noise would wrap it, flipping the delay estimate's sign.
LOW_GROUP_BANDS = ((14, 20), (24, 30))

# shared by all sources; time slots, not bands, keep them disjoint here
HIGH_BANDS = ((40, 46), (70, 76), (120, 126), (200, 206), (320, 326), (420, 426))

SLOT_SECONDS = 0.5
RAMP_SECONDS = 0.08
OFF_LEVEL = 0.01
ENVELOPE_HZ = 3.0  # knots per second of the slow random envelope
PEAK_AMPLITUDE = 0.25


def _slot_gate(t: np.ndarray, parity: int) -> np.ndarray:
    """Smooth gate, high on slots of the given parity, OFF_LEVEL between."""
    p = np.mod(t - (parity % 2) * SLOT_SECONDS, 2.0 * SLOT_SECONDS)
    up = np.clip(p / RAMP_SECONDS, 0.0, 1.0)
    down = np.clip((SLOT_SECONDS + RAMP_SECONDS - p) / RAMP_SECONDS, 0.0, 1.0)
    # raised-cosine edges: a corner in the gate would splatter the loud
    # bands' phase across the whole spectrum in the transition frames
    gate = 0.5 - 0.5 * np.cos(np.pi * np.minimum(up, down))
    return OFF_LEVEL + (1.0 - OFF_LEVEL) * gate


def band_noise_source(
    rng: np.random.Generator, duration: float, sample_rate: int, band_group: int
) -> Waveform:
    """Random noise confined to sparse frequency bands, gated and modulated.

    ``band_group`` (0 or 1) selects the group's low band, next to the
    shared high bands, and the parity of the active time slots.
    """
    return _band_noises(rng, duration, sample_rate, [band_group])[0]


def _group_bands(band_group: int) -> Tuple[Tuple[int, int], ...]:
    return (LOW_GROUP_BANDS[band_group % 2],) + HIGH_BANDS


def _shaped_noise(
    rng: np.random.Generator, n: int, bands: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """White noise shaped in the frequency domain of the full signal."""
    scale = n / ANALYSIS_BINS
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    for start, stop in bands:
        lo = int(round(start * scale))
        hi = min(int(round(stop * scale)), spectrum.size)
        width = hi - lo
        spectrum[lo:hi] = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    return np.fft.irfft(spectrum, n=n)


def _envelope(rng: np.random.Generator, t: np.ndarray, duration: float) -> np.ndarray:
    """Slow positive envelope, so short-time energy fluctuates even in-slot."""
    n_knots = max(4, int(duration * ENVELOPE_HZ) + 1)
    knots = rng.uniform(0.3, 1.0, size=n_knots)
    return np.interp(t, np.linspace(0.0, duration, n_knots), knots)


def _fade(n: int, sample_rate: int) -> np.ndarray:
    """Raised-cosine ramp that fades both ends in (reversed at the end): a
    hard truncation edge splatters the bands' phase across the whole
    spectrum of the frames containing it."""
    n_fade = min(int(round(RAMP_SECONDS * sample_rate)), n // 2)
    return 0.5 - 0.5 * np.cos(np.pi * np.arange(n_fade) / n_fade)


def _fade_and_normalise(out: np.ndarray, fade: np.ndarray) -> None:
    """Fade both ends of ``out`` in place and scale its peak to PEAK_AMPLITUDE."""
    if fade.size:
        out[: fade.size] *= fade
        out[-fade.size :] *= fade[::-1]
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= PEAK_AMPLITUDE / peak


def make_source_pool(
    seed: int,
    count: int,
    duration: float,
    sample_rate: int,
) -> dict:
    """Seeded dictionary of band-noise sources keyed src000, src001, ...

    Sources alternate between the two groups, so any pair drawn from
    opposite parities is W-disjoint by construction (disjoint low bands,
    complementary time slots in the shared high bands). Source ``i`` equals
    ``band_noise_source(rng, duration, sample_rate, band_group=i % 2)``
    drawn in turn from one generator.
    """
    groups = [i % 2 for i in range(count)]
    sources = _band_noises(np.random.default_rng(seed), duration, sample_rate, groups)
    return {f"src{i:03d}": wave for i, wave in enumerate(sources)}


def _band_noises(
    rng: np.random.Generator, duration: float, sample_rate: int, groups: Sequence[int]
) -> List[Waveform]:
    """One band-noise source per band group of ``groups``, drawn in turn from
    ``rng``: shaped noise, envelope, slot gate, then fade and normalise. The
    time axis, the fade and each group's slot gate are computed once, first."""
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    gates = {group: _slot_gate(t, group) for group in set(groups)}
    fade = _fade(n, sample_rate)
    sources = []
    for group in groups:
        out = _shaped_noise(rng, n, _group_bands(group))
        out *= _envelope(rng, t, duration)
        out *= gates[group]
        _fade_and_normalise(out, fade)
        sources.append(Waveform(out, sample_rate))
    return sources
