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

from typing import Optional, Sequence, Tuple

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


def _slot_gate(
    t: np.ndarray, parity: int, slot_seconds: float, ramp_seconds: float
) -> np.ndarray:
    """Smooth gate, high on slots of the given parity, OFF_LEVEL between."""
    p = np.mod(t - (parity % 2) * slot_seconds, 2.0 * slot_seconds)
    up = np.clip(p / ramp_seconds, 0.0, 1.0)
    down = np.clip((slot_seconds + ramp_seconds - p) / ramp_seconds, 0.0, 1.0)
    # raised-cosine edges: a corner in the gate would splatter the loud
    # bands' phase across the whole spectrum in the transition frames
    gate = 0.5 - 0.5 * np.cos(np.pi * np.minimum(up, down))
    return OFF_LEVEL + (1.0 - OFF_LEVEL) * gate


def band_noise_source(
    rng: np.random.Generator,
    duration: float,
    sample_rate: int,
    bands: Optional[Sequence[Tuple[int, int]]] = None,
    band_group: Optional[int] = None,
) -> Waveform:
    """Random noise confined to sparse frequency bands, gated and modulated.

    ``bands`` are half-open ``(start, stop)`` intervals in analysis-bin
    units (sample_rate/1024 Hz each); when omitted they are the group's
    low band plus the shared high bands. ``band_group`` (0 or 1, random
    when None) also selects the parity of the active time slots.
    """
    n = int(round(duration * sample_rate))
    if band_group is None:
        band_group = int(rng.integers(2))
    if bands is None:
        bands = _group_bands(band_group)
    out = _shaped_noise(rng, n, bands)
    t = np.arange(n) / sample_rate
    out *= _envelope(rng, t, duration)
    out *= _slot_gate(t, band_group, SLOT_SECONDS, RAMP_SECONDS)
    _fade_and_normalise(out, _fade(n, sample_rate))
    return Waveform(out, sample_rate)


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
    drawn in turn from one generator; the time axis, the fade and each
    parity's slot gate are computed once for all of them.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    gates = [
        _slot_gate(t, parity, SLOT_SECONDS, RAMP_SECONDS)
        for parity in range(min(count, 2))
    ]
    fade = _fade(n, sample_rate)
    pool = {}
    for i in range(count):
        out = _shaped_noise(rng, n, _group_bands(i))
        out *= _envelope(rng, t, duration)
        out *= gates[i % 2]
        _fade_and_normalise(out, fade)
        pool[f"src{i:03d}"] = Waveform(out, sample_rate)
    return pool
