"""WAV file I/O and the core audio value types.

All audio in this package flows through two immutable containers:
``Waveform`` (mono) and ``BinauralSignal`` (left/right pair). WAV support
covers RIFF PCM 16-bit (read/write) and IEEE float 32-bit (read only),
1 or 2 channels.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

PCM16_SCALE = 32768.0
ENCODE_BLOCK = 1 << 15  # frames per write_wav block: 256 KB of float64

# canonical project rate; mismatched rates are rejected, never resampled
DEFAULT_SAMPLE_RATE = 16000


class AudioFormatError(ValueError):
    """Raised for malformed or unsupported WAV / bank files."""


@dataclass(frozen=True)
class Waveform:
    """A mono sample sequence at a fixed sample rate.

    Samples are float64, nominally in [-1, 1], and must be finite.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        _check_shape_and_rate(samples, self.sample_rate)
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or Inf")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def _check_shape_and_rate(samples: np.ndarray, sample_rate: int) -> None:
    if samples.ndim != 1:
        raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")


def finite_waveform(samples: np.ndarray, sample_rate: int) -> Waveform:
    """A Waveform of float64 samples that are finite by construction, such as
    decoded PCM-16 or the package's own transforms and sums of finite
    signals: the shape and rate are checked, the samples not scanned.
    Build a ``Waveform`` from any other array, which scans it."""
    _check_shape_and_rate(samples, sample_rate)
    wave = object.__new__(Waveform)
    object.__setattr__(wave, "samples", samples)
    object.__setattr__(wave, "sample_rate", sample_rate)
    return wave


@dataclass(frozen=True)
class BinauralSignal:
    """Synchronized left/right waveforms of equal length and rate."""

    left: Waveform
    right: Waveform

    def __post_init__(self):
        if len(self.left) != len(self.right):
            raise ValueError(
                f"channel length mismatch: {len(self.left)} vs {len(self.right)}"
            )
        if self.left.sample_rate != self.right.sample_rate:
            raise ValueError(
                f"channel sample-rate mismatch: {self.left.sample_rate} "
                f"vs {self.right.sample_rate}"
            )

    def __len__(self) -> int:
        return len(self.left)

    @property
    def sample_rate(self) -> int:
        return self.left.sample_rate


AnySignal = Union[Waveform, BinauralSignal]


def _parse_riff_chunks(data: memoryview):
    """Map each chunk id to its first body (a view of ``data``), and name a
    chunk cut off by EOF.

    Returns ``(chunks, truncated)``: a chunk whose declared size runs past
    the end of the file is the last one, is left out of ``chunks``, and its
    id and declared size are returned as ``truncated`` (None if there is
    no such chunk).
    """
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise AudioFormatError("not a RIFF/WAVE file")
    pos = 12
    chunks = {}
    while pos + 8 <= len(data):
        cid = bytes(data[pos : pos + 4])
        (size,) = struct.unpack_from("<I", data, pos + 4)
        if pos + 8 + size > len(data):
            return chunks, (cid, size)
        if cid not in chunks:
            chunks[cid] = data[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    return chunks, None


def read_wav(path) -> AnySignal:
    """Read a PCM-16 or float-32 WAV file.

    Mono files yield a Waveform; stereo files yield a BinauralSignal with
    channel 0 as the left ear. PCM samples are normalized by 32768.
    """
    data = Path(path).read_bytes()
    chunks, truncated = _parse_riff_chunks(memoryview(data))
    if truncated is not None:
        cid, size = truncated
        # a cut-off trailing metadata chunk loses no audio; a cut fmt or
        # data chunk does
        if cid in (b"fmt ", b"data") and cid not in chunks:
            raise AudioFormatError(
                f"truncated {cid.decode('latin-1')!r} chunk: declares {size} "
                "bytes, past the end of the file"
            )
    if b"fmt " not in chunks or b"data" not in chunks:
        raise AudioFormatError("missing fmt or data chunk")
    fmt = chunks[b"fmt "]
    if len(fmt) < 16:
        raise AudioFormatError("fmt chunk too short")
    audio_format, channels, sample_rate, _, _, bits = struct.unpack_from(
        "<HHIIHH", fmt, 0
    )
    if audio_format == 0xFFFE and len(fmt) >= 40:
        # WAVE_FORMAT_EXTENSIBLE: sub-format GUID starts with the real tag
        (audio_format,) = struct.unpack_from("<H", fmt, 24)
    if channels not in (1, 2):
        raise AudioFormatError(f"unsupported channel count: {channels}")

    raw = chunks[b"data"]
    if audio_format == 1 and bits == 16:
        dtype = "<i2"
    elif audio_format == 3 and bits == 32:
        dtype = "<f4"
    else:
        raise AudioFormatError(
            f"unsupported encoding: format tag {audio_format}, {bits}-bit"
        )
    frame_bytes = channels * bits // 8
    if len(raw) % frame_bytes:
        raise AudioFormatError(
            f"data chunk of {len(raw)} bytes ends in a partial "
            f"{frame_bytes}-byte frame"
        )
    # each channel is decoded straight from the file's buffer; int16 and
    # float32 values, and their division by 2**15, are exact in float64
    interleaved = np.frombuffer(raw, dtype=dtype).reshape(-1, channels)
    waves = []
    for c in range(channels):
        samples = interleaved[:, c].astype(np.float64)
        if audio_format == 1:
            # int16 / 2**15 cannot be NaN or Inf, so only float-32 is scanned
            samples /= PCM16_SCALE
            waves.append(finite_waveform(samples, sample_rate))
        else:
            waves.append(Waveform(samples, sample_rate))
    return waves[0] if channels == 1 else BinauralSignal(*waves)


def write_wav(signal: AnySignal, path) -> int:
    """Write a 16-bit PCM WAV file.

    Samples outside [-1, 1] are clipped; returns the number of clipped
    samples. Round trip with read_wav is within one quantization step.

    Samples are encoded ``ENCODE_BLOCK`` frames at a time into one int16
    array, through one reused float buffer: scale by 32768, round half
    to even, clip. The payload goes out after the header in a single
    write, so the transient memory is the payload plus one block.
    """
    if isinstance(signal, BinauralSignal):
        columns = (signal.left.samples, signal.right.samples)
    else:
        columns = (signal.samples,)
    channels, n = len(columns), len(signal)

    ints = np.empty((n, channels), dtype="<i2")
    scaled = np.empty(min(n, ENCODE_BLOCK))
    clipped = 0
    for s in range(0, n, ENCODE_BLOCK):
        e = min(s + ENCODE_BLOCK, n)
        buf = scaled[: e - s]
        for c, samples in enumerate(columns):
            # scaling by a power of two is exact, so |x| > 1 iff |buf| > 32768
            np.multiply(samples[s:e], PCM16_SCALE, out=buf)
            clipped += int(np.count_nonzero(np.abs(buf) > PCM16_SCALE))
            np.rint(buf, out=buf)
            np.clip(buf, -32768, 32767, out=buf)
            ints[s:e, c] = buf

    payload = ints.nbytes
    byte_rate = signal.sample_rate * channels * 2
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + payload),
            b"WAVE",
            b"fmt ",
            struct.pack(
                "<IHHIIHH", 16, 1, channels, signal.sample_rate, byte_rate, channels * 2, 16
            ),
            b"data",
            struct.pack("<I", payload),
        ]
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(ints)
    return clipped
