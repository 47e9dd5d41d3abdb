"""Azimuth-indexed HRIR bank container and its binary file format.

The bank file layout (all little-endian):

    magic "HRIRBANK" | version u32 | sample_rate u32 | entry count u32
    per entry: azimuth f64 (degrees) | tap count u32 | left taps f64[] | right taps f64[]

The file ends after the last entry; ``load_hrir_bank`` rejects any byte after it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import AudioFormatError, Waveform

BANK_MAGIC = b"HRIRBANK"
BANK_VERSION = 1
SNAP_TOLERANCE_DEG = 10.0


@dataclass(frozen=True)
class HrirBank:
    """Left/right impulse-response pairs keyed by azimuth in [0, 360); both
    ears of a pair have the same tap count."""

    entries: dict  # azimuth degrees -> (left: Waveform, right: Waveform)
    sample_rate: int

    def __post_init__(self):
        if not self.entries:
            raise ValueError("HRIR bank must contain at least one entry")
        for az, (left, right) in self.entries.items():
            if not 0.0 <= az < 360.0:
                raise ValueError(f"azimuth {az} outside [0, 360)")
            if left.sample_rate != self.sample_rate or right.sample_rate != self.sample_rate:
                raise ValueError(f"sample-rate mismatch at azimuth {az}")
            if not len(left) or not len(right):
                raise ValueError(f"empty impulse response at azimuth {az}")
            if len(left) != len(right):
                raise ValueError(f"left/right tap count mismatch at azimuth {az}")

    @property
    def azimuths(self) -> np.ndarray:
        return np.array(sorted(self.entries), dtype=np.float64)

    def nearest_azimuth(self, azimuth: float) -> float:
        """The closest bank azimuth (circular distance), within SNAP_TOLERANCE_DEG."""
        azs = self.azimuths
        dist = np.abs((azs - azimuth + 180.0) % 360.0 - 180.0)
        k = int(np.argmin(dist))
        if dist[k] > SNAP_TOLERANCE_DEG:
            raise ValueError(
                f"no bank azimuth within {SNAP_TOLERANCE_DEG} degrees of {azimuth}"
            )
        return float(azs[k])


def save_hrir_bank(bank: HrirBank, path) -> None:
    parts = [
        BANK_MAGIC,
        struct.pack("<III", BANK_VERSION, bank.sample_rate, len(bank.entries)),
    ]
    for az in sorted(bank.entries):
        left, right = bank.entries[az]
        parts.append(struct.pack("<dI", az, len(left)))
        parts.append(left.samples.astype("<f8").tobytes())
        parts.append(right.samples.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_hrir_bank(path) -> HrirBank:
    data = Path(path).read_bytes()
    try:
        if len(data) < len(BANK_MAGIC) + 12 or not data.startswith(BANK_MAGIC):
            raise AudioFormatError("not an HRIR bank file")
        pos = len(BANK_MAGIC)
        version, sample_rate, count = struct.unpack_from("<III", data, pos)
        pos += 12
        if version != BANK_VERSION:
            raise AudioFormatError(f"unsupported bank version {version}")
        entries = {}
        for _ in range(count):
            if pos + 12 > len(data):
                raise AudioFormatError("truncated HRIR bank")
            azimuth, taps = struct.unpack_from("<dI", data, pos)
            pos += 12
            nbytes = taps * 8
            if pos + 2 * nbytes > len(data):
                raise AudioFormatError("truncated HRIR bank entry")
            left = np.frombuffer(data, dtype="<f8", count=taps, offset=pos).copy()
            pos += nbytes
            right = np.frombuffer(data, dtype="<f8", count=taps, offset=pos).copy()
            pos += nbytes
            if azimuth in entries:
                raise AudioFormatError(f"duplicate azimuth {azimuth}")
            entries[azimuth] = (Waveform(left, sample_rate), Waveform(right, sample_rate))
        if pos < len(data):
            extra = len(data) - pos
            raise AudioFormatError(f"{extra} bytes after entry {count} of {count}")
        return HrirBank(entries=entries, sample_rate=sample_rate)
    except ValueError as exc:
        # also no entry, a rate of 0, a NaN tap or a bad azimuth (``HrirBank``)
        raise AudioFormatError(f"HRIR bank {path}: {exc}") from exc
