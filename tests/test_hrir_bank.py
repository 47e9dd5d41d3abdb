"""HRIR bank container and binary format tests."""

import struct

import numpy as np
import pytest

from regionsep import Waveform, load_hrir_bank, save_hrir_bank
from regionsep.audio import AudioFormatError
from regionsep.hrir import BANK_MAGIC, BANK_VERSION, HrirBank


def _bank(azimuths, taps=8, sr=16000):
    rng = np.random.default_rng(0)
    entries = {
        float(az): (
            Waveform(rng.standard_normal(taps) * 0.1, sr),
            Waveform(rng.standard_normal(taps) * 0.1, sr),
        )
        for az in azimuths
    }
    return HrirBank(entries=entries, sample_rate=sr)


def test_four_azimuths_four_entries():
    bank = _bank([0, 90, 180, 270])
    assert len(bank.entries) == 4
    assert np.array_equal(bank.azimuths, [0.0, 90.0, 180.0, 270.0])


def test_save_load_round_trip_bit_exact(tmp_path):
    bank = _bank([0, 45, 117.5])
    path = tmp_path / "bank.hrir"
    save_hrir_bank(bank, path)
    back = load_hrir_bank(path)
    assert back.sample_rate == bank.sample_rate
    assert np.array_equal(back.azimuths, bank.azimuths)
    for az in bank.entries:
        assert np.array_equal(back.entries[az][0].samples, bank.entries[az][0].samples)
        assert np.array_equal(back.entries[az][1].samples, bank.entries[az][1].samples)


def test_duplicate_azimuth_rejected(tmp_path):
    taps = 2
    entry = struct.pack("<dI", 45.0, taps) + np.zeros(2 * taps).tobytes()
    data = BANK_MAGIC + struct.pack("<III", BANK_VERSION, 16000, 2) + entry + entry
    path = tmp_path / "dup.hrir"
    path.write_bytes(data)
    with pytest.raises(AudioFormatError, match="duplicate azimuth"):
        load_hrir_bank(path)


def test_truncated_bank_rejected(tmp_path):
    bank = _bank([0, 45])
    path = tmp_path / "trunc.hrir"
    save_hrir_bank(bank, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(AudioFormatError, match="truncated"):
        load_hrir_bank(path)


def test_bytes_after_the_declared_entries_rejected(tmp_path):
    # a bank file ends after its last entry, so neither a count field
    # below the entries that follow it nor appended bytes load
    path = tmp_path / "bank.hrir"
    save_hrir_bank(_bank(np.arange(0, 360, 5)), path)
    data = path.read_bytes()
    count = len(BANK_MAGIC) + 8
    assert struct.unpack_from("<I", data, count) == (72,)
    entry = 12 + 2 * 8 * 8  # 8 taps an ear
    path.write_bytes(data[:count] + struct.pack("<I", 3) + data[count + 4 :])
    with pytest.raises(AudioFormatError, match=f"{69 * entry} bytes after entry 3 of 3"):
        load_hrir_bank(path)
    path.write_bytes(data + b"junk")
    with pytest.raises(AudioFormatError, match="4 bytes after entry 72 of 72"):
        load_hrir_bank(path)


def test_bank_rejects_unequal_ear_taps():
    # the bank file holds one tap count per entry, and so does the bank
    left, right = Waveform(np.zeros(4), 16000), Waveform(np.zeros(5), 16000)
    with pytest.raises(ValueError, match="tap count mismatch at azimuth 45.0"):
        HrirBank(entries={45.0: (left, right)}, sample_rate=16000)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.hrir"
    path.write_bytes(b"NOTABANK" + b"\x00" * 16)
    with pytest.raises(AudioFormatError, match="not an HRIR bank"):
        load_hrir_bank(path)


def test_nearest_azimuth_circular():
    bank = _bank([0, 90, 180, 270, 355])
    assert bank.nearest_azimuth(357.0) == 355.0
    assert bank.nearest_azimuth(1.0) == 0.0
    assert bank.nearest_azimuth(95.0) == 90.0
    with pytest.raises(ValueError, match="within"):
        bank.nearest_azimuth(45.0)


def test_bank_validation():
    with pytest.raises(ValueError, match="at least one entry"):
        HrirBank(entries={}, sample_rate=16000)
    wave = Waveform(np.zeros(4), 16000)
    with pytest.raises(ValueError, match="outside"):
        HrirBank(entries={360.0: (wave, wave)}, sample_rate=16000)
    other = Waveform(np.zeros(4), 8000)
    with pytest.raises(ValueError, match="sample-rate mismatch"):
        HrirBank(entries={0.0: (wave, other)}, sample_rate=16000)
    empty = Waveform(np.zeros(0), 16000)
    with pytest.raises(ValueError, match="empty impulse response"):
        HrirBank(entries={0.0: (wave, empty)}, sample_rate=16000)
