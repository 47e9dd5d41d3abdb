"""WAV reader/writer contract tests."""

import struct
import tracemalloc

import numpy as np
import pytest

from regionsep import BinauralSignal, Waveform, read_wav, write_wav
from regionsep.audio import AudioFormatError
from regionsep.audio import ENCODE_BLOCK, finite_waveform, max_wav_frames, max_wav_rate
from helpers import oracle_decode, oracle_write_wav, wav_bytes

LSB = 1 / 32768
# full scale, just beyond it, and half-LSB ties, which round half to even
EDGE_SAMPLES = np.array(
    [
        1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 1.5, -3.0,
        0.5 * LSB, -0.5 * LSB, 1.5 * LSB, -1.5 * LSB, 2.5 * LSB,
        32766.5 * LSB, 32767.5 * LSB, -32767.5 * LSB, -32768.5 * LSB,
    ]
)


def _pcm16_wav(channels: int, sample_rate: int, payload: bytes) -> bytes:
    return wav_bytes(1, channels, sample_rate, 16, payload)


def _float32_wav(channels: int, payload: bytes) -> bytes:
    return wav_bytes(3, channels, 16000, 32, payload)


def test_pcm16_max_sample_normalization(tmp_path):
    path = tmp_path / "max.wav"
    path.write_bytes(_pcm16_wav(1, 16000, struct.pack("<h", 32767)))
    wave = read_wav(path)
    assert isinstance(wave, Waveform)
    assert wave.samples[0] == 32767 / 32768


def test_zero_length_data_chunk(tmp_path):
    path = tmp_path / "empty.wav"
    path.write_bytes(_pcm16_wav(1, 16000, b""))
    wave = read_wav(path)
    assert isinstance(wave, Waveform)
    assert len(wave) == 0


def test_pcm16_header_rate_of_zero_rejected(tmp_path):
    path = tmp_path / "rate0.wav"
    path.write_bytes(_pcm16_wav(1, 0, struct.pack("<h", 5)))
    with pytest.raises(ValueError, match="sample_rate must be positive"):
        read_wav(path)


def test_three_channels_rejected(tmp_path):
    path = tmp_path / "quad.wav"
    path.write_bytes(_pcm16_wav(3, 16000, struct.pack("<3h", 0, 0, 0)))
    with pytest.raises(AudioFormatError, match="unsupported channel count"):
        read_wav(path)


def test_stereo_sine_round_trip_quantization(tmp_path):
    t = np.arange(16000) / 16000
    signal = BinauralSignal(
        Waveform(0.8 * np.sin(2 * np.pi * 440 * t), 16000),
        Waveform(0.5 * np.sin(2 * np.pi * 220 * t), 16000),
    )
    path = tmp_path / "sine.wav"
    assert write_wav(signal, path) == 0
    back = read_wav(path)
    assert isinstance(back, BinauralSignal)
    assert back.sample_rate == 16000
    assert np.max(np.abs(back.left.samples - signal.left.samples)) <= 1 / 32768
    assert np.max(np.abs(back.right.samples - signal.right.samples)) <= 1 / 32768


def test_all_zero_round_trip_bit_exact(tmp_path):
    signal = Waveform(np.zeros(1000), 16000)
    path = tmp_path / "zeros.wav"
    write_wav(signal, path)
    back = read_wav(path)
    assert np.array_equal(back.samples, signal.samples)


def test_clipping_counted(tmp_path):
    signal = Waveform(np.array([0.5, 1.5, -0.25]), 16000)
    path = tmp_path / "clip.wav"
    assert write_wav(signal, path) == 1
    back = read_wav(path)
    assert back.samples[1] == 32767 / 32768  # clipped to full scale


def test_float32_read(tmp_path):
    samples = np.array([0.25, -0.5, 0.125], dtype="<f4")
    path = tmp_path / "f32.wav"
    path.write_bytes(_float32_wav(1, samples.tobytes()))
    wave = read_wav(path)
    assert np.allclose(wave.samples, samples.astype(np.float64))


def _extensible_wav(tag: int, channels: int, bits: int, payload: bytes) -> bytes:
    """A WAVE_FORMAT_EXTENSIBLE file whose sub-format GUID starts with ``tag``."""
    block = channels * bits // 8
    guid = struct.pack("<H", tag) + bytes.fromhex("000000001000800000aa00389b71")
    fmt = struct.pack(
        "<HHIIHHHHI", 0xFFFE, channels, 16000, 16000 * block, block, bits, 22, bits, 0
    )
    fmt += guid
    return b"".join(
        [
            b"RIFF",
            struct.pack("<I", 20 + len(fmt) + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<I", len(fmt)),
            fmt,
            b"data",
            struct.pack("<I", len(payload)),
            payload,
        ]
    )


def test_extensible_format_reads_as_its_sub_format(tmp_path):
    pcm = np.array([[0, -32768], [32767, 1234], [-5, 6]], dtype="<i2")
    path = tmp_path / "pcm_ext.wav"
    path.write_bytes(_extensible_wav(1, 2, 16, pcm.tobytes()))
    stereo = read_wav(path)
    assert np.array_equal(stereo.left.samples, pcm[:, 0] / 32768.0)
    assert np.array_equal(stereo.right.samples, pcm[:, 1] / 32768.0)

    floats = np.array([0.25, -0.5, 0.125], dtype="<f4")
    path = tmp_path / "f32_ext.wav"
    path.write_bytes(_extensible_wav(3, 1, 32, floats.tobytes()))
    assert np.array_equal(read_wav(path).samples, floats.astype(np.float64))


def test_truncated_data_chunk_rejected(tmp_path):
    signal = Waveform(np.linspace(-0.5, 0.5, 1000), 16000)
    path = tmp_path / "cut.wav"
    write_wav(signal, path)
    path.write_bytes(path.read_bytes()[:1000])  # cut mid-chunk
    with pytest.raises(AudioFormatError, match="truncated 'data' chunk"):
        read_wav(path)


def test_truncated_trailing_chunk_ignored(tmp_path):
    # complete fmt and data chunks followed by a cut-off LIST chunk: no
    # audio is missing, so the file still reads
    signal = Waveform(np.linspace(-0.5, 0.5, 1000), 16000)
    path = tmp_path / "tail.wav"
    write_wav(signal, path)
    whole = read_wav(path).samples
    path.write_bytes(path.read_bytes() + b"LIST" + struct.pack("<I", 64) + b"INFO")
    assert np.array_equal(read_wav(path).samples, whole)


@pytest.mark.parametrize("channels, payload_bytes", [(1, 3), (2, 6)])
def test_partial_frame_rejected(tmp_path, channels, payload_bytes):
    # odd-byte PCM-16, and a stereo payload ending half-way through a frame
    path = tmp_path / "partial.wav"
    path.write_bytes(_pcm16_wav(channels, 16000, b"\x01" * payload_bytes))
    with pytest.raises(AudioFormatError, match="partial"):
        read_wav(path)


def test_not_riff_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(AudioFormatError, match="RIFF"):
        read_wav(path)


def test_waveform_validation():
    with pytest.raises(ValueError, match="1-D"):
        Waveform(np.zeros((2, 2)), 16000)
    with pytest.raises(ValueError, match="NaN"):
        Waveform(np.array([0.0, np.nan]), 16000)
    with pytest.raises(ValueError, match="sample_rate"):
        Waveform(np.zeros(4), 0)


def test_binaural_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        BinauralSignal(Waveform(np.zeros(3), 16000), Waveform(np.zeros(4), 16000))
    with pytest.raises(ValueError, match="sample-rate mismatch"):
        BinauralSignal(Waveform(np.zeros(3), 16000), Waveform(np.zeros(3), 8000))


def _edge_signal(rng, length):
    """Uniform samples a little past full scale, with the edge cases spread in."""
    samples = rng.uniform(-1.05, 1.05, length)
    at = rng.integers(0, length, size=min(length, 4 * EDGE_SAMPLES.size))
    samples[at] = rng.choice(EDGE_SAMPLES, size=at.size)
    return Waveform(samples, 16000)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize(
    "length",
    [0, 1, ENCODE_BLOCK - 1, ENCODE_BLOCK, ENCODE_BLOCK + 1, 3 * ENCODE_BLOCK + 7],
)
def test_codec_equals_whole_array_oracle(tmp_path, channels, length):
    rng = np.random.default_rng(length * 2 + channels)
    waves = [_edge_signal(rng, length) for _ in range(channels)]
    if length == 1:  # one sample per channel: make it a tie
        waves = [Waveform(np.array([32767.5 * LSB]), 16000) for _ in waves]
    signal = waves[0] if channels == 1 else BinauralSignal(*waves)
    got, want = tmp_path / "got.wav", tmp_path / "want.wav"

    assert write_wav(signal, got) == oracle_write_wav(signal, want)
    data = got.read_bytes()
    assert data == want.read_bytes()

    back = read_wav(got)
    decoded = [back] if channels == 1 else [back.left, back.right]
    for wave, expected in zip(decoded, oracle_decode(data[44:], channels, "<i2")):
        assert np.array_equal(wave.samples, expected)


@pytest.mark.parametrize("channels", [1, 2])
def test_float32_read_equals_whole_array_oracle(tmp_path, channels):
    rng = np.random.default_rng(channels)
    values = rng.uniform(-2.0, 2.0, 3 * ENCODE_BLOCK + 7).astype("<f4")
    values[: EDGE_SAMPLES.size] = EDGE_SAMPLES
    values = values[: len(values) // channels * channels]
    payload = values.tobytes()
    path = tmp_path / "f32.wav"
    path.write_bytes(_float32_wav(channels, payload))
    back = read_wav(path)
    decoded = [back] if channels == 1 else [back.left, back.right]
    for wave, expected in zip(decoded, oracle_decode(payload, channels, "<f4")):
        assert np.array_equal(wave.samples, expected)


def test_float32_nan_rejected(tmp_path):
    payload = np.array([0.0, np.nan], dtype="<f4").tobytes()
    path = tmp_path / "nan.wav"
    path.write_bytes(_float32_wav(1, payload))
    with pytest.raises(ValueError, match="NaN"):
        read_wav(path)


def test_write_wav_traced_memory_is_payload_plus_two_megabytes(tmp_path):
    seconds = 120
    rng = np.random.default_rng(0)
    n = seconds * 16000
    signal = BinauralSignal(
        Waveform(rng.uniform(-1.0, 1.0, n), 16000),
        Waveform(rng.uniform(-1.0, 1.0, n), 16000),
    )
    payload = n * 2 * 2
    tracemalloc.start()
    try:
        write_wav(signal, tmp_path / "long.wav")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= payload + 2_000_000


@pytest.mark.parametrize("channels", [1, 2])
def test_write_wav_refuses_a_signal_longer_than_a_file_holds(tmp_path, channels):
    # zero-stride views: a signal one frame over the limit that allocates nothing
    n = max_wav_frames(channels) + 1
    wave = finite_waveform(np.broadcast_to(0.0, (n,)), 16000)
    signal = wave if channels == 1 else BinauralSignal(wave, wave)
    path = tmp_path / "long.wav"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"at most {max_wav_frames(channels)}"):
            write_wav(signal, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert not path.exists()
    # a file at the limit fits its 32-bit RIFF size field, one frame more not
    frame_bytes = 2 * channels
    assert 36 + frame_bytes * (n - 1) <= 2**32 - 1 < 36 + frame_bytes * n


@pytest.mark.parametrize("channels", [1, 2])
def test_write_wav_refuses_a_rate_its_header_cannot_hold(tmp_path, channels):
    # the byte rate, 2 bytes per channel per frame, is a 32-bit field
    limit = max_wav_rate(channels)
    assert limit * 2 * channels <= 2**32 - 1 < (limit + 1) * 2 * channels
    samples = np.linspace(-0.5, 0.5, 11)
    for rate in (limit, limit + 1):
        wave = Waveform(samples, rate)
        signal = wave if channels == 1 else BinauralSignal(wave, wave)
        path = tmp_path / f"{rate}.wav"
        if rate == limit:
            write_wav(signal, path)
            back = read_wav(path)
            assert back.sample_rate == limit and len(back) == 11
        else:
            with pytest.raises(ValueError, match=f"at most {limit}"):
                write_wav(signal, path)
            assert not path.exists()
