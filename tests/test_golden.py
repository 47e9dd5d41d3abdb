"""Checked-in output digests: the bytes of fixed ``regionsep`` output trees.

``golden.json`` holds each case's ``tree_digest``, keyed by NumPy's
major.minor version and the machine, because the last bits of the numbers
are NumPy's. With no matching key the test skips. A change that alters a
digest is a deliberate one: regenerate with ``python tests/test_golden.py``
(from the repo root, with ``src`` on ``PYTHONPATH``) and say which digest
changed and why.
"""

import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from regionsep import read_manifest, save_hrir_bank, write_wav
from regionsep.cli import main
from helpers import mixed_tap_bank, single_source_scene, tree_digest, two_source_scene

GOLDEN = Path(__file__).with_name("golden.json")
KEY = f"numpy-{'.'.join(np.__version__.split('.')[:2])}/{platform.machine()}"


def _dataset(seed, *extra, tuples=6):
    argv = ["dataset", "--num", "12", "--tuples", str(tuples), "--seed", str(seed)]
    argv += extra
    return lambda work, out: main(argv + ["--out", str(out)])


def _synth(with_bank):
    def run(work, out):
        argv = ["synth", "--num-scenes", "8", "--seed", "5", "--out", str(out)]
        if with_bank:
            save_hrir_bank(mixed_tap_bank(), work / "bank.hrir")
            argv += ["--hrir-bank", str(work / "bank.hrir")]
        return main(argv)

    return run


def _separate(make_input, outcome):
    def run(work, out):
        wav = work / "input.wav"
        write_wav(make_input(), wav)
        code = main(["separate", str(wav), "--diagnostics", "--out", str(out)])
        entries = read_manifest(out / "manifest.jsonl")
        assert entries[-1].outcome.startswith(outcome), entries
        return code

    return run


CASES = {
    "dataset-seed0": _dataset(0),
    "dataset-seed7": _dataset(7),
    "dataset-seed4203": _dataset(4203),
    "dataset-seed7-clean0": _dataset(7, "--clean-ratio", "0"),
    "dataset-seed7-clean1": _dataset(7, "--clean-ratio", "1"),
    "dataset-seed7-tuples0": _dataset(7, tuples=0),
    "synth": _synth(with_bank=False),
    "synth-hrir-bank": _synth(with_bank=True),
    # 4, 20 and 120 s: one frame block, a few, and many
    "separate-discard": _separate(
        lambda: two_source_scene(15.0, 25.0, seed=23)[0], "discarded"
    ),
    "separate-passthrough": _separate(
        lambda: single_source_scene(50.0, seed=21, duration=20.0)[0], "passthrough"
    ),
    "separate-separated": _separate(
        lambda: two_source_scene(315.0, 45.0, seed=22, duration=120.0)[0], "separated"
    ),
}


def _digest(name, work: Path) -> str:
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    assert CASES[name](work, out) == 0, name
    return tree_digest(out)


def _golden() -> dict:
    return json.loads(GOLDEN.read_text()).get(KEY, {})


def test_every_case_has_a_golden_digest_under_some_key():
    table = json.loads(GOLDEN.read_text())
    assert table
    for key, digests in table.items():
        assert sorted(digests) == sorted(CASES), key


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_tree_matches_its_golden_digest(tmp_path, name):
    golden = _golden()
    if not golden:
        pytest.skip(f"golden.json has no digests for {KEY}")
    assert _digest(name, tmp_path) == golden[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: _digest(name, Path(tmp) / name) for name in sorted(CASES)}
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    table[KEY] = digests
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests under {KEY} to {GOLDEN}", file=sys.stderr)
