"""Self-supervision dataset construction.

Two protocols: (a) harvest "dirty" sources by mixing clean sources
pairwise, running the spatial separator, and labeling the outputs by the
region their ITD implies; (b) synthesize region-wise training tuples
(per-region references plus their exact-sum mixture) from a harvested
database, optionally swapping dirty sources for their clean originals at
a configurable rate.

A harvest that keeps its records out of the calling process puts their
samples in a sample store (``store_records``): a directory of float64
files, one per writing process, that only their writer appends to. Only
this module knows that layout; ``read_stored`` reads one stored signal
back with one positioned read. A tuple's draws read only its records'
labels, so they can be made where the samples are not (``draw_tuples``),
and its signals read and summed elsewhere (``sum_tuple``).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .audio import BinauralSignal, Waveform, finite_waveform
from .hrir import HrirBank
from .parallel import seeded_tasks
from .scenes import (
    RegionLayout,
    draw_region_first,
    region_of_itd,
    render_binaural_source,
    spherical_itd,
    sum_regions,
)
from .separation import (
    Discarded,
    Passthrough,
    Separated,
    SeparationConfig,
    SeparationOutcome,
    separate,
)

PROVENANCE_CLEAN = "clean"
PROVENANCE_SINGLE = "stage1_single"
PROVENANCE_SEPARATED = "stage1_separated"

_SAMPLE_BYTES = np.dtype(np.float64).itemsize  # a sample store's element


@dataclass(frozen=True)
class SourceRecord:
    signal: BinauralSignal
    itd: float
    region: int
    provenance: str
    origin_scene: str
    clean_signal: Optional[BinauralSignal] = None

    @property
    def has_clean(self) -> bool:
        return self.clean_signal is not None


@dataclass(frozen=True)
class TrainingTuple:
    mixture: BinauralSignal
    references: Tuple[BinauralSignal, ...]  # one per region
    active: Tuple[bool, ...]
    provenances: Tuple[str, ...]  # per drawn source, diagnostics


@dataclass
class DirtyBuildStats:
    n_mixtures: int = 0
    n_passthrough: int = 0
    n_separated: int = 0
    n_discarded: int = 0
    discard_reasons: Dict[str, int] = field(default_factory=dict)

    def add(self, records: Sequence, reason: Optional[str]) -> None:
        """Count one mixture's outcome: a discard reason, or its records (one
        item per record, such as the record or its manifest entry)."""
        self.n_mixtures += 1
        if reason is not None:
            self.n_discarded += 1
            self.discard_reasons[reason] = self.discard_reasons.get(reason, 0) + 1
        elif len(records) == 1:
            self.n_passthrough += 1
        else:
            self.n_separated += 1

    @property
    def acceptance_rate(self) -> float:
        if self.n_mixtures == 0:
            return 0.0
        return (self.n_passthrough + self.n_separated) / self.n_mixtures

    def to_record(self) -> dict:
        return {**dataclasses.asdict(self), "acceptance_rate": self.acceptance_rate}


def draw_mixture_params(
    rng: np.random.Generator,
    pool_ids: Sequence[str],
    azimuths: Sequence[float],
    delta_tau_min: float,
    delta_tau_max: float,
) -> Tuple[str, float, str, float]:
    """Two distinct sources at azimuths whose model ITDs differ enough.

    Azimuth pairs are drawn until one qualifies; ``check_pair_gap`` first
    proves that one exists, so the draw ends.
    """
    if len(pool_ids) < 2:
        raise ValueError("need at least 2 pool sources")
    check_pair_gap(azimuths, delta_tau_min, delta_tau_max)
    while True:
        az1, az2 = rng.choice(azimuths, size=2, replace=True)
        if _itd_gap(float(az1), float(az2), delta_tau_max) >= delta_tau_min:
            i, j = rng.choice(len(pool_ids), size=2, replace=False)
            return pool_ids[int(i)], float(az1), pool_ids[int(j)], float(az2)


def check_pair_gap(
    azimuths: Sequence[float], delta_tau_min: float, delta_tau_max: float
) -> None:
    """Raise ValueError unless the two of ``azimuths`` widest apart in ITD
    are at least ``delta_tau_min`` apart, so ``draw_mixture_params`` has a
    pair to draw."""
    if len(azimuths) == 0:
        raise ValueError("HRIR bank has no two azimuths: it has no azimuth")
    by_itd = sorted(azimuths, key=lambda az: spherical_itd(float(az), delta_tau_max))
    lo, hi = float(by_itd[0]), float(by_itd[-1])
    widest = _itd_gap(lo, hi, delta_tau_max)
    if widest < delta_tau_min:
        raise ValueError(
            f"HRIR bank has no two azimuths delta_tau_min={delta_tau_min} s "
            f"apart in ITD (the widest pair, {lo} and {hi} deg, is {widest:.3g} s)"
        )


def _itd_gap(az1: float, az2: float, delta_tau_max: float) -> float:
    """The spherical-ITD gap of two azimuths, which a mixture's pair keeps
    at least ``delta_tau_min``."""
    return abs(spherical_itd(az1, delta_tau_max) - spherical_itd(az2, delta_tau_max))


def outcome_records(
    outcome: SeparationOutcome, origin_scene: str, delta_tau_max: float
) -> List[SourceRecord]:
    """The region-labeled records of one separation outcome, in source order.

    A discard gives none, a passthrough its input as one record, and a
    separation its two estimates; each record's region is the one its ITD
    implies.
    """
    if isinstance(outcome, Passthrough):
        labeled = [(outcome.signal, outcome.itd, PROVENANCE_SINGLE)]
    elif isinstance(outcome, Separated):
        labeled = [
            (outcome.source1, outcome.itd1, PROVENANCE_SEPARATED),
            (outcome.source2, outcome.itd2, PROVENANCE_SEPARATED),
        ]
    else:
        return []
    return [
        SourceRecord(sig, itd, region_of_itd(itd, delta_tau_max), prov, origin_scene)
        for sig, itd, prov in labeled
    ]


def harvest_mixture(
    pool: Mapping[str, Waveform],
    bank: HrirBank,
    cfg: SeparationConfig,
    origin: str,
    seed_seq: np.random.SeedSequence,
) -> Tuple[List[SourceRecord], Optional[str]]:
    """Draw a mixture from ``seed_seq``, render it, run stage 1 and harvest
    its labeled records of ``origin``: ``(records, discard_reason)``.

    The pair's ITD gap and the region labels use ``cfg``'s head geometry
    (``delta_tau_min``, ``delta_tau_max``). A separated record carries the
    rendered source nearest its ITD as its clean original.
    """
    rng = np.random.default_rng(seed_seq)
    id1, az1, id2, az2 = draw_mixture_params(
        rng, sorted(pool), bank.azimuths, cfg.delta_tau_min, cfg.delta_tau_max
    )
    duration = max(pool[id1].duration, pool[id2].duration)
    s1 = render_binaural_source(pool[id1], bank, az1, duration)
    s2 = render_binaural_source(pool[id2], bank, az2, duration)
    mixture = BinauralSignal(
        Waveform(s1.left.samples + s2.left.samples, bank.sample_rate),
        Waveform(s1.right.samples + s2.right.samples, bank.sample_rate),
    )

    outcome = separate(mixture, cfg)
    if isinstance(outcome, Discarded):
        return [], outcome.reason
    records = outcome_records(outcome, origin, cfg.delta_tau_max)
    if isinstance(outcome, Separated):
        # the clean original is the rendered source whose model ITD is nearest
        true_itds = [spherical_itd(az, cfg.delta_tau_max) for az in (az1, az2)]
        for k, rec in enumerate(records):
            nearest = int(np.argmin([abs(rec.itd - t) for t in true_itds]))
            records[k] = dataclasses.replace(rec, clean_signal=(s1, s2)[nearest])
    return records, None


@dataclass(frozen=True)
class StoredRecord:
    """A ``SourceRecord`` whose samples are in a sample store file: its
    labels, and the ``(start, length)`` span of each of its signals.

    A signal's span counts float64 elements of ``file``: its left channel's
    ``length`` samples from ``start`` on, then its right channel's.
    ``clean_span`` is None when the record has no clean original.
    """

    region: int
    provenance: str
    origin_scene: str
    file: str
    sample_rate: int
    signal_span: Tuple[int, int]
    clean_span: Optional[Tuple[int, int]]

    @property
    def has_clean(self) -> bool:
        return self.clean_span is not None


def store_records(
    records: Sequence[SourceRecord], store_dir: Path
) -> List[StoredRecord]:
    """Append the records' samples to this process's float64 file in the
    sample store ``store_dir``; return where each record's are. A signal two
    records share is written once."""
    path = store_dir / f"{os.getpid()}.f64"
    spans: Dict[int, Tuple[int, int]] = {}
    with open(path, "ab") as f:
        for rec in records:
            for sig in (rec.signal, rec.clean_signal):
                if sig is not None and id(sig) not in spans:
                    spans[id(sig)] = (f.tell() // _SAMPLE_BYTES, len(sig))
                    f.write(np.ascontiguousarray(sig.left.samples))
                    f.write(np.ascontiguousarray(sig.right.samples))
    return [
        StoredRecord(
            rec.region,
            rec.provenance,
            rec.origin_scene,
            path.name,
            rec.signal.sample_rate,
            spans[id(rec.signal)],
            None if rec.clean_signal is None else spans[id(rec.clean_signal)],
        )
        for rec in records
    ]


def read_stored(store_dir: Path, rec: StoredRecord, use_clean: bool) -> BinauralSignal:
    """The signal of ``rec``, or its clean original, read from the sample
    store ``store_dir`` with one positioned read of its span.

    The samples are not scanned again: they were finite when they were
    stored, and nothing but ``store_records`` writes a store.
    """
    start, n = rec.clean_span if use_clean else rec.signal_span
    path = store_dir / rec.file
    samples = np.fromfile(path, np.float64, count=2 * n, offset=start * _SAMPLE_BYTES)
    if samples.size != 2 * n:
        raise OSError(f"{path}: {samples.size} of {2 * n} stored samples")
    return BinauralSignal(
        finite_waveform(samples[:n], rec.sample_rate),
        finite_waveform(samples[n:], rec.sample_rate),
    )


def draw_tuples(
    db: Sequence,
    layout: RegionLayout,
    k_range: Tuple[int, int],
    clean_ratio: float,
    m: int,
    seed: int,
) -> List[List[Tuple[int, object, bool]]]:
    """The sources of ``m`` training tuples drawn from ``db``: for each task
    of ``seeded_tasks(m, seed)``, in order, its tuple's ``(region, record,
    use_clean)``s.

    ``db`` holds ``SourceRecord``s or ``StoredRecord``s: the draws read
    only their labels. Above a ``clean_ratio`` of 0 every separated record
    needs its clean original; at 0 none is read.

    A tuple draws its K from ``k_range``, then each source region-first
    (``scenes.draw_region_first``): a uniform region among those with
    database entries, then a uniform entry of it. A drawn separated source
    is replaced by its clean original with probability ``clean_ratio``; the
    draw is made for every separated source, so the tuple is the same
    whether or not a clean original is attached at a ratio of 0.
    """
    if not db:
        raise ValueError("source database is empty")
    if not 0.0 <= clean_ratio <= 1.0:
        raise ValueError(f"clean_ratio must be in [0,1], got {clean_ratio}")
    k_lo, k_hi = k_range
    if not 1 <= k_lo <= k_hi:
        raise ValueError(f"bad k_range {k_range}")

    by_region: Dict[int, list] = {}
    for rec in db:
        if not 1 <= rec.region <= layout.num_regions:
            raise ValueError(f"record region {rec.region} is not in the layout")
        separated = rec.provenance == PROVENANCE_SEPARATED
        if clean_ratio > 0 and separated and not rec.has_clean:
            raise ValueError(
                f"a separated record of {rec.origin_scene} has no clean "
                f"original, which clean_ratio {clean_ratio} needs"
            )
        by_region.setdefault(rec.region, []).append(rec)

    tuples = []
    for _, seed_seq in seeded_tasks(m, seed):
        rng = np.random.default_rng(seed_seq)
        drawn = []
        for _ in range(int(rng.integers(k_lo, k_hi + 1))):
            region, rec = draw_region_first(rng, by_region)
            separated = rec.provenance == PROVENANCE_SEPARATED
            drawn.append((region, rec, separated and rng.random() < clean_ratio))
        tuples.append(drawn)
    return tuples


def sum_tuple(drawn: Sequence, num_regions: int, signal_of) -> TrainingTuple:
    """The training tuple of the ``(region, record, use_clean)`` sources
    ``drawn``: each one's ``signal_of(record, use_clean)``, summed per
    region."""
    placed = [(region, signal_of(rec, use_clean)) for region, rec, use_clean in drawn]
    length = max(len(sig) for _, sig in placed)
    summed = sum_regions(placed, num_regions, length, placed[0][1].sample_rate)
    return TrainingTuple(
        mixture=summed.mixture,
        references=summed.region_signals,
        active=summed.active,
        provenances=tuple(
            PROVENANCE_CLEAN if use_clean else rec.provenance
            for _, rec, use_clean in drawn
        ),
    )


def _signal_of(rec: SourceRecord, use_clean: bool) -> BinauralSignal:
    return rec.clean_signal if use_clean else rec.signal


def build_training_tuples(
    db: Sequence[SourceRecord],
    layout: RegionLayout,
    k_range: Tuple[int, int],
    clean_ratio: float,
    m: int,
    seed: int,
) -> List[TrainingTuple]:
    """The ``m`` tuples of ``draw_tuples(db, ...)``, in order, each summed
    in memory."""
    return [
        sum_tuple(drawn, layout.num_regions, _signal_of)
        for drawn in draw_tuples(db, layout, k_range, clean_ratio, m, seed)
    ]
