"""Self-supervision dataset construction.

Two protocols: (a) harvest "dirty" sources by mixing clean sources
pairwise, running the spatial separator, and labeling the outputs by the
region their ITD implies; (b) synthesize region-wise training tuples
(per-region references plus their exact-sum mixture) from a harvested
database, optionally swapping dirty sources for their clean originals at
a configurable rate.

A harvest that keeps its records out of the calling process puts their
samples in a sample store (``store_records``): float64 files that only
their writer appends to, from which ``load_records`` rebuilds the records
as read-only views.
"""

from __future__ import annotations

import dataclasses
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .audio import BinauralSignal, Waveform, finite_waveform
from .hrir import HrirBank
from .parallel import ordered_map
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

_PAIR_DRAW_LIMIT = 1000
_SAMPLE_BYTES = np.dtype(np.float64).itemsize  # a sample store's element


@dataclass(frozen=True)
class SourceRecord:
    signal: BinauralSignal
    itd: float
    region: int
    provenance: str
    origin_scene: str
    clean_signal: Optional[BinauralSignal] = None


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

    def add(self, records: Sequence[SourceRecord], reason: Optional[str]) -> None:
        """Count one mixture's outcome: a discard reason, or its records."""
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
    """Two distinct sources at azimuths whose model ITDs differ enough."""
    if len(pool_ids) < 2:
        raise ValueError("need at least 2 pool sources")
    for _ in range(_PAIR_DRAW_LIMIT):
        az1, az2 = rng.choice(azimuths, size=2, replace=True)
        gap = abs(
            spherical_itd(float(az1), delta_tau_max)
            - spherical_itd(float(az2), delta_tau_max)
        )
        if gap >= delta_tau_min:
            i, j = rng.choice(len(pool_ids), size=2, replace=False)
            return pool_ids[int(i)], float(az1), pool_ids[int(j)], float(az2)
    raise ValueError(
        "HRIR bank too sparse to satisfy the ITD-gap constraint "
        f"(delta_tau_min={delta_tau_min})"
    )


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


HarvestResult = Tuple[int, List[SourceRecord], Optional[str]]


def harvest_tasks(n: int, seed: int) -> List[Tuple[int, np.random.SeedSequence]]:
    """``(index, seed_seq)`` of each of ``n`` mixtures: child ``index`` of
    ``SeedSequence(seed)``."""
    return list(enumerate(np.random.SeedSequence(seed).spawn(n)))


def harvest_mixture(
    pool: Mapping[str, Waveform],
    bank: HrirBank,
    cfg: SeparationConfig,
    index: int,
    seed_seq: np.random.SeedSequence,
) -> HarvestResult:
    """Draw mixture ``index`` from ``seed_seq``, render it, run stage 1 and
    harvest its labeled records: ``(index, records, discard_reason)``."""
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
        return index, [], outcome.reason
    records = outcome_records(outcome, f"mix{index:05d}", cfg.delta_tau_max)
    if isinstance(outcome, Separated):
        # the clean original is the rendered source whose model ITD is nearest
        true_itds = [spherical_itd(az, cfg.delta_tau_max) for az in (az1, az2)]
        for k, rec in enumerate(records):
            nearest = int(np.argmin([abs(rec.itd - t) for t in true_itds]))
            records[k] = dataclasses.replace(rec, clean_signal=(s1, s2)[nearest])
    return index, records, None


def _harvest_one(shared, task) -> HarvestResult:
    return harvest_mixture(*shared, *task)


def harvest_mixtures(
    pool: Mapping[str, Waveform],
    bank: HrirBank,
    cfg: SeparationConfig,
    n: int,
    seed: int,
    jobs: int = 1,
) -> Iterator[HarvestResult]:
    """Yield ``(index, records, discard_reason)`` for ``n`` seeded mixtures.

    Mixture ``i`` draws its pair and azimuths from child ``i`` of
    ``SeedSequence(seed)`` (``harvest_tasks``), so results do not depend on
    ``jobs``. The pair's ITD gap and the region labels use ``cfg``'s head
    geometry (``delta_tau_min``, ``delta_tau_max``). Results are yielded in
    index order; with ``jobs > 1`` a process pool computes them, receiving
    the pool, bank and config once per worker.
    """
    return ordered_map(_harvest_one, (pool, bank, cfg), harvest_tasks(n, seed), jobs)


def build_dirty_sources(
    pool: Mapping[str, Waveform],
    bank: HrirBank,
    cfg: SeparationConfig,
    n: int,
    seed: int,
    max_duration: Optional[float] = None,
    jobs: int = 1,
) -> Tuple[List[SourceRecord], DirtyBuildStats]:
    """Mix clean sources pairwise, separate, and harvest labeled outputs.

    ``max_duration`` caps the total seconds of harvested audio (the
    few-shot "personal data budget" knob); generation stops once reached,
    at the same record for any ``jobs`` (see ``harvest_mixtures``).
    """
    if max_duration is not None and max_duration <= 0:
        n = 0
    records: List[SourceRecord] = []
    stats = DirtyBuildStats()
    harvested_seconds = 0.0
    results = harvest_mixtures(pool, bank, cfg, n, seed, jobs)
    with closing(results):
        for _, new_records, discard_reason in results:
            stats.add(new_records, discard_reason)
            records.extend(new_records)
            for rec in new_records:
                harvested_seconds += rec.signal.left.duration
            if max_duration is not None and harvested_seconds >= max_duration:
                break
    return records, stats


@dataclass(frozen=True)
class StoredRecord:
    """A ``SourceRecord`` whose samples are in a sample store file: its
    labels, and the ``(start, length)`` span of each of its signals.

    A signal's span counts float64 elements of ``file``: its left channel's
    ``length`` samples from ``start`` on, then its right channel's.
    ``clean_span`` is None when the record has no clean original.
    """

    itd: float
    region: int
    provenance: str
    origin_scene: str
    file: str
    sample_rate: int
    signal_span: Tuple[int, int]
    clean_span: Optional[Tuple[int, int]]


def store_records(records: Sequence[SourceRecord], path: Path) -> List[StoredRecord]:
    """Append the records' samples to the float64 file ``path``; return where
    each record's are. A signal two records share is written once."""
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
            rec.itd,
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


def load_records(stored: Sequence[StoredRecord], store: Path) -> List[SourceRecord]:
    """The records of ``stored``, their signals read-only views of the store
    files in directory ``store``, each file mapped once.

    The samples are not scanned again: they were finite when they were
    stored, and nothing but ``store_records`` writes a store.
    """
    maps: Dict[str, np.ndarray] = {}
    for s in stored:
        if s.file not in maps:
            mapped = np.memmap(store / s.file, dtype=np.float64, mode="r")
            maps[s.file] = mapped.view(np.ndarray)

    def binaural(s: StoredRecord, span: Tuple[int, int]) -> BinauralSignal:
        start, n = span
        samples = maps[s.file][start : start + 2 * n]
        return BinauralSignal(
            finite_waveform(samples[:n], s.sample_rate),
            finite_waveform(samples[n:], s.sample_rate),
        )

    return [
        SourceRecord(
            binaural(s, s.signal_span),
            s.itd,
            s.region,
            s.provenance,
            s.origin_scene,
            None if s.clean_span is None else binaural(s, s.clean_span),
        )
        for s in stored
    ]


@dataclass(frozen=True)
class TuplePlan:
    """What every training tuple of one build draws from: the database's
    records by region, the K range, the clean ratio and one seed child per
    tuple. Made by ``plan_training_tuples``."""

    by_region: Mapping[int, Sequence[SourceRecord]]
    num_regions: int
    k_range: Tuple[int, int]
    clean_ratio: float
    sample_rate: int
    seeds: Tuple[np.random.SeedSequence, ...]


def plan_training_tuples(
    db: Sequence[SourceRecord],
    layout: RegionLayout,
    k_range: Tuple[int, int],
    clean_ratio: float,
    m: int,
    seed: int,
) -> TuplePlan:
    """Check the tuple parameters and index ``db`` by region for ``m``
    tuples; tuple ``t`` draws from child ``t`` of ``SeedSequence(seed)``."""
    if not db:
        raise ValueError("source database is empty")
    if not 0.0 <= clean_ratio <= 1.0:
        raise ValueError(f"clean_ratio must be in [0,1], got {clean_ratio}")
    k_lo, k_hi = k_range
    if not 1 <= k_lo <= k_hi:
        raise ValueError(f"bad k_range {k_range}")

    by_region: Dict[int, List[SourceRecord]] = {}
    for rec in db:
        if not 1 <= rec.region <= layout.num_regions:
            raise ValueError(f"record region {rec.region} is not in the layout")
        by_region.setdefault(rec.region, []).append(rec)
    return TuplePlan(
        by_region=by_region,
        num_regions=layout.num_regions,
        k_range=(k_lo, k_hi),
        clean_ratio=clean_ratio,
        sample_rate=db[0].signal.sample_rate,
        seeds=tuple(np.random.SeedSequence(seed).spawn(m)),
    )


def draw_training_tuple(plan: TuplePlan, t: int) -> TrainingTuple:
    """Tuple ``t`` of ``plan``: K region-labeled sources summed per region.

    Each source is drawn region-first (``scenes.draw_region_first``): a
    uniform region among those with database entries, then a uniform
    entry of it. A drawn dirty source is replaced by its clean original
    with probability ``clean_ratio`` when one is attached to the record.
    """
    rng = np.random.default_rng(plan.seeds[t])
    k_lo, k_hi = plan.k_range
    k = int(rng.integers(k_lo, k_hi + 1))

    chosen: List[Tuple[int, BinauralSignal, str]] = []
    for _ in range(k):
        region, rec = draw_region_first(rng, plan.by_region)
        use_clean = rec.clean_signal is not None and rng.random() < plan.clean_ratio
        signal = rec.clean_signal if use_clean else rec.signal
        provenance = PROVENANCE_CLEAN if use_clean else rec.provenance
        chosen.append((region, signal, provenance))

    length = max(len(sig) for _, sig, _ in chosen)
    placed = [(region, sig) for region, sig, _ in chosen]
    summed = sum_regions(placed, plan.num_regions, length, plan.sample_rate)
    return TrainingTuple(
        mixture=summed.mixture,
        references=summed.region_signals,
        active=summed.active,
        provenances=tuple(p for _, _, p in chosen),
    )


def build_training_tuples(
    db: Sequence[SourceRecord],
    layout: RegionLayout,
    k_range: Tuple[int, int],
    clean_ratio: float,
    m: int,
    seed: int,
) -> List[TrainingTuple]:
    """The ``m`` tuples of ``plan_training_tuples(db, ...)``, in order
    (``draw_training_tuple``)."""
    plan = plan_training_tuples(db, layout, k_range, clean_ratio, m, seed)
    return [draw_training_tuple(plan, t) for t in range(m)]
