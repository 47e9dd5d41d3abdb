"""Line-delimited JSON manifests describing extracted/labeled sources."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional


@dataclass(frozen=True)
class ManifestEntry:
    path: str                 # relative WAV path, empty for discards
    itd: Optional[float]      # seconds, None for discards
    region: Optional[int]     # 1-based region id, None for discards
    outcome: str              # "passthrough" | "separated" | "discarded:<reason>"
    source_id: str            # originating recording / scene id

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def write_manifest(entries: List[ManifestEntry], path) -> None:
    Path(path).write_text("".join(e.to_json() + "\n" for e in entries))


def read_manifest(path) -> List[ManifestEntry]:
    """A manifest's entries; an unknown or missing key raises TypeError."""
    return [
        ManifestEntry(**json.loads(line))
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
