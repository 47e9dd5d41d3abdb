"""Line-delimited JSON manifests describing extracted/labeled sources."""

from __future__ import annotations

import json
from dataclasses import dataclass
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
        return json.dumps(
            {
                "path": self.path,
                "itd": self.itd,
                "region": self.region,
                "outcome": self.outcome,
                "source_id": self.source_id,
            },
            sort_keys=True,
        )


def write_manifest(entries: List[ManifestEntry], path) -> None:
    Path(path).write_text("".join(e.to_json() + "\n" for e in entries))


def read_manifest(path) -> List[ManifestEntry]:
    entries = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        entries.append(
            ManifestEntry(
                path=obj["path"],
                itd=obj["itd"],
                region=obj["region"],
                outcome=obj["outcome"],
                source_id=obj["source_id"],
            )
        )
    return entries
