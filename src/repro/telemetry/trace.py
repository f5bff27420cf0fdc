"""Trace persistence: append-only JSONL event streams on disk.

A trace file is one JSON object per line: the first line is the
:data:`~repro.telemetry.events.RUN_MANIFEST` record, every following
line one emitted event.  Lines are serialized with sorted keys and the
artifact-cache JSON coercions, so two runs of the same experiment
produce byte-identical event lines (the manifest line alone carries the
volatile wall-clock bounds).  Writes are atomic
(:func:`repro.utils.cache.atomic_write`), like every cache entry.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.telemetry.events import RUN_MANIFEST, SCHEMA_VERSION
from repro.utils.cache import _jsonify, atomic_write

__all__ = ["RunTrace", "write_trace", "load_trace", "diff_traces"]

#: Manifest fields that legitimately differ between identical runs.
_VOLATILE_MANIFEST_FIELDS = ("wall_clock",)

#: Manifest fields compared by :func:`diff_traces`.
_STABLE_MANIFEST_FIELDS = (
    "schema",
    "package_version",
    "config_hash",
    "rng_streams",
    "env",
)


@dataclass
class RunTrace:
    """A loaded telemetry trace: one manifest plus its event stream."""

    manifest: Dict[str, object] = field(default_factory=dict)
    events: List[Dict[str, object]] = field(default_factory=list)

    def events_of(self, event: str) -> List[Dict[str, object]]:
        """The events with name *event*, in stream order."""
        return [record for record in self.events if record.get("event") == event]


def _default(obj: object) -> object:
    # np.bool_ (e.g. a CycleRecord's measurement_valid) is not an
    # np.integer/np.floating, which is all the cache coercion covers.
    if isinstance(obj, np.bool_):
        return bool(obj)
    return _jsonify(obj)


def _dump_line(record: Dict[str, object]) -> str:
    return json.dumps(record, sort_keys=True, default=_default)


def write_trace(
    path: Union[str, os.PathLike],
    manifest: Optional[Dict[str, object]],
    events: Iterable[Dict[str, object]],
) -> Path:
    """Atomically write a manifest + event stream as JSONL; returns the path.

    The file appears complete or not at all
    (:func:`repro.utils.cache.atomic_write`).
    """
    target = Path(path)
    lines = [
        _dump_line(
            {
                "event": RUN_MANIFEST,
                "schema": SCHEMA_VERSION,
                "manifest": manifest or {},
            }
        )
    ]
    lines.extend(_dump_line(record) for record in events)
    with atomic_write(target, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return target


def load_trace(path: Union[str, Path]) -> RunTrace:
    """Parse a JSONL trace written by :func:`write_trace`."""
    trace = RunTrace()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("event") == RUN_MANIFEST:
                trace.manifest = record.get("manifest", {})
            else:
                trace.events.append(record)
    return trace


def diff_traces(a: RunTrace, b: RunTrace, limit: int = 20) -> List[str]:
    """Human-readable differences between two traces (empty = equivalent).

    Volatile manifest fields (wall-clock bounds) are ignored; stable
    manifest fields and the full event streams are compared.  At most
    *limit* event-level differences are rendered, with a trailing
    summary line when more exist.
    """
    differences: List[str] = []
    for key in _STABLE_MANIFEST_FIELDS:
        if a.manifest.get(key) != b.manifest.get(key):
            differences.append(
                f"manifest.{key}: {a.manifest.get(key)!r} != "
                f"{b.manifest.get(key)!r}"
            )
    if len(a.events) != len(b.events):
        differences.append(
            f"event count: {len(a.events)} != {len(b.events)}"
        )
    shown = 0
    skipped = 0
    for index, (ea, eb) in enumerate(zip(a.events, b.events)):
        if ea == eb:
            continue
        if shown < limit:
            differences.append(
                f"event {index}: {_dump_line(ea)} != {_dump_line(eb)}"
            )
            shown += 1
        else:
            skipped += 1
    if skipped:
        differences.append(f"... and {skipped} more differing events")
    return differences
