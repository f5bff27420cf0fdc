"""Structured run telemetry: events, manifests, trace files.

The observability layer of the reproduction (ROADMAP: "production-scale,
observable, fast").  Four pieces compose:

- **events** (:mod:`repro.telemetry.events`) — a schema-versioned,
  closed set of event names (cycle start/end, knob reconfiguration,
  identifier invocation, fault activation/clearing, degraded-mode
  transitions) with required-field validation;
- **recorder** (:mod:`repro.telemetry.recorder`) — the shared no-op
  singleton activation pattern (identical to
  :mod:`repro.utils.profiling`): disabled telemetry costs the hot loop
  one ``None`` check per hook and simulated traces stay bit-identical
  either way;
- **manifest** (:mod:`repro.telemetry.manifest`) — the provenance
  record (config hash, package version, RNG streams, env knobs,
  wall-clock bounds) attached to every ``HilResult`` and
  characterization artifact;
- **trace** (:mod:`repro.telemetry.trace`) — atomic JSONL persistence
  plus :func:`load_trace` / :func:`diff_traces` for the ``python -m
  repro trace`` CLI.

Counters, gauges and stage timings are not telemetry: they record into
the one stats collector, :class:`repro.utils.profiling.MetricsRegistry`
(re-exported here), whose per-worker snapshots
:func:`repro.utils.parallel.parallel_map` funnels back to the parent.
"""

from repro.telemetry.events import (
    CYCLE_END,
    CYCLE_START,
    DEGRADED_ENTER,
    DEGRADED_EXIT,
    EVENT_SCHEMA,
    FAULT_ACTIVATED,
    FAULT_CLEARED,
    IDENTIFIER_INVOKED,
    KNOBS_RECONFIGURED,
    RUN_MANIFEST,
    SCHEMA_VERSION,
)
from repro.telemetry.manifest import ENV_KNOBS, build_manifest
from repro.telemetry.recorder import (
    TelemetryRecorder,
    activate,
    activated,
    deactivate,
    get_active,
    telemetry_enabled,
)
from repro.telemetry.trace import RunTrace, diff_traces, load_trace, write_trace
from repro.utils.profiling import MetricsRegistry

__all__ = [
    "SCHEMA_VERSION",
    "RUN_MANIFEST",
    "CYCLE_START",
    "CYCLE_END",
    "KNOBS_RECONFIGURED",
    "IDENTIFIER_INVOKED",
    "FAULT_ACTIVATED",
    "FAULT_CLEARED",
    "DEGRADED_ENTER",
    "DEGRADED_EXIT",
    "EVENT_SCHEMA",
    "ENV_KNOBS",
    "TelemetryRecorder",
    "MetricsRegistry",
    "RunTrace",
    "telemetry_enabled",
    "activate",
    "deactivate",
    "get_active",
    "activated",
    "build_manifest",
    "write_trace",
    "load_trace",
    "diff_traces",
]
