"""``served``: open-loop load against ``repro``'s sensing service.

The target is the service in its own process with ``workers=nproc``
and a fresh store.  One generator (this process) sends a seeded
schedule of ``simulate`` (48x24 camera, 40 m, ``cache="auto"``) and
``health``/``stats`` requests at a fixed offered rate over ``nproc``
connections; repeated keys are store hits, new keys are rollouts plus a
store write.  Latency counts from each request's due time.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from ledger.common import (
    ROOT,
    Outcome,
    derive_seed,
    fresh_dir,
    median,
    nearest_rank,
    nproc,
    remove_dir,
    result_digest,
)
from ledger.hostref import HostReference, scale
from ledger.loadgen import OpenLoopGenerator, Planned, make_schedule

NAME = "served"
JOBS = nproc()
#: Offered load, requests per second, frozen after one calibration on a
#: two-vCPU host with two workers (12 s schedules): at 8/s the queue grew
#: and requests were refused, at 4/s the p90 was 0.76 s against about
#: 0.5 s at 3/s.  3/s keeps the instance well below saturation.
RATE_PER_S = 3.0
#: A request answered later than this (from its due time) is not goodput.
LATENCY_LIMIT_MS = 2500.0
#: Server-side deadline sent with each simulate.
DEADLINE_MS = 10000.0
#: Host-reference samples taken before and after the schedule (none
#: during it: the kernel would compete with the served instance).
REFERENCE_SAMPLES = 3
#: The generator fell behind when its p90 send lag exceeds this.
MAX_LAG_P90_MS = 50.0
_TARGET = Path(__file__).resolve().parent / "serve_target.py"


def decode(planned, payload):
    """Keep a digest of simulate results; control results pass through."""
    from repro.service import protocol

    result = protocol.work_result_from_payload(payload)
    if planned.op == "simulate":
        return result_digest(result)
    if not isinstance(result, dict):
        raise TypeError(f"{planned.op} answered {type(result).__name__}")
    return None


class ServerProcess:
    """One served instance on a Unix socket in a fresh directory."""

    def __init__(self, span_dir: Optional[Path] = None):
        self.dir = fresh_dir("served-")
        self.socket = os.path.relpath(self.dir / "s.sock", ROOT)
        ready = self.dir / "ready"
        env = dict(os.environ, REPRO_CACHE_DIR=str(self.dir / "cache"))
        command = [
            sys.executable,
            str(_TARGET),
            "--socket", self.socket,
            "--workers", str(JOBS),
            "--ready-file", str(ready),
        ]
        if span_dir is not None:
            command += ["--span-dir", str(span_dir)]
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env)
        deadline = time.monotonic() + 60.0
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("served instance did not start")
            time.sleep(0.005)

    def warm(self) -> None:
        """Fork every pool worker with one uncached request each."""
        gen = OpenLoopGenerator(self.socket, JOBS, decode, DEADLINE_MS)
        try:
            params = {"situation": 1, "case": "case4", "length_m": 12.0,
                      "frame": [48, 24], "seed": 1, "cache": "off"}
            plan = [Planned(i, 0.0, "simulate", params, "warm")
                    for i in range(JOBS)]
            results = gen.run(plan, drain_timeout_s=60.0)
        finally:
            gen.close()
        if not all(r.ok for r in results):
            raise RuntimeError(f"warm-up failed: {[r.error for r in results]}")

    def stop(self) -> None:
        """Drain and stop the instance; wait for its process to end."""
        if self.proc.poll() is None:
            try:
                from repro.api import connect

                with connect(socket=self.socket, timeout=30.0) as client:
                    client.shutdown()
            except (OSError, ConnectionError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        remove_dir(self.dir)


class Served:
    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.seconds = seconds
        self.server: Optional[ServerProcess] = None
        self.span_dir: Optional[Path] = None

    def setup(self) -> None:
        """Import, start the served instance, fork its pool."""
        import repro.api  # noqa: F401  (import cost is part of set-up)

        self.plan = make_schedule(derive_seed(self.seed, "schedule"),
                                  self.seconds, RATE_PER_S)
        self.server = ServerProcess()
        self.server.warm()
        self.ref = HostReference()

    def enable_tracing(self) -> None:
        """Replace the instance with a traced one on a fresh store."""
        self.server.stop()
        self.span_dir = fresh_dir("spans-")
        self.server = ServerProcess(span_dir=self.span_dir)
        self.server.warm()
        # Warm-up spans are not part of the measured schedule.
        for path in self.span_dir.glob("*.jsonl"):
            path.unlink()

    def traced_snapshot(self) -> dict:
        """Drain the traced instance, then merge every flushed span file."""
        from ledger.tracing import read_span_dir

        self.server.stop()
        self.server = None
        return read_span_dir(self.span_dir)

    def unit(self, traced: bool) -> Dict[str, object]:
        """The whole schedule, once."""
        refs = [self.ref.sample() for _ in range(REFERENCE_SAMPLES)]
        gen = OpenLoopGenerator(self.server.socket, JOBS, decode, DEADLINE_MS)
        try:
            outcomes = gen.run(self.plan, drain_timeout_s=60.0)
        finally:
            gen.close()
        refs += [self.ref.sample() for _ in range(REFERENCE_SAMPLES)]
        reference = median(refs)
        requests = []
        for o in outcomes:
            requests.append(
                {
                    "index": o.planned.index,
                    "op": o.planned.op,
                    "kind": o.planned.kind,
                    "params": o.planned.params,
                    "ok": o.ok,
                    "error": o.error,
                    "lag_ms": o.lag_ms,
                    "latency_ms": o.latency_ms(),
                    "scaled_ms": (
                        None if o.done_at is None
                        else scale(o.latency_ms(), reference)
                    ),
                    "service_ms": o.service_ms(),
                    "sent_at": o.sent_at,
                    "done_at": o.done_at,
                    "digest": o.result,
                }
            )
        ok_lat = [r["latency_ms"] for r in requests if r["ok"]]
        ok_scaled = [r["scaled_ms"] for r in requests if r["ok"]]
        return {
            "requests": requests,
            "wall_s": sum(ok_lat) / 1e3,
            "scaled_s": sum(ok_scaled) / 1e3,
        }

    def record_ops(self, units: List[dict], outcome: Outcome) -> None:
        for unit in units:
            by_key: Dict[str, set] = {}
            for r in unit["requests"]:
                outcome.op(r["ok"], f"request {r['index']} ({r['op']}): {r['error']}")
                if r["ok"] and r["op"] == "simulate":
                    key = repr(sorted(r["params"].items()))
                    by_key.setdefault(key, set()).add(r["digest"])
            for key, digests in by_key.items():
                outcome.check(len(digests) == 1, f"hits differ from the miss for {key}")
            lags = [r["lag_ms"] for r in unit["requests"]]
            lag_p90 = nearest_rank(lags, 90.0)
            outcome.check(
                lag_p90 <= MAX_LAG_P90_MS,
                f"generator fell behind: send lag p90 {lag_p90:.1f} ms",
            )

    def checks(self, units: List[dict], outcome: Outcome) -> None:
        """A sampled served result equals the in-process rollout."""
        import repro.api

        misses = [r for r in units[0]["requests"] if r["kind"] == "miss" and r["ok"]]
        if not misses:
            outcome.check(False, "no served miss to compare")
            return
        sample = misses[derive_seed(self.seed, "served-check") % len(misses)]
        params = dict(sample["params"], frame=tuple(sample["params"]["frame"]),
                      cache="off")
        local = repro.api.simulate(**params)
        outcome.check(
            result_digest(local) == sample["digest"],
            f"served result of request {sample['index']} differs from in-process",
        )

    def digest(self, unit: dict) -> List[str]:
        return [
            f"{r['index']}:{r['digest']}"
            for r in unit["requests"]
            if r["op"] == "simulate"
        ]

    def metrics(self, units: List[dict], outcome: Outcome) -> None:
        requests = [r for u in units for r in u["requests"]]
        latencies = [
            r["scaled_ms"] if r["ok"] else float("inf") for r in requests
        ]
        raw = [r["latency_ms"] if r["ok"] else float("inf") for r in requests]
        good = [
            r for r in requests
            if r["ok"] and r["latency_ms"] <= LATENCY_LIMIT_MS
        ]
        first_due = min(r["sent_at"] - r["lag_ms"] / 1e3 for r in requests)
        last_done = max(r["done_at"] for r in requests if r["done_at"] is not None)
        outcome.metric("op_p50_ms", median(latencies), "ms")
        outcome.metric("op_p90_ms", nearest_rank(latencies, 90.0), "ms")
        outcome.metric("throughput_per_s", len(good) / (last_done - first_due), "1/s")
        lags = [r["lag_ms"] for r in requests]
        outcome.info.update(
            raw_req_p50_ms=median(raw),
            raw_req_p90_ms=nearest_rank(raw, 90.0),
            req_p50_ms=median(latencies),
            req_p90_ms=nearest_rank(latencies, 90.0),
            goodput_rps=len(good) / (last_done - first_due),
            loadgen_lag_ms_p90=nearest_rank(lags, 90.0),
            offered_rps=RATE_PER_S,
            requests=len(requests),
            kinds={k: sum(1 for r in requests if r["kind"] == k)
                   for k in ("miss", "hit", "control")},
        )

    def layer_extras(self, unit: dict, snapshot: dict) -> Dict[str, float]:
        """Client-side ledger entries: overhead over exec, generator lag."""
        from ledger.tracing import exec_key

        execs: Dict[str, List[list]] = {}
        for key, started, ms in snapshot["samples"].get("service.exec", []):
            execs.setdefault(key, []).append([started, ms])
        for entries in execs.values():
            entries.sort()
        overheads = []
        seen: Dict[str, int] = {}
        ordered = sorted(
            (r for r in unit["requests"] if r["ok"] and r["op"] == "simulate"),
            key=lambda r: r["sent_at"],
        )
        for r in ordered:
            key = exec_key(r["params"])
            k = seen.get(key, 0)
            seen[key] = k + 1
            if k < len(execs.get(key, ())):
                overheads.append(r["service_ms"] - execs[key][k][1])
        lags = [r["lag_ms"] for r in unit["requests"]]
        snapshot["counters"]["loadgen.sent"] = float(len(lags))
        return {
            "service.overhead.ms_p50": median(overheads) if overheads else 0.0,
            "loadgen.lag.ms_p90": nearest_rank(lags, 90.0),
        }

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.span_dir is not None:
            remove_dir(self.span_dir)
            self.span_dir = None
