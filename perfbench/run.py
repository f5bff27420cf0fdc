"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rollout|sweep|served \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced unit of work, then the same unit with the per-layer wrappers
installed, and reports the per-layer ledger plus the tracing overhead.
The last line of standard output is always the JSON result; lines
before it are human-readable context.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ledger import common  # noqa: E402
from ledger.hostref import scale  # noqa: E402

WORKLOADS = ("rollout", "sweep", "served")
#: Set-up samples per run: this process plus fresh-interpreter probes.
SETUP_PROBES = 2


def _workload(name: str):
    if name == "rollout":
        from ledger.rollout import JOBS, Rollout as cls
    elif name == "sweep":
        from ledger.sweep import JOBS, Sweep as cls
    else:
        from ledger.served import JOBS, Served as cls
    return cls, JOBS


def _probe_setup(args) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
            "--setup-probe",
        ],
        cwd=common.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _timed_units(wl, seconds: float) -> list:
    """Whole units while the next one is expected to end within half a
    unit of *seconds* (at least one)."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(wl.unit(False))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(units) > seconds:
            return units


def _print_table2(snapshot: dict) -> None:
    """Measured ms/frame per stage beside the modeled Xavier latencies."""
    from ledger.layers import per_unit
    from repro.platform.profiles import control_runtime_ms, isp_runtime_ms, pr_runtime_ms

    rows = [
        ("render", per_unit("sim.renderer", 1e3)(snapshot), None),
        ("ISP (with demosaic)", per_unit("isp", 1e3)(snapshot), isp_runtime_ms("S0")),
        ("  demosaic", per_unit("isp.demosaic", 1e3)(snapshot), None),
        ("perception", per_unit("perception", 1e3)(snapshot), pr_runtime_ms()),
        ("control", per_unit("control", 1e3)(snapshot), control_runtime_ms()),
    ]
    print("measured Table II (this host, 384x192) vs modeled (Xavier, 512x256, S0):")
    print(f"  {'stage':<22}{'measured ms':>12}{'modeled ms':>12}")
    for label, measured, modeled in rows:
        shown = "-" if modeled is None else f"{modeled:.3f}"
        print(f"  {label:<22}{measured:>12.3f}{shown:>12}")


def _rollout_accounting(units: list, snapshot: dict, out: common.Outcome) -> None:
    """Layer self times + hil self time must cover the traced wall."""
    from ledger.layers import HIL_SPANS, hil_self_frac

    wall = units[1]["wall_s"]
    layers = sum(v[2] for k, v in snapshot["spans"].items() if k not in HIL_SPANS)
    covered = layers + hil_self_frac(snapshot) * snapshot["spans"]["rollout"][1]
    gap = abs(covered - wall) / wall
    out.info["trace_accounting_gap"] = gap
    out.check(gap <= 0.01, f"layer self times cover the rollout wall only within {gap:.2%}")
    print("traced rollout self time by span (s):")
    for name, values in sorted(snapshot["spans"].items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:<34}{values[2]:>9.3f}  ({values[2] / wall:6.1%})")


def _traced(wl, name: str, out: common.Outcome) -> None:
    from ledger.layers import ledger_values

    reference = wl.unit(False)
    wl.enable_tracing()
    traced = wl.unit(True)
    snapshot = wl.traced_snapshot()
    units = [reference, traced]
    wl.record_ops(units, out)
    wl.checks(units, out)
    out.check(
        wl.digest(reference) == wl.digest(traced),
        "traced outputs differ from the untraced outputs",
    )
    overhead = traced["scaled_s"] / reference["scaled_s"] - 1.0
    supplied = {"trace.overhead_frac": overhead}
    layer_extras = getattr(wl, "layer_extras", None)
    if layer_extras is not None:
        supplied.update(layer_extras(traced, snapshot))
    snapshot["counters"]["trace.units"] = 1.0
    values, problems = ledger_values(snapshot, name, supplied)
    for problem in problems:
        out.check(False, problem)
    for metric, (value, unit) in values.items():
        out.metric(metric, value, unit)
    if name == "rollout":
        _rollout_accounting(units, snapshot, out)
        _print_table2(snapshot)
    out.info["digest"] = common.combine_digests(wl.digest(traced))
    out.info["trace_overhead_frac"] = overhead


def _measured(wl, args, out: common.Outcome, setup_main: float) -> None:
    units = _timed_units(wl, args.seconds)
    wl.record_ops(units, out)
    wl.checks(units, out)
    wl.metrics(units, out)
    out.info["digest"] = common.combine_digests(wl.digest(units[0]))
    samples = [setup_main] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
    reference = common.median(wl.ref.samples)
    out.info["setup_samples_s"] = samples
    out.info["host_reference_s"] = reference
    out.metric("setup_s", scale(common.median(samples), reference), "s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run still stops its pool and served instance.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.require_source()
    except common.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    cls, jobs = _workload(args.workload)
    run_dir = common.fresh_dir(f"run-{args.workload}-")
    pinned = common.pin_env(jobs=jobs, cache_dir=run_dir / "cache")
    wl = cls(args.seed, args.seconds)
    out = common.Outcome()
    try:
        t0 = time.perf_counter()
        wl.setup()
        setup_s = time.perf_counter() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            _traced(wl, args.workload, out)
        else:
            _measured(wl, args, out, setup_s)
        # Children must be reaped before their peak RSS can be read.
        wl.teardown()
        if not args.trace:
            out.metric("peak_rss_mb", common.peak_rss_mb(), "MiB")
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        wl.teardown()
        common.remove_dir(run_dir)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "env": pinned,
        "inherits": (
            "each run is a fresh interpreter; timed units after the first "
            "reuse the pool, module-level tables and imports warmed in set-up"
        ),
        "provenance": common.provenance(),
        "info": out.info,
        "problems": out.problems,
        "metrics": out.metrics,
    }
    common.write_record(args.workload, args.seed, bool(args.trace), record)
    print("perfbench " + json.dumps(
        {k: record[k] for k in ("provenance", "info", "problems")}, default=str))
    print(json.dumps({
        "correct": out.failed == 0 and not out.problems,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": out.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
