#!/usr/bin/env python3
"""Benchmark of squadsim scenario sweeps: one workload, one seed, one run.

    python3 perfbench/run.py --workload squad_worst --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps the squadsim layers in spans (``tracing.py``) and
reports the per-layer metrics instead. Every run goes through the output
gate (``workloads.Gate``). The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it start with ``#``. Exit code 0 means every
run passed the gate, 1 that one did not, 2 that the benchmark could not
start (for instance, no squadsim sources next to this directory).
README.md in this directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 9
# Host speed on a shared machine drifts by tens of percent over seconds.
# Each time is rescaled by a stdlib-only kernel timed around it (see
# kernel_seconds); REFERENCE_KERNEL_S only fixes the scale of the result.
KERNEL_EVERY_S = 0.25
REFERENCE_KERNEL_S = 0.003
# a percentile is reported only with at least ten samples beyond it
P90_MIN_SAMPLES = 100


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed run time to measure (whole units are run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be positive and --seed nonnegative")
    return args


# -- set-up ------------------------------------------------------------------

def kernel_seconds() -> float:
    """Time of a fixed stdlib-only computation (exact rational sums, as in
    the simulator's clock arithmetic). No squadsim code runs in it, so it
    measures how fast the host is right now, not the program."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(1, i)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, host kernel seconds) per probe. The seconds run from
    starting a fresh interpreter until its run list is built; both ends read
    CLOCK_MONOTONIC, which all processes share."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = kernel_seconds()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        elapsed = float(done.stdout.split()[-1]) - start
        samples.append((elapsed, (before + kernel_seconds()) / 2))
    return samples


def environment(args) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            git_sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass   # the stamp then has no git SHA
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# -- untraced measurement ------------------------------------------------------

def settle() -> None:
    """Take the benchmark's own objects (run list, reference, gate records)
    out of the cyclic collector, so collections inside a timed run scan
    only what the run allocated."""
    gc.collect()
    gc.freeze()


def checked_run(wl, gate, spec, cfg, call=None):
    elapsed, outcome, error = wl.timed_run(cfg, call or wl.execute)
    # free the run's cyclic garbage outside the clock, so each run starts
    # from the same heap and the peak RSS is that of one run
    gc.collect()
    gate.check(spec, outcome, error)
    return elapsed, outcome


def timed_passes(wl, units, built, seconds, gate):
    """Run the list, pass after pass, until ``seconds`` of run time have been
    measured, stopping at a unit boundary. Returns (seconds, events, host
    kernel seconds) per run; the kernel is timed at least every
    KERNEL_EVERY_S of run time, and a run gets the mean of the two kernel
    times around it."""
    kernels, runs, total, since = [kernel_seconds()], [], 0.0, 0.0
    while True:
        for unit in built:
            for spec, cfg in unit:
                elapsed, outcome = checked_run(wl, gate, spec, cfg)
                runs.append((elapsed, outcome.events if outcome else 0,
                             len(kernels) - 1))
                total += elapsed
                since += elapsed
                if since >= KERNEL_EVERY_S:
                    kernels.append(kernel_seconds())
                    since = 0.0
            if total >= seconds:
                if since:
                    kernels.append(kernel_seconds())
                return [(elapsed, events, (kernels[k] + kernels[k + 1]) / 2)
                        for elapsed, events, k in runs]
        built = wl.build_units(units)   # fresh configs for each pass
        settle()


def scaled(seconds: float, kernel: float) -> float:
    """Host seconds rescaled to the host speed at which the kernel takes
    REFERENCE_KERNEL_S."""
    return seconds * REFERENCE_KERNEL_S / kernel


def end_to_end(wl, args, units, built, gate):
    setup = measure_setup(args.workload, args.seed)
    settle()
    runs = timed_passes(wl, units, built, args.seconds, gate)
    run_s = [scaled(t, k) for t, _, k in runs]
    events = sum(e for _, e, _ in runs)
    metrics = {
        "setup_s": statistics.median(scaled(t, k) for t, k in setup),
        "events_per_s": events / sum(run_s),
        "run_s.p50": statistics.median(run_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_s = [t for t, _, _ in runs]
    notes = {
        "runs": len(runs),
        "host.setup_s": statistics.median(t for t, _ in setup),
        "host.events_per_s": events / sum(raw_s),
        "host.run_s.p50": statistics.median(raw_s),
        "host.kernel_s.p50": statistics.median(k for _, _, k in runs),
        "run_samples": runs,
        "setup_samples": setup,
    }
    if len(runs) >= P90_MIN_SAMPLES:
        notes["run_s.p90"] = statistics.quantiles(run_s, n=10)[-1]
    return metrics, notes


# -- traced measurement --------------------------------------------------------

def layer_metrics(totals, events, sends, size, traced_s, untraced_s, check_names):
    def sec(ns):
        return ns / 1e9

    t, own, calls = totals.total_ns, totals.self_ns, totals.calls
    crypto = [name for name in calls if name.startswith("crypto.")]
    m = {
        "runner.build_simulation_s": sec(t["runner.build_simulation"]),
        "adversary.scenario_build_s": sec(t["adversary.scenario_build"]),
        "engine.run_s": sec(t["engine.run"]),
        "engine.self_s": sec(own["engine.run"]),
        "engine.send_s": sec(own["engine.send"]),
        "engine.send_calls": calls["engine.send"],
        "engine.stop_check_s": sec(t["engine.stop_check"]),
        "engine.stop_check_calls": calls["engine.stop_check"],
        "engine.events": events,
        "engine.sends": sends,
        "engine.events_per_s": events / sec(t["engine.run"]),
        "consensus.self_s": sec(own["consensus.node"]),
        "consensus.calls": calls["consensus.node"],
        "consensus.cert_s": sec(own["consensus.cert"]),
        "consensus.cert_calls": calls["consensus.cert"],
    }
    for layer in ("raresync", "viewcore", "baselines"):
        m[f"{layer}.self_s"] = sec(own[layer])
        m[f"{layer}.calls"] = calls[layer]
    m.update({
        "crypto.self_s": sec(sum(own[name] for name in crypto)),
        "crypto.sign_calls": calls["crypto.sign"],
        "crypto.verify_calls": calls["crypto.verify"],
        "crypto.combine_calls": calls["crypto.combine"],
        "timebase.expiry_s": sec(own["timebase.expiry"]),
        "timebase.expiry_calls": calls["timebase.expiry"],
        "adversary.delay_s": sec(own["adversary.delay"]),
        "adversary.delay_calls": calls["adversary.delay"],
        "adversary.node_s": sec(own["adversary.node"]),
        "adversary.node_calls": calls["adversary.node"],
        "metrics.report_s": sec(t["metrics.report"]),
        "metrics.extract_s": sec(own["metrics.report"]),
    })
    for name in check_names:
        m[f"metrics.check.{name}_s"] = sec(t[f"metrics.check.{name}"])
    m["metrics.check_calls"] = sum(calls[f"metrics.check.{name}"]
                                   for name in check_names)
    m["trace.serialize_s"] = sec(t["trace.serialize"])
    m["trace.bytes"] = size
    m["tracing.overhead_ratio"] = traced_s / untraced_s
    return m


def per_layer(wl, args, units, built, gate):
    from squadsim.metrics import ALL_CHECKS
    from tracing import Totals, Tracer

    # the untraced pass the tracing overhead is measured against; both
    # sides are rescaled by the host kernel timed around them
    settle()
    before = kernel_seconds()
    untraced_s = scaled(sum(checked_run(wl, gate, spec, cfg)[0]
                            for unit in built for spec, cfg in unit),
                        (before + kernel_seconds()) / 2)
    tracer = Tracer()

    def traced_call(cfg):
        return tracer.span("run", wl.execute, cfg)

    passes, wall_total = [], 0.0
    OUT.mkdir(exist_ok=True)
    tracer.install()
    try:
        with gzip.open(OUT / f"spans-{args.workload}.tsv.gz", "wt",
                       compresslevel=1) as spans_out:
            while len(passes) < 2 or wall_total < args.seconds:
                number = len(passes)
                totals = Totals()
                tracer.begin_run(f"{number}.setup")
                built = tracer.span("setup", wl.build_units, units)
                settle()
                totals.add(tracer.spans)
                if number == 0:
                    tracer.dump(spans_out)
                wall = events = sends = size = 0
                runs = [pair for unit in built for pair in unit]
                before = kernel_seconds()
                for index, (spec, cfg) in enumerate(runs):
                    tracer.begin_run(f"{number}.{index}")
                    elapsed, outcome = checked_run(wl, gate, spec, cfg, traced_call)
                    totals.add(tracer.spans)
                    if number == 0:   # one pass is enough on disk
                        tracer.dump(spans_out)
                    wall += elapsed
                    if outcome:
                        events += outcome.events
                        sends += outcome.sends
                        size += outcome.bytes
                wall_total += wall
                traced_s = scaled(wall, (before + kernel_seconds()) / 2)
                passes.append(layer_metrics(totals, events, sends, size, traced_s,
                                            untraced_s, sorted(ALL_CHECKS)))
    finally:
        tracer.uninstall()

    counts = [{k: v for k, v in p.items() if isinstance(v, int)} for p in passes]
    for number, c in enumerate(counts[1:], 1):
        if c != counts[0]:
            diff = sorted(k for k in c if c[k] != counts[0][k])
            gate.problems.append(f"traced pass {number}: counts differ from "
                                 f"pass 0 in {diff}")
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in passes[0]}
    metrics.update(counts[0])
    return metrics, {"traced_passes": len(passes)}


def unit_of(name: str) -> str:
    if name.startswith("run_s."):
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "trace.bytes":
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# -- main --------------------------------------------------------------------------

def main(argv=None) -> int:
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"perfbench: cannot import squadsim: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, wl.WORKLOADS)
    try:
        reference = wl.load_reference()
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read {wl.REFERENCE_FILE}: {exc}", file=sys.stderr)
        return 2

    units = wl.run_units(args.workload, args.seed)
    built = wl.build_units(units)
    gate = wl.Gate(reference)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, notes = measure(wl, args, units, built, gate)
    except subprocess.SubprocessError as exc:
        print(f"perfbench: set-up probe failed: {exc}", file=sys.stderr)
        return 2
    if args.seed != wl.DEFAULT_SEED:
        # the timed runs have no reference: check the first unit of the
        # default list, untimed
        first = wl.run_units(args.workload, wl.DEFAULT_SEED)[0]
        for spec, cfg in wl.build_units([first])[0]:
            checked_run(wl, gate, spec, cfg)

    notes["fail_frac"] = gate.failed / gate.attempted
    stamp = environment(args)
    OUT.mkdir(exist_ok=True)
    record = {"environment": stamp, "metrics": metrics, "notes": notes,
              "problems": gate.problems}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print("# environment " + json.dumps(stamp))
    for key, value in notes.items():
        if not key.endswith("_samples"):
            print(f"# {key} {json.dumps(value)}")
    for key, value in metrics.items():
        print(f"# {key} {value:.6g} {unit_of(key)}")
    for problem in gate.problems:
        print(f"# FAIL {problem}")
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not gate.problems
    print(json.dumps({
        "correct": correct, "attempted": gate.attempted, "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
