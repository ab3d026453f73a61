"""Self-test of the benchmark: tiny workloads pass the output gate, the gate
catches changed output, span accounting holds, counts repeat, and the
command prints exactly the metrics BENCHMARK.json declares.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from squadsim import engine, metrics, runner  # noqa: E402
from tracing import Totals, Tracer, self_times  # noqa: E402


def tiny_runs(workload):
    units = wl.run_units(workload, wl.DEFAULT_SEED, tiny=True)
    return [pair for unit in wl.build_units(units) for pair in unit]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_workload_passes_output_gate(workload):
    gate = wl.Gate(wl.load_reference())
    runs = tiny_runs(workload)
    for spec, cfg in runs:
        assert spec.key in gate.reference
        _, outcome, error = wl.timed_run(cfg)
        gate.check(spec, outcome, error)
    assert gate.problems == []
    assert (gate.attempted, gate.failed) == (len(runs), 0)


def test_gate_flags_changed_output():
    spec, cfg = tiny_runs("squad_worst")[0]
    _, outcome, _ = wl.timed_run(cfg)
    gate = wl.Gate(wl.load_reference())
    assert not gate.check(spec, dataclasses.replace(outcome, sha256="0" * 64))
    gate = wl.Gate({})
    assert gate.check(spec, outcome)
    assert not gate.check(spec, dataclasses.replace(outcome, csv="changed"))
    assert not gate.check(spec, None, "raised RuntimeError()")
    assert (gate.attempted, gate.failed) == (3, 2)


def test_reference_pins_headline_event_counts():
    reference = wl.load_reference()
    assert reference["worst_case/squad/n49/s0"]["events"] == 27421
    assert reference["worst_case/alltoall/n49/s0"]["events"] == 54578


def test_uninstall_restores_every_wrapped_callable():
    before = (engine.Simulation.run, engine.ProcessContext.send,
              runner.build_simulation, metrics.GENERIC_CHECKS["delay_bounds"])
    tracer = Tracer()
    tracer.install()
    try:
        assert engine.Simulation.run is not before[0]
    finally:
        tracer.uninstall()
    assert (engine.Simulation.run, engine.ProcessContext.send,
            runner.build_simulation, metrics.GENERIC_CHECKS["delay_bounds"]) == before


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_span_accounting_and_repeatable_counts(workload):
    tracer = Tracer()
    tracer.install()
    try:
        calls = []
        for _ in range(2):
            totals = Totals()
            runs = tiny_runs(workload)
            for index, (_, cfg) in enumerate(runs):
                tracer.begin_run(str(index))
                tracer.span("run", wl.execute, cfg)
                spans = list(tracer.spans)
                for (_, start, end, parent), own in zip(spans, self_times(spans)):
                    assert own >= 0
                    if parent >= 0:
                        _, p_start, p_end, _ = spans[parent]
                        assert p_start <= start <= end <= p_end
                totals.add(spans)
            calls.append(dict(totals.calls))
    finally:
        tracer.uninstall()
    assert calls[0] == calls[1]
    assert calls[0]["engine.run"] == len(runs)
    assert calls[0]["metrics.report"] == len(runs)


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=600, cwd=cwd)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec[section]}
    done = run_bench("--workload", "random_mix", "--seed", "0",
                     "--seconds", "0.5", "--trace", str(trace))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_squadsim_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "random_mix", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert "correct" not in done.stdout
