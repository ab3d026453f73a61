"""Build and execute one simulation from a scenario configuration. The
runner only wires: ``adversary.build_node`` builds every process's node."""

from __future__ import annotations

from dataclasses import dataclass

from .adversary import ScenarioConfig, build_node
from .engine import Simulation
from .metrics import MetricsReport, build_report
from .trace import Trace


@dataclass
class RunResult:
    config: ScenarioConfig
    trace: Trace
    report: MetricsReport
    simulation: Simulation


def build_simulation(cfg: ScenarioConfig) -> Simulation:
    sim = Simulation(cfg.n, cfg.f, cfg.gst, cfg.delta, cfg.policy,
                     seed=cfg.seed, byzantine=cfg.byzantine, clocks=cfg.clocks)
    for pid in range(1, cfg.n + 1):
        sim.add_node(pid, build_node(cfg, pid, sim.crypto), cfg.start_times[pid])
    return sim


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    sim = build_simulation(cfg)
    trace = sim.run(cfg.horizon)
    report = build_report(trace, cfg, sim.crypto)
    return RunResult(cfg, trace, report, sim)
