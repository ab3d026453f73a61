"""Build and execute one simulation from a scenario configuration."""

from __future__ import annotations

from dataclasses import dataclass

from .adversary import (CertAttackNode, EquivocatingCore, ScenarioConfig,
                        SilentNode, SpamEnterEpochNode)
from .consensus import PROTOCOLS, ProtocolNode
from .engine import Simulation
from .metrics import MetricsReport, build_report
from .trace import Trace


@dataclass
class RunResult:
    config: ScenarioConfig
    trace: Trace
    report: MetricsReport
    simulation: Simulation


def _protocol_node(cfg: ScenarioConfig, sim: Simulation, pid: int,
                   core_factory=None) -> ProtocolNode:
    synchronizer, certified = PROTOCOLS[cfg.protocol]
    return ProtocolNode(
        pid, cfg.n, cfg.f, sim.crypto, cfg.proposals[pid],
        synchronizer=synchronizer, delta=cfg.delta,
        view_duration=cfg.view_duration,
        certified=certified, core_factory=core_factory)


def _byzantine_node(cfg: ScenarioConfig, sim: Simulation, pid: int):
    if cfg.strategy == "silent":
        return SilentNode()
    if cfg.strategy == "spam_enter_epoch":
        return SpamEnterEpochNode(cfg.f, cfg.delta)
    if cfg.strategy == "cert_attack":
        return CertAttackNode(pid, cfg.f)
    if cfg.strategy == "equivocate":
        return _protocol_node(cfg, sim, pid, core_factory=EquivocatingCore)
    raise ValueError(f"unknown strategy {cfg.strategy!r}")


def build_simulation(cfg: ScenarioConfig) -> Simulation:
    sim = Simulation(cfg.n, cfg.f, cfg.gst, cfg.delta, cfg.policy,
                     seed=cfg.seed, byzantine=cfg.byzantine, clocks=cfg.clocks)
    for pid in range(1, cfg.n + 1):
        if pid in cfg.byzantine:
            node = _byzantine_node(cfg, sim, pid)
        else:
            node = _protocol_node(cfg, sim, pid)
        sim.add_node(pid, node, cfg.start_times[pid])
    return sim


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    sim = build_simulation(cfg)
    trace = sim.run(cfg.horizon)
    report = build_report(trace, cfg, sim.crypto)
    return RunResult(cfg, trace, report, sim)
