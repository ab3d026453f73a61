"""Deterministic partial-synchrony simulator and protocol library for
epoch-based view synchronization and quadratic-communication consensus."""

from .adversary import (ScenarioConfig, equivocate, happy, randomized,
                        scenario_s, worst_case)
from .crypto import (CryptoSystem, MixedDigests, PartialSignature,
                     SchemeConfig, ThresholdSignature, ThresholdTooSmall)
from .engine import AdversaryViolation, ProtocolError, Simulation
from .metrics import (MetricsReport, build_report, check_invariants,
                      count_words, facts_of)
from .runner import RunResult, build_simulation, run_scenario
from .timebase import ClockModel, SimTime
from .trace import Trace, TraceEvent

__all__ = [
    "ScenarioConfig", "happy", "worst_case", "scenario_s", "equivocate",
    "randomized", "CryptoSystem", "SchemeConfig", "PartialSignature",
    "ThresholdSignature", "ThresholdTooSmall", "MixedDigests",
    "AdversaryViolation", "ProtocolError", "Simulation", "MetricsReport",
    "build_report", "check_invariants", "count_words", "facts_of", "RunResult",
    "build_simulation", "run_scenario", "ClockModel", "SimTime",
    "Trace", "TraceEvent",
]
