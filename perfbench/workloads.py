"""Run lists of the benchmark workloads, and the per-run output gate.

A workload is a fixed list of scenario runs made from the workload seed.
Each run is driven the way ``squadsim.cli.main`` drives one: scenario
builder -> ``runner.run_scenario`` -> ``MetricsReport.csv_row``, with no
trace file written. The builders are called while the list is set up; only
``run_scenario`` and ``csv_row`` are timed.

Lists are made of units. A unit keeps the mix of system sizes the workload
wants, so a run cut at a unit boundary has the same mix as a whole pass.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import squadsim  # noqa: E402
from squadsim import adversary, runner  # noqa: E402

if not Path(squadsim.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"squadsim was imported from {squadsim.__file__}, "
                      f"not from {SRC}")

DEFAULT_SEED = 0
REFERENCE_FILE = HERE / "reference.json"

# Sweep workloads: per unit four runs at the large size and one at the
# small size, so the median run is always a large one, near the middle of
# the large runs.
SWEEP_SIZES = {False: (49, 25), True: (7, 4)}
SWEEP_LARGE_PER_UNIT = 4
SWEEP_UNITS = 2
# random_mix: per unit five runs at n=4 and one at n=13, which gives the
# 300 x n=4 plus 60 x n=13 list of the invariant sweep.
RANDOM_SIZES = {False: (4, 13), True: (4, 7)}
RANDOM_SMALL_PER_UNIT = 5
RANDOM_UNITS = {False: 60, True: 2}

WORKLOADS = ("squad_worst", "alltoall_worst", "random_mix")


@dataclass(frozen=True)
class RunSpec:
    """One scenario run: an ``adversary`` builder called as
    ``builder(n, seed, protocol)``."""

    builder: str
    protocol: str
    n: int
    seed: int

    @property
    def key(self) -> str:
        return f"{self.builder}/{self.protocol}/n{self.n}/s{self.seed}"

    def build(self):
        # looked up at call time so that a traced process sees its wrapper
        return getattr(adversary, self.builder)(self.n, self.seed, self.protocol)


def _sweep_units(protocol: str, seed: int, tiny: bool) -> list[list[RunSpec]]:
    large, small = SWEEP_SIZES[tiny]
    per = SWEEP_LARGE_PER_UNIT
    units = []
    for k in range(SWEEP_UNITS):
        first = per * SWEEP_UNITS * seed + per * k
        unit = [RunSpec("worst_case", protocol, large, first + i) for i in range(per)]
        unit.insert(per // 2, RunSpec("worst_case", protocol, small,
                                      SWEEP_UNITS * seed + k))
        units.append(unit)
    return units


def _random_units(seed: int, tiny: bool) -> list[list[RunSpec]]:
    small, large = RANDOM_SIZES[tiny]
    count = RANDOM_UNITS[tiny]
    per = RANDOM_SMALL_PER_UNIT
    units = []
    for k in range(count):
        first = per * count * seed + per * k
        unit = [RunSpec("randomized", "raresync-quad", small, first + i)
                for i in range(per)]
        unit.append(RunSpec("randomized", "raresync-quad", large, count * seed + k))
        units.append(unit)
    return units


def run_units(workload: str, seed: int, tiny: bool = False) -> list[list[RunSpec]]:
    """The run list of ``workload`` for ``seed``, grouped in units."""
    if workload == "squad_worst":
        return _sweep_units("squad", seed, tiny)
    if workload == "alltoall_worst":
        return _sweep_units("alltoall", seed, tiny)
    if workload == "random_mix":
        return _random_units(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def build_units(units: list[list[RunSpec]]) -> list[list[tuple[RunSpec, object]]]:
    """Call the scenario builders: the set-up of one pass over the list."""
    return [[(spec, spec.build()) for spec in unit] for unit in units]


def execute(cfg):
    """The timed part of one run."""
    result = runner.run_scenario(cfg)
    return result, result.report.csv_row()


@dataclass(frozen=True)
class Outcome:
    """What one run produced, as far as the output gate compares it."""

    csv: str
    sha256: str
    events: int
    sends: int
    bytes: int
    decided: bool
    violations: int

    def problem(self) -> str | None:
        if not self.decided:
            return "did not decide"
        if self.violations:
            return f"{self.violations} invariant violations"
        return None

    def reference_fields(self) -> dict:
        return {"csv": self.csv, "sha256": self.sha256, "events": self.events}


def outcome_of(result, row: str) -> Outcome:
    """Digest a run's trace exactly as ``cli.main`` would write it."""
    text = result.trace.serialize()
    digest, size = hashlib.sha256(), 0
    for i in range(0, len(text), 1 << 20):   # no second full copy as bytes
        chunk = text[i:i + (1 << 20)].encode()
        digest.update(chunk)
        size += len(chunk)
    events = result.trace.events
    return Outcome(csv=row, sha256=digest.hexdigest(), events=len(events),
                   sends=sum(1 for ev in events if ev.kind in ("send", "byz")),
                   bytes=size,
                   decided=result.report.decided,
                   violations=len(result.report.violations))


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())["runs"]


class Gate:
    """Checks every run: it decides with no violation, it repeats the
    output of the first run with the same key in this process, and, where
    the reference holds the key, it matches the recorded CSV row, trace
    SHA-256 and event count."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.seen: dict[str, Outcome] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, spec: RunSpec, outcome: Outcome | None,
              error: str | None = None) -> bool:
        self.attempted += 1
        problem = error or outcome.problem()
        if problem is None:
            first = self.seen.setdefault(spec.key, outcome)
            if first != outcome:
                problem = "output differs from an earlier run of the same input"
        if problem is None and spec.key in self.reference:
            if self.reference[spec.key] != outcome.reference_fields():
                problem = "output differs from the recorded reference"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{spec.key}: {problem}")
        return problem is None


def timed_run(cfg, call=execute):
    """Run ``cfg`` through ``call``; returns the seconds the call took, the
    run's outcome (digested after the clock stops) and an error, if any.
    The run's trace is freed when this returns."""
    start = time.perf_counter()
    try:
        result, row = call(cfg)
    except Exception as exc:  # a raising run is a failed run
        return time.perf_counter() - start, None, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    return elapsed, outcome_of(result, row), None
